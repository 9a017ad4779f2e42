"""Discrepancy routes, genus reports, and the Jacobian comparisons."""

import json
import pathlib
import sys
from fractions import Fraction

import pytest
import sympy

import cidcurve
import cidcurve.cli
from cidcurve import (
    CurveInput,
    Field,
    Ideal,
    PolyRing,
    cid_aci,
    cid_routes,
    construct_ci,
    degree_lower_bound,
    genus_report,
    ideal_equal,
    ideal_sum,
    is_smooth_curve,
    jacobian_cover_check,
    jacobian_ideal,
    omega_matches_jacobian,
    residual,
    transversality_count,
)
from cidcurve.errors import (
    BadCodim,
    NotContained,
    NotSmooth,
    OutOfHypothesis,
    TooManySubsets,
    WrongCharacteristic,
)

from conftest import rnc_curve, twisted_cubic_gens

QQ = Field.rationals()
RNC4 = str(pathlib.Path(__file__).resolve().parent.parent
           / "inputs" / "rnc4.ring")


def test_jacobian_ideal_matches_sympy():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    gens = [x**2 * y - z**3, x * z - y**2]
    mine = jacobian_ideal(gens, 2)
    symbols = sympy.symbols("x y z")
    names = dict(zip(("x", "y", "z"), symbols))
    jac = sympy.Matrix([[sympy.diff(sympy.sympify(str(g), names), s)
                         for s in symbols] for g in gens])
    theirs = set()
    for cols in ((0, 1), (0, 2), (1, 2)):
        minor = sympy.expand(jac[:, list(cols)].det())
        if minor != 0:
            theirs.add(sympy.expand(-minor))
            theirs.add(minor)
    for g in mine.generators:
        assert sympy.expand(sympy.sympify(str(g), names)) in theirs


def test_jacobian_ideal_codim_guard():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    with pytest.raises(BadCodim):
        jacobian_ideal([x * y], 2)
    with pytest.raises(BadCodim):
        jacobian_ideal([x * y], 0)


def test_smoothness(twisted_cubic):
    assert is_smooth_curve(twisted_cubic.ideal())
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    node = Ideal(ring, [y**2 * z - x**2 * (x + z)])
    cusp = Ideal(ring, [y**2 * z - x**3])
    fermat = Ideal(ring, [x**3 + y**3 + z**3])
    assert not is_smooth_curve(node)
    assert not is_smooth_curve(cusp)
    assert is_smooth_curve(fermat)


def test_residual_requires_containment(twisted_cubic):
    i_x = twisted_cubic.ideal()
    ring = i_x.ring
    x0 = ring.variable(0)
    with pytest.raises(NotContained):
        residual(Ideal(ring, [x0**2]), i_x)


def test_twisted_cubic_routes(twisted_cubic):
    witness = construct_ci(twisted_cubic, coeff_matrix=((1, 0, 0), (1, 2)))
    values = cid_routes(twisted_cubic, witness)
    assert values == {
        "direct": 2,
        "smooth_jacobian": 2,
        "lci_general": 2,
        "aci": 2,
    }
    # single-route selectors agree
    for route in ("direct", "smooth", "lci", "aci"):
        assert set(cid_routes(twisted_cubic, witness, route=route).values()) \
            == {2}


def test_smooth_route_guard():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    cusp = CurveInput(ring, [y**2 * z - x**3])
    witness = construct_ci(cusp, seed=0)
    with pytest.raises(NotSmooth):
        cid_routes(cusp, witness, route="smooth")


def test_aci_route_closed_form():
    # the product of witness degrees minus the top degree times the
    # curve degree, checked against the twisted cubic numbers
    assert cid_aci((2, 2, 2), 3) == 2
    with pytest.raises(ValueError):
        cid_aci((2, 3), 3)  # degrees must be non-increasing


def test_genus_report_twisted_cubic(twisted_cubic):
    witness = construct_ci(twisted_cubic, seed=0)
    report = genus_report(twisted_cubic, witness)
    assert report.deg_X == 3
    assert report.deg_W == 1
    assert report.deg_Z == 4
    assert report.sigma == 2
    assert report.pi == 4
    assert report.cid == 2
    assert report.p_a_hilbert == 0
    assert report.p_a_formula == 0
    assert report.p_a_W == 0
    assert report.e_X == Fraction(2)
    assert report.all_checks_pass()
    data = report.to_dict()
    assert data["checks"] == {
        "bezout": True,
        "genus_formula": True,
        "peskine_szpiro": True,
        "route_agreement": True,
        "two_e_identity": True,
    }


def test_degree_lower_bound():
    assert degree_lower_bound(3, 2) == 3
    assert degree_lower_bound(3, 3) == Fraction(25, 5)
    with pytest.raises(OutOfHypothesis):
        degree_lower_bound(2, 2)
    with pytest.raises(OutOfHypothesis):
        degree_lower_bound(3, 1)


def test_omega_matches_jacobian(twisted_cubic):
    witness = construct_ci(twisted_cubic, seed=0)
    assert omega_matches_jacobian(twisted_cubic.ideal(), witness)


def test_jacobian_cover_check(twisted_cubic):
    assert jacobian_cover_check(twisted_cubic, seed=0)
    # forcing a rank-dropping coefficient choice must break the cover
    assert not jacobian_cover_check(twisted_cubic, seed=0, degenerate=True)
    with pytest.raises(TooManySubsets):
        jacobian_cover_check(twisted_cubic, seed=0, max_subsets=1)


def test_transversality_twisted_cubic(twisted_cubic):
    from cidcurve import construct_ci_transversal

    witness = construct_ci_transversal(twisted_cubic, seed=0)
    count, all_reduced = transversality_count(twisted_cubic, witness, seed=0)
    assert count == 2
    assert all_reduced
    f5 = Field.prime_field(5)
    ring5 = PolyRing(f5, ("x0", "x1", "x2", "x3"))
    curve5 = CurveInput(ring5, twisted_cubic_gens(ring5))
    witness5 = construct_ci(curve5, seed=0)
    with pytest.raises(WrongCharacteristic):
        transversality_count(curve5, witness5, seed=0)


def test_routes_seed_independent_small():
    curve = rnc_curve(3)
    baseline = None
    for seed in (0, 1, 2):
        witness = construct_ci(curve, seed=seed)
        values = cid_routes(curve, witness)
        assert len(set(values.values())) == 1
        value = next(iter(values.values()))
        baseline = value if baseline is None else baseline
        assert value == baseline == 2


def _spy(monkeypatch, real, calls):
    """Record the arguments of every call to `real` made through any
    cidcurve module's binding of it."""
    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("cidcurve") and \
                getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, spy)


def test_genus_reads_certified_witness(monkeypatch, capsys):
    # certification derives I_W and the witness Jacobian scheme on X
    # once; the report reads them from the witness, and on a smooth
    # curve lci_general is the smooth_jacobian computation
    colons, jacobians, lci = [], [], []
    _spy(monkeypatch, cidcurve.ideals.colon_certified, colons)
    _spy(monkeypatch, cidcurve.discrepancy.jacobian_ideal, jacobians)
    _spy(monkeypatch, cidcurve.discrepancy.cid_lci_general, lci)
    code = cidcurve.cli.main(["genus", "--input", RNC4, "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    witness = payload["result"]["witness"]
    assert all(witness["tests"].values())
    # W = (I_Z : I_X) and the back colon (I_Z : I_W), per attempt
    assert len(colons) == 2 * witness["attempts"]
    builds = [args for args in jacobians
              if [str(g) for g in args[0]] == witness["forms"]]
    assert len(builds) == 1
    assert lci == []
    routes = payload["result"]["cid_routes"]
    assert sorted(routes) == ["direct", "lci_general", "smooth_jacobian"]
    assert set(routes.values()) == {6}


def test_lci_route_computed_when_not_shared(monkeypatch):
    # lci_general reuses the smooth_jacobian value only under "auto" on
    # a smooth curve; on a singular curve, or when selected, it runs
    calls = []
    _spy(monkeypatch, cidcurve.discrepancy.cid_lci_general, calls)
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    nodal = CurveInput(ring, [ring.parse("x1^2*x2 - x0^3 - x0^2*x2"),
                              ring.parse("x3")])
    witness = construct_ci(nodal, seed=0)
    assert cid_routes(nodal, witness) == {"direct": 0}
    assert calls == []
    assert cid_routes(nodal, witness, assume_lci=True) == {
        "direct": 0, "lci_general": 0}
    assert len(calls) == 1
    twisted = rnc_curve(3)
    assert cid_routes(twisted, construct_ci(twisted, seed=0),
                      route="lci") == {"lci_general": 2}
    assert len(calls) == 2
