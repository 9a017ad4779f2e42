"""Discrepancy routes, genus reports, and the Jacobian comparisons."""

import dataclasses
import json
import pathlib
import sys
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import cidcurve
import cidcurve.cli
from cidcurve import (
    CurveInput,
    Field,
    Ideal,
    PolyRing,
    cid_aci,
    cid_direct,
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
    quotient,
    residual,
    transversality_count,
    vdim,
)
from cidcurve import discrepancy as discrepancy_module
from cidcurve import hilbert as hilbert_module
from cidcurve import ideals as ideals_module
from cidcurve.errors import (
    BadCodim,
    ChartMeetsIntersection,
    NotContained,
    NotSmooth,
    NotSmoothableRoute,
    OutOfHypothesis,
    RouteDisagreement,
    TooManySubsets,
    WrongCharacteristic,
)
from cidcurve.groebner import GroebnerBasis
from cidcurve.ideals import chart_ideal
from cidcurve.polynomials import Chart
from cidcurve.rng import SplitMix64

from conftest import exact_colon, rnc_curve, twisted_cubic_gens

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


# --- the minor kernel -------------------------------------------------


def _cofactor_determinant(rows):
    """Recursive cofactor expansion in polynomial arithmetic: the
    oracle for the minor kernel."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = rows[0][0].ring.zero()
    for k in range(size):
        if rows[0][k]:
            minor = [[row[j] for j in range(size) if j != k]
                     for row in rows[1:]]
            term = rows[0][k] * _cofactor_determinant(minor)
            total = total + term if k % 2 == 0 else total - term
    return total


def _oracle_minor(rows, ri, ci):
    return _cofactor_determinant([[rows[i][j] for j in ci] for i in ri])


def _check_field_type(f):
    field = f.ring.field
    for c in f.terms.values():
        if field.characteristic:
            assert type(c) is int and 0 < c < field.characteristic
        else:
            assert type(c) is Fraction and c


KERNEL_FIELDS = {"QQ": QQ, "Fp32003": Field.prime_field(32003),
                 "F7": Field.prime_field(7), "F2": Field.prime_field(2)}


@st.composite
def _matrices(draw):
    """An r x c matrix (1 <= r <= c <= 4) of polynomials in x, y, z of
    degree <= 2, with zero entries and zero rows; over QQ the
    coefficients have real denominators, and over F_7 and F_2 the
    products cancel modulo p."""
    field = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    ring = PolyRing(field, ("x", "y", "z"))
    monomials = [e for e in ((a, b, c) for a in range(3) for b in range(3)
                             for c in range(3)) if sum(e) <= 2]
    if field.characteristic:
        coefficient = st.integers(0, field.characteristic - 1).map(
            field.from_int)
    else:
        coefficient = st.builds(Fraction, st.integers(-6, 6),
                                st.integers(1, 6))
    terms = st.dictionaries(st.sampled_from(monomials), coefficient,
                            min_size=1, max_size=4).map(ring.polynomial)

    def entry():
        return ring.zero() if draw(st.integers(0, 4)) == 0 else draw(terms)

    r = draw(st.integers(1, 4))
    c = draw(st.integers(r, 4))
    rows = []
    for _ in range(r):
        if draw(st.integers(0, 7)) == 0:
            rows.append([ring.zero()] * c)
        else:
            rows.append([entry() for _ in range(c)])
    return rows


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rows=_matrices(), data=st.data())
def test_minor_kernel_matches_cofactor_expansion(rows, data):
    r, c = len(rows), len(rows[0])
    pairs = [(ri, ci) for k in range(1, r + 1)
             for ri in combinations(range(r), k)
             for ci in combinations(range(c), k)]
    pairs = data.draw(st.permutations(pairs))
    got = list(discrepancy_module._minors(rows, pairs))
    assert got == [_oracle_minor(rows, ri, ci) for ri, ci in pairs]
    square = [row[:r] for row in rows]
    det = discrepancy_module._determinant(square)
    assert det == _cofactor_determinant(square)
    for f in got + [det]:
        assert f.ring == rows[0][0].ring
        _check_field_type(f)


def _oracle_stream(gens, codim, seed):
    """The Jacobian's codim-minors in the stream's order: row subsets
    outside, column subsets inside, shuffled by the seed."""
    ring = gens[0].ring
    pairs = [(ri, ci) for ri in combinations(range(len(gens)), codim)
             for ci in combinations(range(ring.arity), codim)]
    if seed is not None:
        rng = SplitMix64(seed ^ 0x3140085)
        for k in range(len(pairs) - 1, 0, -1):
            j = rng.randint(0, k)
            pairs[k], pairs[j] = pairs[j], pairs[k]
    rows = [[g.derivative(j) for j in range(ring.arity)] for g in gens]
    return [_oracle_minor(rows, ri, ci) for ri, ci in pairs]


@pytest.mark.parametrize("seed", [None, 0, 5])
@pytest.mark.parametrize("field", [QQ, Field.prime_field(7)],
                         ids=["QQ", "F7"])
@pytest.mark.parametrize("n", [3, 4])
def test_minor_stream_order_matches_the_oracle(n, field, seed):
    curve = rnc_curve(n, field)
    gens = list(curve.generators)
    # a rational row multiplier: the stream must divide it back out
    gens[0] = gens[0].scale(field.from_fraction(Fraction(3, 2)))
    got = list(discrepancy_module._minor_stream(gens, n - 1, seed))
    assert got == _oracle_stream(gens, n - 1, seed)


MINORS = pathlib.Path(__file__).resolve().parent / "jacobian_minors.json"


def test_jacobian_minor_bytes_are_pinned():
    """The printed generators of the witness Jacobian ideals of RNC4 and
    RNC5 (seed 0) and of the twisted cubic's own Jacobian ideal, as the
    cofactor expansion gave them."""
    expected = json.loads(MINORS.read_text())
    got = {}
    for name, field in (("QQ", QQ), ("Fp32003", Field.prime_field(32003))):
        for n in (4, 5):
            curve = rnc_curve(n, field)
            witness = construct_ci(curve, seed=0)
            i_x = curve.ideal()
            scheme = discrepancy_module._jacobian_scheme(i_x, witness.F)
            got[f"rnc{n}-{name}"] = [
                str(g) for g in scheme.generators[len(i_x.generators):]]
        cubic = rnc_curve(3, field)
        got[f"twisted_cubic-{name}"] = [
            str(g) for g in jacobian_ideal(cubic.generators, 2).generators]
    assert got == expected


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


def test_aci_route_needs_n_generators():
    # the aci count prod d_i - d_n deg X describes a curve cut out by n
    # forms in P^n; on the (2,3) complete intersection it would read
    # 6 - 3*6 = -12
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    curve = CurveInput(ring, [ring.parse("x0*x3 - x1*x2"),
                              ring.parse("x0^3 + x1^3 + x2^3 + x3^3")])
    witness = construct_ci(curve, seed=0)
    with pytest.raises(OutOfHypothesis):
        cid_routes(curve, witness, route="aci")
    assert set(cid_routes(curve, witness).values()) == {0}


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
    count, all_reduced = transversality_count(twisted_cubic, witness)
    assert count == 2
    assert all_reduced
    f5 = Field.prime_field(5)
    ring5 = PolyRing(f5, ("x0", "x1", "x2", "x3"))
    curve5 = CurveInput(ring5, twisted_cubic_gens(ring5))
    witness5 = construct_ci(curve5, seed=0)
    with pytest.raises(WrongCharacteristic):
        transversality_count(curve5, witness5)


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
    _spy(monkeypatch, cidcurve.ideals.quotient, colons)
    _spy(monkeypatch, cidcurve.discrepancy._jacobian_scheme, jacobians)
    _spy(monkeypatch, cidcurve.discrepancy.cid_lci_general, lci)
    code = cidcurve.cli.main(["genus", "--input", RNC4, "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    witness = payload["result"]["witness"]
    assert all(witness["tests"].values())
    # W = (I_Z : I_X) per attempt, and no back colon (I_Z : I_W)
    assert len(colons) == witness["attempts"]
    builds = [args for args in jacobians
              if [str(g) for g in args[1]] == witness["forms"]]
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


def test_direct_route_draws_no_curve_minors(monkeypatch, capsys, tmp_path):
    # only "auto" reads the smoothness decision, so a single selected
    # route never takes the curve's Jacobian minors for it
    calls = []
    _spy(monkeypatch, cidcurve.discrepancy._smooth_on_witness, calls)
    path = tmp_path / "nodal.ring"
    path.write_text("ring/1 over QQ vars x0 x1 x2 x3\n"
                    "ideal X = x1^2*x2 - x0^3 - x0^2*x2, x3;\n")
    code = cidcurve.cli.main(["cid", "--input", str(path), "--route",
                              "direct", "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["result"]["routes"] == {"direct": 0}
    assert calls == []


# --- certificates from data in hand ------------------------------------


def _four_lines():
    """I_Z = (x0*x2, x1*x3) is the complete intersection of four lines;
    J = (x0, x1) is one of them, and (I_Z : J) is the other three."""
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    return ring, Ideal(ring, [x0 * x2, x1 * x3]), Ideal(ring, [x0, x1])


class _ScriptedDraws:
    """Stands in for the colon's SplitMix64: the first combination is
    g = x0, one generator of J, and the second is x0 + 2*x1."""

    def __init__(self, seed):
        self.values = iter((1, 0, 1, 2))

    def vector(self, field, length):
        return tuple(field.from_int(next(self.values))
                     for _ in range(length))


def test_linkage_colon_rejects_a_larger_candidate(monkeypatch):
    ring, i_z, j = _four_lines()
    candidates = []
    real = ideals_module.colon_principal

    def spy(a, g):
        out = real(a, g)
        candidates.append((g, hilbert_module.hilbert_series(out)))
        return out

    products = []
    real_contains = GroebnerBasis.contains

    def contains(self, f):
        if self is i_z.gb():
            products.append(f)
        return real_contains(self, f)

    monkeypatch.setattr(ideals_module, "colon_principal", spy)
    monkeypatch.setattr(ideals_module, "SplitMix64", _ScriptedDraws)
    monkeypatch.setattr(GroebnerBasis, "contains", contains)
    result = residual(i_z, j)
    monkeypatch.undo()
    # the smaller degree alone rejects the first candidate
    assert products == []
    # (I_Z : x0) is two of the lines: right dimension, degree 2, not 3
    (g1, first), (g2, second) = candidates
    assert g1 == ring.variable(0)
    assert (first.krull_dim, first.degree) == (2, 2)
    assert (second.krull_dim, second.degree) == (2, 3)
    assert ideal_equal(result, exact_colon(i_z, j))
    assert hilbert_module.proj_degree(result) == 4 - 1


def _spy_linked_degrees(monkeypatch):
    degrees = []
    real = ideals_module._linked_degree

    def spy(a, b):
        degree = real(a, b)
        degrees.append(degree)
        return degree

    monkeypatch.setattr(ideals_module, "_linked_degree", spy)
    return degrees


def test_residual_certifies_only_complete_intersections(monkeypatch):
    ring, i_z, j = _four_lines()
    x0, x1, x2, x3 = ring.variables()
    degrees = _spy_linked_degrees(monkeypatch)
    assert ideal_equal(residual(i_z, j), exact_colon(i_z, j))
    # three generators in codimension 2: not a complete intersection,
    # so the colon takes the product test
    extra = Ideal(ring, [x0 * x2, x1 * x3, x0 * x3])
    assert ideal_equal(residual(extra, j), exact_colon(extra, j))
    # J a point, not a curve: its degree says nothing about the colon
    point = Ideal(ring, [x0, x1, x3])
    assert ideal_equal(residual(i_z, point), exact_colon(i_z, point))
    # J not containing I_Z: linkage says nothing either
    assert ideal_equal(quotient(i_z, Ideal(ring, [x0, x2 + x3])),
                       exact_colon(i_z, Ideal(ring, [x0, x2 + x3])))
    # J = I_Z: the colon has degree 0, so it is the unit ideal, with no
    # fallback to the exact fold
    fallbacks = []
    real_fold = ideals_module._fold

    def fold(a, gens, principal):
        fallbacks.append(gens)
        return real_fold(a, gens, principal)

    monkeypatch.setattr(ideals_module, "_fold", fold)
    assert residual(i_z, i_z).is_unit()
    assert fallbacks == []
    assert degrees == [3, None, None, None, 0]


def _skew_lines():
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    return CurveInput(ring, [ring.parse(f"({u})*({v})")
                             for u in ("x0 - 2*x2", "x1 - 3*x3")
                             for v in ("x2 - 5*x0", "x3 - 7*x1")])


def _p3_curve(*gens):
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    return CurveInput(ring, [ring.parse(g) for g in gens])


def _plane_curve(gen):
    ring = PolyRing(QQ, ("x", "y", "z"))
    return CurveInput(ring, [ring.parse(gen)])


LENGTH_CURVES = {
    "twisted_cubic": lambda: rnc_curve(3),
    "rnc4": lambda: rnc_curve(4),
    "ci_2_3": lambda: _p3_curve("x0*x3 - x1*x2",
                                "x0^3 + x1^3 + x2^3 + x3^3"),
    "skew_lines": _skew_lines,
    "nodal_cubic_in_p3": lambda: _p3_curve("x1^2*x2 - x0^3 - x0^2*x2",
                                           "x3"),
}


@pytest.mark.parametrize("name", sorted(LENGTH_CURVES))
def test_projective_lengths_match_the_chart(name):
    # the chart route, kept as the oracle: dehomogenize at h = 1, which
    # certification made miss the witness Jacobian scheme on X, and
    # count standard monomials of the affine ideal
    curve = LENGTH_CURVES[name]()
    i_x = curve.ideal()
    witness = construct_ci(curve, seed=0)
    chart = Chart.from_form(witness.h)
    meet = ideal_sum(i_x, witness.i_w)
    assert cid_direct(i_x, witness.i_w) == vdim(chart_ideal(meet, chart))
    assert discrepancy_module._projective_length(witness.on_curve) == \
        vdim(chart_ideal(witness.on_curve, chart))


SMOOTHNESS_CURVES = {
    "twisted_cubic": lambda: rnc_curve(3),
    "rnc4": lambda: rnc_curve(4),
    "fermat_cubic": lambda: _plane_curve("x^3 + y^3 + z^3"),
    "skew_lines": _skew_lines,
    "nodal_cubic": lambda: _plane_curve("y^2*z - x^2*(x + z)"),
    "cuspidal_cubic": lambda: _plane_curve("y^2*z - x^3"),
    "nodal_cubic_in_p3": lambda: _p3_curve("x1^2*x2 - x0^3 - x0^2*x2",
                                           "x3"),
}


@pytest.mark.parametrize("name", sorted(SMOOTHNESS_CURVES))
def test_smoothness_on_the_witness_scheme(name):
    curve = SMOOTHNESS_CURVES[name]()
    witness = construct_ci(curve, seed=0)
    on_witness = discrepancy_module._smooth_on_witness(curve.ideal(), witness)
    # a fresh ideal, so the cached answer is not read back
    plain = is_smooth_curve(Ideal(curve.ring, list(curve.generators)))
    assert on_witness == plain


@pytest.mark.parametrize("name", ["cuspidal_cubic", "nodal_cubic",
                                  "nodal_cubic_in_p3"])
@pytest.mark.parametrize("seed", [0, 1])
def test_omega_matches_jacobian_on_singular_complete_intersections(name,
                                                                   seed):
    # Z = X, so W is empty and the omega-Jacobian is X's own Jacobian
    # scheme; the curve is singular, so the ideals are compared
    curve = SMOOTHNESS_CURVES[name]()
    witness = construct_ci(curve, seed=seed)
    assert witness.i_w.is_unit()
    assert not discrepancy_module._smooth_on_witness(curve.ideal(), witness)
    assert omega_matches_jacobian(curve.ideal(), witness, seed=seed)


# a smooth complete intersection of two cubics in P^3, with W empty
CI33 = ("x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2",
        "x0^3 + 2*x1^3 + 3*x2^3 + 4*x3^3 + x1*x2*x3")


def test_smooth_complete_intersection_builds_no_witness_scheme_basis():
    # W is empty, so the witness Jacobian scheme on X is screened mod p:
    # its image certifies the empty scheme, and no exact basis of it is
    # ever built, by the genus report or the omega comparison
    curve = _p3_curve(*CI33)
    witness = construct_ci(curve, seed=0)
    report = genus_report(curve, witness)
    assert report.cid_routes == {"direct": 0, "smooth_jacobian": 0,
                                 "lci_general": 0}
    assert report.all_checks_pass() and report.p_a_hilbert == 10
    assert omega_matches_jacobian(curve.ideal(), witness)
    assert witness.on_curve._gb_cache == {}
    assert "mod_p" in witness.on_curve._data_cache


def _exact_dimension_at_most(a, bound):
    return hilbert_module.krull_dimension(a) <= bound


@pytest.mark.parametrize("name", ["twisted_cubic", "nodal_cubic",
                                  "nodal_cubic_in_p3"])
def test_screen_keeps_the_exact_verdicts(name, monkeypatch):
    # smoothness, the Jacobian length and the omega comparison, each on a
    # fresh witness, with the mod-p screen and with the exact dimension
    curve = SMOOTHNESS_CURVES[name]()

    def verdicts():
        witness = construct_ci(curve, seed=0)
        i_x = Ideal(curve.ring, list(curve.generators))
        smooth = discrepancy_module._smooth_on_witness(i_x, witness)
        try:
            length = discrepancy_module.cid_smooth_jacobian(i_x, witness)
        except NotSmooth:
            length = None
        omega = omega_matches_jacobian(i_x, witness)
        return witness, (smooth, length, omega)

    witness, screened = verdicts()
    # no image is built: W is not empty on the twisted cubic, and on the
    # nodal cubics x0 meets the node, so choosing the chart already read
    # the scheme's exact dimension
    assert "mod_p" not in witness.on_curve._data_cache
    monkeypatch.setattr(discrepancy_module, "dimension_at_most",
                        _exact_dimension_at_most)
    _, exact = verdicts()
    assert screened == exact == {"twisted_cubic": (True, 2, True),
                                 "nodal_cubic": (False, None, True),
                                 "nodal_cubic_in_p3": (False, None, True)}[name]


def test_chart_through_the_node_is_rejected():
    # the line x = 0 passes through the node (0:0:1) of the nodal cubic,
    # a point of the witness Jacobian scheme on X
    curve = SMOOTHNESS_CURVES["nodal_cubic"]()
    witness = construct_ci(curve, seed=0)
    through_node = dataclasses.replace(witness, h=curve.ring.variable(0))
    with pytest.raises(ChartMeetsIntersection):
        transversality_count(curve, through_node)


def test_routes_disagree_on_a_foreign_witness():
    # the (2, 3) complete intersection's witness does not link the nodal
    # cubic in P^3, and the auto routes say so
    nodal = LENGTH_CURVES["nodal_cubic_in_p3"]()
    foreign = construct_ci(LENGTH_CURVES["ci_2_3"](), seed=0)
    with pytest.raises(RouteDisagreement) as caught:
        cid_routes(nodal, foreign)
    message = str(caught.value)
    assert "'direct': 0" in message
    assert "'smooth_jacobian': 9" in message


def test_witness_smoothness_stays_off_the_public_answer():
    # a complete-intersection witness has an empty Jacobian scheme on its
    # own curve; handed in with a singular curve it must not make the
    # public smoothness answer for that curve say smooth
    nodal = LENGTH_CURVES["nodal_cubic_in_p3"]()
    foreign = construct_ci(LENGTH_CURVES["ci_2_3"](), seed=0)
    discrepancy_module._route_values(nodal, foreign, "smooth", False)
    assert is_smooth_curve(nodal.ideal()) is False


def test_genus_certifies_from_data_in_hand(monkeypatch, capsys):
    # on RNC4 the chart is never used for a length, the linkage colons
    # are certified by degree, and smoothness needs few curve minors
    charts, products, minors = [], [], []
    _spy(monkeypatch, cidcurve.ideals.chart_ideal, charts)
    depth = []
    real_colon = cidcurve.ideals.quotient

    def colon(a, *args, **kwargs):
        depth.append(a)
        try:
            return real_colon(a, *args, **kwargs)
        finally:
            depth.pop()

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("cidcurve") and \
                getattr(module, "quotient", None) is real_colon:
            monkeypatch.setattr(module, "quotient", colon)
    real_contains = GroebnerBasis.contains

    def contains(self, f):
        # the product test reduces modulo the dividend's basis; the
        # containment check of the divisor's basis is not counted
        if depth and self is depth[-1].gb():
            products.append(f)
        return real_contains(self, f)

    monkeypatch.setattr(GroebnerBasis, "contains", contains)
    real_stream = discrepancy_module._minor_stream

    def stream(gens, codim, seed=None):
        for minor in real_stream(gens, codim, seed):
            if len(gens) == 6:  # RNC4's own generators, not the witness
                minors.append(minor)
            yield minor

    monkeypatch.setattr(discrepancy_module, "_minor_stream", stream)
    code = cidcurve.cli.main(["genus", "--input", RNC4, "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["checks"] == dict.fromkeys(payload["checks"], True)
    assert charts == []
    assert products == []
    assert 0 < len(minors) < 200


# --- the lci route on singular curves, with no chart ------------------


def _twisted_cubic_and_line():
    """The twisted cubic together with the line x0 = x1 = 0, which meets
    it only at (0:0:0:1), tangent to it there: a singular local complete
    intersection that is not a complete intersection."""
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x0, x1 = ring.variable(0), ring.variable(1)
    union = cidcurve.intersect(Ideal(ring, twisted_cubic_gens(ring)),
                               Ideal(ring, [x0, x1]))
    return CurveInput(ring, list(union.generators))


def _coordinate_axes():
    return _p3_curve("x1*x2", "x1*x3", "x2*x3")


@pytest.mark.parametrize("seed", [0, 1])
def test_lci_route_on_the_cubic_and_a_tangent_line(seed):
    curve = _twisted_cubic_and_line()
    witness = construct_ci(curve, seed=seed)
    assert cid_routes(curve, witness, route="lci") == {"lci_general": 4}
    assert cid_routes(curve, witness, assume_lci=True) == {
        "direct": 4, "lci_general": 4, "aci": 4}


@pytest.mark.parametrize("seed", [0, 1])
def test_lci_route_on_the_coordinate_axes(seed):
    # three concurrent lines are not a local complete intersection: the
    # saturation strips the whole length, and "auto" says so
    curve = _coordinate_axes()
    witness = construct_ci(curve, seed=seed)
    assert cid_routes(curve, witness, route="lci") == {"lci_general": 0}
    with pytest.raises(NotSmoothableRoute):
        cid_routes(curve, witness, assume_lci=True)
    assert cid_routes(curve, witness) == {"direct": 2, "aci": 2}


def test_lci_route_and_transversality_build_no_chart(monkeypatch):
    charts, forms = [], []
    _spy(monkeypatch, cidcurve.ideals.chart_ideal, charts)
    real_from_form = Chart.from_form.__func__

    def from_form(cls, h):
        forms.append(h)
        return real_from_form(cls, h)

    monkeypatch.setattr(Chart, "from_form", classmethod(from_form))
    # certification picks the chart h; only the routes must not use one
    curves = [_twisted_cubic_and_line(), _coordinate_axes(), rnc_curve(4)]
    witnesses = [construct_ci(curve, seed=0) for curve in curves]
    twisted = rnc_curve(3)
    transversal = cidcurve.construct_ci_transversal(twisted, seed=0)
    charts.clear()
    forms.clear()
    for curve, witness in zip(curves, witnesses):
        cid_routes(curve, witness, route="lci")
    assert transversality_count(twisted, transversal) == (2, True)
    assert charts == []
    assert forms == []


# --- the Jacobian scheme and its memo ---------------------------------


CAUCHY_BINET_CURVES = {
    "twisted_cubic": lambda: rnc_curve(3),
    "rnc4": lambda: rnc_curve(4),
    "nodal_cubic_in_p3": SMOOTHNESS_CURVES["nodal_cubic_in_p3"],
    "coordinate_axes": _coordinate_axes,
    "twisted_cubic_and_line": _twisted_cubic_and_line,
    "nodal_cubic": SMOOTHNESS_CURVES["nodal_cubic"],
    "cuspidal_cubic": SMOOTHNESS_CURVES["cuspidal_cubic"],
    "fermat_cubic": SMOOTHNESS_CURVES["fermat_cubic"],
}


@pytest.mark.parametrize("name", sorted(CAUCHY_BINET_CURVES))
@pytest.mark.parametrize("seed", [0, 1])
def test_witness_scheme_plus_curve_minors_is_the_singular_locus(name, seed):
    # F lies in I_X, so by Cauchy-Binet the witness Jacobian scheme on X
    # contains X's singular locus, and the curve's minors added to it cut
    # out exactly that locus: `_smooth_on_witness` rests on this
    curve = CAUCHY_BINET_CURVES[name]()
    i_x = curve.ideal()
    witness = construct_ci(curve, seed=seed)
    locus = discrepancy_module._jacobian_scheme(i_x, i_x.generators)
    on_curve = witness.on_curve
    assert all(locus.contains(g) for g in on_curve.generators)
    on_witness = discrepancy_module._jacobian_scheme(on_curve,
                                                     i_x.generators)
    assert ideal_equal(on_witness, locus)


@pytest.mark.parametrize("name", ["twisted_cubic_and_line", "rnc4"])
def test_smoothness_verdicts_are_kept(name, monkeypatch):
    # both answers are kept with their base ideal, so asking again draws
    # no minor
    curve = CAUCHY_BINET_CURVES[name]()
    witness = construct_ci(curve, seed=0)
    drawn = []
    real_stream = discrepancy_module._minor_stream

    def stream(gens, codim, seed=None):
        for minor in real_stream(gens, codim, seed):
            drawn.append(minor)
            yield minor

    monkeypatch.setattr(discrepancy_module, "_minor_stream", stream)
    first = discrepancy_module._smooth_on_witness(curve.ideal(), witness)
    smooth = is_smooth_curve(curve.ideal())
    assert first == smooth == (name == "rnc4")
    assert drawn
    drawn.clear()
    assert discrepancy_module._smooth_on_witness(curve.ideal(),
                                                 witness) == first
    assert is_smooth_curve(curve.ideal()) == smooth
    assert drawn == []


def test_plane_witness_reads_the_cached_singular_locus():
    curve = SMOOTHNESS_CURVES["nodal_cubic"]()
    i_x = curve.ideal()
    witness = construct_ci(curve, seed=0)
    assert witness.on_curve is discrepancy_module._jacobian_scheme(
        i_x, i_x.generators)


def test_smoothness_first_checks_two_minors(monkeypatch):
    # the curve ideal has dimension 2 and each minor lowers it by at most
    # one, so no check comes before two minors
    i_x = rnc_curve(4).ideal()
    checked = []
    real = hilbert_module.krull_dimension

    def krull_dimension(ideal_like):
        checked.append(ideal_like)
        return real(ideal_like)

    monkeypatch.setattr(hilbert_module, "krull_dimension", krull_dimension)
    assert is_smooth_curve(i_x)
    assert checked[0] is i_x
    assert checked[1].generators[:len(i_x.generators)] == i_x.generators
    assert len(checked[1].generators) == len(i_x.generators) + 2
