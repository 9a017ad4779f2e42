"""Discrepancy routes, genus reports, and the Jacobian comparisons."""

import dataclasses
import json
import pathlib
import random
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cidcurve
import cidcurve.cli
from cidcurve import (
    CurveInput,
    Field,
    GREVLEX,
    Ideal,
    PolyRing,
    cid_aci,
    cid_direct,
    cid_routes,
    construct_ci,
    degree_lower_bound,
    genus_report,
    ideal_equal,
    ideal_product,
    ideal_sum,
    is_smooth_curve,
    jacobian_cover_check,
    jacobian_ideal,
    omega_matches_jacobian,
    quotient,
    residual,
    saturate_irrelevant,
    transversality_count,
    vdim,
)
from cidcurve import discrepancy as discrepancy_module
from cidcurve import hilbert as hilbert_module
from cidcurve import ideals as ideals_module
from cidcurve import linkage as linkage_module
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

from conftest import exact_colon, rnc_curve, stopped_runs, twisted_cubic_gens

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
        elif type(c) is int:
            assert c
        else:
            # a rational coefficient is an int exactly when it is integral
            assert type(c) is Fraction and c.denominator > 1


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


def _diagonal_fives(field, entries):
    """A 3 x 3 matrix in x, y, z with x^5 times a unit on the diagonal:
    its determinant reaches x^15 = x^(2^4 - 1), the largest exponent of
    the layout sized for its minors."""
    ring = PolyRing(field, ("x", "y", "z"))
    return [[ring.parse(f) for f in row] for row in entries]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rows=_matrices(), shuffle=st.randoms(use_true_random=False))
@example(rows=_diagonal_fives(QQ, (("1/2*x^5", "y", "0"),
                                   ("1", "x^5", "1/3*z"),
                                   ("x*y", "0", "-x^5"))),
         shuffle=random.Random(0))
@example(rows=_diagonal_fives(KERNEL_FIELDS["F7"], (("2*x^5", "y", "0"),
                                                    ("1", "x^5", "z"),
                                                    ("x*y", "0", "3*x^5"))),
         shuffle=random.Random(0))
def test_minor_kernel_matches_cofactor_expansion(rows, shuffle):
    r, c = len(rows), len(rows[0])
    pairs = [(ri, ci) for k in range(1, r + 1)
             for ri in combinations(range(r), k)
             for ci in combinations(range(c), k)]
    shuffle.shuffle(pairs)
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
    outside, column subsets inside, shuffled by the seed front to back,
    position k swapped with a uniform position from k on."""
    ring = gens[0].ring
    pairs = [(ri, ci) for ri in combinations(range(len(gens)), codim)
             for ci in combinations(range(ring.arity), codim)]
    if seed is not None:
        rng = SplitMix64(seed ^ 0x3140085)
        for k in range(len(pairs)):
            j = rng.randint(k, len(pairs) - 1)
            pairs[k], pairs[j] = pairs[j], pairs[k]
    rows = [[g.derivative(j) for j in range(ring.arity)] for g in gens]
    return [_oracle_minor(rows, ri, ci) for ri, ci in pairs]


@pytest.mark.parametrize("seed", [None, 0])
@pytest.mark.parametrize("field", [QQ, Field.prime_field(7)],
                         ids=["QQ", "F7"])
@pytest.mark.parametrize("n", [3, 4])
def test_minor_stream_order_matches_the_oracle(n, field, seed):
    # the plain order, and the shuffled one, which is seed 0's
    curve = rnc_curve(n, field)
    gens = list(curve.generators)
    # a rational row multiplier: the stream must divide it back out
    gens[0] = gens[0].scale(field.from_fraction(Fraction(3, 2)))
    got = list(discrepancy_module._minor_stream(gens, n - 1,
                                                shuffled=seed is not None))
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


def test_empty_scheme_is_smooth_without_a_minor(monkeypatch):
    # (x0, x1, x2) cuts out nothing in P^2, so its singular scheme is
    # empty before any Jacobian minor is read
    drawn = []
    real = discrepancy_module._minor_stream

    def spy(*args):
        for minor in real(*args):
            drawn.append(minor)
            yield minor

    monkeypatch.setattr(discrepancy_module, "_minor_stream", spy)
    ring = PolyRing(QQ, ("x0", "x1", "x2"))
    assert is_smooth_curve(Ideal(ring, ring.variables())) is True
    assert drawn == []


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
    # on a smooth curve lci_general is the smooth_jacobian length; on a
    # singular curve, when assumed under "auto" or selected, it runs its
    # own saturation
    calls = []
    _spy(monkeypatch, cidcurve.discrepancy._singular_stripped, calls)
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    nodal = CurveInput(ring, [ring.parse("x1^2*x2 - x0^3 - x0^2*x2"),
                              ring.parse("x3")])
    witness = construct_ci(nodal, seed=0)
    assert cid_routes(nodal, witness) == {"direct": 0}
    assert calls == []
    assert cid_routes(nodal, witness, assume_lci=True) == {
        "direct": 0, "lci_general": 0}
    assert len(calls) == 1
    assert cid_routes(nodal, witness, route="lci") == {"lci_general": 0}
    assert len(calls) == 2
    twisted = rnc_curve(3)
    assert cid_routes(twisted, construct_ci(twisted, seed=0),
                      route="lci") == {"lci_general": 2}
    assert len(calls) == 2


def test_direct_route_draws_no_curve_minors(monkeypatch, capsys, tmp_path):
    # only "auto" reads the smoothness decision, so a single selected
    # route never takes the curve's Jacobian minors for it
    calls = []
    _spy(monkeypatch, cidcurve.discrepancy._smooth_length, calls)
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
    x0 + 2*x1, after the sparsest generator x0 of J."""

    def __init__(self, seed):
        self.values = iter((1, 2))

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
    assert (g1, g2) == (ring.variable(0), ring.parse("x0 + 2*x1"))
    assert (first.krull_dim, first.degree) == (2, 2)
    assert (second.krull_dim, second.degree) == (2, 3)
    assert ideal_equal(result, exact_colon(i_z, j))
    assert hilbert_module.proj_degree(result) == 4 - 1


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp32003"])
def test_linked_colon_takes_the_sparsest_generator_first(monkeypatch,
                                                         field):
    # every generator of RNC4 is a two-term quadric, so the first one is
    # the sparsest; it is certified, and nothing is drawn
    curve = rnc_curve(4, field)
    i_z, i_x = construct_ci(curve, seed=0).i_z, curve.ideal()
    divisors = []
    real = ideals_module.colon_principal

    def spy(a, g):
        divisors.append(g)
        return real(a, g)

    def no_draw(seed):
        raise AssertionError("the linked colon drew a random combination")

    monkeypatch.setattr(ideals_module, "colon_principal", spy)
    monkeypatch.setattr(ideals_module, "SplitMix64", no_draw)
    result = residual(i_z, i_x)
    monkeypatch.undo()
    assert divisors == [curve.ring.parse("x0*x2 - x1^2")]
    assert ideal_equal(result, exact_colon(i_z, i_x))


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp32003"])
def test_linked_colon_skips_a_generator_of_the_dividend(monkeypatch,
                                                        field):
    # the first row of the coefficient matrix makes F_1 = x0*x2 - x1^2,
    # the sparsest generator of the twisted cubic; its colon would be
    # the unit ideal, so it is not tried, and the first draw is certified
    curve = rnc_curve(3, field)
    sparsest = curve.ring.parse("x0*x2 - x1^2")
    divisors = []
    real = ideals_module.colon_principal

    def spy(a, g):
        divisors.append(g)
        return real(a, g)

    monkeypatch.setattr(ideals_module, "colon_principal", spy)
    witness = construct_ci(curve, coeff_matrix=((1, 0, 0), (1, 2)))
    monkeypatch.undo()
    assert witness.F[0] == sparsest
    assert len(divisors) == 1 and divisors[0] != sparsest
    assert ideal_equal(witness.i_w, exact_colon(witness.i_z, curve.ideal()))


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
    # so the colon takes the exact fold
    extra = Ideal(ring, [x0 * x2, x1 * x3, x0 * x3])
    assert ideal_equal(residual(extra, j), exact_colon(extra, j))
    # J a point, not a curve: its degree says nothing about the colon
    point = Ideal(ring, [x0, x1, x3])
    assert ideal_equal(residual(i_z, point), exact_colon(i_z, point))
    # J not containing I_Z: linkage says nothing either
    assert ideal_equal(quotient(i_z, Ideal(ring, [x0, x2 + x3])),
                       exact_colon(i_z, Ideal(ring, [x0, x2 + x3])))
    # a constant among the dividend's generators: not forms of positive
    # degree, so nothing is linked, and the fold finds J inside
    assert quotient(Ideal(ring, [ring.one(), x0 * x1]), j).is_unit()
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
    assert degrees == [3, None, None, None, None, 0]


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
    length = discrepancy_module._smooth_length(curve.ideal(), witness)
    assert (length is not None) == is_smooth_curve(curve.ideal())
    # on a smooth curve the witness Jacobian length is the discrepancy
    assert length in (None, cid_direct(curve.ideal(), witness.i_w))


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
    assert discrepancy_module._smooth_length(curve.ideal(), witness) is None
    assert omega_matches_jacobian(curve.ideal(), witness)


# a smooth complete intersection of two cubics in P^3, with W empty
CI33 = ("x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2",
        "x0^3 + 2*x1^3 + 3*x2^3 + 4*x3^3 + x1*x2*x3")


def _dense_cubics():
    # two dense cubics in P^3 with seeded coefficients in 1..50, like the
    # forms of the benchmark's genus:ci33 job
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    rng = SplitMix64(0)
    forms = []
    for _ in range(2):
        terms = {}
        for combo in combinations_with_replacement(range(4), 3):
            exps = [0] * 4
            for i in combo:
                exps[i] += 1
            terms[tuple(exps)] = Fraction(rng.randint(1, 50))
        forms.append(ring.polynomial(terms))
    return CurveInput(ring, forms)


def _smooth_ci_witness(curve):
    # the genus report and the omega comparison of a smooth complete
    # intersection of two cubics, whose W is empty
    witness = construct_ci(curve, seed=0)
    report = genus_report(curve, witness)
    assert report.cid_routes == {"direct": 0, "smooth_jacobian": 0,
                                 "lci_general": 0}
    assert report.all_checks_pass() and report.p_a_hilbert == 10
    assert omega_matches_jacobian(curve.ideal(), witness)
    return witness


def test_smooth_complete_intersection_builds_no_witness_scheme_basis():
    # W is empty, so only the emptiness of the witness Jacobian scheme on
    # X is asked.  Dense forms give it coefficients far wider than the
    # screening prime: its image certifies the empty scheme, and no exact
    # basis of it is ever built, by the genus report or the omega
    # comparison
    witness = _smooth_ci_witness(_dense_cubics())
    assert witness.on_curve._gb_cache == {}
    assert witness.on_curve._mod_p_image is not None


def test_narrow_complete_intersection_builds_no_image(monkeypatch):
    # CI33's coefficients stay below the screening prime, so the same
    # questions are asked of the exact witness scheme and no image is
    # built.  The reducedness test proves it empty with one stopped run,
    # and that bound is kept: the chart, the genus report and the omega
    # comparison read it
    runs = stopped_runs(monkeypatch)
    witness = _smooth_ci_witness(_p3_curve(*CI33))
    assert [(gens, ring) for gens, _, ring in runs].count(
        (witness.on_curve.generators, witness.on_curve.ring)) == 1
    assert witness.on_curve._mod_p_image is None


def _witness_scheme_runs(curve, monkeypatch):
    """`construct_ci` at seed 0, the genus report and the omega
    comparison on `curve`: the (order, bound) of every basis `ideals`
    asked of the witness scheme, full or stopped, and, printed, the
    linear forms of every hyperplane test, a stopped run on the scheme or
    its image mod p extended by linear forms."""
    runs = []
    real = ideals_module._chain_basis

    def spy(a, order, target=None, bound=None):
        runs.append((a, order, bound))
        return real(a, order, target, bound)

    monkeypatch.setattr(ideals_module, "_chain_basis", spy)
    witness = construct_ci(curve, seed=0)
    assert genus_report(curve, witness).all_checks_pass()
    assert omega_matches_jacobian(curve.ideal(), witness)
    scheme = witness.on_curve
    asked = [(order, bound) for a, order, bound in runs
             if a.generators == scheme.generators]
    added = [a.generators[len(a._base.generators):]
             for a, _, bound in runs if bound is not None
             and a._base is not None
             and a._base in (scheme, scheme._mod_p_image)]
    return asked, [tuple(str(g) for g in extra) for extra in added
                   if all(g.total_degree() == 1 for g in extra)]


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp32003"])
def test_the_witness_scheme_is_certified_once(field, monkeypatch):
    # the twisted cubic's W is a line, so its witness Jacobian scheme is
    # not empty: its grevlex basis is built once, at the reducedness test,
    # and the only stopped run on an extension of it, or of its image, is
    # the chart x0's; none adds a stage form.  CI33's W is empty: the
    # scheme is asked one bound-0 question, whose kept bound answers the
    # chart, the genus report and the omega comparison
    asked, added = _witness_scheme_runs(rnc_curve(3, field), monkeypatch)
    assert asked == [(GREVLEX, None)]
    assert added == [("x0",)]
    ring = PolyRing(field, ("x0", "x1", "x2", "x3"))
    ci33 = CurveInput(ring, [ring.parse(f) for f in CI33])
    asked, added = _witness_scheme_runs(ci33, monkeypatch)
    assert asked == [(GREVLEX, 0)]
    assert added == []


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
        smooth = discrepancy_module._smooth_length(
            i_x, witness) is not None
        try:
            length = discrepancy_module.cid_smooth_jacobian(i_x, witness)
        except NotSmooth:
            length = None
        omega = omega_matches_jacobian(i_x, witness)
        return witness, (smooth, length, omega)

    # the partial minor ideals of the twisted cubic's witness scheme
    # reach the screening prime (its seed-0 minors reach 265506), and
    # on_curve's grevlex basis is cached before any of them is screened,
    # so each image starts from the image of that basis
    screens = []
    real = ideals_module._basis

    def spy(gens, order, ring, target=None, bound=None, known=None):
        if ring.field == ideals_module._SCREEN_FIELD:
            screens.append(known is not None)
        return real(gens, order, ring, target, bound, known)

    monkeypatch.setattr(ideals_module, "_basis", spy)
    _, screened = verdicts()
    assert all(screens) and bool(screens) == (name == "twisted_cubic")
    for module in (discrepancy_module, linkage_module):
        monkeypatch.setattr(module, "dimension_at_most",
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
        # a colon not certified by degree filters the divisor's
        # generators by the dividend's basis in the exact fold; the
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
def test_transversality_on_the_cubic_and_a_tangent_line(seed, monkeypatch):
    # the curve is singular where the line meets the cubic, so the count
    # strips its singular locus from the witness scheme first; the four
    # points left make up the whole intersection length
    curve = _twisted_cubic_and_line()
    witness = cidcurve.construct_ci_transversal(curve, seed=seed)
    stripped = []
    _spy(monkeypatch, discrepancy_module._singular_stripped, stripped)
    assert transversality_count(curve, witness) == (4, True)
    assert len(stripped) == 1


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


@pytest.mark.parametrize("seed", [0, 1])
def test_omega_differs_from_the_jacobian_on_the_coordinate_axes(
        seed, monkeypatch):
    # three non-coplanar lines through a point are not Gorenstein there:
    # delta = 2, but the conductor, the maximal ideal m, has colength
    # 3 != 2 * delta in the normalization.  So omega_X is not
    # invertible, and the omega-Jacobian need not be the Jacobian ideal.
    # Here it is not: Z is the cone over four points and W its fourth
    # line.  In the local ring of X at the point, Z's minors and X's
    # Jacobian ideal both give m^2, and I_W gives linear forms outside
    # m^2, so the colon (m^2 : I_W) is m.  The raw graded ideals differ
    # too, so the saturated comparison is the one that decides
    curve = _coordinate_axes()
    witness = construct_ci(curve, seed=seed)
    i_x = curve.ideal()
    saturated = []
    _spy(monkeypatch, saturate_irrelevant, saturated)
    assert not omega_matches_jacobian(i_x, witness)
    assert len(saturated) == 2
    m = Ideal(i_x.ring, i_x.ring.variables()[1:])
    omega, jacobian = (saturate_irrelevant(a) for (a,) in saturated)
    assert ideal_equal(omega, m)
    assert ideal_equal(jacobian, ideal_product(m, m))


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
    # out exactly that locus: `_smooth_length` rests on this
    curve = CAUCHY_BINET_CURVES[name]()
    i_x = curve.ideal()
    witness = construct_ci(curve, seed=seed)
    locus = discrepancy_module._jacobian_scheme(i_x, i_x.generators)
    on_curve = witness.on_curve
    assert all(locus.contains(g) for g in on_curve.generators)
    on_witness = discrepancy_module._jacobian_scheme(on_curve,
                                                     i_x.generators)
    assert ideal_equal(on_witness, locus)


ROUTE_SELECTIONS = [("auto", False), ("auto", True), ("smooth", False),
                    ("lci", False), ("direct", False)]


@pytest.mark.parametrize("name", ["twisted_cubic_and_line", "rnc4"])
def test_route_values_ask_smoothness_once(name, monkeypatch):
    # no smoothness verdict is kept, so each route computation asks the
    # emptiness of the witness scheme and the curve's minors at most
    # once, whatever the selection; twisted_cubic_and_line is singular,
    # so there "auto" with assume_lci saturates after that one question
    curve = CAUCHY_BINET_CURVES[name]()
    witness = construct_ci(curve, seed=0)
    calls = {"_empty_on_curve": 0, "_minors_reach": 0}

    def counted(attr):
        real = getattr(discrepancy_module, attr)

        def spy(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)
        return spy

    for attr in calls:
        monkeypatch.setattr(discrepancy_module, attr, counted(attr))
    for route, assume_lci in ROUTE_SELECTIONS:
        for attr in calls:
            calls[attr] = 0
        try:
            values = discrepancy_module._route_values(curve, witness, route,
                                                      assume_lci)
        except NotSmooth:
            assert (name, route) == ("twisted_cubic_and_line", "smooth")
        else:
            assert set(values.values()) == {6 if name == "rnc4" else 4}
        # W is not empty on either curve, so every question but the
        # direct route's reaches the curve's minors
        assert calls == dict.fromkeys(calls, int(route != "direct")), (
            route, assume_lci, calls)


def test_genus_draws_each_minor_once(monkeypatch, capsys):
    # certification draws the witness minors of each attempt's forms,
    # and the genus report draws the curve's minors for one smoothness
    # question; no stream of minors is read twice
    drawn = []
    real_stream = discrepancy_module._minor_stream

    def stream(gens, codim, seed=None):
        for k, minor in enumerate(real_stream(gens, codim, seed)):
            drawn.append((tuple(gens), seed, k))
            yield minor

    monkeypatch.setattr(discrepancy_module, "_minor_stream", stream)
    code = cidcurve.cli.main(["genus", "--input", RNC4, "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(payload["result"]["cid_routes"].values()) == {6}
    curve_gens = rnc_curve(4).ideal().generators
    assert any(gens == curve_gens for gens, _, _ in drawn)
    assert len(drawn) == len(set(drawn))


def test_plane_witness_reads_the_cached_singular_locus():
    # a plane curve is its own complete intersection, so its witness
    # Jacobian scheme is its singular locus
    curve = SMOOTHNESS_CURVES["nodal_cubic"]()
    i_x = curve.ideal()
    witness = construct_ci(curve, seed=0)
    assert ideal_equal(witness.on_curve, discrepancy_module._jacobian_scheme(
        i_x, i_x.generators))


def test_smoothness_first_checks_two_minors(monkeypatch):
    # the curve ideal has dimension 2 and each minor lowers it by at most
    # one, so no check comes before two minors.  The curve's dimension is
    # read as a value, each partial minor ideal asked as a bound
    i_x = rnc_curve(4).ideal()
    checked = []
    real = hilbert_module.krull_dimension
    real_bound = discrepancy_module.dimension_at_most

    def krull_dimension(ideal_like):
        checked.append(ideal_like)
        return real(ideal_like)

    def dimension_at_most(a, bound):
        checked.append(a)
        return real_bound(a, bound)

    monkeypatch.setattr(hilbert_module, "krull_dimension", krull_dimension)
    monkeypatch.setattr(discrepancy_module, "dimension_at_most",
                        dimension_at_most)
    assert is_smooth_curve(i_x)
    assert checked[0] is i_x
    assert checked[1].generators[:len(i_x.generators)] == i_x.generators
    assert len(checked[1].generators) == len(i_x.generators) + 2
