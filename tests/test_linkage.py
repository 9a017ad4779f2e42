"""Curve input validation and certified linking complete intersections."""

from math import comb

import pytest

from cidcurve import (
    CurveInput,
    Field,
    Ideal,
    PolyRing,
    choose_chart,
    construct_ci,
    construct_ci_transversal,
    hilbert_polynomial,
    ideal_equal,
    ideal_sum,
    intersect,
    is_saturated,
    jacobian_ideal,
    krull_dimension,
    proj_degree,
    quotient,
    residual,
    saturate_irrelevant,
    vdim,
    witness_to_dict,
)
from cidcurve.errors import (
    EmptyInput,
    ExhaustedCandidates,
    InputError,
    MaxAttemptsExceeded,
    NotACurve,
    NotGenericallyCI,
    NotGenericallyReduced,
    NotHomogeneous,
    NotZeroDimensional,
    RingMismatch,
    WrongCharacteristic,
)
from cidcurve.ideals import INFINITE
from cidcurve import discrepancy, ideals, linkage
from cidcurve.orders import GREVLEX
from cidcurve.linkage import TEST_NAMES
from cidcurve.rng import SplitMix64

from conftest import rnc_curve, twisted_cubic_gens

QQ = Field.rationals()


def _ring_curve(names, texts):
    ring = PolyRing(QQ, names)
    return CurveInput(ring, [ring.parse(t) for t in texts])


P3 = ("x0", "x1", "x2", "x3")
WITNESS_CURVES = {
    "twisted_cubic": lambda: rnc_curve(3),
    "rnc4": lambda: rnc_curve(4),
    "ci_2_3": lambda: _ring_curve(
        P3, ["x0*x3 - x1*x2", "x0^3 + x1^3 + x2^3 + x3^3"]),
    "nodal_cubic_in_p3": lambda: _ring_curve(
        P3, ["x1^2*x2 - x0^3 - x0^2*x2", "x3"]),
    "fermat_cubic": lambda: _ring_curve(
        ("x", "y", "z"), ["x^3 + y^3 + z^3"]),
}


def test_curve_input_validation(p3):
    x0, x1, x2, x3 = p3.variables()
    with pytest.raises(EmptyInput):
        CurveInput(p3, [])
    with pytest.raises(EmptyInput):
        CurveInput(p3, [p3.zero()])
    with pytest.raises(NotHomogeneous):
        CurveInput(p3, [x0 + x1 * x2])
    with pytest.raises(InputError):
        CurveInput(p3, [p3.one()])
    other = PolyRing(QQ, ("a", "b", "c"))
    with pytest.raises(RingMismatch):
        CurveInput(p3, [other.variable(0) * other.variable(1)])
    line = PolyRing(QQ, ("s", "t"))
    with pytest.raises(InputError):
        CurveInput(line, [line.variable(0)])


def test_degree_sorting(p3):
    x0, x1, x2, x3 = p3.variables()
    curve = CurveInput(p3, [x1 * x2, x0**3 + x3**3, x2 * x3])
    assert curve.degrees == (3, 2, 2)
    assert curve.n == 3
    assert curve.r == 3


def test_construct_twisted_cubic_seeds(twisted_cubic):
    for seed in (0, 1, 2):
        witness = construct_ci(twisted_cubic, seed=seed)
        assert all(witness.tests.values())
        assert set(witness.tests) == set(TEST_NAMES) - {"singular_locus_finite"}
        gb_x = twisted_cubic.ideal().gb()
        for f in witness.F:
            assert gb_x.contains(f)
            assert f.is_homogeneous()
        assert len(witness.F) == twisted_cubic.n - 1
        for ell in witness.ells:
            assert ell.is_linear_form()


def test_forced_coefficients(twisted_cubic):
    witness = construct_ci(twisted_cubic, coeff_matrix=((1, 0, 0), (1, 2)))
    f1, f2, f3 = twisted_cubic.generators
    assert witness.F[0] == f1
    assert witness.F[1] == f2 + f3.scale(QQ.from_int(2))
    assert witness.attempts == 1
    assert all(witness.tests.values())


def test_witness_serialization(twisted_cubic):
    witness = construct_ci(twisted_cubic, seed=5)
    data = witness_to_dict(witness)
    assert set(data) == {
        "forms", "linear_forms", "coefficients", "chart", "seed",
        "attempts", "tests", "transversal",
    }
    assert data["seed"] == 5
    assert all(isinstance(s, str) for s in data["forms"])
    assert data["transversal"] is False


def test_transversal_variant(twisted_cubic):
    witness = construct_ci_transversal(twisted_cubic, seed=0)
    assert witness.transversal
    assert witness.tests["singular_locus_finite"]
    assert len(witness.ells) == 1
    f5 = Field.prime_field(5)
    ring5 = PolyRing(f5, ("x0", "x1", "x2", "x3"))
    curve5 = CurveInput(ring5, twisted_cubic_gens(ring5))
    with pytest.raises(WrongCharacteristic):
        construct_ci_transversal(curve5, seed=0)


def test_char_p_construction():
    curve = rnc_curve(3, field=Field.prime_field(32003))
    witness = construct_ci(curve, seed=0)
    assert all(witness.tests.values())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_construction_over_f2(seed):
    # the only nonzero scalar of F_2 is 1, so nonzero draws alone would
    # give every attempt the same forms; vectors that are not all zero
    # still vary
    curve = rnc_curve(3, field=Field.prime_field(2))
    witness = construct_ci(curve, seed=seed)
    assert all(witness.tests.values())


def test_random_vectors_are_not_zero():
    f2 = Field.prime_field(2)
    rng = SplitMix64(0)
    draws = [rng.vector(f2, 2) for _ in range(40)]
    assert set(draws) == {(0, 1), (1, 0), (1, 1)}
    assert rng.vector(f2, 1) == (1,)
    assert rng.vector(f2, 0) == ()


def test_plane_curve_witness():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    curve = CurveInput(ring, [x**3 + y**3 + z**3])
    witness = construct_ci(curve, seed=0)
    # in the plane the curve is its own linking complete intersection
    assert witness.F == tuple(curve.generators)
    assert all(witness.tests.values())
    with pytest.raises(InputError):
        construct_ci(CurveInput(ring, [x * y, (x + z) * y]), seed=0)


def test_too_few_generators(p3):
    x0, x1, x2, x3 = p3.variables()
    # one surface generator cannot produce n-1 = 2 combinations
    with pytest.raises(InputError):
        construct_ci(CurveInput(p3, [x0 * x3 - x1 * x2]), seed=0)


def test_non_curves_rejected_up_front(p3):
    x0, x1, x2, x3 = p3.variables()
    # a plane plus a line (dimension 2) and two points (dimension 0)
    for gens in ([x0 * x1, x0 * x2], [x2, x3, x0 * x1]):
        with pytest.raises(NotACurve):
            construct_ci(CurveInput(p3, gens), seed=0)


def test_not_generically_ci(p3):
    x0, x1, x2, x3 = p3.variables()
    # a line with an embedded point: linkage strips the embedded
    # component, so the double-link test can never pass, and its first
    # failure ends the construction
    mixed = intersect(Ideal(p3, [x1, x2]), Ideal(p3, [x0, x1**2, x3]))
    curve = CurveInput(p3, list(mixed.generators))
    with pytest.raises(NotGenericallyCI) as info:
        construct_ci(curve, seed=0, max_attempts=3)
    assert info.value.failures["double_link"] == 1


def test_max_attempts_below_one(twisted_cubic):
    # zero attempts would report a double-link failure nothing tested
    for attempts in (0, -1):
        with pytest.raises(InputError, match="at least 1"):
            construct_ci(twisted_cubic, seed=0, max_attempts=attempts)


def test_choose_chart(twisted_cubic):
    i_x = twisted_cubic.ideal()
    ring = i_x.ring
    x0 = ring.variable(0)
    # finite scheme: a chart form exists and certifies finiteness
    finite = ideal_sum(i_x, Ideal(ring, [x0]))
    h = choose_chart(finite, seed=0)
    assert h.is_linear_form()
    with pytest.raises(NotZeroDimensional):
        choose_chart(i_x, seed=0)


def test_choose_chart_reads_the_loci_dimension_only_after_x0_fails(p3):
    x0, x1, x2, x3 = p3.variables()
    tc = twisted_cubic_gens(p3)
    # x0 misses the point (1:0:0:0): it proves the locus finite, and no
    # basis of the locus is built
    avoid = Ideal(p3, tc + [x3])
    assert choose_chart(avoid, seed=0) == x0
    assert not avoid._gb_cache
    # x0, x1 and x2 pass through (0:0:0:1); x3 misses it
    avoid = Ideal(p3, tc + [x0])
    assert choose_chart(avoid, seed=0) == x3
    assert krull_dimension(avoid) == 1
    # a positive-dimensional locus still raises, the curve or a plane
    for gens in (tc, [x1]):
        with pytest.raises(NotZeroDimensional):
            choose_chart(Ideal(p3, gens), seed=0)


def test_non_reduced_plane_curve_falls_back_to_x0():
    # the singular locus of a double conic is the conic itself, so no
    # chart misses it; the residual is empty, and x0 measures it
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    curve = CurveInput(ring, [(y**2 - x * z)**2])
    witness = construct_ci(curve, seed=0)
    assert witness.h == x
    assert krull_dimension(witness.on_curve) == 2
    assert witness.i_w.is_unit()


def test_witness_degrees_weakly_descending(twisted_cubic):
    witness = construct_ci(twisted_cubic, seed=3)
    degs = [f.total_degree() for f in witness.F]
    assert degs == sorted(degs, reverse=True)


@pytest.mark.parametrize("name", sorted(WITNESS_CURVES))
def test_witness_carries_certified_ideals(name):
    curve = WITNESS_CURVES[name]()
    i_x = curve.ideal()
    witness = construct_ci(curve, seed=0)
    i_z = Ideal(curve.ring, list(witness.F))
    assert ideal_equal(witness.i_z, i_z)
    assert ideal_equal(witness.i_w, residual(i_z, i_x))
    assert is_saturated(witness.i_w)
    minors = jacobian_ideal(witness.F, curve.n - 1)
    assert ideal_equal(witness.on_curve, ideal_sum(i_x, minors))
    # the certification tests are recorded in the order they run
    assert list(witness.tests) == [t for t in TEST_NAMES
                                   if t in witness.tests]


def _line_with_embedded_point():
    ring = PolyRing(QQ, P3)
    x0, x1, x2, x3 = ring.variables()
    mixed = intersect(Ideal(ring, [x1, x2]), Ideal(ring, [x0, x1**2, x3]))
    return CurveInput(ring, list(mixed.generators))


def _unsaturated_twisted_cubic():
    ring = PolyRing(QQ, P3)
    gens = twisted_cubic_gens(ring)
    return CurveInput(ring, [v * g for v in ring.variables() for g in gens])


FP = Field.prime_field(32003)
DOUBLE_LINK_CURVES = dict(
    {name: make for name, make in WITNESS_CURVES.items()
     if name != "fermat_cubic"},
    line_with_embedded_point=_line_with_embedded_point,
    unsaturated_twisted_cubic=_unsaturated_twisted_cubic,
    twisted_cubic_fp=lambda: rnc_curve(3, FP),
    rnc4_fp=lambda: rnc_curve(4, FP),
    skew_lines=lambda: _ring_curve(
        P3, [f"({u})*({v})" for u in ("x0 - 2*x2", "x1 - 3*x3")
             for v in ("x2 - 5*x0", "x3 - 7*x1")]),
    concurrent_lines=lambda: _ring_curve(P3, ["x1*x2", "x1*x3", "x2*x3"]),
    rational_quartic=lambda: _ring_curve(
        P3, ["x0*x3 - x1*x2", "x1^3 - x0^2*x2", "x2^3 - x1*x3^2",
             "x0*x2^2 - x1^2*x3"]),
)


@pytest.mark.parametrize("name", sorted(DOUBLE_LINK_CURVES))
def test_double_link_verdict_matches_saturated_comparison(name, monkeypatch):
    # the verdict is read off the Hilbert data of I_X and I_W; the oracle
    # computes the double-link colon back = (I_Z : I_W) and compares it
    # with I_X by Hilbert polynomial and with the saturation of I_X
    curve = DOUBLE_LINK_CURVES[name]()
    i_x = curve.ideal()
    sat_x = saturate_irrelevant(i_x)
    links = []

    def spy(a, b):
        i_w = residual(a, b)
        links.append((a, i_w))
        return i_w

    monkeypatch.setattr(linkage, "residual", spy)
    verdicts = []
    for seed in range(4):
        links.clear()
        try:
            verdict = construct_ci(curve, seed=seed,
                                   max_attempts=1).tests["double_link"]
        except (NotGenericallyCI, MaxAttemptsExceeded) as err:
            verdict = err.failures["double_link"] == 0
        if not links:
            continue  # an earlier test rejected the draw
        i_z, i_w = links[0]
        back = quotient(i_z, i_w)
        assert verdict == (hilbert_polynomial(back) == hilbert_polynomial(i_x))
        assert verdict == ideal_equal(back, sat_x)
        verdicts.append(verdict)
    assert verdicts
    assert set(verdicts) == {name != "line_with_embedded_point"}


def test_rejected_draws_leave_nothing_on_the_curve_ideal(monkeypatch):
    # the draw on the line with an embedded point fails the double link
    # after its witness Jacobian scheme was built, and no other draw is
    # made; neither that scheme nor a verdict on its forms stays with I_X
    curve = _line_with_embedded_point()
    builds = []
    real = discrepancy._jacobian_scheme

    def build(base, forms):
        scheme = real(base, forms)
        builds.append((tuple(forms), scheme))
        return scheme

    monkeypatch.setattr(linkage, "_jacobian_scheme", build)
    with pytest.raises(NotGenericallyCI):
        construct_ci(curve, seed=0, max_attempts=2)
    assert len(builds) == 1
    # beside its bases, keyed by order, an ideal keeps only its image
    kept = curve.ideal()
    for forms, scheme in builds:
        assert kept._mod_p_image is not scheme
        assert all(forms not in key for key in kept._gb_cache
                   if isinstance(key, tuple))


def test_double_link_failure_stops_at_the_first_draw():
    # back = (I_Z : I_W) is the top-dimensional part of I_X for every Z,
    # so the first double-link failure is final at the default
    # max_attempts too; each rejected draw fails exactly one test
    with pytest.raises(NotGenericallyCI) as info:
        construct_ci(_line_with_embedded_point(), seed=0)
    assert info.value.failures == {
        name: int(name == "double_link") for name in TEST_NAMES}


NON_REDUCED_CURVES = {
    "first_order_line": ["x0^2", "x0*x1", "x1^2"],
    "double_line_in_plane": ["x0^2", "x1"],
}


@pytest.mark.parametrize("field", [QQ, FP], ids=["qq", "fp"])
@pytest.mark.parametrize("name", sorted(NON_REDUCED_CURVES))
def test_non_reduced_curve_stops_at_the_first_draw(name, field):
    # on X the Jacobian of F is C times that of I_X's generators, so Z's
    # Jacobian scheme on X contains Sing(X) for every draw; a non-reduced
    # curve is singular everywhere, and its first reduced_along_input
    # failure is final
    ring = PolyRing(field, P3)
    curve = CurveInput(ring, [ring.parse(g) for g in NON_REDUCED_CURVES[name]])
    with pytest.raises(NotGenericallyReduced) as info:
        construct_ci(curve, seed=0)
    assert info.value.failures == {
        test: int(test == "reduced_along_input") for test in TEST_NAMES}


def test_a_reducedness_failure_on_a_reduced_curve_redraws(monkeypatch):
    # two twisted-cubic draws are made to fail reduced_along_input; the
    # first failure asks once whether Sing(X) is finite, it is, so both
    # are redrawn and the third draw certifies
    curve = rnc_curve(3)
    fails = [2]
    real_misses = linkage._hyperplane_misses

    def misses(finite, h):
        if fails[0]:
            fails[0] -= 1
            return False
        return real_misses(finite, h)

    asked = []
    real_reach = linkage._minors_reach

    def reach(base, forms, bound, shuffled):
        asked.append((base, tuple(forms), bound))
        return real_reach(base, forms, bound, shuffled)

    monkeypatch.setattr(linkage, "_hyperplane_misses", misses)
    monkeypatch.setattr(linkage, "_minors_reach", reach)
    witness = construct_ci(curve, seed=0)
    i_x = curve.ideal()
    assert asked == [(i_x, i_x.generators, 1)]
    assert witness.attempts == 3
    assert all(witness.tests.values())


def _reference_singular_locus_finite(curve, witness):
    # Z's singular locus from the Jacobian ideal of Z over all of P^n
    full_jac = jacobian_ideal(witness.F, curve.n - 1)
    return krull_dimension(ideal_sum(witness.i_z, full_jac)) <= 1


TRANSVERSAL_CURVES = {
    name: DOUBLE_LINK_CURVES[name]
    for name in ("twisted_cubic", "rnc4", "rational_quartic", "skew_lines")
}


@pytest.mark.parametrize("name", sorted(TRANSVERSAL_CURVES))
def test_singular_locus_verdict_matches_full_jacobian(name):
    # the verdict reads Z's Jacobian minors on W only; the reference
    # reads them on all of Z
    curve = TRANSVERSAL_CURVES[name]()
    for seed in range(3):
        witness = construct_ci_transversal(curve, seed=seed)
        assert witness.tests["singular_locus_finite"]
        assert _reference_singular_locus_finite(curve, witness)


@pytest.mark.parametrize("n", [4, 5])
def test_singular_locus_test_stops_at_a_partial_minor_ideal(n, monkeypatch):
    # a partial minor ideal that reaches dimension <= 1 proves the full
    # one does, so an accepted draw leaves most minors of F undrawn
    streams = []
    real_stream = discrepancy._minor_stream

    def stream(gens, codim, seed=None):
        drawn = [tuple(gens), 0]
        streams.append(drawn)
        for minor in real_stream(gens, codim, seed):
            drawn[1] += 1
            yield minor

    monkeypatch.setattr(discrepancy, "_minor_stream", stream)
    witness = construct_ci_transversal(rnc_curve(n), seed=0)
    assert witness.tests["singular_locus_finite"]
    # the first stream over F is on_curve's, which takes every minor
    counts = [drawn for gens, drawn in streams if gens == witness.F]
    assert counts[0] == comb(n + 1, n - 1)
    assert len(counts) == 2 and 0 < counts[1] < counts[0]


def test_transversal_rejects_singular_residual():
    # Z = (x0*x3 - x1*x2, x0*x2) is the two lines L1 = (x0, x1) and
    # L2 = (x2, x3) plus the double line 2M, M = (x0, x2): a fine link
    # (deg W = 2), but Z is singular all along M
    curve = _ring_curve(P3, ["x0*x3", "x1*x2", "x1*x3", "x0*x2"])
    rows = [[1, -1, 0, 0], [0, 0, 1]]
    witness = construct_ci(curve, seed=0, coeff_matrix=rows)
    assert all(witness.tests.values())
    assert proj_degree(witness.i_w) == 2
    assert not _reference_singular_locus_finite(curve, witness)
    with pytest.raises(MaxAttemptsExceeded) as info:
        construct_ci_transversal(curve, seed=0, coeff_matrix=rows)
    assert info.value.failures == {
        name: int(name == "singular_locus_finite") for name in TEST_NAMES}


def test_a_draw_with_no_chart_fails_chart_misses_intersection(monkeypatch):
    # a draw that passes every earlier test but finds no chart is
    # rejected by chart_misses_intersection alone, and the next draw
    # is tried
    def no_chart(avoid, seed=0):
        raise ExhaustedCandidates("no hyperplane misses the locus to avoid")

    monkeypatch.setattr(linkage, "choose_chart", no_chart)
    with pytest.raises(MaxAttemptsExceeded) as info:
        construct_ci(rnc_curve(3), seed=0, max_attempts=2)
    assert info.value.failures == {
        name: 2 * (name == "chart_misses_intersection")
        for name in TEST_NAMES}


@pytest.mark.parametrize("degree", [3, 4])
def test_chart_candidates_start_from_the_witness_scheme_basis(
        degree, monkeypatch):
    # W is not empty, so the genus report will read on_curve's grevlex
    # basis: it is computed before the chart is chosen, and the chosen
    # chart's run starts from it with the chart as its one new
    # generator.  Over F_p every such question is asked exactly
    runs = []
    real = ideals._basis

    def spy(gens, order, ring, target=None, bound=None, known=None):
        runs.append((tuple(gens), known))
        return real(gens, order, ring, target, bound, known)

    monkeypatch.setattr(ideals, "_basis", spy)
    witness = construct_ci(rnc_curve(degree, Field.prime_field(32003)),
                           seed=0)
    basis = witness.on_curve._gb_cache[GREVLEX]
    assert not witness.i_w.is_unit()
    assert ((witness.h,), basis) in runs
