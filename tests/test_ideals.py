"""Ideal operations: membership laws, elimination, saturation, lengths."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cidcurve import (
    INFINITE,
    Field,
    GREVLEX,
    Ideal,
    LEX,
    PolyRing,
    construct_ci_transversal,
    dimension_at_most,
    distinct_point_count,
    eliminate,
    ideal,
    ideal_equal,
    ideal_product,
    ideal_sum,
    intersect,
    is_saturated,
    krull_dimension,
    local_vdim_origin,
    quotient,
    radical_zero_dim,
    saturate,
    saturate_irrelevant,
    transversality_count,
    vdim,
)
from cidcurve import groebner as groebner_module
from cidcurve import ideals as ideals_module
from cidcurve.errors import (
    CidError,
    IndexOutOfRange,
    InputError,
    NotHomogeneous,
    NotZeroDimensional,
    PrecisionCapExceeded,
    RingMismatch,
)
from cidcurve.groebner import basis_unless_dimension_at_most, groebner_basis
from cidcurve.hilbert import _h_polynomial
from cidcurve.ideals import colon_principal
from cidcurve.orders import Block
from cidcurve.polynomials import homogenize
from cidcurve.rng import SplitMix64

from conftest import (
    colon_by_elimination,
    exact_colon,
    quotient_by_elimination,
    rnc_curve,
    stopped_runs,
    twisted_cubic_gens,
)

QQ = Field.rationals()


def ring3():
    return PolyRing(QQ, ("x", "y", "z"))


def random_ideal(ring, seed, count=2, terms=3, max_deg=2):
    rng = SplitMix64(seed)
    gens = []
    for _ in range(count):
        f = ring.zero()
        for _ in range(terms):
            exps = [0] * ring.arity
            for _ in range(rng.randint(0, max_deg)):
                exps[rng.randint(0, ring.arity - 1)] += 1
            f = f + ring.polynomial(
                {tuple(exps): ring.field.from_int(rng.randint(-5, 5))}
            )
        if f:
            gens.append(f)
    return Ideal(ring, gens or [ring.zero()])


@pytest.mark.parametrize("seed", [11, 23, 31])
def test_algebra_laws(seed):
    ring = ring3()
    a = random_ideal(ring, seed)
    b = random_ideal(ring, seed + 1)
    gb_sum = ideal_sum(a, b).gb()
    for g in list(a.generators) + list(b.generators):
        assert gb_sum.contains(g)
    prod = ideal_product(a, b)
    meet = intersect(a, b)
    gb_a, gb_b = a.gb(), b.gb()
    gb_meet = meet.gb()
    # product inside intersection inside each factor
    for g in prod.generators:
        assert gb_meet.contains(g)
    for g in meet.generators:
        assert gb_a.contains(g) and gb_b.contains(g)
    # quotient law: (a : b) * b inside a
    quo = quotient(a, b)
    for f in quo.generators:
        for g in b.generators:
            assert gb_a.contains(f * g)
    # a inside (a : b)
    gb_quo = quo.gb()
    for g in a.generators:
        assert gb_quo.contains(g)


def test_intersection_example():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    meet = intersect(ideal(x), ideal(y))
    assert ideal_equal(meet, ideal(x * y))


def test_quotient_examples():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    assert ideal_equal(quotient(ideal(x * y), ideal(x)), ideal(y))
    assert ideal_equal(quotient(ideal(x * y, x * x), ideal(x)),
                       ideal(x, y))
    # colon by a non-member of the support: unchanged
    assert ideal_equal(quotient(ideal(x), ideal(y)), ideal(x))
    assert quotient(ideal(x), ideal(x)).is_unit()


def test_quotient_skips_generators_already_in_the_ideal(monkeypatch):
    # (a : g) is the unit ideal for g in a, so only the other generators
    # take a principal colon; the result is the full intersection's
    ring = ring3()
    x, y, z = ring.variables()
    a = ideal(x * y, x * z**2)
    divisors = []
    real = ideals_module.colon_principal

    def spy(a, g):
        divisors.append(g)
        return real(a, g)

    monkeypatch.setattr(ideals_module, "colon_principal", spy)
    assert quotient(a, ideal(x * y)).is_unit()
    assert quotient(a, ideal(x * y, x * y * z + x * z**2)).is_unit()
    assert divisors == []
    colon = quotient(a, ideal(x * y, z))
    assert divisors == [z]
    assert colon.generators == real(a, z).generators
    divisors.clear()
    colon = quotient(a, ideal(x * y, z, x))
    assert divisors == [z, x]
    assert ideal_equal(colon, intersect(real(a, z), real(a, x)))
    assert ideal_equal(colon, a)


def random_form(ring, rng, degree, terms=4):
    f = ring.zero()
    while not f:
        for _ in range(terms):
            exps = [0] * ring.arity
            for _ in range(degree):
                exps[rng.randint(0, ring.arity - 1)] += 1
            f = f + ring.polynomial(
                {tuple(exps): ring.field.from_int(rng.randint(-5, 5))})
    return f


def _colon_cases(field, homogeneous, seed):
    """A seeded dividend a and divisors of 2 or 3 generators, some of
    them in a; every form is shifted by a unit when not homogeneous."""
    ring = PolyRing(field, ("x0", "x1", "x2"))
    rng = SplitMix64(seed)
    shift = ring.zero() if homogeneous else ring.one()

    def form(degree):
        return random_form(ring, rng, degree, terms=3) + shift

    u, v = form(1), form(1)
    a = Ideal(ring, [u * form(1), u * v * form(1), v * form(2)])
    inside = a.generators[0] * form(1)
    divisors = [Ideal(ring, [v, form(2)]),
                Ideal(ring, [u * form(1), inside]),
                Ideal(ring, [inside, v * form(1), form(1)]),
                Ideal(ring, [u, v, a.generators[1]])]
    return a, divisors


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp32003"])
@pytest.mark.parametrize("homogeneous", [True, False],
                         ids=["homogeneous", "affine"])
def test_quotient_prints_the_exact_folds_generators(field, homogeneous):
    # no dividend here is a complete intersection, so no colon is linked
    # and each is the exact fold, whatever the seed
    for seed in (1, 2, 3):
        a, divisors = _colon_cases(field, homogeneous, seed)
        for b in divisors:
            expected = [str(g) for g in exact_colon(a, b).generators]
            got = quotient(a, b)
            assert [str(g) for g in got.generators] == expected


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp32003"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_homogeneous_colon_matches_elimination(field, degree):
    ring = PolyRing(field, ("x0", "x1", "x2", "x3"))
    for seed in (1, 2):
        rng = SplitMix64(seed * 10 + degree)
        u = random_form(ring, rng, 1)
        # u divides two generators, so (a : g) is bigger than a when g
        # shares the factor u
        a = Ideal(ring, [u * random_form(ring, rng, 2),
                         u * random_form(ring, rng, 1),
                         random_form(ring, rng, 3)])
        g = u * random_form(ring, rng, degree - 1) if degree > 1 else u
        new = colon_principal(a, g)
        assert ideal_equal(new, colon_by_elimination(a, g))
        # returned as its monic reduced grevlex basis, already cached
        assert new.generators == new.gb().elements
        assert new.gb() is new._gb_cache[GREVLEX]


def _cancelling_case(field):
    """A dividend a, the union of two curves through the origin, and a
    divisor whose first generator is s + x1 for the element s = x1*(x0^3
    + x2) - x0*x1*(x0^2 + x1) of a, whose top-degree terms cancel; with
    the homogenized generators of a and a fresh first variable z."""
    ring = PolyRing(field, ("x0", "x1", "x2"))
    x0, x1, x2 = ring.variables()
    a = Ideal(ring, [(x0**2 + x1) * x1, x0**3 + x2])
    s = x1 * (x0**3 + x2) - x0 * x1 * (x0**2 + x1)
    aux = PolyRing(field, ("z",) + ring.names)
    homogenized = Ideal(aux, [homogenize(g, aux, 0) for g in a.generators])
    b = Ideal(ring, [s + x1, x1 * (x0 + x2 + ring.one())])
    return a, b, s, homogenized


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003),
                                   Field.prime_field(7)],
                         ids=["QQ", "Fp32003", "F7"])
def test_affine_quotient_matches_elimination(field):
    # an affine quotient is taken in S[z] on the generators homogenized
    # by a fresh z and mapped back by z = 1, and returned as its reduced
    # basis; in the last case s lies in a but its homogenization, of a
    # lower degree than x1*(x0^3 + x2)'s, does not lie in the ideal of
    # the homogenized generators of a, so the fold in S[z] divides by a
    # form that differs there from a multiple of x1 and agrees with x1
    # at z = 1
    cases = [_colon_cases(field, False, seed) for seed in (1, 2, 3)]
    a, b, s, homogenized = _cancelling_case(field)
    assert a.gb().contains(s)
    assert not homogenized.gb().contains(homogenize(s, homogenized.ring, 0))
    assert ideals_module._linked_degree(homogenized, Ideal(
        homogenized.ring, [homogenize(g, homogenized.ring, 0)
                           for g in b.generators])) is None
    cases.append((a, [b]))
    for a, divisors in cases:
        for b in divisors:
            got = quotient(a, b)
            expected = quotient_by_elimination(a, b)
            assert ideal_equal(got, expected)
            assert ([str(h) for h in got.generators]
                    == [str(h) for h in expected.gb().elements])


def test_homogeneous_colon_edge_cases():
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    tc = Ideal(ring, twisted_cubic_gens(ring))
    x0, x1, x2, x3 = ring.variables()
    # g inside a: the unit ideal
    assert colon_principal(tc, x2**2 - x1 * x3).is_unit()
    assert colon_principal(tc, x0 * (x1**2 - x0 * x2)).is_unit()
    # a nonzerodivisor modulo the prime a: a comes back
    assert ideal_equal(colon_principal(tc, x0), tc)
    assert ideal_equal(colon_principal(tc, x0 * x3 + x1**2), tc)
    # the zero ideal stays zero
    assert colon_principal(Ideal(ring, []), x0).is_zero()
    # g = 0: every f has f * g in a
    assert colon_principal(tc, ring.zero()).is_unit()


def test_quotient_mixed_degrees(monkeypatch):
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x3 = ring.variable(3)
    q = ring.parse("x0*x2 - x1^2")
    # b is the conic x3 = q = 0, of degree 2 with generators of degrees 1
    # and 2, inside the complete intersection a of a quadric and a cubic;
    # linkage fixes deg (a : b) = 6 - 2 = 4
    b = ideal(x3, q)
    a = ideal(x3 * ring.parse("x0 + 2*x1 + 3*x2"),
              q * ring.parse("x0 - x3")
              + x3 * ring.parse("x1^2 + x2^2 + 5*x0*x3"))
    assert ideals_module._linked_degree(a, b) == 4
    orders = []
    real = ideals_module._chain_basis

    def spy(a, order, target=None, bound=None):
        orders.append(order)
        return real(a, order, target, bound)

    monkeypatch.setattr(ideals_module, "_chain_basis", spy)
    result = quotient(a, b)
    # the sparsest generator x3 is tried first, but (a : x3) also drops
    # the line x0 = x3 = 0 of a, which lies in the plane x3 = 0, so it
    # has degree 3 and is rejected; the first draw raised x3 to degree 2
    # and took the homogeneous colon; the exact fold would have
    # intersected with a block elimination
    assert not any(isinstance(order, Block) for order in orders)
    monkeypatch.undo()
    assert ideal_equal(result, exact_colon(a, b))


@pytest.mark.parametrize("homogeneous", [True, False],
                         ids=["homogeneous", "affine"])
def test_quotient_folds_a_colon_that_is_not_linked(monkeypatch,
                                                    homogeneous):
    # a is not a complete intersection, so nothing fixes the degree of
    # the colon: quotient draws nothing and takes one principal colon per
    # generator of b outside a, in b's order; an affine colon takes them
    # in S[z], on the generators homogenized by a fresh first variable z
    a, divisors = _colon_cases(QQ, homogeneous, 1)
    b = divisors[2]
    outside = [g for g in b.generators if not a.gb().contains(g)]
    assert len(outside) >= 2
    dividend = a
    if not homogeneous:
        aux = PolyRing(QQ, ("z",) + a.ring.names)
        dividend = Ideal(aux, [homogenize(g, aux, 0) for g in a.generators])
        outside = [homogenize(g, aux, 0) for g in outside]
    assert ideals_module._linked_degree(dividend, Ideal(dividend.ring,
                                                        outside)) is None
    divisors_seen = []
    real = ideals_module.colon_principal

    def spy(a, g):
        divisors_seen.append(g)
        return real(a, g)

    def no_draw(seed):
        raise AssertionError("quotient drew a random combination")

    monkeypatch.setattr(ideals_module, "colon_principal", spy)
    monkeypatch.setattr(ideals_module, "SplitMix64", no_draw)
    colon = quotient(a, b)
    assert divisors_seen == outside
    monkeypatch.undo()
    assert colon.generators == exact_colon(a, b).generators


def test_saturation():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    # (x*y^3, x^2*y) saturated by (y) leaves (x)
    a = ideal(x * y**3, x**2 * y)
    sat = saturate(a, ideal(y))
    assert ideal_equal(sat, ideal(x))
    # saturation is a fixed point
    assert ideal_equal(saturate(sat, ideal(y)), sat)


def test_saturation_takes_any_number_of_steps():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    # iterated quotients by (x) would need 70 and 71 steps
    assert saturate(ideal(x**70), ideal(x)).is_unit()
    sat = saturate(ideal(x**70 * y - x**70), ideal(x))
    assert sat.generators == (y - ring.one(),)


def test_saturate_skips_generators_already_in_the_ideal(monkeypatch):
    # (a : g^infinity) is the unit ideal for g in a, so only the other
    # generators take a principal saturation; the result is the full
    # intersection's
    ring = ring3()
    x, y, z = ring.variables()
    a = ideal(x * y, x * z**2)
    divisors = []
    real = ideals_module._saturate_principal

    def spy(a, g):
        divisors.append(g)
        return real(a, g)

    monkeypatch.setattr(ideals_module, "_saturate_principal", spy)
    assert saturate(a, ideal(x * y, x * y * z + x * z**2)).is_unit()
    assert divisors == []
    sat = saturate(a, ideal(x * y, z, x))
    assert divisors == [z, x]
    assert ideal_equal(sat, intersect(real(a, z), real(a, x)))
    assert ideal_equal(sat, a)


def saturate_by_quotients(a, b):
    """(a : b^infinity) the old way: quotients until two steps agree."""
    current = a
    for _ in range(64):
        following = quotient(current, b)
        if ideal_equal(following, current):
            return current
        current = following
    pytest.fail("iterated quotients did not stabilize within 64 steps")


def _junk_ideals(field, seed):
    """Seeded ideals of P^2 with embedded and irrelevant junk: a
    homogeneous one, and one made non-homogeneous by unit shifts."""
    ring = PolyRing(field, ("x0", "x1", "x2"))
    rng = SplitMix64(seed)
    u, v = random_form(ring, rng, 1), random_form(ring, rng, 1)
    f, g = random_form(ring, rng, 2), random_form(ring, rng, 2)
    homogeneous = Ideal(ring, [u**2 * f, u * v * g, f * g]
                        + [x * f for x in ring.variables()])
    one = ring.one()
    shifted = Ideal(ring, [u**2 * (f + one), u * v * (g + one),
                           (f + one) * (g - one)])
    return ring, u, v, (homogeneous, shifted)


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp32003"])
def test_saturate_matches_iterated_quotients(field):
    for seed in (1, 2):
        ring, u, v, ideals = _junk_ideals(field, seed)
        for a in ideals:
            for b in (ideal(u), ideal(u * v), ideal(u, v),
                      ideal(u**2, v * ring.variable(0))):
                assert ideal_equal(saturate(a, b),
                                   saturate_by_quotients(a, b))


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp32003"])
def test_saturate_principal_matches_iterated_quotients(field):
    ring, _, _, ideals = _junk_ideals(field, 3)
    rng = SplitMix64(4)
    forms = ring.variables() + [random_form(ring, rng, 1) for _ in range(2)]
    for a in ideals:
        for h in forms:
            assert ideal_equal(ideals_module._saturate_principal(a, h),
                               saturate_by_quotients(a, ideal(h)))


def test_saturate_irrelevant():
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    gens = twisted_cubic_gens(ring)
    clean = Ideal(ring, gens)
    assert is_saturated(clean)
    # multiply by the whole irrelevant ideal: junk supported only at
    # the irrelevant maximal ideal, which saturation must strip
    dirty = Ideal(ring, [v * g for v in ring.variables() for g in gens])
    recovered = saturate_irrelevant(dirty)
    assert ideal_equal(recovered, clean)
    assert not is_saturated(dirty)


def test_saturate_irrelevant_exact_fallback(monkeypatch):
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    gens = twisted_cubic_gens(ring)
    dirty = Ideal(ring, [v * g for v in ring.variables() for g in gens])
    real = ideals_module._saturate_principal
    calls = []

    def failing_candidates(a, h):
        # the 4 coordinate and 6 random candidates all fail their
        # Hilbert-polynomial certificate; the fallback saturations after
        # them are the real ones
        calls.append(h)
        if len(calls) <= 10:
            return Ideal(ring, [ring.one()])
        return real(a, h)

    monkeypatch.setattr(ideals_module, "_saturate_principal",
                        failing_candidates)
    recovered = saturate_irrelevant(dirty)
    assert ideal_equal(recovered, Ideal(ring, gens))
    assert calls[10:] == calls[:4]


def test_eliminate_implicitization():
    # parameter elimination recovers the implicit curve equation
    ring = PolyRing(QQ, ("t", "x", "y"))
    t, x, y = ring.variables()
    a = Ideal(ring, [x - t**2, y - t**3])
    out = eliminate(a, (0,))
    ox, oy = out.ring.variables()
    assert ideal_equal(out, Ideal(out.ring, [oy**2 - ox**3]))


def test_eliminate_two_lines():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    meet = intersect(ideal(x), ideal(y))
    assert ideal_equal(meet, ideal(x * y))


def test_eliminating_every_variable_is_an_input_error():
    ring = ring3()
    x, y, z = ring.variables()
    with pytest.raises(InputError) as raised:
        eliminate(ideal(x - y, y - z), [2, 0, 1, 0])
    assert isinstance(raised.value, CidError)
    assert str(raised.value) == "cannot eliminate every variable"


@pytest.mark.parametrize("index", [3, -1])
def test_eliminate_rejects_an_index_outside_the_ring(index):
    ring = ring3()
    x, y, z = ring.variables()
    with pytest.raises(IndexOutOfRange):
        eliminate(ideal(x - y, y - z), [index])


@pytest.mark.parametrize("op,operand,expected", [
    (lambda a: intersect(a, Ideal(a.ring, [])), "a", "zero"),
    (lambda a: saturate(a, Ideal(a.ring, [a.ring.from_int(5)])), "a", "a"),
    (saturate_irrelevant, "zero", "zero"),
    (lambda a: eliminate(a, []), "a", "a"),
    (radical_zero_dim, "unit", "unit"),
], ids=["intersect_with_zero", "saturate_by_a_constant",
        "saturate_irrelevant_of_zero", "eliminate_nothing",
        "radical_of_the_unit_ideal"])
def test_degenerate_operands(op, operand, expected):
    # an empty, constant or unit operand has its answer at hand: the
    # zero ideal, or the operand itself
    ring = ring3()
    x, y, z = ring.variables()
    operands = {"a": ideal(x * y - z**2, y**2 - x * z),
                "zero": Ideal(ring, []),
                "unit": Ideal(ring, [ring.one()])}
    result = op(operands[operand])
    if expected == "zero":
        assert result.ring == ring and result.is_zero()
    else:
        assert result is operands[expected]


def _lex_length(a):
    """The standard monomials of a's lex basis, counted off its Hilbert
    data as `vdim` counts those of the grevlex basis."""
    return sum(_h_polynomial(a.gb(LEX).hilbert.numerator, a.ring.arity))


def test_vdim_examples_and_order_independence():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    a = ideal(x**2, y**3)
    assert vdim(a) == 6
    assert _lex_length(a) == 6
    assert vdim(ideal(x)) == INFINITE
    assert vdim(Ideal(ring, [ring.one()])) == 0
    b = ideal(x**2 - y, y**2 - x)
    assert vdim(b) == _lex_length(b) == 4


def test_local_vdim_origin():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    assert local_vdim_origin(ideal(x**2, y**3)) == 6
    # global scheme: origin plus the point (1, 1); only the origin counts
    a = ideal(x * (x - ring.one()), y * (x - ring.one()), y**2 - x * y)
    assert local_vdim_origin(a) == 1
    # unit ideal: empty germ
    assert local_vdim_origin(Ideal(ring, [ring.one()])) == 0


def test_radical_zero_dim():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    rad = radical_zero_dim(ideal(x**2, y**3))
    assert ideal_equal(rad, ideal(x, y))
    with pytest.raises(NotZeroDimensional):
        radical_zero_dim(ideal(x))
    # squarefree but non-radical input over an extension: (x^2+1) stays
    rad2 = radical_zero_dim(ideal(x**2 + ring.one(), y))
    assert ideal_equal(rad2, ideal(x**2 + ring.one(), y))
    # over F_3 the minimal polynomial (y - 1)^3 (y + 1) of y leaves the
    # cube (y - 1)^3 = y^3 - 1 after its gcd with the derivative, and
    # the squarefree part takes its cube root in y, at index 1
    f3 = PolyRing(Field.prime_field(3), ("x", "y"))
    x, y = f3.variables()
    one = f3.one()
    a = ideal(x - one, (y - one)**3 * (y + one))
    assert ideal_equal(radical_zero_dim(a), ideal(x - one, y**2 - one))
    assert distinct_point_count(a) == 2


def test_distinct_point_count():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    one = ring.one()
    # three reduced points
    pts = ideal(x * (x - one) * (x + one), y)
    assert distinct_point_count(pts) == 3
    # fat point counts once
    assert distinct_point_count(ideal(x**2, y)) == 1
    with pytest.raises(NotZeroDimensional):
        distinct_point_count(ideal(x))


def random_points_scheme(ring, rng):
    """A union of 1 to 4 distinct points: some reduced, some fat (a
    power of the maximal ideal or of one coordinate), one maybe of
    residue degree 2 (x^2 + 1 in the first coordinate), returned with
    the radical's generators and its point count."""
    one = ring.one()
    field = ring.field
    coords = set()
    parts = []
    radicals = []
    count = 0
    for _ in range(rng.randint(1, 4)):
        point = tuple(rng.randint(-3, 3) for _ in range(ring.arity))
        if point in coords:
            continue
        coords.add(point)
        lines = [v - one.scale(field.from_int(c))
                 for v, c in zip(ring.variables(), point)]
        radical = ideal(*lines)
        shape = rng.randint(0, 2)
        if shape == 0:
            part = radical
        elif shape == 1:
            part = ideal_product(radical, radical)
        else:
            part = ideal(lines[0]**rng.randint(2, 3), *lines[1:])
        parts.append(part)
        radicals.append(radical)
        count += 1
    if rng.randint(0, 1):
        # x^2 + 1 has no root over QQ, mod 7 or mod 32003, so these two
        # conjugate points meet none of the rational ones
        others = [v - one.scale(field.from_int(5))
                  for v in ring.variables()[1:]]
        conic = ring.variable(0)**2 + one
        parts.append(ideal(conic**rng.randint(1, 2), *others))
        radicals.append(ideal(conic, *others))
        count += 2
    scheme, rad = parts[0], radicals[0]
    for part, radical in zip(parts[1:], radicals[1:]):
        scheme = intersect(scheme, part)
        rad = intersect(rad, radical)
    return scheme, rad, count


@pytest.mark.parametrize("field", [QQ, Field.prime_field(7),
                                   Field.prime_field(32003)],
                         ids=["QQ", "F7", "F32003"])
@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")],
                         ids=["plane", "space"])
def test_radical_of_random_point_unions(field, names):
    ring = PolyRing(field, names)
    rng = SplitMix64(0x7AD1_CA15 + len(names))
    for _ in range(4):
        scheme, rad, count = random_points_scheme(ring, rng)
        assert ideal_equal(radical_zero_dim(scheme), rad)
        assert distinct_point_count(scheme) == count
        assert vdim(rad) == count


def test_radical_in_one_variable():
    # in a one-variable ring the minimal polynomial of x generates a
    for field in (QQ, Field.prime_field(7)):
        ring = PolyRing(field, ("x",))
        x = ring.variable(0)
        one = ring.one()
        a = ideal((x - one)**3 * (x + one) * x**2)
        rad = radical_zero_dim(a)
        assert ideal_equal(rad, ideal((x - one) * (x + one) * x))
        assert distinct_point_count(a) == 3


def _eliminated(a, i):
    """The generator of a ∩ k[x_i] by elimination, moved into a's ring."""
    others = [j for j in range(a.ring.arity) if j != i]
    (generator,) = eliminate(a, others).generators
    return ideals_module._relabel([generator], a.ring).generators[0]


def test_minimal_polynomial():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    a = ideal(x**2 - x, y - x)
    # y satisfies y^2 - y, the generator of a ∩ k[y]
    (generator,) = eliminate(a, (0,)).generators
    t = generator.ring.variable(0)
    assert generator == t**2 - t
    assert ideals_module._minimal_polynomial(a.gb(), 1) == y**2 - y
    # elimination is the oracle on random point unions and on the
    # golden ideal-op operand A
    schemes = []
    for field in (QQ, Field.prime_field(7), Field.prime_field(32003)):
        for names in (("x", "y"), ("x", "y", "z")):
            rng = SplitMix64(0x7AD1_CA15 + len(names))
            ring = PolyRing(field, names)
            schemes += [random_points_scheme(ring, rng)[0] for _ in range(4)]
    ring = ring3()
    x, y, z = ring.variables()
    schemes.append(ideal(x**3 - y * z, y**2 - x * z, z**3 - ring.one()))
    for a in schemes:
        for i in range(a.ring.arity):
            assert (ideals_module._minimal_polynomial(a.gb(), i)
                    == _eliminated(a, i))


def test_radical_reads_minimal_polynomials_off_the_basis(monkeypatch):
    # the twelve reduced points of RNC5's transversal witness on its
    # chart h = 1, as `transversality_count` counts them: a's grevlex
    # basis and one univariate gcd per variable, no elimination
    witness = construct_ci_transversal(rnc_curve(5), seed=0)
    ring = witness.on_curve.ring
    a = ideal_sum(witness.on_curve, Ideal(ring, [witness.h - ring.one()]))

    def eliminate(*args):
        raise AssertionError("radical_zero_dim eliminated")

    orders = []
    real = groebner_module._buchberger

    def buchberger(gens, packing, *args):
        orders.append(packing.order)
        return real(gens, packing, *args)

    monkeypatch.setattr(ideals_module, "eliminate", eliminate)
    monkeypatch.setattr(groebner_module, "_buchberger", buchberger)
    assert distinct_point_count(a) == 12
    assert len(orders) <= 7
    assert not any(isinstance(order, Block) for order in orders)
    # a reduced scheme is its own radical and keeps its basis
    assert radical_zero_dim(a).gb() is a.gb()
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    b = ideal(x * (x - ring.one()), y - x)
    assert radical_zero_dim(b).gb() is b.gb()


def test_transversality_count_echelon_builds_few_fractions(monkeypatch):
    # the minimal polynomials behind the count come from integer rows,
    # made monic only at the end: a few hundred `Fraction`s, where an
    # echelon of `Fraction` rows builds thousands
    curve = rnc_curve(5)
    witness = construct_ci_transversal(curve, seed=0)
    built = []
    new = Fraction.__new__

    def counted_new(*args, **kwargs):
        built.append(None)
        return new(*args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if "_from_coprime_ints" in vars(Fraction):
        from_ints = vars(Fraction)["_from_coprime_ints"].__func__

        def counted_from_ints(*args, **kwargs):
            built.append(None)
            return from_ints(*args, **kwargs)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counted_from_ints))
    assert transversality_count(curve, witness) == (12, True)
    assert len(built) <= 250


def test_krull_dimension_bounds():
    from cidcurve import krull_dimension

    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    a = Ideal(ring, twisted_cubic_gens(ring))
    assert krull_dimension(a) == 2
    x0 = ring.variable(0)
    assert krull_dimension(ideal_sum(a, ideal(x0))) == 1


def test_dimension_at_most_falls_back_on_an_unlucky_prime(monkeypatch):
    # (x + p*y, x, z) is the irrelevant ideal over QQ, but its image mod
    # the screening prime p is (x, z), of dimension 1: a itself is asked
    # next, and the answer stays right
    p = ideals_module._SCREEN_FIELD.characteristic
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    a = Ideal(ring, [x + y.scale(QQ.from_int(p)), x, z])
    runs = stopped_runs(monkeypatch)
    assert dimension_at_most(a, 0)
    image = a._mod_p_image
    assert runs == [(image.generators, 0, image.ring),
                    (a.generators, 0, ring)]
    assert krull_dimension(image) == 1
    # a lucky image certifies the bound with no run on b itself
    b = Ideal(ring, [x + y.scale(QQ.from_int(p + 1)), x, z])
    runs.clear()
    assert dimension_at_most(b, 0)
    assert [run_ring for _, _, run_ring in runs] == [
        b._mod_p_image.ring]
    assert not b._gb_cache


def test_dimension_at_most_screens_only_wide_coefficients(monkeypatch):
    # the twisted cubic cut by a hyperplane is three points: dimension 1.
    # With every primitive coefficient below the screening prime p it is
    # asked exactly and no image is built; a coefficient that reaches p
    # builds the image, which certifies the same answer with no run on
    # the ideal itself.  The width is read after denominators are
    # cleared.
    p = ideals_module._SCREEN_FIELD.characteristic
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    runs = stopped_runs(monkeypatch)
    for h, wide in ((x0 + x3.scale(Fraction(p - 1)), False),
                    ((x0 + x3).scale(Fraction(1, p)), False),
                    (x0 + x3.scale(Fraction(p)), True),
                    (x0 + x3.scale(Fraction(1, p)), True)):
        gens = [*twisted_cubic_gens(ring), h]
        a = Ideal(ring, gens)
        runs.clear()
        assert dimension_at_most(a, 1)
        assert (a._mod_p_image is not None) == wide
        assert [run_ring.field for _, _, run_ring in runs] == [
            ideals_module._SCREEN_FIELD if wide else QQ]
        assert not dimension_at_most(Ideal(ring, gens), 0)


def test_dimension_at_most_rejects_an_affine_ideal_before_any_image():
    # a wide ideal that is not homogeneous is rejected before its image
    # mod p or any Buchberger run is built
    p = ideals_module._SCREEN_FIELD.characteristic
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    a = Ideal(ring, [x + y.scale(QQ.from_int(p)), z**2 - ring.one()])
    with pytest.raises(NotHomogeneous):
        dimension_at_most(a, 1)
    assert a._mod_p_image is None
    assert not a._gb_cache


def test_dimension_stop_needs_every_set_of_variables():
    # (x0, x1) in P^3 covers every 2-set of variables but {x2, x3}:
    # dimension 2, so a run that stopped with one set left would answer
    # dim <= 1 wrongly
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    assert not dimension_at_most(Ideal(ring, [x0, x1]), 1)
    assert dimension_at_most(Ideal(ring, [x0, x1]), 2)
    assert dimension_at_most(Ideal(ring, [x0, x1, x2 * x3]), 1)
    assert not dimension_at_most(Ideal(ring, [x0, x1 * x2, x1 * x3]), 1)


@st.composite
def _homogeneous_ideals(draw):
    """One to four forms of degrees 1 to 3 in three or four variables
    over QQ or F_7, each with one to three terms and small coefficients
    (over QQ some reach the screening prime)."""
    field = draw(st.sampled_from((QQ, Field.prime_field(7))))
    arity = draw(st.integers(3, 4))
    ring = PolyRing(field, tuple(f"x{i}" for i in range(arity)))
    p = ideals_module._SCREEN_FIELD.characteristic
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 3))
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = [0] * arity
            for _ in range(degree):
                exps[draw(st.integers(0, arity - 1))] += 1
            c = draw(st.sampled_from((1, -1, 2, 3, p, p + 1)))
            terms[tuple(exps)] = field.from_int(c)
        f = ring.polynomial(terms)
        if f:
            gens.append(f)
    return ring, gens


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_homogeneous_ideals())
def test_dimension_stop_agrees_with_the_exact_dimension(case):
    # at every bound the stopped verdict is the fresh exact dimension's,
    # and a no leaves the reduced grevlex basis of the generators
    ring, gens = case
    dim = krull_dimension(Ideal(ring, gens))
    basis = groebner_basis(gens, ring=ring)
    for bound in range(ring.arity + 1):
        fresh = Ideal(ring, gens)
        answer = dimension_at_most(fresh, bound)
        assert answer == (dim <= bound)
        if not answer:
            assert fresh._gb_cache[GREVLEX].elements == basis.elements
        stopped = basis_unless_dimension_at_most(gens, bound, ring)
        assert (stopped is None) == (dim <= bound)
        if stopped is not None:
            assert stopped.elements == basis.elements


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_homogeneous_ideals(), split=st.integers(1, 3),
       warm=st.sampled_from(("nothing", "basis", "image")))
def test_dimension_at_most_on_an_extension_gives_the_fresh_verdict(
        case, split, warm):
    # an extension's stopped runs start from what its base keeps: its
    # grevlex basis, or its image mod p with the image's basis.  At
    # every bound the verdict is the fresh one, a no leaves the reduced
    # grevlex basis of all the generators, and an image of the extension
    # extends the base's
    ring, gens = case
    if len(gens) < 2:
        return
    base = Ideal(ring, gens[:min(split, len(gens) - 1)])
    extra = gens[len(base.generators):]
    image = None
    if warm == "basis":
        base.gb()
    elif (warm == "image" and not ring.field.characteristic
            and ideals_module._wide(base)):
        image = ideals_module._mod_p(base)
        image.gb()
    dim = krull_dimension(Ideal(ring, gens))
    basis = groebner_basis(gens, ring=ring)
    for bound in range(ring.arity + 1):
        extension = ideals_module._extension(base, extra)
        answer = dimension_at_most(extension, bound)
        assert answer == (dim <= bound)
        if not answer:
            assert extension._gb_cache[GREVLEX].elements == basis.elements
        if image is not None:
            assert extension._mod_p_image._base is image


def _buchberger_runs(monkeypatch):
    """The characteristic of every Buchberger run from now on, in order."""
    runs = []
    real = groebner_module._buchberger

    def spy(gens, packing, char, *args):
        runs.append(char)
        return real(gens, packing, char, *args)

    monkeypatch.setattr(groebner_module, "_buchberger", spy)
    return runs


def test_a_proved_bound_answers_the_ideal_and_its_extensions(monkeypatch):
    # the twisted cubic cut by x0 and x3 is empty: one stopped run proves
    # dim <= 0, and no later question of a or of an extension of a with
    # a bound at least as large runs again
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    a = Ideal(ring, [*twisted_cubic_gens(ring), x0, x3])
    runs = _buchberger_runs(monkeypatch)
    assert dimension_at_most(a, 0)
    assert runs == [0]
    extension = ideals_module._extension(a, [x1 + x2])
    deeper = ideals_module._extension(extension, [x2 - x1])
    for b in (a, extension, deeper):
        assert dimension_at_most(b, 0) and dimension_at_most(b, 1)
    assert runs == [0]
    assert not a._gb_cache and not extension._gb_cache


def test_a_proved_bound_does_not_answer_a_smaller_one(monkeypatch):
    # the twisted cubic cut by a hyperplane is three points: dim <= 1 is
    # proved once and kept, but dim <= 0 still runs, to the basis that
    # proves it false, and an extension through the point (1:-1:1:-1)
    # asks its own smaller bound too
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    a = Ideal(ring, [*twisted_cubic_gens(ring), x0 + x3])
    runs = _buchberger_runs(monkeypatch)
    assert dimension_at_most(a, 1)
    assert dimension_at_most(a, 1) and dimension_at_most(a, 2)
    assert runs == [0]
    extension = ideals_module._extension(a, [x0 + x1])
    assert dimension_at_most(extension, 1)
    assert runs == [0]
    assert not dimension_at_most(a, 0)
    assert runs == [0, 0] and GREVLEX in a._gb_cache
    assert not dimension_at_most(extension, 0)
    assert runs == [0, 0, 0]


def test_a_bound_the_image_certifies_is_kept(monkeypatch):
    # a coefficient past the screening prime p sends the question to the
    # image mod p, which certifies it; the bound is kept on the QQ ideal,
    # so asking it again, or of an extension, runs nothing, and no exact
    # basis is ever built
    p = ideals_module._SCREEN_FIELD.characteristic
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    a = Ideal(ring, [*twisted_cubic_gens(ring), x0 + x3.scale(Fraction(p))])
    runs = _buchberger_runs(monkeypatch)
    assert dimension_at_most(a, 1)
    assert runs == [p]
    extension = ideals_module._extension(a, [x1 - x2])
    assert dimension_at_most(a, 1) and dimension_at_most(extension, 1)
    assert dimension_at_most(extension, 3)
    assert runs == [p]
    assert not a._gb_cache and extension._mod_p_image is None


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp32003"])
def test_kept_bounds_give_the_exact_verdicts(field, monkeypatch):
    # the junk ideals of P^2 and two extensions of each by seeded linear
    # forms, asked every bound the exact dimension meets, from the top
    # down: asked again, each is answered by a kept bound with no run,
    # and then every bound gets the exact verdict
    runs = _buchberger_runs(monkeypatch)
    for seed in (1, 2, 3, 4):
        ring, _, _, (a, _) = _junk_ideals(field, seed)
        rng = SplitMix64(seed ^ 0xB0B)
        chain = [a]
        for _ in range(2):
            chain.append(ideals_module._extension(
                chain[-1], [random_form(ring, rng, 1)]))
        exact = [krull_dimension(Ideal(ring, b.generators)) for b in chain]
        top = ring.arity
        for b, dim in zip(chain, exact):
            for bound in range(top, dim - 1, -1):
                assert dimension_at_most(b, bound)
        runs.clear()
        for b, dim in zip(chain, exact):
            for bound in range(top, dim - 1, -1):
                assert dimension_at_most(b, bound)
        assert runs == []
        for b, dim in zip(chain, exact):
            for bound in range(-1, top + 1):
                assert dimension_at_most(b, bound) == (dim <= bound)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_homogeneous_ideals())
def test_image_of_a_cached_basis_is_the_reduced_basis_mod_p(case):
    # with a's exact basis cached and p dividing none of its primitive
    # leading coefficients, the image is that basis mod p, already the
    # reduced basis of the ideal it generates.  The generators' images
    # lie in it, and they generate it whenever their own basis has the
    # same leading monomials, that is the same Hilbert function
    ring, gens = case
    if ring.field.characteristic:
        return
    p = ideals_module._SCREEN_FIELD.characteristic
    a = Ideal(ring, gens)
    exact = a.gb()
    lucky = all(terms[lead] % p
                for terms, lead in zip(exact.primitive_terms(),
                                       exact.leading_exponents()))
    image = ideals_module._mod_p(a)
    assert (GREVLEX in image._gb_cache) == lucky
    if not lucky:
        return
    basis = image._gb_cache[GREVLEX]
    assert basis.leading_exponents() == exact.leading_exponents()
    assert groebner_basis(basis.elements).elements == basis.elements
    images = [image.ring.polynomial({e: c % p for e, c in
                                     g.int_terms()[0].items()})
              for g in gens]
    assert all(basis.contains(f) for f in images)
    fresh = groebner_basis(images, ring=image.ring)
    if fresh.leading_exponents() == exact.leading_exponents():
        assert fresh.elements == basis.elements


@pytest.mark.parametrize("extra", ["x3", "x0 + x3"])
def test_an_unlucky_base_basis_falls_back_to_the_generator_image(
        extra, monkeypatch):
    # the primitive basis element p*x0 - x1 of the base has leading
    # coefficient p, so its image mod p is not the image's basis: the
    # base's image is its generators' image, with no basis, and an
    # extension's image extends it and still gives the exact verdicts
    p = ideals_module._SCREEN_FIELD.characteristic
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    base = Ideal(ring, [x0.scale(QQ.from_int(p)) - x1, x2])
    base.gb()
    runs = stopped_runs(monkeypatch)
    for bound, verdict in ((0, False), (1, True)):
        extension = ideals_module._extension(base, [ring.parse(extra)])
        assert dimension_at_most(extension, bound) == verdict
        image = base._mod_p_image
        assert GREVLEX not in image._gb_cache
        assert image.generators == tuple(
            image.ring.polynomial({e: c % p for e, c in
                                   g.int_terms()[0].items()})
            for g in base.generators)
        assert extension._mod_p_image._base is image
    assert [run_ring.field for _, _, run_ring in runs] == [
        ideals_module._SCREEN_FIELD, QQ, ideals_module._SCREEN_FIELD]


def test_dimension_at_most_builds_no_image_over_fp():
    ring = PolyRing(Field.prime_field(32003), ("x0", "x1", "x2", "x3"))
    a = Ideal(ring, twisted_cubic_gens(ring))
    assert dimension_at_most(a, 2) and not dimension_at_most(a, 1)
    assert a._mod_p_image is None
    assert GREVLEX in a._gb_cache


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp32003"])
def test_dimension_at_most_agrees_with_krull_dimension(field):
    # each call gets a fresh copy of its ideal, so nothing cached makes
    # the answer exact before the image is tried; x0 -> x0 + (p + 1)*x2
    # changes coordinates with a coefficient past the screening prime p,
    # so over QQ the moved copy is screened
    p = ideals_module._SCREEN_FIELD.characteristic
    for seed in (1, 2, 3):
        a, divisors = _colon_cases(field, True, seed)
        x0, x1, x2 = a.ring.variables()
        move = (x0 + x2.scale(field.from_int(p + 1)), x1, x2)
        for b in [a] + divisors + [ideal_sum(a, d) for d in divisors]:
            dim = krull_dimension(Ideal(b.ring, b.generators))
            moved = [g.compose(b.ring, move) for g in b.generators]
            for gens in (b.generators, moved):
                for bound in range(b.ring.arity + 1):
                    fresh = Ideal(b.ring, gens)
                    assert dimension_at_most(fresh, bound) == (dim <= bound)
        affine, _ = _colon_cases(field, False, seed)
        with pytest.raises(NotHomogeneous):
            dimension_at_most(affine, 1)


def test_ring_mismatch_rejected():
    r1 = PolyRing(QQ, ("x", "y"))
    r2 = PolyRing(QQ, ("a", "b"))
    with pytest.raises(RingMismatch):
        ideal_sum(ideal(r1.variable(0)), ideal(r2.variable(0)))


@st.composite
def _univariate_products(draw):
    """A product of powers (exponents up to 7, p-th powers included) of
    small polynomials in one variable of a two-variable ring."""
    field = draw(st.sampled_from((QQ, Field.prime_field(2),
                                  Field.prime_field(3),
                                  Field.prime_field(5))))
    ring = PolyRing(field, ("x", "y"))
    index = draw(st.integers(0, 1))
    v = ring.variable(index)
    f = ring.one()
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=4))
        factor = ring.zero()
        for k, c in enumerate(coeffs):
            factor = factor + v**k * ring.from_int(c)
        if factor:
            f = f * factor**draw(st.integers(1, 7))
    return f, index


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_univariate_products())
def test_squarefree_part(case):
    f, index = case
    part = ideals_module._squarefree_part(f, index)
    ring = f.ring
    assert part.leading(GREVLEX)[1] == ring.field.one()
    assert all(not e[1 - index] for e in part.terms)
    # part divides f, and f divides part^deg f
    assert Ideal(ring, [part]).contains(f)
    multiple = Ideal(ring, [f]).gb()
    power = multiple.normal_form(ring.one())
    for _ in range(f.total_degree()):
        power = multiple.normal_form(power * part)
    assert not power
    # squarefree: coprime to its derivative
    assert Ideal(ring, [part, part.derivative(index)]).is_unit()


def _degree_monomials(ring, degree):
    """The monomials of one degree, generators of m^degree."""
    out = []
    for combo in combinations_with_replacement(range(ring.arity), degree):
        exps = [0] * ring.arity
        for i in combo:
            exps[i] += 1
        out.append(ring.polynomial({tuple(exps): ring.field.one()}))
    return out


def _doubling_local_vdim(a, cap=256):
    """The doubling loop every ideal once took, kept as the oracle:
    vdim(a + m^n) for n = 2, 4, 8, ... up to cap, returned once two
    consecutive values agree."""
    if a.is_unit():
        return 0
    previous = None
    n = 2
    while n <= cap:
        truncated = Ideal(a.ring, list(a.generators)
                          + _degree_monomials(a.ring, n))
        value = vdim(truncated)
        if previous is not None and value == previous:
            return value
        previous = value
        n *= 2
    raise PrecisionCapExceeded(
        f"local length did not stabilize up to truncation order {cap}", cap=cap
    )


def _local_vdim_or_cap(a, cap):
    try:
        return local_vdim_origin(a, cap)
    except PrecisionCapExceeded as exc:
        return ("cap", exc.cap)


def _oracle_or_cap(a, cap):
    try:
        return _doubling_local_vdim(a, cap)
    except PrecisionCapExceeded as exc:
        return ("cap", exc.cap)


@st.composite
def _local_length_cases(draw):
    """(ideal, cap): two times in five an m-primary ideal (pure powers
    plus forms, a power perturbed by a term of higher degree one time in
    four), else a homogeneous one with fewer forms than variables, a
    homogeneous monomial one, or an affine one with fewer generators
    than variables, each the sum of forms of two degrees with no
    constant term, so the origin is not isolated; over QQ, F_32003 or
    F_2 in 2 or 3 variables."""
    field = draw(st.sampled_from((QQ, Field.prime_field(32003),
                                  Field.prime_field(2))))
    ring = PolyRing(field, ("x", "y", "z")[:draw(st.integers(2, 3))])
    n = ring.arity

    def monomial(degree):
        exps = [0] * n
        for _ in range(degree):
            exps[draw(st.integers(0, n - 1))] += 1
        return ring.polynomial({tuple(exps): field.one()})

    def form(degree):
        f = ring.zero()
        for _ in range(draw(st.integers(1, 3))):
            c = draw(st.sampled_from((1, -1, 2, 3, -3)))
            f = f + monomial(degree) * ring.from_int(c)
        return f

    kind = draw(st.sampled_from(("m_primary", "positive_dim", "monomial",
                                 "m_primary", "affine")))
    if kind == "m_primary":
        gens = []
        for i, v in enumerate(ring.variables()):
            d = draw(st.integers(1, 3))
            power = v**d
            if draw(st.integers(0, 3)) == 0:
                power = power + monomial(d + 1)
            gens.append(power)
        gens += [form(draw(st.integers(1, 3)))
                 for _ in range(draw(st.integers(0, 2)))]
    elif kind == "positive_dim":
        gens = [form(draw(st.integers(1, 3)))
                for _ in range(draw(st.integers(1, n - 1)))]
    elif kind == "monomial":
        gens = [monomial(draw(st.integers(1, 4)))
                for _ in range(draw(st.integers(1, n + 1)))]
    else:
        gens = []
        for _ in range(draw(st.integers(1, n - 1))):
            low = draw(st.integers(1, 2))
            gens.append(form(low) + form(low + draw(st.integers(1, 2))))
    cap = draw(st.sampled_from((256, 16, 4, 2, 1)))
    if kind == "affine" or cap == 256 and n == 3 and kind != "m_primary":
        # the oracle runs to the cap on an infinite quotient, and m^256
        # in three variables, or any truncation of an affine ideal past
        # m^16, makes that too slow to repeat
        cap = min(cap, 16)
    return Ideal(ring, gens), cap


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_local_length_cases())
def test_local_vdim_origin_matches_the_doubling_loop(case):
    a, cap = case
    assert _local_vdim_or_cap(a, cap) == _oracle_or_cap(a, cap)


def test_local_vdim_origin_caps_where_the_doubling_did():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    cases = [(Ideal(ring, [x**128, y]), 256, 128),
             (Ideal(ring, [x**129, y]), 256, ("cap", 256)),
             (Ideal(ring, [x**3, y]), 8, 3),
             (Ideal(ring, [x**3, y]), 4, ("cap", 4)),
             # socle degree 0 still takes two doublings
             (Ideal(ring, [x, y]), 4, 1),
             (Ideal(ring, [x, y]), 2, ("cap", 2)),
             # the origin is off V(a), an empty tangent cone, and that
             # too takes two doublings; the unit ideal takes none
             (Ideal(ring, [x - ring.one(), y]), 4, 0),
             (Ideal(ring, [x - ring.one(), y]), 2, ("cap", 2)),
             (Ideal(ring, [ring.one()]), 1, 0)]
    for a, cap, expected in cases:
        assert _local_vdim_or_cap(a, cap) == expected
        assert _oracle_or_cap(a, cap) == expected


def test_local_vdim_origin_takes_one_run(monkeypatch):
    # one Block(1) run on the homogenized generators, whatever the cap;
    # an origin on a curve raises at once, even at the default cap
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    m_primary = Ideal(ring, [x**2 - y**3, y**2 + x * z, z**3 - x**4])
    on_curve = Ideal(ring, [y - x**3 - x**2, z**2 - x * y * z + y**3])
    runs = []
    real = groebner_module._buchberger

    def buchberger(gens, packing, *args):
        runs.append(packing.order)
        return real(gens, packing, *args)

    monkeypatch.setattr(groebner_module, "_buchberger", buchberger)
    assert local_vdim_origin(m_primary, 16) == 12
    assert runs == [Block(1)]
    runs.clear()
    with pytest.raises(PrecisionCapExceeded) as info:
        local_vdim_origin(on_curve, 16)
    assert info.value.cap == 16
    assert runs == [Block(1)]
    with pytest.raises(PrecisionCapExceeded) as info:
        local_vdim_origin(on_curve)
    assert info.value.cap == 256
