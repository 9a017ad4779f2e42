"""Ideal operations: membership laws, elimination, saturation, lengths."""

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
    vdim,
)
from cidcurve import ideals as ideals_module
from cidcurve.errors import (
    NotHomogeneous,
    NotZeroDimensional,
    PrecisionCapExceeded,
    RingMismatch,
)
from cidcurve.ideals import colon_principal, divide_exact
from cidcurve.orders import Block
from cidcurve.rng import SplitMix64

from conftest import exact_colon, twisted_cubic_gens

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
    # take a principal colon or enter the random combination; the result
    # is the full intersection's
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
    # every divisor tried, drawn or in the exact fold, lies in (z, x)
    assert divisors
    assert all(set(g.terms) <= {(1, 0, 0), (0, 0, 1)} for g in divisors)
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


def colon_by_elimination(a, g):
    """(a : g) the old way: exact division of a ∩ (g) by g."""
    meet = intersect(a, Ideal(a.ring, [g]))
    return Ideal(a.ring, [divide_exact(f, g) for f in meet.generators])


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
    # the random combination, once certified, is returned as the same
    # monic reduced grevlex basis the exact fold prints
    for seed in (1, 2, 3):
        a, divisors = _colon_cases(field, homogeneous, seed)
        for b in divisors:
            expected = [str(g) for g in exact_colon(a, b).generators]
            got = quotient(a, b, seed=seed)
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


def test_quotient_mixed_degrees(monkeypatch):
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    tc = Ideal(ring, twisted_cubic_gens(ring))
    # the cubic plus the line x0 = x1 = 0 through its point (0:0:0:1)
    a = intersect(tc, ideal(x0, x1))
    # b cuts out the line but not the cubic, and mixes degrees 1 and 2
    b = ideal(x0, x1**2 + x0 * x3)
    orders = []
    real = ideals_module.groebner_basis

    def spy(gens, order, ring=None, target=None):
        orders.append(order)
        return real(gens, order, ring=ring, target=target)

    monkeypatch.setattr(ideals_module, "groebner_basis", spy)
    result = quotient(a, b, seed=4)
    assert not any(isinstance(order, Block) for order in orders)
    monkeypatch.undo()
    assert ideal_equal(result, tc)
    assert ideal_equal(result, exact_colon(a, b))


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


def test_vdim_examples_and_order_independence():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    a = ideal(x**2, y**3)
    assert vdim(a) == 6
    assert vdim(a, order=LEX) == 6
    assert vdim(ideal(x)) == INFINITE
    assert vdim(Ideal(ring, [ring.one()])) == 0
    b = ideal(x**2 - y, y**2 - x)
    assert vdim(b, order=GREVLEX) == vdim(b, order=LEX) == 4


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
    # a one-variable ring has no other variable to eliminate
    for field in (QQ, Field.prime_field(7)):
        ring = PolyRing(field, ("x",))
        x = ring.variable(0)
        one = ring.one()
        a = ideal((x - one)**3 * (x + one) * x**2)
        rad = radical_zero_dim(a)
        assert ideal_equal(rad, ideal((x - one) * (x + one) * x))
        assert distinct_point_count(a) == 3


def test_minimal_polynomial():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    one = ring.one()
    a = ideal(x**2 - x, y - x)
    # y satisfies y^2 - y, the generator of a ∩ k[y]
    (generator,) = eliminate(a, (0,)).generators
    t = generator.ring.variable(0)
    assert generator == t**2 - t


def test_krull_dimension_bounds():
    from cidcurve import krull_dimension

    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    a = Ideal(ring, twisted_cubic_gens(ring))
    assert krull_dimension(a) == 2
    x0 = ring.variable(0)
    assert krull_dimension(ideal_sum(a, ideal(x0))) == 1


def test_dimension_at_most_falls_back_on_an_unlucky_prime():
    # (x + p*y, x, z) is the irrelevant ideal over QQ, but its image mod
    # the screening prime p is (x, z), of dimension 1: the exact basis
    # decides, and the answer stays right
    p = ideals_module._SCREEN_FIELD.characteristic
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    a = Ideal(ring, [x + y.scale(QQ.from_int(p)), x, z])
    assert dimension_at_most(a, 0)
    assert GREVLEX in a._gb_cache
    assert krull_dimension(a._data_cache["mod_p"]) == 1
    # a lucky image certifies the bound with no exact basis
    b = Ideal(ring, [x + y.scale(QQ.from_int(p + 1)), x, z])
    assert dimension_at_most(b, 0)
    assert not b._gb_cache


def test_dimension_at_most_builds_no_image_over_fp():
    ring = PolyRing(Field.prime_field(32003), ("x0", "x1", "x2", "x3"))
    a = Ideal(ring, twisted_cubic_gens(ring))
    assert dimension_at_most(a, 2) and not dimension_at_most(a, 1)
    assert "mod_p" not in a._data_cache
    assert GREVLEX in a._gb_cache


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp32003"])
def test_dimension_at_most_agrees_with_krull_dimension(field):
    # each call gets a fresh copy of its ideal, so nothing cached makes
    # the answer exact before the image is tried
    for seed in (1, 2, 3):
        a, divisors = _colon_cases(field, True, seed)
        for b in [a] + divisors + [ideal_sum(a, d) for d in divisors]:
            dim = krull_dimension(Ideal(b.ring, b.generators))
            for bound in range(b.ring.arity + 1):
                fresh = Ideal(b.ring, b.generators)
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


def _doubling_local_vdim(a, cap=256):
    """The doubling loop every ideal once took, kept as the oracle."""
    if a.is_unit():
        return 0
    previous = None
    n = 2
    while n <= cap:
        truncated = Ideal(a.ring, list(a.generators)
                          + ideals_module._degree_monomials(a.ring, n))
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
    """(ideal, cap): half of the time an m-primary ideal (pure powers
    plus forms, a power perturbed by a term of higher degree one time in
    four), else a homogeneous one with fewer forms than variables or a
    homogeneous monomial one, over QQ, F_32003 or F_2 in 2 or 3
    variables."""
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
                                 "m_primary")))
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
    else:
        gens = [monomial(draw(st.integers(1, 4)))
                for _ in range(draw(st.integers(1, n + 1)))]
    cap = draw(st.sampled_from((256, 16, 4, 2, 1)))
    if cap == 256 and n == 3 and kind != "m_primary":
        # the oracle runs to the cap on an infinite quotient, and m^256
        # in three variables makes that too slow to repeat
        cap = 16
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
             (Ideal(ring, [x, y]), 2, ("cap", 2))]
    for a, cap, expected in cases:
        assert _local_vdim_or_cap(a, cap) == expected
        assert _oracle_or_cap(a, cap) == expected
