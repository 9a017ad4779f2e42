"""Hilbert series invariants against a brute-force monomial count."""

from fractions import Fraction
from itertools import product

import pytest

from cidcurve import (
    INFINITE,
    Field,
    Ideal,
    PolyRing,
    arithmetic_genus,
    graded_dimension,
    hilbert_polynomial,
    hilbert_series,
    krull_dimension,
    proj_degree,
    proj_dimension,
    vdim,
)
from cidcurve.errors import NotACurve
from cidcurve.hilbert import (
    ci_hilbert_data,
    lt_numerator,
    lt_numerator_extend,
)
from cidcurve.rng import SplitMix64

from conftest import twisted_cubic_gens

QQ = Field.rationals()


def brute_graded_dimension(a, mu):
    """Count degree-mu monomials outside the leading-term ideal by
    direct enumeration."""
    basis = a.gb()
    lms = [f.leading()[0] for f in basis.elements]
    ring = a.ring
    count = 0

    def rec(pos, remaining, exps):
        nonlocal count
        if pos == ring.arity - 1:
            done = exps + (remaining,)
            if not any(all(x >= y for x, y in zip(done, lm)) for lm in lms):
                count += 1
            return
        for e in range(remaining + 1):
            rec(pos + 1, remaining - e, exps + (e,))

    rec(0, mu, ())
    return count


@pytest.mark.parametrize("mu", [0, 1, 2, 3, 5, 8])
def test_graded_dimension_matches_brute_force(mu):
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    a = Ideal(ring, twisted_cubic_gens(ring))
    assert graded_dimension(a, mu) == brute_graded_dimension(a, mu)


def test_twisted_cubic_invariants():
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    a = Ideal(ring, twisted_cubic_gens(ring))
    data = hilbert_series(a)
    assert krull_dimension(a) == 2
    assert proj_dimension(a) == 1
    assert proj_degree(a) == 3
    assert data.p_a == 0
    # Hilbert polynomial 3*mu + 1
    assert hilbert_polynomial(a) == (Fraction(1), Fraction(3))
    for mu in (2, 3, 6):
        assert graded_dimension(a, mu) == 3 * mu + 1


def test_hilbert_polynomial_eventually_equals_function():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    a = Ideal(ring, [x**2 * y - z**3])
    coeffs = hilbert_polynomial(a)
    for mu in (4, 5, 7):
        value = sum(c * mu**k for k, c in enumerate(coeffs))
        assert graded_dimension(a, mu) == value


def test_plane_curves_genus():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    for d in (3, 4, 5):
        a = Ideal(ring, [x**d + y**d + z**d])
        assert proj_degree(a) == d
        assert arithmetic_genus(a) == (d - 1) * (d - 2) // 2


def test_complete_intersection_data():
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    # CI of a quadric and a cubic in P^3
    a = Ideal(ring, [x0 * x3 - x1 * x2, x0**3 + x1**3 + x2**3 + x3**3])
    assert proj_dimension(a) == 1
    assert proj_degree(a) == 6
    # genus of a (2,3) complete intersection curve
    assert arithmetic_genus(a) == 4
    # closed-form series for the same degrees agrees
    data = ci_hilbert_data((2, 3), 4)
    assert data.degree == 6
    assert data.p_a == 4


def test_empty_scheme_conventions():
    ring = PolyRing(QQ, ("x", "y", "z"))
    a = Ideal(ring, [ring.one()])
    data = hilbert_series(a)
    assert data.degree == 0
    assert data.p_a == 1


def test_genus_guards():
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    gens = twisted_cubic_gens(ring)
    dirty = Ideal(ring, [v * g for v in ring.variables() for g in gens])
    assert arithmetic_genus(dirty) == 0
    x0 = ring.variable(0)
    with pytest.raises(NotACurve):
        arithmetic_genus(Ideal(ring, [x0]))


def test_points_have_degree_count():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    # two reduced points on the projective line
    a = Ideal(ring, [x * y])
    assert proj_dimension(a) == 0
    assert proj_degree(a) == 2


def brute_box_count(gens, arity, bound):
    """Monomials with every exponent below `bound` that no generator
    divides, by direct enumeration."""
    return sum(
        1 for exps in product(range(bound), repeat=arity)
        if not any(all(g <= e for g, e in zip(gen, exps)) for gen in gens)
    )


def random_monomial_ideal(rng, arity, finite):
    """A few mixed monomials plus a pure power of every variable when
    `finite`, else of all but one variable."""
    gens = []
    for _ in range(rng.randint(0, 4)):
        gens.append(tuple(rng.randint(0, 3) for _ in range(arity)))
    skip = -1 if finite else rng.randint(0, arity - 1)
    for i in range(arity):
        if i != skip:
            gens.append(tuple(rng.randint(1, 4) if j == i else 0
                              for j in range(arity)))
    return gens


@pytest.mark.parametrize("seed", range(12))
def test_count_standard_monomials_matches_enumeration(seed):
    rng = SplitMix64(seed)
    for arity in (1, 2, 3, 4):
        ring = PolyRing(QQ, tuple(f"x{i}" for i in range(arity)))
        for finite in (True, False):
            gens = random_monomial_ideal(rng, arity, finite)
            # every exponent of a standard monomial of a finite ideal is
            # below its variable's pure power, so the count in a box past
            # all generators stops growing exactly when it is finite
            top = max((max(g) for g in gens), default=0) + 1
            inner = brute_box_count(gens, arity, top)
            outer = brute_box_count(gens, arity, top + 1)
            count = vdim(Ideal(ring, [ring.polynomial({g: QQ.one()})
                                       for g in gens]))
            if inner == outer:
                assert count == inner
            else:
                assert count == INFINITE
            assert finite <= (count != INFINITE)


@pytest.mark.parametrize("field", [QQ, Field.prime_field(7),
                                   Field.prime_field(32003)],
                         ids=["QQ", "F7", "F32003"])
def test_vdim_matches_staircase_enumeration(field):
    ring = PolyRing(field, ("x", "y", "z"))
    rng = SplitMix64(0x5747_C0DE)
    for _ in range(6):
        gens = [v**rng.randint(1, 3) for v in ring.variables()]
        for _ in range(2):
            f = ring.zero()
            for _ in range(3):
                exps = tuple(rng.randint(0, 2) for _ in range(3))
                f = f + ring.polynomial(
                    {exps: field.from_int(rng.randint(-5, 5))})
            gens.append(f)
        a = Ideal(ring, gens)
        lms = [g.leading()[0] for g in a.gb().elements]
        top = max(max(m) for m in lms) + 1
        assert vdim(a) == brute_box_count(lms, 3, top)


def brute_weighted_dimension(gens, weights, degree):
    """Monomials of weighted degree `degree` that no generator divides,
    by direct enumeration of the weighted staircase."""
    ranges = [range(degree // w + 1) for w in weights]
    return sum(
        1 for exps in product(*ranges)
        if sum(w * e for w, e in zip(weights, exps)) == degree
        and not any(all(g <= e for g, e in zip(gen, exps)) for gen in gens)
    )


def series_coefficients(numerator, weights, top):
    """The first top + 1 coefficients of numerator / prod (1 - t^w)."""
    coeffs = [0] * (top + 1)
    for k, c in enumerate(numerator[:top + 1]):
        coeffs[k] = c
    for w in weights:
        for k in range(w, top + 1):
            coeffs[k] += coeffs[k - w]
    return coeffs


@pytest.mark.parametrize("seed", range(12))
def test_weighted_lt_numerator_matches_the_staircase(seed):
    rng = SplitMix64(0x3E16 + seed)
    for arity in (1, 2, 3, 4):
        weights = tuple(rng.randint(1, 3) for _ in range(arity))
        gens = random_monomial_ideal(rng, arity, rng.randint(0, 1) == 1)
        numerator = lt_numerator(gens, arity, weights)
        top = 14
        assert series_coefficients(numerator, weights, top) == [
            brute_weighted_dimension(gens, weights, k)
            for k in range(top + 1)]
        # one generator at a time, through one memo, to the same value
        memo = {}
        grown = [1]
        for i, gen in enumerate(gens):
            grown = lt_numerator_extend(grown, gens[:i], gen, weights, memo)
        assert grown == numerator
        # unit weights are the standard grading
        assert lt_numerator(gens, arity, (1,) * arity) == lt_numerator(
            gens, arity)
