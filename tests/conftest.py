"""Shared fixtures and small builders for the test suite."""

from __future__ import annotations

import pytest

from cidcurve import CurveInput, Field, PolyRing
from cidcurve import ideals


@pytest.fixture(scope="session")
def qq():
    return Field.rationals()


@pytest.fixture(scope="session")
def p3(qq):
    return PolyRing(qq, ("x0", "x1", "x2", "x3"))


def twisted_cubic_gens(ring):
    x0, x1, x2, x3 = ring.variables()
    return [x2**2 - x1 * x3, x1**2 - x0 * x2, x0 * x3 - x1 * x2]


@pytest.fixture(scope="session")
def twisted_cubic(p3):
    return CurveInput(p3, twisted_cubic_gens(p3))


def exact_colon(a, b):
    """(a : b) by the exact fold, the reference for `quotient`: the
    intersection of the principal colons by the generators of b that a
    does not contain."""
    return ideals._fold(a, b.generators, ideals.colon_principal)


def colon_by_elimination(a, g):
    """(a : g) by exact division of the generators of a ∩ (g) by g, the
    reference for `ideals.colon_principal`."""
    meet = ideals.intersect(a, ideals.Ideal(a.ring, [g]))
    return ideals.Ideal(a.ring, [ideals.divide_exact(f, g)
                                 for f in meet.generators])


def quotient_by_elimination(a, b):
    """(a : b) as the intersection of `colon_by_elimination(a, g)` over
    the generators g of b, the reference for `ideals.quotient`."""
    out = colon_by_elimination(a, b.generators[0])
    for g in b.generators[1:]:
        out = ideals.intersect(out, colon_by_elimination(a, g))
    return out


def stopped_runs(monkeypatch):
    """The dimension-stopped Buchberger runs `ideals.dimension_at_most`
    asks for from now on, as (generators, bound, ring), in order."""
    runs = []
    real = ideals._chain_basis

    def spy(a, order, target=None, bound=None):
        if bound is not None:
            runs.append((a.generators, bound, a.ring))
        return real(a, order, target, bound)

    monkeypatch.setattr(ideals, "_chain_basis", spy)
    return runs


def rnc_curve(n, field=None):
    """Rational normal curve of degree n: the 2x2 minors of the moving
    row matrix of monomial products."""
    ring = PolyRing(field or Field.rationals(),
                    tuple(f"x{k}" for k in range(n + 1)))
    x = list(ring.variables())
    gens = []
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            gens.append(x[i] * x[j] - x[i + 1] * x[j - 1])
    return CurveInput(ring, gens)


def compose_by_powers(f, target, images):
    """Substitution term by term, each image power by binary powering,
    summed into a fresh polynomial per term; kept as the oracle."""
    result = target.zero()
    power_cache = [dict() for _ in images]
    for e, c in f.terms.items():
        term = target.constant(c)
        for i, k in enumerate(e):
            if k == 0:
                continue
            cache = power_cache[i]
            if k not in cache:
                cache[k] = images[i] ** k
            term = term * cache[k]
        result = result + term
    return result
