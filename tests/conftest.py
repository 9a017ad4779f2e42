"""Shared fixtures and small builders for the test suite."""

from __future__ import annotations

import pytest

from cidcurve import CurveInput, Field, PolyRing


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
