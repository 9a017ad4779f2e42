"""Hilbert series bookkeeping for homogeneous ideals.

Everything flows from the K-polynomial (series numerator) of the
leading-term ideal: write the Hilbert series of S/I as N(t)/(1-t)^s
with s the ring arity, factor N = (1-t)^e * Q with Q(1) != 0, and read
off Krull dimension s - e, projective dimension one less, degree Q(1)
and, for curves, the Hilbert polynomial P(mu) = deg*(mu+1) - Q'(1), so
the arithmetic genus is 1 - P(0).  These quantities only depend on the
Hilbert polynomial, hence are insensitive to saturation; the numerator
itself is still reported, and callers who want the saturated numerator
can saturate first.

This module deliberately avoids importing the ideal layer (which
imports us); public functions accept any object exposing `.ring` and
`.gb(order)`.  `hilbert_series` keeps its result in the object's
`_data_cache` when it has one (an `Ideal` is immutable).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotACurve, NotHomogeneous
from .orders import GREVLEX


# --- integer polynomial helpers (index = degree in t) ------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out

def _poly_add(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out

def _poly_shift(a, k):
    return [0] * k + list(a)

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a

def _poly_eval_one(a):
    return sum(a)

def _poly_derivative_at_one(a):
    return sum(i * c for i, c in enumerate(a))

def _divide_one_minus_t(a):
    """Exact division by (1 - t); returns None if not divisible."""
    if not a:
        return []
    out = [0] * (len(a) - 1)
    # (1 - t) * q = a  =>  q_i = a_i + q_{i-1}
    prev = 0
    for i in range(len(a) - 1):
        prev = a[i] + prev
        out[i] = prev
    if a[-1] + prev != 0 and len(a) > 1:
        return None
    if len(a) == 1:
        return None if a[0] != 0 else []
    return out


# --- monomial ideal combinatorics --------------------------------------


def minimalize(gens):
    """Minimal generators of the monomial ideal spanned by `gens`."""
    gens = sorted(set(gens), key=lambda e: (sum(e), e))
    out = []
    for g in gens:
        if not any(all(x <= y for x, y in zip(h, g)) for h in out):
            out.append(g)
    return out


def lt_numerator(gens, arity):
    """K-polynomial numerator of S/M for the monomial ideal M, as an
    integer coefficient list in t."""
    memo = {}

    def rec(gen_set):
        key = frozenset(gen_set)
        hit = memo.get(key)
        if hit is not None:
            return hit
        gens_m = minimalize(gen_set)
        if not gens_m:
            result = [1]
        elif any(sum(g) == 0 for g in gens_m):
            result = [0]
        else:
            mixed = [g for g in gens_m if sum(1 for e in g if e) >= 2]
            if not mixed:
                # pure powers of distinct variables: Koszul product
                result = [1]
                for g in gens_m:
                    factor = [0] * (sum(g) + 1)
                    factor[0] = 1
                    factor[-1] = -1
                    result = _poly_mul(result, factor)
            else:
                counts = [0] * arity
                for g in mixed:
                    for i, e in enumerate(g):
                        if e:
                            counts[i] += 1
                pivot = max(range(arity), key=lambda i: counts[i])
                # branch: add (x_pivot)
                px = tuple(1 if i == pivot else 0 for i in range(arity))
                plus = [g for g in gens_m if g[pivot] == 0] + [px]
                # branch: colon by x_pivot
                colon = []
                for g in gens_m:
                    if g[pivot] > 0:
                        h = list(g)
                        h[pivot] -= 1
                        colon.append(tuple(h))
                    else:
                        colon.append(g)
                result = _poly_trim(
                    _poly_add(rec(tuple(plus)), _poly_shift(rec(tuple(colon)), 1))
                )
        memo[key] = result
        return result

    return rec(tuple(gens))


def _h_polynomial(numerator, arity):
    """The numerator divided by (1 - t)^arity, as a coefficient list.
    For a quotient of finite length that is its Hilbert function: the
    sum is the length and the degree the socle degree.  None when some
    division is not exact (the quotient is infinite)."""
    for _ in range(arity):
        numerator = _divide_one_minus_t(numerator)
        if numerator is None:
            return None
    return numerator


def count_standard_monomials(gens, arity):
    """Number of monomials outside the monomial ideal spanned by gens:
    the K-polynomial divided by (1 - t)^arity, at t = 1.  Returns None
    if infinite, when some division is not exact."""
    h = _h_polynomial(lt_numerator(gens, arity), arity)
    return None if h is None else sum(h)


# --- series data -------------------------------------------------------


@dataclass(frozen=True)
class HilbertData:
    """Numeric summary of a homogeneous quotient ring."""

    numerator: tuple
    krull_dim: int
    proj_dim: int
    degree: int
    e_term: object  # Fraction or None when the scheme is not a curve
    p_a: object     # Fraction; integer-valued for curves
    hilbert_poly: tuple  # power-basis coefficients, constant first


def _binomial_poly(shift, k):
    """C(mu + shift, k) as power-basis Fraction coefficients in mu."""
    coeffs = [Fraction(1)]
    for i in range(k):
        # multiply by (mu + shift - i)
        lin = [Fraction(shift - i), Fraction(1)]
        out = [Fraction(0)] * (len(coeffs) + 1)
        for a, c in enumerate(coeffs):
            out[a] += c * lin[0]
            out[a + 1] += c * lin[1]
        coeffs = out
    from math import factorial

    f = Fraction(1, factorial(k))
    return [c * f for c in coeffs]


def data_from_numerator(numerator, arity) -> HilbertData:
    num = _poly_trim(list(numerator))
    if not num:
        # zero ring (unit ideal): empty scheme
        return HilbertData(tuple(), 0, -1, 0, None, Fraction(1), (Fraction(0),))
    q = list(num)
    e = 0
    while True:
        divided = _divide_one_minus_t(q)
        if divided is None:
            break
        q = _poly_trim(divided)
        e += 1
        if e > arity:
            break
    krull = arity - e
    proj_dim = krull - 1
    if krull <= 0:
        hp = (Fraction(0),)
        degree = 0
        p_a = Fraction(1)
        e_term = None
    else:
        hp_list = [Fraction(0)] * krull
        for j, c in enumerate(q):
            if c:
                term = _binomial_poly(krull - 1 - j, krull - 1)
                for a, v in enumerate(term):
                    hp_list[a] += c * v
        hp = tuple(hp_list)
        degree = _poly_eval_one(q)
        p0 = hp_list[0]
        p_a = Fraction(1) - p0
        e_term = Fraction(_poly_derivative_at_one(q)) if krull == 2 else None
    return HilbertData(tuple(num), krull, proj_dim, degree, e_term, p_a, hp)


def _check_homogeneous(ideal_like):
    for g in ideal_like.generators:
        if g and not g.is_homogeneous():
            raise NotHomogeneous(f"generator {g} is not homogeneous")


def _lt_gens(ideal_like):
    gb = ideal_like.gb(GREVLEX)
    return [f.leading(GREVLEX)[0] for f in gb.elements]


def hilbert_series(ideal_like) -> HilbertData:
    """HilbertData of S/I.  The input must be homogeneous."""
    _check_homogeneous(ideal_like)
    cache = getattr(ideal_like, "_data_cache", None)
    data = cache.get("hilbert") if cache is not None else None
    if data is None:
        arity = ideal_like.ring.arity
        num = lt_numerator(_lt_gens(ideal_like), arity)
        data = data_from_numerator(num, arity)
        if cache is not None:
            cache["hilbert"] = data
    return data


def krull_dimension(ideal_like) -> int:
    return hilbert_series(ideal_like).krull_dim


def proj_dimension(ideal_like) -> int:
    return hilbert_series(ideal_like).proj_dim


def proj_degree(ideal_like) -> int:
    """Degree of the projective scheme cut out by a homogeneous ideal."""
    return hilbert_series(ideal_like).degree


def hilbert_polynomial(ideal_like) -> tuple:
    return hilbert_series(ideal_like).hilbert_poly


def arithmetic_genus(ideal_like) -> int:
    """p_a = 1 - P(0) for a projective curve, read off the input's own
    Hilbert polynomial, which saturation does not change."""
    _check_homogeneous(ideal_like)
    data = hilbert_series(ideal_like)
    if data.proj_dim != 1:
        raise NotACurve(f"projective dimension is {data.proj_dim}, not 1")
    if data.p_a.denominator != 1:
        raise NotACurve(f"arithmetic genus {data.p_a} is not an integer")
    return int(data.p_a)


def graded_dimension(ideal_like, mu: int) -> int:
    """dim_k (S/I)_mu by direct staircase count; the series oracle."""
    from itertools import combinations_with_replacement

    lt = minimalize(_lt_gens(ideal_like))
    arity = ideal_like.ring.arity
    count = 0
    for combo in combinations_with_replacement(range(arity), mu):
        exps = [0] * arity
        for i in combo:
            exps[i] += 1
        if not any(all(x <= y for x, y in zip(g, exps)) for g in lt):
            count += 1
    return count


def ci_hilbert_data(degrees, arity) -> HilbertData:
    """HilbertData of a complete intersection of the given form degrees."""
    num = [1]
    for d in degrees:
        factor = [0] * (d + 1)
        factor[0] = 1
        factor[-1] = -1
        num = _poly_mul(num, factor)
    return data_from_numerator(num, arity)
