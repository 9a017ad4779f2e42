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
from math import factorial
from operator import le

from .errors import NotACurve, NotHomogeneous
from .orders import GREVLEX


# --- integer polynomial helpers (index = degree in t) ------------------


def _poly_mul(a, b):
    if not a or not b:
        return []
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

def _koszul(degrees, numerator=(1,)):
    """numerator * prod (1 - t^d) over the degrees d; with the default
    numerator, the K-polynomial of a complete intersection of forms of
    those degrees."""
    out = list(numerator)
    for d in degrees:
        out = _poly_mul(out, [1] + [0] * (d - 1) + [-1])
    return out

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
        for h in out:
            if all(map(le, h, g)):
                break
        else:
            out.append(g)
    return out


def lt_numerator(gens, arity, weights=None, memo=None):
    """K-polynomial numerator of S/M for the monomial ideal M, as a
    trimmed integer coefficient list in t: the Hilbert series of S/M times
    prod (1 - t^w_i), variable i of degree w_i = weights[i] (1 for
    every variable by default).  Pure powers of distinct variables
    contribute prod (1 - t^(w_i e_i)); otherwise a pivot variable x
    splits M by K(M) = K(M + (x)) + t^w_x K(M : x).  Subproblems are
    kept in `memo`, which callers may share across calls on related
    ideals with the same weights."""
    if weights is None:
        weights = (1,) * arity
    if memo is None:
        memo = {}

    def rec(gens_m):
        # gens_m is a minimal generating set
        key = frozenset(gens_m)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if not gens_m:
            result = [1]
        elif not all(map(any, gens_m)):
            result = []
        else:
            mixed = [g for g in gens_m if arity - g.count(0) >= 2]
            if not mixed:
                # pure powers of distinct variables: Koszul product
                result = _koszul(sum(w * e for w, e in zip(weights, g))
                                 for g in gens_m)
            else:
                counts = [0] * arity
                for g in mixed:
                    for i, e in enumerate(g):
                        if e:
                            counts[i] += 1
                pivot = max(range(arity), key=lambda i: counts[i])
                px = tuple(1 if i == pivot else 0 for i in range(arity))
                kept = [g for g in gens_m if not g[pivot]]
                lowered = [g[:pivot] + (g[pivot] - 1,) + g[pivot + 1:]
                           for g in gens_m if g[pivot]]
                # M + (x) is minimal as it stands.  In M : x a lowered
                # generator divides no other one, and no kept one
                # divides it, as gens_m is minimal; only the lowered
                # ones free of x can divide kept ones
                free = [h for h in lowered if not h[pivot]]
                colon = lowered + [
                    g for g in kept
                    if not any(all(map(le, h, g)) for h in free)]
                result = _poly_trim(_poly_add(
                    rec([px] + kept),
                    _poly_shift(rec(colon), weights[pivot])))
        memo[key] = result
        return result

    return rec(minimalize(gens))


def lt_numerator_extend(numerator, gens, m, weights=None, memo=None):
    """K-polynomial of S/(M + (m)) from `numerator`, that of S/M for the
    monomial ideal M the exponent tuples `gens` generate:
    K(M + (m)) = K(M) - t^(w.m) K(M : m), and M : m is generated by the
    g / gcd(g, m).  `weights` and `memo` are as for `lt_numerator`;
    one memo serves a chain of extensions."""
    arity = len(m)
    if weights is None:
        weights = (1,) * arity
    colon = [tuple(a - b if a > b else 0 for a, b in zip(g, m)) for g in gens]
    step = _poly_shift(lt_numerator(colon, arity, weights, memo),
                       sum(w * e for w, e in zip(weights, m)))
    return _poly_trim(_poly_add(numerator, [-c for c in step]))


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
        # P(mu) = sum_j q_j C(mu + k - j, k), k = krull - 1: sum the
        # products prod_(i < k) (mu + k - j - i) in integers, then
        # divide by k! once
        k = krull - 1
        scaled = [0] * krull
        for j, c in enumerate(q):
            if c:
                term = [1]
                for i in range(k):
                    term = _poly_mul(term, [k - j - i, 1])
                for a, v in enumerate(term):
                    scaled[a] += c * v
        hp = tuple(Fraction(v, factorial(k)) for v in scaled)
        degree = sum(q)
        p_a = Fraction(1) - hp[0]
        e_term = (Fraction(sum(i * c for i, c in enumerate(q)))
                  if krull == 2 else None)
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
    return data_from_numerator(_koszul(degrees), arity)
