"""Monomial orders on exponent tuples.

Each order is one view of its comparison: `fields` is a linear map from
exponents to a tuple of signed ints whose lexicographic order is the
monomial order: fields(a + b) == fields(a) + fields(b) componentwise.
`Polynomial.leading` and `sorted_terms` compare those tuples, and
linearity is what lets `Packing` store each monomial as one int, with
the fields in the high bits and the plain exponents below them, so that
a shift is an addition and a comparison is an int comparison.
`Packing` is the one map between exponent tuples and ints: the
Groebner engine, the minor kernel (`discrepancy._minors`) and
substitution (`polynomials._substitute`) all pack through it.

Every order here is total, multiplicative and has 1 as least element (the
weighted one needs positive weights); the property tests exercise exactly
those axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul


def _grevlex_fields(exps):
    return (sum(exps),) + tuple(-e for e in reversed(exps))


@dataclass(frozen=True)
class Lex:
    name = "lex"

    def fields(self, exps):
        return tuple(exps)


@dataclass(frozen=True)
class GrevLex:
    name = "grevlex"

    def fields(self, exps):
        return _grevlex_fields(exps)


@dataclass(frozen=True)
class Block:
    """Eliminates the first `split` variables: that block dominates, and
    each block is compared by grevlex.  Requires 0 < split < arity."""

    split: int

    @property
    def name(self):
        return f"block({self.split})"

    def fields(self, exps):
        s = self.split
        return _grevlex_fields(exps[:s]) + _grevlex_fields(exps[s:])


@dataclass(frozen=True)
class WeightedGrevLex:
    """Weighted degree sum(w_i * e_i) first, then ties broken as in
    grevlex (the smaller exponent of the last variable wins).  Weights
    must be positive.  Not offered by `order_from_name`: the Bayer
    basis behind the colon, `ideals.colon_principal`, is its only
    user."""

    weights: tuple

    def fields(self, exps):
        return ((sum(w * e for w, e in zip(self.weights, exps)),)
                + tuple(-e for e in reversed(exps)))


LEX = Lex()
GREVLEX = GrevLex()


def order_from_name(name: str):
    if name == "lex":
        return LEX
    if name == "grevlex":
        return GREVLEX
    if name.startswith("block(") and name.endswith(")"):
        return Block(int(name[6:-1]))
    raise ValueError(f"unknown monomial order {name!r}")


# --- packed monomials --------------------------------------------------


class Packing:
    """Monomials of one order and arity packed into single ints.

    The low bits hold the plain exponents, variable i in the bits from
    i * (bits + 1) up, each field topped by a guard bit.  Above them sit
    the order's `fields`, the last field lowest, each as wide as the
    largest difference it can take between two monomials with exponents
    below 2**bits; all the bits below a field then differ by less than
    one unit of it, so the int order is the monomial order.  Packing is
    linear, so a shift is an int addition, and lm divides m exactly when
    (m - lm) & guard is 0, because a negative exponent difference
    borrows into its own guard bit.  Adding two packed monomials sets a
    guard bit exactly when some exponent reaches 2**bits.  The Groebner
    engine checks every new monomial for that and repacks at twice the
    width; the minor kernel and substitution take `bits` from the
    largest exponent their products can reach, so theirs never do."""

    __slots__ = ("order", "arity", "bits", "units", "guard", "shifts")

    def __init__(self, order, arity: int, bits: int):
        self.order = order
        self.arity = arity
        self.bits = bits
        width = bits + 1
        unit_fields = [order.fields(tuple(int(i == j) for j in range(arity)))
                       for i in range(arity)]
        units = [1 << (i * width) for i in range(arity)]
        offset = arity * width
        top = (1 << bits) - 1
        for coeffs in reversed(list(zip(*unit_fields))):
            for i, c in enumerate(coeffs):
                units[i] += c << offset
            offset += (top * sum(abs(c) for c in coeffs)).bit_length()
        self.units = tuple(units)
        self.guard = sum(1 << (i * width + bits) for i in range(arity))
        self.shifts = tuple(i * width for i in range(arity))

    def pack(self, exps) -> int:
        return sum(map(mul, exps, self.units))

    def unpack(self, m: int) -> tuple:
        mask = (1 << self.bits) - 1
        return tuple([(m >> s) & mask for s in self.shifts])


@lru_cache(maxsize=64)
def _packing(order, arity, bits):
    """The one `Packing` of (order, arity, bits) while it stays among the
    most recently asked for."""
    return Packing(order, arity, bits)
