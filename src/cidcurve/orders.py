"""Monomial orders on exponent tuples.

Each order is one view of its comparison: `fields` is a linear map from
exponents to a tuple of signed ints whose lexicographic order is the
monomial order: fields(a + b) == fields(a) + fields(b) componentwise.
`Polynomial.leading` and `sorted_terms` compare those tuples, and
linearity is what lets `groebner.Packing` store each monomial as one
int, with the fields in the high bits and the plain exponents below
them, so that a shift is an addition and a comparison is an int
comparison.

Every order here is total, multiplicative and has 1 as least element (the
weighted one needs positive weights); the property tests exercise exactly
those axioms.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    must be positive.  Not offered by `order_from_name`: the weighted
    basis behind the homogeneous colon and saturation in `ideals` is
    its only user."""

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
