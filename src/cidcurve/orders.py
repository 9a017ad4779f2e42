"""Monomial orders on exponent tuples.

Each order exposes two views of the same comparison: `key` (bigger key
means bigger monomial, for max()/sort) and `heap_key` (smaller key means
bigger monomial, so a min-heap pops the largest monomial first).  Every
order here is total, multiplicative and has 1 as least element (the
weighted one needs positive weights); the property tests exercise
exactly those axioms.
"""

from __future__ import annotations

from dataclasses import dataclass


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _grevlex_heap_key(exps):
    return (-sum(exps), tuple(reversed(exps)))


@dataclass(frozen=True)
class Lex:
    name = "lex"

    def key(self, exps):
        return exps

    def heap_key(self, exps):
        return tuple(-e for e in exps)


@dataclass(frozen=True)
class GrevLex:
    name = "grevlex"

    def key(self, exps):
        return _grevlex_key(exps)

    def heap_key(self, exps):
        return _grevlex_heap_key(exps)


@dataclass(frozen=True)
class Block:
    """Eliminates the first `split` variables: that block dominates, and
    each block is compared by grevlex.  Requires 0 < split < arity."""

    split: int

    @property
    def name(self):
        return f"block({self.split})"

    def key(self, exps):
        s = self.split
        return (_grevlex_key(exps[:s]), _grevlex_key(exps[s:]))

    def heap_key(self, exps):
        s = self.split
        return (_grevlex_heap_key(exps[:s]), _grevlex_heap_key(exps[s:]))


@dataclass(frozen=True)
class WeightedGrevLex:
    """Weighted degree sum(w_i * e_i) first, then ties broken as in
    grevlex (the smaller exponent of the last variable wins).  Weights
    must be positive.  Not offered by `order_from_name`: the weighted
    basis behind the homogeneous colon and saturation in `ideals` is
    its only user."""

    weights: tuple

    def key(self, exps):
        return (sum(w * e for w, e in zip(self.weights, exps)),
                tuple(-e for e in reversed(exps)))

    def heap_key(self, exps):
        return (-sum(w * e for w, e in zip(self.weights, exps)),
                tuple(reversed(exps)))


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
