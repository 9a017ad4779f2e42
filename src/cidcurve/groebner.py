"""Groebner bases via Buchberger's algorithm.

The engine works on plain {exponent-tuple: int} dictionaries.  Over the
rationals every intermediate polynomial is kept primitive with integer
coefficients and reduction is fraction-free (the working polynomial is
scaled by leading-coefficient factors, with per-term emission stamps so
the true normal form can be recovered by one exact division at the
end).  Over F_p coefficients are residues and reduction divides by
inverses directly.

Pair management follows Gebauer-Moeller: the coprimality and chain
criteria prune S-pairs at insertion time, and the normal selection
strategy (minimal lcm degree, then the order's comparison, then
indices) picks the next pair.  Output bases are reduced, monic and
listed in ascending leading-monomial order, which makes them unique
for the ideal and order, hence byte-identical across runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd

from .errors import RingMismatch
from .orders import GREVLEX
from .polynomials import Polynomial, PolyRing


# --- integer representation --------------------------------------------


def poly_to_int_dict(f: Polynomial):
    """Primitive integer form of f (QQ: clear denominators and content;
    F_p: the residue dict).  Returns (dict, multiplier) with
    dict == multiplier * f as exact scalar multiple."""
    if f.ring.field.characteristic:
        return dict(f.terms), 1
    den = 1
    for c in f.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    content = 0
    for c in f.terms.values():
        content = gcd(content, c.numerator * (den // c.denominator))
    if content == 0:
        return {}, Fraction(1)
    out = {e: c.numerator * (den // c.denominator) // content for e, c in f.terms.items()}
    return out, Fraction(den, content)


def _strip_content(d: dict) -> dict:
    content = 0
    for c in d.values():
        content = gcd(content, c)
    if content in (0, 1):
        return d
    return {e: c // content for e, c in d.items()}


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


# --- reduction ---------------------------------------------------------


class _Reducer:
    """Shared reduction core over a fixed basis list."""

    __slots__ = ("order", "char", "entries")

    def __init__(self, order, char):
        self.order = order
        self.char = char
        self.entries = []  # (lm, lc, items) treating items as full term list

    def add(self, lm, d: dict):
        self.entries.append((lm, d[lm], list(d.items())))

    def find(self, m):
        for entry in self.entries:
            if _divides(entry[0], m):
                return entry
        return None

    def reduce(self, d: dict, scale=1):
        """Full normal form.  Returns (dict, final_scale): the input d at
        scale `scale` reduces to dict/final_scale modulo the basis.  The
        dict lists its terms in descending order, so its first key is
        its leading monomial."""
        heap_key = self.order.heap_key
        char = self.char
        work = dict(d)
        heap = [(heap_key(m), m) for m in work]
        heapq.heapify(heap)
        rem = []  # (monomial, coeff, scale stamp)
        while heap:
            _, m = heapq.heappop(heap)
            c = work.get(m)
            if not c:
                work.pop(m, None)
                continue
            entry = self.find(m)
            if entry is None:
                del work[m]
                rem.append((m, c, scale))
                continue
            lm, lc, items = entry
            shift = tuple(a - b for a, b in zip(m, lm))
            if char:
                factor = c * pow(lc, -1, char) % char
                for e, cc in items:
                    e2 = tuple(a + b for a, b in zip(e, shift)) if any(shift) else e
                    new = (work.get(e2, 0) - factor * cc) % char
                    if new:
                        if e2 not in work:
                            heapq.heappush(heap, (heap_key(e2), e2))
                        work[e2] = new
                    else:
                        work.pop(e2, None)
            else:
                g = gcd(c, lc)
                mult_work = abs(lc // g)
                if lc // g < 0:
                    mult_poly = -(c // g)
                else:
                    mult_poly = c // g
                if mult_work != 1:
                    scale *= mult_work
                    for k in work:
                        work[k] *= mult_work
                for e, cc in items:
                    e2 = tuple(a + b for a, b in zip(e, shift)) if any(shift) else e
                    new = work.get(e2, 0) - mult_poly * cc
                    if new:
                        if e2 not in work:
                            heapq.heappush(heap, (heap_key(e2), e2))
                        work[e2] = new
                    else:
                        work.pop(e2, None)
        if char:
            return {m: c for m, c, _ in rem}, 1
        out = {}
        for m, c, stamp in rem:
            out[m] = c * (scale // stamp)
        return out, scale


def _spoly(a, lma, b, lmb, char):
    """S-polynomial of two integer dicts with leading monomials lma, lmb."""
    l = _lcm(lma, lmb)
    sa = tuple(x - y for x, y in zip(l, lma))
    sb = tuple(x - y for x, y in zip(l, lmb))
    ca, cb = a[lma], b[lmb]
    if char:
        out = {}
        for e, c in a.items():
            e2 = tuple(x + y for x, y in zip(e, sa))
            out[e2] = (out.get(e2, 0) + cb * c) % char
        for e, c in b.items():
            e2 = tuple(x + y for x, y in zip(e, sb))
            out[e2] = (out.get(e2, 0) - ca * c) % char
        return {e: c for e, c in out.items() if c}
    g = gcd(ca, cb)
    fa, fb = cb // g, ca // g
    out = {}
    for e, c in a.items():
        e2 = tuple(x + y for x, y in zip(e, sa))
        out[e2] = out.get(e2, 0) + fa * c
    for e, c in b.items():
        e2 = tuple(x + y for x, y in zip(e, sb))
        out[e2] = out.get(e2, 0) - fb * c
    return {e: c for e, c in out.items() if c}


# --- Buchberger --------------------------------------------------------


def _update_pairs(pairs, lms, t, order):
    """Gebauer-Moeller pair update when basis element t is appended."""
    lm_t = lms[t]
    cand = []
    for i in range(t):
        if lms[i] is None:
            continue
        cand.append((i, _lcm(lms[i], lm_t)))
    kept = []
    for idx, (i, l) in enumerate(cand):
        drop = False
        for jdx, (j, lj) in enumerate(cand):
            if i == j:
                continue
            if _divides(lj, l) and (lj != l or jdx < idx):
                drop = True
                break
        if not drop:
            kept.append((i, l))
    survivors = []
    for old in pairs:
        _, l, i, j = old
        if _divides(lm_t, l) and _lcm(lms[i], lm_t) != l and _lcm(lms[j], lm_t) != l:
            continue
        survivors.append(old)
    for i, l in kept:
        if _coprime(lms[i], lm_t):
            continue
        survivors.append(((sum(l), order.key(l), i, t), l, i, t))
    heapq.heapify(survivors)
    return survivors


def _buchberger(int_gens, order, char):
    basis = []  # integer dicts
    lms = []
    reducer = _Reducer(order, char)
    pairs = []
    for g in int_gens:
        r, _ = reducer.reduce(g)
        if not r:
            continue
        r = r if char else _strip_content(r)
        basis.append(r)
        lms.append(next(iter(r)))
        reducer.add(lms[-1], r)
        pairs = _update_pairs(pairs, lms, len(basis) - 1, order)
    while pairs:
        _, l, i, j = heapq.heappop(pairs)
        s = _spoly(basis[i], lms[i], basis[j], lms[j], char)
        if not s:
            continue
        r, _ = reducer.reduce(s)
        if not r:
            continue
        r = r if char else _strip_content(r)
        basis.append(r)
        lms.append(next(iter(r)))
        reducer.add(lms[-1], r)
        pairs = _update_pairs(pairs, lms, len(basis) - 1, order)
    return _interreduce(basis, lms, order, char)


def _interreduce(basis, lms, order, char):
    """Minimalize by leading monomials, then tail-reduce to the unique
    reduced basis (primitive integer form), as (lm, dict) pairs."""
    keep = []
    for i, lm in enumerate(lms):
        redundant = False
        for j, other in enumerate(lms):
            if i == j:
                continue
            if _divides(other, lm) and (other != lm or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    reduced = []
    for i in keep:
        others = _Reducer(order, char)
        for j in keep:
            if j != i:
                others.add(lms[j], basis[j])
        # a minimal basis element keeps its leading term under tail
        # reduction, so its leading monomial carries over
        r, _ = others.reduce(basis[i])
        if r:
            reduced.append((lms[i], r if char else _strip_content(r)))
    reduced.sort(key=lambda pair: order.key(pair[0]))
    return reduced


# --- public surface ----------------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    ring: PolyRing
    order: object
    elements: tuple
    # (leading monomial, integer dict) per element
    _ints: tuple = dc_field(repr=False, compare=False, default=())

    def is_unit(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].is_constant() and bool(self.elements[0])

    def _reducer(self):
        red = _Reducer(self.order, self.ring.field.characteristic)
        for lm, d in self._ints:
            red.add(lm, d)
        return red

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise RingMismatch("polynomial not in the basis ring")
        d, mult = poly_to_int_dict(f)
        if not d:
            return self.ring.zero()
        r, scale = self._reducer().reduce(d)
        if not r:
            return self.ring.zero()
        if self.ring.field.characteristic:
            return self.ring.polynomial(r)
        return self.ring.polynomial({e: Fraction(c, scale) / mult for e, c in r.items()})

    def contains(self, f: Polynomial) -> bool:
        return not self.normal_form(f)


def groebner_basis(gens, order=GREVLEX, ring: PolyRing = None) -> GroebnerBasis:
    gens = [g for g in gens if g]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer ring from an empty generator list")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generators live in different rings")
    char = ring.field.characteristic
    int_gens = [poly_to_int_dict(g)[0] for g in gens]
    elements, ints = [], []
    for lm, d in _buchberger(int_gens, order, char):
        lc = d[lm]
        if char:
            inv = pow(lc, -1, char)
            d = {e: c * inv % char for e, c in d.items()}
            elements.append(ring.polynomial(d))
        else:
            elements.append(ring.polynomial(
                {e: Fraction(c, lc) for e, c in d.items()}))
            if lc < 0:
                d = {e: -c for e, c in d.items()}
        ints.append((lm, d))
    return GroebnerBasis(ring, order, tuple(elements), tuple(ints))


def normal_form(f: Polynomial, basis, order=GREVLEX) -> Polynomial:
    """Normal form against a GroebnerBasis or a raw generator list (the
    latter is divided as-is, without completing it to a basis)."""
    if isinstance(basis, GroebnerBasis):
        return basis.normal_form(f)
    ints = [poly_to_int_dict(g)[0] for g in basis if g]
    gb_like = GroebnerBasis(
        f.ring, order,
        tuple(basis),
        tuple((max(d, key=order.key), d) for d in ints),
    )
    return gb_like.normal_form(f)


def is_member(f: Polynomial, gb: GroebnerBasis) -> bool:
    return gb.contains(f)
