"""Groebner bases via Buchberger's algorithm.

The engine works on {monomial: int} dictionaries whose monomials are
single ints (see `orders.Packing`): a shift is an int addition, the
order's comparison an int comparison, and a divisibility test one
subtraction and one mask (Monagan and Pearce, "Sparse polynomial
division using a heap", JSC 46, 2011).  Monomials are packed and
unpacked only at the boundary; a basis is its packed reducer, and its
`elements` are built the first time they are read.  The exponent width
comes from the input; a monomial that outgrows it during
the computation sets a guard bit, and the basis is computed again at
twice the width.  One packing serves each (order, arity, width), kept
in a bounded cache (`orders._packing`).

Every divisor a reduction runs against is made by `_normalize`: monic
over F_p, primitive with integer coefficients and a positive leading
coefficient over the rationals.  One term loop then serves both fields.
Over F_p the multiplier is the term's coefficient and every result is
taken mod p.  Over the rationals reduction is fraction-free: the
working polynomial is scaled by leading-coefficient factors, with
per-term emission stamps so the true normal form can be recovered by
one exact division at the end.

Pair management follows Gebauer-Moeller on packed lcms: the
coprimality and chain criteria prune S-pairs at insertion time, and the
normal selection strategy (minimal lcm degree, then the order's
comparison, then indices) picks the next pair.  Criterion M drops a new
pair (i, t) when another new pair's lcm divides its own, properly or
equally with a smaller index.  Such a divisor has a smaller key
(degree, packed lcm, index), and one that was itself dropped has a kept
divisor with a smaller key still, which divides too; so the candidates
are scanned in key order and each is checked only against those
already kept, which keeps the same set.

A run may start from a reduced basis G0, in the same ring and order, of
an ideal I0 the generators extend (Gebauer and Moeller, JSC 6, 1988).
Every S-polynomial of two elements of G0 reduces to zero modulo G0, so
no pair among them is formed: G0 enters the reducer as it stands, its
leading monomials seed the Hilbert-target numerator and the
dimension-stop masks below, and only the new generators are reduced and
paired.  The chain
criterion stays sound, since it drops a pair only when pairs that are
treated cover it, and a pair inside G0 counts as treated.  The output is
the unique reduced basis either way.

During a run entries are only appended, so for each monomial the
reducer remembers the index of the first entry that may divide it:
the divisor found, or how many entries it has ruled out.  A later
reduction that meets the monomial again resumes the scan there, and a
miss recorded before an entry was appended scans that entry.  The memo
is dropped when the run returns.

When the ideal layer knows the Hilbert series of S/J for J homogeneous
in the order's grading (variable i of degree w_i, the order's weight
for a weighted order and 1 otherwise), it passes its K-polynomial to
the private `_basis` as a target (`ideals._cached_basis`).
The K-polynomial of the leading monomials of G is then kept up to date,
one new leading monomial at a time, and a popped pair whose lcm has
degree D in that grading is skipped, unreduced, when S/LT(G) has the
target's Hilbert function in degree D (Traverso, "Hilbert functions and
the Buchberger algorithm", JSC 22, 1996).  G lies in J and LT(G) in
LT(J), so S/LT(G) has at least the series of S/LT(J), which is that of
S/J, in every degree; equal values in degree D make LT(G)_D = LT(J)_D.
Every entry is homogeneous, so the pair's S-polynomial lies in J_D, and
a nonzero normal form of it would have a leading monomial in LT(J)_D,
hence divisible by one in LT(G): the S-polynomial reduces to zero, and
has a standard representation by G.  A skipped pair therefore counts as
treated, and the chain criterion, which drops a pair only when treated
pairs cover it, stays sound.  LT(G) only grows, so a degree once filled
stays filled; once the whole series is reached every pair left is
skipped.  A target that is only a coefficientwise lower bound of the
series is safe for the same reason, and in a degree it never reaches
the pairs are reduced as in plain Buchberger.  Interreduction runs as
before, so the output does not depend on the target, and keeps LT(G),
so in an unweighted order the K-polynomial the run ended with is the
basis's Hilbert data (`GroebnerBasis.hilbert`).  Output bases are
reduced, monic and listed in ascending leading-monomial order, which
makes them unique for the ideal and order, hence byte-identical across
runs.

A yes-or-no question about the Krull dimension stops earlier still
(`basis_unless_dimension_at_most`).  G lies in J, so LT(G) lies in LT(J)
and dim S/J = dim S/LT(J) <= dim S/LT(G).  The equality needs no
homogeneity: grevlex refines the total degree, so S/J and S/LT(J) have
one affine Hilbert function, and the stop holds for affine J too.  The
dimension of S/M for a monomial ideal M is the size of the largest set
of variables that holds the support of no generator of M: the
coordinate subspace on those variables lies in V(M), and a larger
subspace does not.  So the run
keeps, as bit masks, the (b + 1)-sets of variables that hold the
support of no leading monomial found so far; once none is left,
dim S/J <= b is proved and the run stops, with no interreduction and no
basis.  If the pairs run out first, G is a basis, LT(G) generates
LT(J), some (b + 1)-set holds the support of no generator of LT(J), and
dim S/J > b: the answer is no and the reduced basis is returned.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import mul

from .errors import RingMismatch
from .fields import rational
from .hilbert import (HilbertData, data_from_numerator, lt_numerator,
                      lt_numerator_extend)
from .orders import GREVLEX, _packing
from .polynomials import Polynomial, PolyRing


def _normalize(d: dict, lm, char) -> dict:
    """d as a reducer entry with leading monomial lm: monic over F_p,
    primitive with a positive leading coefficient over QQ."""
    lc = d[lm]
    if lc == 1:
        return d
    if char:
        inv = pow(lc, -1, char)
        return {e: c * inv % char for e, c in d.items()}
    content = 0
    for c in d.values():
        content = gcd(content, c)
    if lc < 0:
        content = -content
    return {e: c // content for e, c in d.items()}


def _echelon_insert(rows: dict, d: dict, char):
    """Reduce d, an integer dict with no zero value (residues over F_p),
    at its least key against `rows`, each keyed by its least key, by
    `_Reducer.reduce`'s step, and store what is left as a row made by
    `_normalize`: returns its key, or None when d reduces to zero."""
    while d:
        key = min(d)
        pivot = rows.get(key)
        if pivot is None:
            rows[key] = _normalize(d, key, char)
            return key
        g = gcd(d[key], pivot[key])
        lead, mult = d[key] // g, pivot[key] // g
        if mult != 1:
            for k in d:
                d[k] *= mult
        for k, c in pivot.items():
            c = d.get(k, 0) - lead * c
            if char:
                c %= char
            if c:
                d[k] = c
            else:
                del d[k]
    return None


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


# --- packed monomials --------------------------------------------------


class _FieldOverflow(Exception):
    """A new monomial has an exponent too wide for its packing."""


def _exponent_bits(top: int) -> int:
    """Exponent width for monomials whose exponents reach `top`: room
    for twice that.  A basis that outgrows it is recomputed at twice
    the width, which squares the room."""
    return max(top, 1).bit_length() + 1


def _packing_for(order, arity, dicts):
    """The packing for tuple-keyed dicts, sized by their exponents."""
    top = max((max(e, default=0) for d in dicts for e in d), default=0)
    return _packing(order, arity, _exponent_bits(top))


# --- reduction ---------------------------------------------------------


class _Reducer:
    """Shared reduction core over a fixed basis list of packed dicts."""

    __slots__ = ("packing", "char", "entries", "memo")

    def __init__(self, packing, char, entries=()):
        self.packing = packing
        self.char = char
        # (lm, lc, items) over all terms, each made by `_normalize`
        self.entries = list(entries)
        # packed monomial -> index of the first entry that may divide it,
        # every entry before it being known not to; kept only while
        # entries are appended and never removed (one Buchberger run)
        self.memo = None

    def add(self, lm, d: dict):
        self.entries.append((lm, d[lm], list(d.items())))

    def reduce(self, d: dict, scale=1):
        """Full normal form.  Returns (dict, final_scale): the input d at
        scale `scale` reduces to dict/final_scale modulo the basis.  The
        dict lists its terms in descending order, so its first key is
        its leading monomial.  Raises `_FieldOverflow` when a new term
        does not fit the packing."""
        char = self.char
        guard = self.packing.guard
        entries = self.entries
        count = len(entries)
        memo = self.memo
        heappush, heappop = heapq.heappush, heapq.heappop
        work = dict(d)
        heap = [-m for m in work]
        heapq.heapify(heap)
        rem = []  # (monomial, coeff, scale stamp)
        while heap:
            m = -heappop(heap)
            c = work.get(m)
            if not c:
                work.pop(m, None)
                continue
            k = 0 if memo is None else memo.get(m, 0)
            while k < count and (m - entries[k][0]) & guard:
                k += 1
            if memo is not None:
                memo[m] = k
            if k == count:
                del work[m]
                rem.append((m, c, scale))
                continue
            lm, lc, items = entries[k]
            shift = m - lm
            # entries are monic over F_p, so only QQ scales the work
            if lc != 1:
                g = gcd(c, lc)
                c //= g
                mult = lc // g
                if mult != 1:
                    scale *= mult
                    for key in work:
                        work[key] *= mult
            for e, cc in items:
                e2 = e + shift
                new = work.get(e2, 0) - c * cc
                if char:
                    new %= char
                if new:
                    if e2 not in work:
                        if e2 & guard:
                            raise _FieldOverflow
                        heappush(heap, -e2)
                    work[e2] = new
                else:
                    work.pop(e2, None)
        return {m: c * (scale // stamp) for m, c, stamp in rem}, scale

    def widened(self, bits):
        """The same basis repacked with `bits` exponent bits, in the
        same order and arity."""
        old = self.packing
        if bits == old.bits:
            return self
        packing = _packing(old.order, old.arity, bits)

        def move(m):
            return packing.pack(old.unpack(m))

        return _Reducer(packing, self.char, [
            (move(lm), lc, [(move(e), c) for e, c in items])
            for lm, lc, items in self.entries])

    def normal_form(self, d: dict):
        """`reduce` for a tuple-keyed dict, repacking the basis wider
        when d or its reduction does not fit."""
        red = self
        bits = _exponent_bits(max(max(e, default=0) for e in d))
        while True:
            if bits > red.packing.bits:
                red = red.widened(bits)
            packing = red.packing
            try:
                r, scale = red.reduce({packing.pack(e): c for e, c in d.items()})
            except _FieldOverflow:
                bits = 2 * packing.bits
                continue
            return {packing.unpack(m): c for m, c in r.items()}, scale


def _spoly(a, b, l, guard, char):
    """S-polynomial of two reducer entries with packed lcm l."""
    lma, ca, items_a = a
    lmb, cb, items_b = b
    sa = l - lma
    sb = l - lmb
    g = gcd(ca, cb)
    fa, fb = cb // g, ca // g
    out = {}
    for e, c in items_a:
        e2 = e + sa
        out[e2] = out.get(e2, 0) + fa * c
    for e, c in items_b:
        e2 = e + sb
        out[e2] = out.get(e2, 0) - fb * c
    if char:
        out = {e: c % char for e, c in out.items()}
    out = {e: c for e, c in out.items() if c}
    for e in out:
        if e & guard:
            raise _FieldOverflow
    return out


# --- Buchberger --------------------------------------------------------


def _filled(numerator, target, weights, degree, count, memo):
    """Whether S/LT(G), of K-polynomial `numerator`, has the target's
    Hilbert function in `degree`: the coefficient of t^degree in
    (numerator - target) / prod (1 - t^w_i) is zero.  The quotient is
    expanded up to t^degree by one prefix sum of stride w_i per
    variable.  A run's numerator changes only when an entry is added,
    so the answer is kept in `memo` under (entries `count`, degree)."""
    key = (count, degree)
    hit = memo.get(key)
    if hit is None:
        size = degree + 1
        series = [0] * size
        for k, c in enumerate(numerator[:size]):
            series[k] = c
        for k, c in enumerate(target[:size]):
            series[k] -= c
        for w in weights:
            for k in range(w, size):
                series[k] += series[k - w]
        hit = memo[key] = not series[degree]
    return hit


def _update_pairs(pairs, lms, t, packing):
    """Gebauer-Moeller pair update when basis element t is appended.  A
    pair is (lcm degree, packed lcm, i, t), the normal strategy's key.
    Each candidate lcm is packed once, and the criteria test
    divisibility on packed lcms with the guard mask.  Criterion M scans
    the candidates in key order, so whatever divides a candidate's lcm
    (properly, or equally with a smaller index) comes before it, and
    checks each only against those already kept (see the module
    docstring)."""
    guard = packing.guard
    lm_t = lms[t]
    packed_t = packing.pack(lm_t)
    cand = []
    for i in range(t):
        l = tuple(map(max, lms[i], lm_t))
        cand.append((sum(l), packing.pack(l), i))
    kept = []
    for pair in sorted(cand):
        pl = pair[1]
        for _, plj, _ in kept:
            if not (pl - plj) & guard:
                break
        else:
            kept.append(pair)
    survivors = []
    for old in pairs:
        _, pl, i, j = old
        if (not (pl - packed_t) & guard and cand[i][1] != pl
                and cand[j][1] != pl):
            continue
        survivors.append(old)
    for deg, pl, i in kept:
        if _coprime(lms[i], lm_t):
            continue
        survivors.append((deg, pl, i, t))
    heapq.heapify(survivors)
    return survivors


def _buchberger(gens, packing, char, target=None, bound=None, known=()):
    """The reduced basis of packed integer dicts, as a `_Reducer` whose
    entries ascend by leading monomial, paired with the K-polynomial of
    its leading monomials in the standard grading when the run kept it,
    else None; raises `_FieldOverflow` when a new monomial does not fit
    the packing.  `known`, the entries of a reduced basis in this
    packing of an ideal the gens extend, starts the basis, and no pair
    among them is formed (see the module docstring).  With a `target`
    K-polynomial (see `groebner_basis`) the K-polynomial of the leading
    monomials is kept up to date, and a pair is skipped when `_filled`
    finds the target's Hilbert function reached in the degree of its
    lcm: the weighted degree in a weighted order, else the total degree
    the pair's key holds.  With a Krull-dimension `bound` b >= 0 the run
    returns None as soon as every (b + 1)-set of variables holds the
    support of a leading monomial (see the module docstring)."""
    reducer = _Reducer(packing, char, known)
    entries = reducer.entries
    # leading exponent tuples, for the pair criteria
    lms = [packing.unpack(lm) for lm, _, _ in entries]
    if target is not None:
        target = list(target)
        weights = getattr(packing.order, "weights", None)
        memo = {}
        numerator = lt_numerator(lms, packing.arity, weights, memo)
        grading = weights or (1,) * packing.arity
        filled = {}
    # the (bound + 1)-sets of variables, as bit masks, that hold the
    # support of no leading monomial yet
    uncovered = None
    if bound is not None:
        uncovered = [sum(1 << i for i in s)
                     for s in combinations(range(packing.arity), bound + 1)]

    def cover(exps):
        nonlocal uncovered
        support = sum(1 << i for i, e in enumerate(exps) if e)
        uncovered = [u for u in uncovered if support & ~u]

    def certified():
        return uncovered is not None and not uncovered

    def insert(s, pairs):
        nonlocal numerator
        r, _ = reducer.reduce(s)
        if not r:
            return pairs
        lm = next(iter(r))
        r = _normalize(r, lm, char)
        exps = packing.unpack(lm)
        if target is not None:
            numerator = lt_numerator_extend(numerator, lms, exps, weights,
                                            memo)
        if uncovered is not None:
            cover(exps)
        lms.append(exps)
        reducer.add(lm, r)
        return _update_pairs(pairs, lms, len(lms) - 1, packing)

    if uncovered is not None:
        for exps in lms:
            cover(exps)
    reducer.memo = {}
    try:
        pairs = []
        for g in gens:
            if certified():
                return None
            pairs = insert(g, pairs)
        while pairs and not certified():
            degree, l, i, j = heapq.heappop(pairs)
            if target is not None:
                if weights is not None:
                    degree = sum(map(mul, weights, packing.unpack(l)))
                if _filled(numerator, target, grading, degree, len(entries),
                           filled):
                    continue
            s = _spoly(entries[i], entries[j], l, packing.guard, char)
            if s:
                pairs = insert(s, pairs)
    finally:
        reducer.memo = None
    if certified():
        return None
    # a weighted order keeps the numerator in its own grading
    kept = target is not None and weights is None
    return _interreduce(reducer, char), tuple(numerator) if kept else None


def _interreduce(reducer, char):
    """Minimalize the reducer's basis by leading monomials, then
    tail-reduce it in place to the unique reduced basis, its entries
    ascending by leading monomial; returns the reducer."""
    guard = reducer.packing.guard
    entries = reducer.entries
    keep = []
    for i, (lm, _, _) in enumerate(entries):
        redundant = False
        for j, (other, _, _) in enumerate(entries):
            if i == j:
                continue
            if not (lm - other) & guard and (other != lm or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    # no leading monomial of a minimal basis divides a smaller monomial,
    # so reducing an element's tail never uses the element itself
    minimal = _Reducer(reducer.packing, char, [entries[i] for i in keep])
    reducer.entries = []
    for lm, lc, items in sorted(minimal.entries, key=lambda entry: entry[0]):
        r, scale = minimal.reduce({e: c for e, c in items if e != lm})
        reducer.add(lm, _normalize({lm: lc * scale, **r}, lm, char))
    return reducer


# --- public surface ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroebnerBasis:
    """A reduced basis, held as its packed reducer (see `_normalize`)."""
    ring: PolyRing
    order: object
    _reducer: _Reducer = dc_field(repr=False)
    # the K-polynomial of S/LT(G) that the run making the basis kept
    _numerator: tuple = dc_field(default=None, repr=False)

    @cached_property
    def hilbert(self) -> HilbertData:
        """The Hilbert data of S/LT(G), that of a homogeneous ideal
        itself, from the K-polynomial the run kept or else read off the
        leading monomials, once."""
        arity = self.ring.arity
        numerator = self._numerator
        if numerator is None:
            numerator = lt_numerator(self.leading_exponents(), arity)
        return data_from_numerator(numerator, arity)

    @cached_property
    def elements(self) -> tuple:
        """The monic elements, built the first time they are read."""
        unpack = self._reducer.packing.unpack
        char = self.ring.field.characteristic
        return tuple(Polynomial(self.ring, {unpack(e): c if char
                                            else rational(c, lc)
                                            for e, c in items})
                     for _, lc, items in self._reducer.entries)

    def leading_exponents(self) -> list:
        """The leading exponent tuples, in the order of `elements`."""
        unpack = self._reducer.packing.unpack
        return [unpack(lm) for lm, _, _ in self._reducer.entries]

    def primitive_terms(self) -> list:
        """The elements as the entries' {exponent tuple: int} dicts, each
        listing its leading term first."""
        unpack = self._reducer.packing.unpack
        return [{unpack(e): c for e, c in items}
                for _, _, items in self._reducer.entries]

    def is_unit(self) -> bool:
        # a reduced basis with a constant is {1}, whose monomial packs to 0
        entries = self._reducer.entries
        return len(entries) == 1 and entries[0][0] == 0

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise RingMismatch("polynomial not in the basis ring")
        d, mult = f.int_terms()
        if not d:
            return self.ring.zero()
        r, scale = self._reducer.normal_form(d)
        if not r:
            return self.ring.zero()
        if self.ring.field.characteristic:
            return self.ring.polynomial(r)
        # d = mult * f reduces to r / scale
        num, den = mult.denominator, scale * mult.numerator
        return self.ring.polynomial({e: rational(c * num, den)
                                     for e, c in r.items()})

    def contains(self, f: Polynomial) -> bool:
        return not self.normal_form(f)


def groebner_basis(gens, order=GREVLEX,
                   ring: PolyRing = None) -> GroebnerBasis:
    """The reduced basis of the ideal J the gens generate, monic and in
    ascending leading-monomial order: unique for J and `order`."""
    return _basis(gens, order, ring)


def basis_unless_dimension_at_most(gens, bound: int, ring: PolyRing = None):
    """None when the grevlex leading monomials of a partial basis prove
    that the ideal the gens generate has Krull dimension at most
    `bound` >= 0; otherwise its reduced grevlex basis, and then the
    dimension is larger than `bound` (see the module docstring)."""
    return _basis(gens, GREVLEX, ring, bound=bound)


def _basis(gens, order, ring, target=None, bound=None, known=None):
    """`groebner_basis` with `_buchberger`'s Hilbert-target skip and
    dimension stop: None when the stop fires.  `target` is the
    K-polynomial of S/J, or a coefficientwise lower bound of its series,
    in the order's grading; `known`, a reduced basis in `order` and
    `ring` of an ideal the gens extend, starts the run (see the module
    docstring)."""
    gens = [g for g in gens if g]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer ring from an empty generator list")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generators live in different rings")
    char = ring.field.characteristic
    int_gens = [g.int_terms()[0] for g in gens]
    packing = _packing_for(order, ring.arity, int_gens)
    if known is not None and known._reducer.packing.bits > packing.bits:
        packing = known._reducer.packing
    while True:
        try:
            out = _buchberger(
                [{packing.pack(e): c for e, c in d.items()} for d in int_gens],
                packing, char, target, bound,
                () if known is None
                else known._reducer.widened(packing.bits).entries)
            break
        except _FieldOverflow:
            packing = _packing(order, ring.arity, 2 * packing.bits)
    if out is None:
        return None
    return GroebnerBasis(ring, order, *out)


def _image_mod(basis: GroebnerBasis, ring: PolyRing):
    """A reduced QQ basis G of a homogeneous ideal mod p, the
    characteristic of `ring`: the reduced basis of the image, or None
    when p divides a primitive leading coefficient (see `ideals`)."""
    p = ring.field.characteristic
    entries = []
    for lm, lc, items in basis._reducer.entries:
        if not lc % p:
            return None
        inv = pow(lc, -1, p)
        entries.append((lm, 1, [(e, r) for e, c in items
                                if (r := c * inv % p)]))
    return GroebnerBasis(ring, basis.order,
                         _Reducer(basis._reducer.packing, p, entries))


def normal_form(f: Polynomial, basis, order=GREVLEX) -> Polynomial:
    """Normal form against a GroebnerBasis or a raw generator list (the
    latter is divided as-is, without completing it to a basis)."""
    if isinstance(basis, GroebnerBasis):
        return basis.normal_form(f)
    ints = [g.int_terms()[0] for g in basis if g]
    packing = _packing_for(order, f.ring.arity, ints)
    char = f.ring.field.characteristic
    reducer = _Reducer(packing, char)
    for d in ints:
        packed = {packing.pack(e): c for e, c in d.items()}
        lm = max(packed)
        reducer.add(lm, _normalize(packed, lm, char))
    return GroebnerBasis(f.ring, order, reducer).normal_form(f)


def is_member(f: Polynomial, gb: GroebnerBasis) -> bool:
    return gb.contains(f)
