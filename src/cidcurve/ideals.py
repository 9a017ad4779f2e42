"""Ideal-level operations: sums, products, intersections, quotients,
saturation, elimination, vector-space dimensions and zero-dimensional
radicals.

Intersections use the classic auxiliary-variable trick (eliminate t
from t*I + (1-t)*J).  For homogeneous I and g, the principal quotient
(I : g) and the saturation (I : g^infinity) both come from one
weighted-grevlex basis of I + (y - g) in a fresh last variable y of
weight deg g (Bayer's trick), mapped back by y -> g: the quotient from
the elements y divides, divided by y once, and the saturation from
every element divided by its top power of y.  Otherwise a principal
quotient divides the generators of I ∩ (g) by g, and a principal
saturation eliminates t from I + (1 - t*g) (Rabinowitsch), projecting
through `eliminate` as intersections do.  A saturation by several
generators intersects the principal ones by those outside I; a quotient
does so only when (I : g) for a random combination g of them twice
fails its certificate, the degree linkage fixes or a product test.
Saturation by the irrelevant maximal ideal of a homogeneous ideal
saturates by one linear form, and a Hilbert-polynomial comparison
certifies that the form missed every relevant associated prime; when
no form is certified, the ideal is saturated by all the coordinates.

`dimension_at_most` bounds the Krull dimension of a homogeneous QQ
ideal by that of its image mod a fixed prime, which can only be larger
(ranks only drop mod p), and takes the exact basis only when the image
does not certify the bound.

A zero-dimensional ideal has finite length `vdim`, counted from the
Hilbert series numerator of its leading-term ideal.  Its radical adds
the squarefree part of each variable's univariate generator, the single
element of the elimination ideal a ∩ k[x_i] (Seidenberg's lemma), and
its distinct points are the length of that radical.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import prod

from .errors import (
    DivisionFailure,
    NotHomogeneous,
    NotZeroDimensional,
    PrecisionCapExceeded,
    RingMismatch,
)
from . import hilbert as _hilbert
from .fields import MAX_CHARACTERISTIC, Field
from .groebner import GroebnerBasis, groebner_basis
from .orders import Block, GREVLEX, WeightedGrevLex
from .polynomials import Chart, Polynomial, PolyRing, _substitute
from .rng import SplitMix64

INFINITE = float("inf")


class Ideal:
    """An ideal presented by generators, with per-order basis caching.

    Instances are immutable; the Groebner cache is filled on demand and
    a concurrent duplicate fill is harmless (both threads compute the
    same canonical basis and the dict store is atomic).
    """

    __slots__ = ("ring", "generators", "_gb_cache", "_data_cache")

    def __init__(self, ring: PolyRing, generators):
        self.ring = ring
        seen = set()
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatch("generator outside the ideal's ring")
            if not g or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.generators = tuple(gens)
        self._gb_cache = {}
        self._data_cache = {}

    def gb(self, order=GREVLEX, target=None) -> GroebnerBasis:
        """The reduced basis in `order`, computed once; `target` is
        handed to `groebner_basis` when the basis is computed."""
        cached = self._gb_cache.get(order)
        if cached is None:
            cached = groebner_basis(self.generators, order, ring=self.ring,
                                    target=target)
            self._gb_cache[order] = cached
        return cached

    def contains(self, f: Polynomial) -> bool:
        return self.gb().contains(f)

    def is_unit(self) -> bool:
        return self.gb().is_unit()

    def is_zero(self) -> bool:
        return not self.generators

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"


# the prime of every mod-p image: the largest field characteristic
_SCREEN_FIELD = Field.prime_field(MAX_CHARACTERISTIC)


def _mod_p(a: Ideal) -> Ideal:
    """The image of a QQ ideal mod the screening prime: each generator
    scaled to primitive integers, then reduced; kept with a."""
    image = a._data_cache.get("mod_p")
    if image is None:
        p = _SCREEN_FIELD.characteristic
        ring = PolyRing(_SCREEN_FIELD, a.ring.names)
        image = a._data_cache["mod_p"] = Ideal(ring, [
            ring.polynomial({e: c.numerator % p
                             for e, c in g.primitive_int().terms.items()})
            for g in a.generators])
    return image


def dimension_at_most(a: Ideal, bound: int) -> bool:
    """Whether the homogeneous ideal a has Krull dimension at most
    `bound`; exact when a's Hilbert data or grevlex basis is cached, or
    over F_p.

    Otherwise the image of a mod the screening prime answers first.  In
    each degree the forms of a are spanned by monomial multiples of its
    primitive integer generators, an integer matrix whose rank can only
    drop mod p, so the image's Hilbert function is at least a's in every
    degree (Arnold 2003) and its Krull dimension bounds a's.  An image
    within the bound certifies the answer; otherwise a's exact basis
    decides, so an unlucky prime costs time and never changes an answer.
    The screen pays off only where the answer is expected to be yes and
    a's exact basis is not needed later."""
    exact = (a.ring.field.characteristic or "hilbert" in a._data_cache
             or GREVLEX in a._gb_cache or not a.is_homogeneous())
    if not exact and _hilbert.krull_dimension(_mod_p(a)) <= bound:
        return True
    return _hilbert.krull_dimension(a) <= bound


def ideal(*gens) -> Ideal:
    if not gens:
        raise ValueError("need at least one generator to infer the ring")
    return Ideal(gens[0].ring, list(gens))


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise RingMismatch("ideal sum across different rings")
    return Ideal(a.ring, a.generators + b.generators)


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise RingMismatch("ideal product across different rings")
    gens = [f * g for f in a.generators for g in b.generators]
    return Ideal(a.ring, gens)


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    if a.ring != b.ring:
        raise RingMismatch("comparing ideals in different rings")
    return a.gb().elements == b.gb().elements


def is_saturated(a: Ideal) -> bool:
    return ideal_equal(a, saturate_irrelevant(a))


# --- ring plumbing -----------------------------------------------------


def _fresh_name(ring: PolyRing, stem="t"):
    name = stem
    while name in ring.names:
        name += "_"
    return name


def _relabel(gens, target: PolyRing) -> Ideal:
    """The ideal in `target` of those gens that use only variables named
    in `target`, each variable kept by name: a permutation, an extra
    auxiliary variable, or, applied to an elimination basis, the
    projection onto the kept variables."""
    gens = list(gens)
    if not gens:
        return Ideal(target, [])
    where = {name: j for j, name in enumerate(target.names)}
    index_map = [where.get(name) for name in gens[0].ring.names]
    dropped = [i for i, j in enumerate(index_map) if j is None]
    out = []
    for g in gens:
        if any(e[i] for e in g.terms for i in dropped):
            continue
        terms = {}
        for e, c in g.terms.items():
            exps = [0] * target.arity
            for i, k in enumerate(e):
                if k:
                    exps[index_map[i]] = k
            terms[tuple(exps)] = c
        out.append(Polynomial(target, terms))
    return Ideal(target, out)


def chart_ideal(a: Ideal, chart: Chart) -> Ideal:
    return Ideal(chart.ring, [chart.apply(g) for g in a.generators])


# --- intersection, quotient, saturation --------------------------------


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """a ∩ b by eliminating t from t*a + (1-t)*b."""
    if a.ring != b.ring:
        raise RingMismatch("intersecting ideals in different rings")
    if a.is_zero() or b.is_zero():
        return Ideal(a.ring, [])
    aux = PolyRing(a.ring.field, (_fresh_name(a.ring),) + a.ring.names)
    t = aux.variable(0)
    one_minus_t = aux.one() - t
    gens = [t * g for g in _relabel(a.generators, aux).generators]
    gens += [one_minus_t * g for g in _relabel(b.generators, aux).generators]
    return eliminate(Ideal(aux, gens), [0])


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when division is exact; DivisionFailure otherwise."""
    ring = f.ring
    field = ring.field
    quotient_poly = ring.zero()
    rest = f
    lm_g, lc_g = g.leading(GREVLEX)
    while rest:
        m, c = rest.leading(GREVLEX)
        if not all(x <= y for x, y in zip(lm_g, m)):
            raise DivisionFailure(f"{g} does not divide {f}")
        shift = tuple(y - x for x, y in zip(lm_g, m))
        term = ring.polynomial({shift: field.div(c, lc_g)})
        quotient_poly = quotient_poly + term
        rest = rest - term * g
    return quotient_poly


def _bayer_basis(a: Ideal, g: Polynomial):
    """The weighted-grevlex basis of J = a + (y - g) for homogeneous a
    and g of degree d, in a fresh last variable y of weight d (Bayer's
    trick; Eisenbud, Prop. 15.12), as pairs (k, f) of a basis element f
    and the top power k of y dividing it, with the map that sends a list
    of such pairs to the f / y^k under y -> g, all through one table of
    powers of g.  J is weighted-homogeneous, so in weighted grevlex y
    divides a basis element exactly when it divides its leading term:
    the elements y divides, divided by y once, generate (J : y) together
    with J, and every element divided by its top power of y gives a
    basis of (J : y^infinity).  Mapping y to g sends J onto a, (J : y)
    onto (a : g) and (J : y^infinity) onto (a : g^infinity).

    The same map is a graded isomorphism S[y]/J -> S/a, so S[y]/J has
    a's Hilbert series, and its K-polynomial over (1 - t)^n (1 - t^d) is
    a's times (1 - t^d).  When a's series is cached, that is the target
    at which Buchberger stops (Traverso 1996)."""
    ring = a.ring
    aux = PolyRing(ring.field, ring.names + (_fresh_name(ring, "y"),))
    y = aux.variable(ring.arity)
    gens = list(_relabel(a.generators, aux).generators)
    gens.append(y - _relabel([g], aux).generators[0])
    d = g.total_degree()
    data = a._data_cache.get("hilbert")
    target = None
    if data is not None:
        target = _hilbert._koszul([d], data.numerator)
    weights = (1,) * ring.arity + (d,)
    basis = groebner_basis(gens, WeightedGrevLex(weights), ring=aux,
                           target=target)
    images = ring.variables() + [g]

    def back(pairs):
        lowered = [aux.polynomial(
            {e[:-1] + (e[-1] - k,): c for e, c in f.terms.items()})
            for k, f in pairs]
        return list(_substitute(lowered, ring, images))

    pairs = [(min(e[-1] for e in f.terms), f) for f in basis.elements]
    return pairs, back


def _reduced(a: Ideal) -> Ideal:
    """a presented by its monic reduced grevlex basis, kept cached."""
    gb = a.gb()
    out = Ideal(a.ring, gb.elements)
    out._gb_cache[GREVLEX] = gb
    return out


def colon_principal(a: Ideal, g: Polynomial) -> Ideal:
    """(a : g) for a single polynomial: one weighted-grevlex basis when
    a and g are homogeneous (returned as its reduced grevlex basis),
    otherwise exact division of the generators of a ∩ (g)."""
    if g.ring != a.ring:
        raise RingMismatch("colon divisor outside the ideal's ring")
    if not g:
        return Ideal(a.ring, [a.ring.one()])
    if g.is_constant():
        return a
    if a.is_homogeneous() and g.is_homogeneous():
        pairs, back = _bayer_basis(a, g)
        lowered = back((1, f) for k, f in pairs if k)
        return _reduced(Ideal(a.ring, list(a.generators) + lowered))
    meet = intersect(a, Ideal(a.ring, [g]))
    return Ideal(a.ring, [divide_exact(f, g) for f in meet.generators])


def _outside(a: Ideal, gens) -> list:
    """The gens that a does not contain: a's colon and saturation by
    each of the others are the unit ideal."""
    gb_a = a.gb()
    return [g for g in gens if not gb_a.contains(g)]


def _fold(a: Ideal, gens, principal) -> Ideal:
    """The intersection of principal(a, g) over gens, the unit ideal for
    none: the exact colon or saturation by gens outside a, for principal
    `colon_principal` or `_saturate_principal`."""
    parts = [principal(a, g) for g in gens]
    result = parts[0] if parts else Ideal(a.ring, [a.ring.one()])
    for part in parts[1:]:
        result = intersect(result, part)
    return result


def quotient(a: Ideal, b: Ideal, seed=0) -> Ideal:
    """(a : b).  With at most one generator of b outside a, that is the
    unit ideal or the generator's principal colon.  Otherwise it is
    (a : g) for one random combination g of b's generators, certified
    exact and returned as its monic reduced grevlex basis; two failed
    draws fall back to the intersection of the principal colons.  When
    a and b are homogeneous but the generators differ in degree, each
    is first raised to the top degree by a power of one random linear
    form, so g is homogeneous and takes the homogeneous colon.

    When a is a homogeneous complete intersection and b contains it with
    the same Krull dimension, linkage fixes the degree of (a : b) (see
    `_linked_degree`), read before any membership test.  Then (a : g)
    is unmixed and contains (a : b), so it equals (a : b) exactly when
    it has a's Krull dimension and that degree; one that does not is
    strictly larger and is redrawn.  Degree 0 leaves no component, so
    the colon is the unit ideal and nothing is drawn.  Any other
    candidate is certified by the product test (a : g) * b ⊆ a."""
    if a.ring != b.ring:
        raise RingMismatch("ideal quotient across different rings")
    gens = b.generators
    degree = _linked_degree(a, b) if len(gens) > 1 else None
    if degree == 0:
        # b's top-dimensional part is a itself, so (a : b) = (a : a)
        return Ideal(a.ring, [a.ring.one()])
    if degree is None:
        gens = _outside(a, gens)
        if len(gens) < 2:
            return _fold(a, gens, colon_principal)
    rng = SplitMix64(seed ^ 0x5EED_C010)
    field = a.ring.field
    draws = gens
    degrees = [gen.total_degree() for gen in gens]
    top = max(degrees)
    if a.is_homogeneous() and b.is_homogeneous() and min(degrees) < top:
        ell = a.ring.linear_form(rng.vector(field, a.ring.arity))
        draws = [gen * ell**(top - d) for gen, d in zip(gens, degrees)]
    gb_a = a.gb()
    for _ in range(2):
        g = a.ring.zero()
        for gen, c in zip(draws, rng.vector(field, len(draws))):
            g = g + gen.scale(c)
        if not g:
            continue
        candidate = colon_principal(a, g)
        if degree is not None:
            # a homogeneous colon, so already its reduced grevlex basis,
            # returned with the Hilbert data just cached on it
            data = _hilbert.hilbert_series(candidate)
            if (data.krull_dim == _hilbert.krull_dimension(a)
                    and data.degree == degree):
                return candidate
        elif all(gb_a.contains(q * h)
                 for q in candidate.generators for h in gens):
            return _reduced(candidate)
    if degree is not None:
        gens = _outside(a, gens)
    return _fold(a, gens, colon_principal)


def _linked_degree(a: Ideal, b: Ideal):
    """deg (a : b) when a is a homogeneous complete intersection (forms
    of positive degree, as many as its codimension) and b is homogeneous,
    contains a and has a's Krull dimension; None otherwise.

    Only the top-dimensional part of b meets the associated primes of
    the unmixed a, and it has b's degree, so Gorenstein linkage gives
    deg (a : b) = deg a - deg b = prod d_i - deg b (Peskine-Szpiro
    1974)."""
    if not (a.is_homogeneous() and b.is_homogeneous()):
        return None
    if any(g.total_degree() < 1 for g in a.generators):
        return None
    dim_a = _hilbert.krull_dimension(a)
    if len(a.generators) != a.ring.arity - dim_a:
        return None
    gb_b = b.gb()
    if not all(gb_b.contains(g) for g in a.generators):
        return None
    data_b = _hilbert.hilbert_series(b)
    if data_b.krull_dim != dim_a:
        return None
    return prod(g.total_degree() for g in a.generators) - data_b.degree


def _saturate_principal(a: Ideal, g: Polynomial) -> Ideal:
    """(a : g^infinity) for a single polynomial: the Bayer basis divided
    by its top powers of y when a and g are homogeneous, otherwise the
    elimination of t from a + (1 - t*g) (Rabinowitsch)."""
    if not g:
        return Ideal(a.ring, [a.ring.one()])
    if g.is_constant():
        return a
    if a.is_homogeneous() and g.is_homogeneous():
        pairs, back = _bayer_basis(a, g)
        return Ideal(a.ring, back(pairs))
    aux = PolyRing(a.ring.field, (_fresh_name(a.ring),) + a.ring.names)
    t = aux.variable(0)
    gens = list(_relabel(a.generators, aux).generators)
    gens.append(aux.one() - t * _relabel([g], aux).generators[0])
    return eliminate(Ideal(aux, gens), [0])


def saturate(a: Ideal, b: Ideal) -> Ideal:
    """(a : b^infinity) as the intersection of the saturations by the
    generators of b outside a.  Returns a itself when the saturation
    does not change it, otherwise the saturation's monic reduced grevlex
    basis."""
    if a.ring != b.ring:
        raise RingMismatch("ideal saturation across different rings")
    result = _fold(a, _outside(a, b.generators), _saturate_principal)
    if ideal_equal(result, a):
        return a
    return _reduced(result)


def saturate_irrelevant(a: Ideal) -> Ideal:
    """Saturation of a homogeneous ideal by the irrelevant maximal
    ideal: the saturation by the first linear form (the coordinates,
    then six random forms) whose Hilbert polynomial is that of a, which
    certifies that the form missed every relevant associated prime;
    otherwise the exact saturation by all the coordinates."""
    if not a.is_homogeneous():
        raise NotHomogeneous("irrelevant saturation needs a homogeneous ideal")
    if a.is_zero():
        return a
    ring = a.ring
    field = ring.field
    target = _hilbert.hilbert_series(a).hilbert_poly
    candidates = ring.variables()
    rng = SplitMix64(0xC1D_5A7)
    for _ in range(6):
        candidates.append(ring.linear_form(rng.vector(field, ring.arity)))
    for h in candidates:
        sat = _saturate_principal(a, h)
        if _hilbert.hilbert_series(sat).hilbert_poly == target:
            return _reduced(sat)
    return saturate(a, Ideal(ring, ring.variables()))


# --- elimination -------------------------------------------------------


def eliminate(a: Ideal, var_indices) -> Ideal:
    """Generators of a ∩ k[remaining variables], returned in the ring of
    the remaining variables."""
    ring = a.ring
    drop = sorted(set(var_indices))
    if not drop:
        return a
    if len(drop) >= ring.arity:
        raise ValueError("cannot eliminate every variable")
    keep = tuple(n for i, n in enumerate(ring.names) if i not in drop)
    dropped = tuple(ring.names[i] for i in drop)
    moved = _relabel(a.generators, PolyRing(ring.field, dropped + keep))
    gb = moved.gb(Block(len(drop)))
    return _relabel(gb.elements, PolyRing(ring.field, keep))


# --- dimensions --------------------------------------------------------


def vdim(a: Ideal, order=GREVLEX):
    """dim_k of the quotient ring, or INFINITE.  Counts standard
    monomials of the leading-term ideal."""
    gb = a.gb(order)
    if gb.is_unit():
        return 0
    lt = [f.leading(order)[0] for f in gb.elements]
    count = _hilbert.count_standard_monomials(lt, a.ring.arity)
    if count is None:
        return INFINITE
    return count


def _degree_monomials(ring: PolyRing, degree: int):
    out = []
    for combo in combinations_with_replacement(range(ring.arity), degree):
        exps = [0] * ring.arity
        for i in combo:
            exps[i] += 1
        out.append(ring.polynomial({tuple(exps): ring.field.one()}))
    return out


def local_vdim_origin(a: Ideal, cap: int = 256):
    """Length of the quotient localized at the origin: vdim(a + m^n) for
    n = 2, 4, 8, ... up to cap, returned once two consecutive values
    agree; PrecisionCapExceeded when none do.

    A homogeneous a takes one grevlex basis instead, and the same cap.
    When S/a is finite it is graded, so it lives at the origin and its
    length is vdim(a), its h-polynomial at t = 1.  The doubling returns
    that at n = 2N, N the least power of two >= 2 above the socle degree
    D (the degree of the h-polynomial), since while n <= D the step to
    2n adds H(n) > 0.  When S/a is infinite every step adds H(n) > 0,
    and the doubling never returns."""
    if a.is_unit():
        return 0
    if a.is_homogeneous():
        numerator = _hilbert.hilbert_series(a).numerator
        h = _hilbert._h_polynomial(numerator, a.ring.arity)
        if h is not None:
            n = 4
            while n // 2 < len(h):
                n *= 2
            if n <= cap:
                return sum(h)
    else:
        previous = None
        n = 2
        while n <= cap:
            truncated = Ideal(a.ring, list(a.generators)
                              + _degree_monomials(a.ring, n))
            value = vdim(truncated)
            if previous is not None and value == previous:
                return value
            previous = value
            n *= 2
    raise PrecisionCapExceeded(
        f"local length did not stabilize up to truncation order {cap}", cap=cap
    )


# --- zero-dimensional radical ------------------------------------------


def _gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials in one variable: the single element
    of their reduced basis."""
    return groebner_basis([f, g], GREVLEX, ring=f.ring).elements[0]


def _squarefree_part(f: Polynomial, index: int) -> Polynomial:
    """Monic squarefree part of a nonzero f in the variable `index`
    alone, handling the char-p descent f = g(x^p)."""
    f = f.scale(f.ring.field.inv(f.leading(GREVLEX)[1]))
    if f.is_constant():
        return f
    p = f.ring.field.characteristic
    d = f.derivative(index)
    if not d:
        # every exponent divisible by p: take p-th root (prime field)
        root = f.ring.polynomial(
            {e[:index] + (e[index] // p,) + e[index + 1:]: c
             for e, c in f.terms.items()})
        return _squarefree_part(root, index)
    g = _gcd(f, d)
    if g.is_constant():
        return f
    w = divide_exact(f, g)
    if p == 0:
        return w
    # strip w-factors out of g; what is left is a p-th power, coprime
    # to w, so its squarefree part completes w
    y = g
    while True:
        common = _gcd(y, w)
        if common.is_constant():
            break
        y = divide_exact(y, common)
    return w * _squarefree_part(y, index)


def radical_zero_dim(a: Ideal) -> Ideal:
    """Radical of a zero-dimensional ideal: add the squarefree part of
    each variable's univariate generator of a ∩ k[x_i], read off the
    elimination basis (Seidenberg's lemma)."""
    if a.is_unit():
        return a
    if vdim(a) == INFINITE:
        raise NotZeroDimensional("radical_zero_dim needs a finite quotient")
    ring = a.ring
    gens = list(a.generators)
    for i in range(ring.arity):
        others = [j for j in range(ring.arity) if j != i]
        meet = eliminate(a, others) if others else a
        generator = meet.gb().elements[0]
        gens += _relabel([_squarefree_part(generator, 0)], ring).generators
    return Ideal(ring, gens)


def distinct_point_count(a: Ideal) -> int:
    """Number of distinct points of a finite scheme, counted with
    residue-field degree: the vdim of the radical."""
    return vdim(radical_zero_dim(a))
