"""Ideal-level operations: sums, products, intersections, quotients,
saturation, elimination, vector-space dimensions and zero-dimensional
radicals.

Each operation has one kernel.  Intersections eliminate t from
t*I + (1-t)*J.  The principal colon (I : g) of homogeneous I and g
comes from one weighted-grevlex basis of I + (y - g) in a fresh last
variable y of weight deg g (Bayer's trick): the elements y divides,
divided by y once and mapped back by y -> g.  The leading monomials of
that basis fix the Hilbert series of S/(I : g), so the quotient's own
grevlex basis takes that series as its target, skips the S-pairs of
every degree it already fills, and keeps it as its Hilbert data.  The
principal saturation (I : g^infinity) eliminates t from I + (1 - t*g)
(Rabinowitsch), projecting through `eliminate` as intersections do,
for every I and g.  A saturation by several generators intersects the
principal ones by those outside I, and so does a quotient, except a
linked one: when I is a complete intersection and linkage fixes the
degree of the quotient, (I : g) for one g in the divisor is certified
by that degree, trying the sparsest generator before two random
combinations of all of them.  Saturation by the irrelevant maximal
ideal of a homogeneous ideal saturates by one linear form, and a
Hilbert-polynomial comparison certifies that the form missed every
relevant associated prime; when no form is certified, the ideal is
saturated by all the coordinates.

Of the colon and saturation kernels only the colon needs forms, and
`quotient` is where affine input crosses over: it homogenizes the
generators of I and of the divisor by a fresh first variable z, takes
the homogeneous quotient in S[z], where the linked-degree certificate
and the fold both apply, and sets z = 1.  Lazard's local length
(`_local_h`) homogenizes the same way.

An ideal built as a base plus a few generators is an extension
(`_extension`).  It records its base, and `_chain_basis` starts each
of its bases from the basis cached on the nearest ideal up that chain,
so a run reduces and pairs only the generators added since.  The
extensions, with their bases:
- `ideal_sum(a, b)`: a;
- the colon's a plus the lowered Bayer elements: a;
- a Jacobian scheme of `discrepancy`: the ideal its minors are reduced
  mod;
- a partial minor ideal of `discrepancy._minors_reach`: the previous
  partial ideal, or that ideal for the first;
- a finite scheme plus a hyperplane: the scheme;
- the zero-dimensional radical: the ideal, whose basis it keeps when
  the ideal is its own radical;
- the image mod p of an extension: its base's image.
A run's known basis is always in that run's own ring and order.  The
Bayer basis of a + (y - g) lives in S[y] under a weighted order, so its
run starts from a's generators, relabelled into S[y], and y - g; a's
cached grevlex basis gives only its Hilbert target.

`dimension_at_most` is the one test of a bound on the Krull dimension
of a homogeneous ideal.  It asks a Buchberger run that stops as soon as
its leading monomials prove the bound.  A homogeneous QQ ideal
whose coefficients reach a fixed prime p is asked mod p first, and
a itself only when the image misses the bound.  Image generators
reduce primitive integer elements of a, so the image lies in a', the
reduction of a ∩ Z_(p)[x], and HF(S/a') = HF(S/a) (Arnold, JSC 35,
2003).  A cached grevlex basis G, p dividing none of its primitive
leading coefficients, gives the image G mod p, the reduced basis of a'
as HF(S/a') <= HF(S/(G mod p)) <= HF(S/LT(G)) = HF(S/a); any other
ideal's image is its base's plus its own generators' images.

An ideal keeps only its bases, by order, and its image mod p; Hilbert
data lives on a basis (`GroebnerBasis.hilbert`), shared by the ideals
that share the basis (`_presented`).

A zero-dimensional ideal has finite length `vdim`, counted from the
Hilbert series numerator of its leading-term ideal.  Its radical adds
the squarefree part of each variable's univariate generator, the
generator of a ∩ k[x_i] (Seidenberg's lemma), and its distinct points
are the length of that radical.  That generator is the minimal
polynomial of x_i on S/a, read off the normal forms of its powers
against a's grevlex basis (Faugère, Gianni, Lazard and Mora, JSC 16,
1993), so the radical needs no elimination; the echelon keeps integer
rows (`groebner._echelon_insert`).

The length at the origin sums the Hilbert function of the tangent cone
there, read off one basis in one more variable by Lazard's
homogenization (`_local_h`), which also tells an isolated origin.
"""

from __future__ import annotations

from math import prod

from .errors import (
    DivisionFailure,
    IndexOutOfRange,
    InputError,
    NotHomogeneous,
    NotZeroDimensional,
    PrecisionCapExceeded,
    RingMismatch,
)
from . import hilbert as _hilbert
from .fields import Field
from .groebner import (GroebnerBasis, _basis, _echelon_insert, _image_mod,
                       groebner_basis)
from .orders import Block, GREVLEX, WeightedGrevLex
from .polynomials import Chart, Polynomial, PolyRing, _substitute, homogenize
from .rng import SplitMix64

INFINITE = float("inf")


class Ideal:
    """An ideal presented by generators, with per-order basis caching.

    Instances are immutable; the Groebner cache is filled on demand and
    a concurrent duplicate fill is harmless (both threads compute the
    same canonical basis and the dict store is atomic).
    """

    __slots__ = ("ring", "generators", "_gb_cache", "_mod_p_image", "_base",
                 "_homogeneous")

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
        # the image mod the screening prime, when built (`_mod_p`)
        self._mod_p_image = None
        # the ideal whose generators begin these, when built by
        # `_extension`
        self._base = None
        self._homogeneous = None

    def gb(self, order=GREVLEX) -> GroebnerBasis:
        """The reduced basis in `order`, computed once (`_cached_basis`)."""
        return _cached_basis(self, order)

    def contains(self, f: Polynomial) -> bool:
        return self.gb().contains(f)

    def is_unit(self) -> bool:
        return self.gb().is_unit()

    def is_zero(self) -> bool:
        return not self.generators

    def is_homogeneous(self) -> bool:
        """Decided once; an extension asks its base and its own gens."""
        if self._homogeneous is None:
            base = self._base
            own = self.generators[len(base.generators) if base else 0:]
            self._homogeneous = ((base is None or base.is_homogeneous())
                                 and all(g.is_homogeneous() for g in own))
        return self._homogeneous

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"


def _presented(basis: GroebnerBasis) -> Ideal:
    """The ideal the reduced `basis` generates, with `basis` cached."""
    out = Ideal(basis.ring, basis.elements)
    out._gb_cache[basis.order] = basis
    return out


def _extension(base: Ideal, extra) -> Ideal:
    """base plus the `extra` generators, with base recorded, so that its
    bases start from base's (`_chain_basis`)."""
    out = Ideal(base.ring, [*base.generators, *extra])
    out._base = base
    return out


def _cached_basis(a: Ideal, order, target=None) -> GroebnerBasis:
    """a's reduced basis in `order`, computed once (`_chain_basis`) and
    cached: the one place a Hilbert target enters a run.  `target` must
    be the K-polynomial of S/a in the order's grading, or of a
    coefficientwise lower bound of its series; then it changes only the
    work (see `groebner`).  A larger target drops S-pairs that do not
    reduce to zero, and the wrong basis is cached with no check."""
    cached = a._gb_cache.get(order)
    if cached is None:
        cached = a._gb_cache[order] = _chain_basis(a, order, target)
    return cached


def _chain_basis(a: Ideal, order, target=None, bound=None):
    """a's reduced basis in `order`, or None when the dimension `bound`
    stops the run (`groebner._basis`).  The run starts from the basis
    cached on the nearest ideal up a's chain of bases that has one, and
    reduces only the generators added since."""
    base = a._base
    while base is not None and order not in base._gb_cache:
        base = base._base
    if base is None:
        return _basis(a.generators, order, a.ring, target, bound)
    return _basis(a.generators[len(base.generators):], order, a.ring,
                  target, bound, base._gb_cache[order])


# the largest prime below 2^15: two residues multiply in one 30-bit digit
_SCREEN_FIELD = Field.prime_field(32749)


def _wide(a: Ideal) -> bool:
    """Whether a primitive integer coefficient of a QQ ideal's
    generators reaches the screening prime."""
    p = _SCREEN_FIELD.characteristic
    return any(abs(c) >= p for g in a.generators
               for c in g.int_terms()[0].values())


def _mod_p(a: Ideal) -> Ideal:
    """The image of a homogeneous QQ ideal mod the screening prime p,
    kept with a (see the module docstring); a kept image with no basis
    gives way to a's cached grevlex basis mod p when p passes it."""
    image = a._mod_p_image
    exact = a._gb_cache.get(GREVLEX)
    ring = PolyRing(_SCREEN_FIELD, a.ring.names)
    if exact is not None and (image is None or GREVLEX not in image._gb_cache):
        basis = _image_mod(exact, ring)
        if basis is not None:
            image = _presented(basis)
    if image is None:
        base = a._base
        gens = a.generators[0 if base is None else len(base.generators):]
        images = [ring.polynomial({e: c % ring.field.characteristic
                                   for e, c in g.int_terms()[0].items()})
                  for g in gens]
        image = (Ideal(ring, images) if base is None
                 else _extension(_mod_p(base), images))
    a._mod_p_image = image
    return image


def dimension_at_most(a: Ideal, bound: int) -> bool:
    """Whether the homogeneous ideal a has Krull dimension at most
    `bound`; NotHomogeneous before any work otherwise.

    An ideal with a grevlex basis cached reads its dimension off the
    basis's Hilbert data.  Any other ideal asks a grevlex Buchberger run
    that stops once its leading monomials prove the bound (the run of
    `groebner.basis_unless_dimension_at_most`, started by `_chain_basis`
    from the nearest basis cached up a's chain); a run that ends
    without a certified bound caches the basis that proves the answer
    no.  A QQ ideal with a primitive integer
    coefficient of at least the screening prime p asks its image mod p
    first (`_mod_p`): the image's Hilbert function is at least a's in
    every degree (see the module docstring), so an image within the
    bound certifies the answer.  Otherwise a itself is asked, so an
    unlucky prime costs time and never changes an answer; narrower
    coefficients would shrink nothing mod p."""
    _hilbert._check_homogeneous(a)
    if bound < 0 or GREVLEX in a._gb_cache:
        return _hilbert.krull_dimension(a) <= bound
    if (a.ring.field.characteristic or not _wide(a)
            or not dimension_at_most(_mod_p(a), bound)):
        basis = _chain_basis(a, GREVLEX, bound=bound)
        if basis is not None:
            a._gb_cache[GREVLEX] = basis
            return False
    return True


def ideal(*gens) -> Ideal:
    if not gens:
        raise ValueError("need at least one generator to infer the ring")
    return Ideal(gens[0].ring, list(gens))


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise RingMismatch("ideal sum across different rings")
    return _extension(a, b.generators)


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


def _homogenized(ring: PolyRing, gens) -> Ideal:
    """The ideal of S[z] generated by gens, polynomials of `ring`, each
    homogenized by a fresh first variable z; z = 1 maps it onto the
    ideal they generate."""
    aux = PolyRing(ring.field, (_fresh_name(ring, "z"),) + ring.names)
    return Ideal(aux, [homogenize(g, aux, 0) for g in gens])


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


def _reduced(a: Ideal, numerator=None) -> Ideal:
    """a presented by its monic reduced grevlex basis, kept cached.  A
    known K-polynomial `numerator` of S/a is the basis's target
    (`_cached_basis`), and the basis keeps it as its Hilbert data."""
    return _presented(_cached_basis(a, GREVLEX, numerator))


def _colon_numerator(lts, ring: PolyRing, d: int):
    """The K-polynomial of S/(a : g), g of degree d, from the leading
    exponents `lts` of a basis of (J : y) in S[y] (see `colon_principal`).
    y -> g is a graded isomorphism S[y]/(J : y) -> S/(a : g), so with y
    of weight d the K-polynomial of `lts`, over (1 - t)^n (1 - t^d), is
    the series of S/(a : g): dividing it by 1 - t^d leaves the answer."""
    weights = (1,) * ring.arity + (d,)
    numerator = _hilbert.lt_numerator(lts, ring.arity + 1, weights)
    return _hilbert._divide_one_minus_t(numerator, d)


def colon_principal(a: Ideal, g: Polynomial) -> Ideal:
    """(a : g) for a single polynomial, as its monic reduced grevlex
    basis; a and g not both homogeneous go through `quotient`, which
    homogenizes them.

    For homogeneous a and g of degree d it is read off the
    weighted-grevlex basis of J = a + (y - g), in a fresh last variable
    y of weight d (Bayer's trick; Eisenbud, Prop. 15.12), computed from
    a's generators and y - g (see the module docstring).  J is
    weighted-homogeneous, so in weighted grevlex y divides a basis
    element exactly when it divides its leading term: the elements y
    divides, divided by y once, generate (J : y) together with J, and
    y -> g sends J onto a and (J : y) onto (a : g).  They are read as
    primitive integer forms (`GroebnerBasis.primitive_terms`), so no
    Fraction is built, and mapped back through one table of powers of g.

    y -> g is also a graded isomorphism S[y]/J -> S/a, so when a's
    grevlex basis is cached, a's K-polynomial times 1 - t^d is the Bayer
    run's target in the grading that gives y the weight d (Traverso
    1996).  The colon's own grevlex basis takes the series the Bayer
    basis fixes as its target (`_colon_numerator`) and keeps it as its
    Hilbert data."""
    if g.ring != a.ring:
        raise RingMismatch("colon divisor outside the ideal's ring")
    ring = a.ring
    if not g:
        return Ideal(ring, [ring.one()])
    if g.is_constant():
        return _reduced(a)
    if not (a.is_homogeneous() and g.is_homogeneous()):
        return quotient(a, Ideal(ring, [g]))
    aux = PolyRing(ring.field, ring.names + (_fresh_name(ring, "y"),))
    y = aux.variable(ring.arity)
    d = g.total_degree()
    known = a._gb_cache.get(GREVLEX)
    target = None
    if known is not None:
        target = _hilbert._koszul([d], known.hilbert.numerator)
    gens = [*_relabel(a.generators, aux).generators,
            y - _relabel([g], aux).generators[0]]
    basis = _cached_basis(Ideal(aux, gens),
                          WeightedGrevLex((1,) * ring.arity + (d,)), target)
    lowered, lts = [], []
    for terms in basis.primitive_terms():
        lead = next(iter(terms))
        if lead[-1]:
            terms = {e[:-1] + (e[-1] - 1,): c for e, c in terms.items()}
            lowered.append(aux.polynomial(terms))
            lead = next(iter(terms))
        lts.append(lead)
    back = _substitute(lowered, ring, ring.variables() + [g])
    return _reduced(_extension(a, back), _colon_numerator(lts, ring, d))


def _fold(a: Ideal, gens, principal) -> Ideal:
    """The intersection of principal(a, g) over the gens that a does not
    contain, the unit ideal for none: the exact colon or saturation by
    gens, for principal `colon_principal` or `_saturate_principal` (both
    are the unit ideal for a gen in a)."""
    gb_a = a.gb()
    parts = [principal(a, g) for g in gens if not gb_a.contains(g)]
    result = parts[0] if parts else Ideal(a.ring, [a.ring.one()])
    for part in parts[1:]:
        result = intersect(result, part)
    return result


def quotient(a: Ideal, b: Ideal) -> Ideal:
    """(a : b).  When a or b is not homogeneous, the generators of b
    that a contains are dropped, the unit ideal for none, and a's
    generators and the rest are homogenized by a fresh first variable z
    (`_homogenized`); their homogeneous quotient in S[z], mapped back by
    z = 1, is returned as its monic reduced grevlex basis.  Setting z = 1
    is localizing at z and taking degree-0 parts, and colon commutes
    with localization, so the map sends (J : G) onto (a : b) for J and
    G the homogenized a and b.

    For homogeneous a and b the exact fold answers: the intersection of
    the principal colons by the generators of b outside a, the unit
    ideal for none.

    The one exception is a linked colon: a is a homogeneous complete
    intersection and b contains it with the same Krull dimension, so
    linkage fixes the degree of (a : b) (see `_linked_degree`).  For any
    g in b, (a : g) contains (a : b) and is unmixed, as a is, so it
    equals (a : b) exactly when it has a's Krull dimension and that
    degree; one that does not is strictly larger.  The candidates are
    the sparsest generator of b first, then two random combinations from
    a fixed stream (`_linked_candidates`), each homogeneous, so each
    takes the homogeneous colon.  The first certified one is returned as
    its monic reduced grevlex basis, the fold's own, and the fold runs
    when none is; the colon is unique, so the draw changes only the
    work.  Degree 0 leaves no component, so the colon is the unit
    ideal and nothing is tried."""
    if a.ring != b.ring:
        raise RingMismatch("ideal quotient across different rings")
    ring = a.ring
    if not (a.is_homogeneous() and b.is_homogeneous()):
        gb_a = a.gb()
        rest = [g for g in b.generators if not gb_a.contains(g)]
        if not rest:
            return Ideal(ring, [ring.one()])
        colon = quotient(_homogenized(ring, a.generators),
                         _homogenized(ring, rest))
        z = colon.ring.variable(0)
        return _reduced(chart_ideal(colon, Chart.from_form(z)))
    gens = b.generators
    degree = _linked_degree(a, b) if len(gens) > 1 else None
    if degree == 0:
        # b's top-dimensional part is a itself, so (a : b) = (a : a)
        return Ideal(ring, [ring.one()])
    if degree is not None:
        for g in _linked_candidates(a, gens):
            # a homogeneous colon, so already its reduced grevlex basis,
            # with the Hilbert data its Bayer basis fixed kept on it
            candidate = colon_principal(a, g)
            data = _hilbert.hilbert_series(candidate)
            if (data.krull_dim == _hilbert.krull_dimension(a)
                    and data.degree == degree):
                return candidate
    return _fold(a, gens, colon_principal)


def _linked_candidates(a: Ideal, gens):
    """The divisors g that `quotient` tries on a linked colon (a : gens),
    in order: the sparsest generator (lowest degree, then fewest terms,
    then first in gens) as it stands, unless it is a scalar multiple of
    a generator of a, whose colon is the unit ideal; then two nonzero
    combinations of all of gens from a fixed stream, raised to one
    degree by powers of a random linear form when their degrees differ.
    Nothing is drawn before the second."""
    ring = a.ring
    field = ring.field

    def line(g):
        # equal exactly for scalar multiples; over QQ read off the integer
        # terms g's basis run cached, so no Fraction is built
        if field.characteristic:
            return g.scale(field.inv(g.leading(GREVLEX)[1]))
        return g.primitive_int()

    sparsest = min(gens, key=lambda g: (g.total_degree(), len(g.terms)))
    if line(sparsest) not in {line(f) for f in a.generators}:
        yield sparsest
    rng = SplitMix64(0x5EED_C010)
    degrees = [gen.total_degree() for gen in gens]
    top = max(degrees)
    if min(degrees) < top:
        ell = ring.linear_form(rng.vector(field, ring.arity))
        gens = [gen * ell**(top - d) for gen, d in zip(gens, degrees)]
    for _ in range(2):
        g = ring.zero()
        for gen, c in zip(gens, rng.vector(field, len(gens))):
            g = g + gen.scale(c)
        if g:
            yield g


def _linked_degree(a: Ideal, b: Ideal):
    """For homogeneous a and b: deg (a : b) when a is a complete
    intersection (forms of positive degree, as many as its codimension)
    and b contains a and has a's Krull dimension; None otherwise.

    Only the top-dimensional part of b meets the associated primes of
    the unmixed a, and it has b's degree, so Gorenstein linkage gives
    deg (a : b) = deg a - deg b = prod d_i - deg b (Peskine-Szpiro
    1974)."""
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
    """(a : g^infinity) for a single nonzero polynomial: the elimination
    of t from a + (1 - t*g) (Rabinowitsch)."""
    if g.is_constant():
        return a
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
    result = _fold(a, b.generators, _saturate_principal)
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
    for i in drop:
        if not 0 <= i < ring.arity:
            raise IndexOutOfRange(f"variable index {i} out of range")
    if not drop:
        return a
    if len(drop) >= ring.arity:
        raise InputError("cannot eliminate every variable")
    keep = tuple(n for i, n in enumerate(ring.names) if i not in drop)
    dropped = tuple(ring.names[i] for i in drop)
    moved = _relabel(a.generators, PolyRing(ring.field, dropped + keep))
    gb = moved.gb(Block(len(drop)))
    return _relabel(gb.elements, PolyRing(ring.field, keep))


# --- dimensions --------------------------------------------------------


def vdim(a: Ideal):
    """dim_k of the quotient ring, or INFINITE: the h-polynomial of its
    grevlex basis's Hilbert data at t = 1, counting standard monomials.
    The count is the same in every order."""
    h = _hilbert._h_polynomial(a.gb().hilbert.numerator, a.ring.arity)
    return INFINITE if h is None else sum(h)


def _local_h(a: Ideal):
    """The Hilbert function of a's tangent cone at the origin as a list:
    [] when the origin is off V(a), None when it is not isolated.  It is
    read off the leading monomials of a standard basis in the local
    degree order (lowest degree first, then grevlex): those, z dropped,
    of the `Block(1)` basis of a's generators homogenized by a fresh
    first variable z (Lazard; Greuel and Pfister, ch. 1).  A homogeneous
    a is its own homogenization and reads its grevlex basis; a generator
    with a constant term is a unit at the origin and asks for none."""
    ring = a.ring
    if any(g.coefficient_of((0,) * ring.arity) for g in a.generators):
        return []
    if a.is_homogeneous():
        numerator = a.gb().hilbert.numerator
    else:
        basis = _homogenized(ring, a.generators).gb(Block(1))
        numerator = _hilbert.lt_numerator(
            [e[1:] for e in basis.leading_exponents()], ring.arity)
    return _hilbert._h_polynomial(numerator, ring.arity)


def local_vdim_origin(a: Ideal, cap: int = 256):
    """Length of the quotient localized at the origin, the sum of
    `_local_h`.  The cap is that of vdim(a + m^n), which sums it below
    n, for n = 2, 4, 8, ...: the length is returned if two consecutive
    values agree by n = cap, at n = 2N, N the least power of two >= 2
    above the socle degree; else, or when the origin is not isolated,
    PrecisionCapExceeded.  The unit ideal has length 0 at every cap."""
    h = _local_h(a)
    if h is not None:
        n = 4
        while n // 2 < len(h):
            n *= 2
        if n <= cap or not h and a.is_unit():
            return sum(h)
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


def _minimal_polynomial(basis: GroebnerBasis, i: int) -> Polynomial:
    """The monic generator of a ∩ k[x_i], a the zero-dimensional ideal
    of the reduced `basis`: the minimal polynomial of x_i on S/a.  The
    integer normal forms of 1, x_i, x_i^2, ... go into one echelon, their
    monomials keyed -1, -2, ... and the factor scaling x_i^n keyed n; the
    first row keyed by a power, above every monomial, is the relation
    among the powers, made monic."""
    ring = basis.ring
    zero = (0,) * ring.arity
    slots, rows = {}, {}
    form, scale, n = {zero: 1}, 1, 0  # scale * x_i^n ≡ form modulo a
    while True:
        vector = {~slots.setdefault(m, len(slots)): c for m, c in form.items()}
        vector[n] = scale
        key = _echelon_insert(rows, vector, ring.field.characteristic)
        if key is not None and key >= 0:
            return ring.polynomial({zero[:i] + (k,) + zero[i + 1:]:
                                    ring.field.div(c, rows[key][n])
                                    for k, c in rows[key].items()})
        form, mult = basis._reducer.normal_form(
            {m[:i] + (m[i] + 1,) + m[i + 1:]: c for m, c in form.items()})
        scale, n = scale * mult, n + 1


def radical_zero_dim(a: Ideal) -> Ideal:
    """Radical of a zero-dimensional ideal: a plus the squarefree part
    of each variable's minimal polynomial, the generator of a ∩ k[x_i]
    (Seidenberg's lemma).  When every minimal polynomial is squarefree,
    a is its own radical and the result keeps a's grevlex basis."""
    if a.is_unit():
        return a
    if vdim(a) == INFINITE:
        raise NotZeroDimensional("radical_zero_dim needs a finite quotient")
    basis = a.gb()
    minimal = [_minimal_polynomial(basis, i) for i in range(a.ring.arity)]
    parts = [_squarefree_part(m, i) for i, m in enumerate(minimal)]
    out = _extension(a, parts)
    if parts == minimal:
        out._gb_cache[GREVLEX] = basis
    return out


def distinct_point_count(a: Ideal) -> int:
    """Number of distinct points of a finite scheme, counted with
    residue-field degree: the vdim of the radical."""
    return vdim(radical_zero_dim(a))
