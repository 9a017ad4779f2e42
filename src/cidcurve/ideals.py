"""Ideal-level operations: sums, products, intersections, quotients,
saturation, elimination, vector-space dimensions and zero-dimensional
radicals.

Intersections use the classic auxiliary-variable trick (eliminate t
from t*I + (1-t)*J).  A principal quotient (I : g) of homogeneous I and
g is one weighted-grevlex basis of I + (y - g) in a fresh last variable
y of weight deg g (Bayer's trick): the basis elements divisible by y,
divided by y once and mapped back by y -> g, generate (I : g) together
with I.  Other principal quotients divide the generators of I ∩ (g) by
g.  Quotients by several generators intersect principal ones, and
saturation iterates quotients to stabilization.  Saturation by the
irrelevant maximal ideal of a homogeneous ideal has a dedicated fast
path: saturating by a single linear form is one grevlex basis
computation (divide every element by the top power of the last
variable), and a Hilbert-polynomial comparison certifies that the
chosen form missed every relevant associated prime; on certificate
failure the exact intersection formula over all coordinate saturations
is used instead.
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
from .groebner import GroebnerBasis, groebner_basis
from .orders import Block, GREVLEX, LEX, WeightedGrevLex
from .polynomials import Chart, Polynomial, PolyRing
from .rng import SplitMix64

INFINITE = float("inf")

SATURATION_CAP = 64


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

    def gb(self, order=GREVLEX) -> GroebnerBasis:
        cached = self._gb_cache.get(order)
        if cached is None:
            cached = groebner_basis(self.generators, order, ring=self.ring)
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
    gb = groebner_basis(gens, Block(1), ring=aux)
    return _relabel(gb.elements, a.ring)


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


def _colon_homogeneous(a: Ideal, g: Polynomial) -> Ideal:
    """(a : g) for homogeneous a and g of degree d, from one basis in a
    fresh last variable y of weight d (Bayer's trick; Eisenbud, Prop.
    15.12).  J = a + (y - g) is weighted-homogeneous, so in weighted
    grevlex y divides a basis element exactly when it divides its
    leading term, and the basis elements y divides, divided by y once,
    generate (J : y) together with J.  Mapping y to g sends J onto a
    and (J : y) onto (a : g)."""
    ring = a.ring
    aux = PolyRing(ring.field, ring.names + (_fresh_name(ring, "y"),))
    y = aux.variable(ring.arity)
    gens = list(_relabel(a.generators, aux).generators)
    gens.append(y - _relabel([g], aux).generators[0])
    weights = (1,) * ring.arity + (g.total_degree(),)
    basis = groebner_basis(gens, WeightedGrevLex(weights), ring=aux)
    images = ring.variables() + [g]
    found = list(a.generators)
    for f in basis.elements:
        if all(e[-1] for e in f.terms):
            lowered = aux.polynomial(
                {e[:-1] + (e[-1] - 1,): c for e, c in f.terms.items()})
            found.append(lowered.compose(ring, images))
    gb = groebner_basis(found, GREVLEX, ring=ring)
    out = Ideal(ring, gb.elements)
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
        return _colon_homogeneous(a, g)
    meet = intersect(a, Ideal(a.ring, [g]))
    return Ideal(a.ring, [divide_exact(f, g) for f in meet.generators])


def quotient(a: Ideal, b: Ideal) -> Ideal:
    """(a : b) as the intersection of single-generator quotients."""
    if a.ring != b.ring:
        raise RingMismatch("ideal quotient across different rings")
    parts = [colon_principal(a, g) for g in b.generators]
    if not parts:
        return Ideal(a.ring, [a.ring.one()])
    result = parts[0]
    for part in parts[1:]:
        result = intersect(result, part)
    return result


def colon_certified(a: Ideal, b: Ideal, seed=0) -> Ideal:
    """(a : b) via a single random combination g of b's generators,
    certified exact by the product test (a : g) * b ⊆ a; falls back to
    the full quotient when certification fails.  When a and b are
    homogeneous but b's generators differ in degree, each generator is
    first raised to the top degree by a power of one random linear
    form, so g is homogeneous and (a : g) takes the homogeneous colon.

    When a is a homogeneous complete intersection and b contains it with
    the same Krull dimension, linkage fixes the degree of (a : b) (see
    `_linked_degree`).  Then (a : g) is unmixed too and contains (a : b),
    so it equals (a : b) exactly when it has a's Krull dimension and that
    degree; a candidate that matches is accepted without the product
    test, and one that does not is strictly larger than (a : b), cannot
    pass it, and is discarded for the next draw.  Degree 0 leaves no
    component, so that colon is the unit ideal and nothing is drawn."""
    if a.ring != b.ring:
        raise RingMismatch("ideal quotient across different rings")
    if not b.generators:
        return Ideal(a.ring, [a.ring.one()])
    if len(b.generators) == 1:
        return colon_principal(a, b.generators[0])
    rng = SplitMix64(seed ^ 0x5EED_C010)
    field = a.ring.field
    gens = b.generators
    degrees = [gen.total_degree() for gen in gens]
    top = max(degrees)
    if a.is_homogeneous() and b.is_homogeneous() and min(degrees) < top:
        ell = a.ring.linear_form(
            [field.from_int(rng.unit_coefficient())
             for _ in range(a.ring.arity)])
        gens = [gen * ell**(top - d) for gen, d in zip(gens, degrees)]
    degree = _linked_degree(a, b)
    if degree == 0:
        # b's top-dimensional part is a itself, so (a : b) = (a : a)
        return Ideal(a.ring, [a.ring.one()])
    gb_a = a.gb()
    for _ in range(2):
        g = a.ring.zero()
        for gen in gens:
            g = g + gen.scale(field.from_int(rng.unit_coefficient()))
        if not g:
            continue
        candidate = colon_principal(a, g)
        if degree is not None:
            data = _hilbert.hilbert_series(candidate)
            if (data.krull_dim == _hilbert.krull_dimension(a)
                    and data.degree == degree):
                return candidate
            continue
        if all(
            gb_a.contains(q * h)
            for q in candidate.generators
            for h in b.generators
        ):
            return candidate
    return quotient(a, b)


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


def saturate(a: Ideal, b: Ideal, cap: int = SATURATION_CAP) -> Ideal:
    """(a : b^infinity) by iterated quotients."""
    current = a
    for _ in range(cap):
        nxt = quotient(current, b)
        if ideal_equal(nxt, current):
            return current
        current = nxt
    raise PrecisionCapExceeded(f"saturation did not stabilize within {cap} steps", cap=cap)


# --- fast irrelevant saturation ----------------------------------------


def _sat_last_var_grevlex(a: Ideal) -> Ideal:
    """(a : x_last^infinity) for homogeneous a: divide every reduced
    grevlex basis element by its top x_last power."""
    gb = a.gb(GREVLEX)
    last = a.ring.arity - 1
    out = []
    for g in gb.elements:
        k = min(e[last] for e in g.terms)
        if k == 0:
            out.append(g)
        else:
            out.append(
                g.ring.polynomial(
                    {tuple(x - (k if i == last else 0) for i, x in enumerate(e)): c
                     for e, c in g.terms.items()}
                )
            )
    return Ideal(a.ring, out)


def _sat_var_inf(a: Ideal, index: int) -> Ideal:
    """(a : x_index^infinity) by moving the variable last."""
    ring = a.ring
    if index == ring.arity - 1:
        return _sat_last_var_grevlex(a)
    names = ring.names[:index] + ring.names[index + 1:] + (ring.names[index],)
    moved = _relabel(a.generators, PolyRing(ring.field, names))
    return _relabel(_sat_last_var_grevlex(moved).generators, ring)


def _sat_linear_inf(a: Ideal, coeffs) -> Ideal:
    """(a : h^infinity) for the linear form with given coefficients."""
    ring = a.ring
    nz = [i for i, c in enumerate(coeffs) if c]
    if len(nz) == 1 and coeffs[nz[0]] == ring.field.one():
        return _sat_var_inf(a, nz[0])
    field = ring.field
    n = ring.arity
    pivot = nz[-1]
    rest = [i for i in range(n) if i != pivot]
    # forward: x_i -> y_slot(i) for i != pivot, x_pivot -> (y_last - sum c_i y_slot(i)) / c_pivot
    slot = {old: new for new, old in enumerate(rest)}
    images = [None] * n
    for i in rest:
        images[i] = ring.variable(slot[i])
    pivot_image = ring.variable(n - 1)
    for i in rest:
        if coeffs[i]:
            pivot_image = pivot_image - ring.variable(slot[i]).scale(coeffs[i])
    images[pivot] = pivot_image.scale(field.inv(coeffs[pivot]))
    moved = Ideal(ring, [g.compose(ring, images) for g in a.generators])
    sat = _sat_last_var_grevlex(moved)
    # backward: y_j -> x_rest[j] for j < n-1, y_last -> h(x)
    back_images = [ring.variable(rest[j]) for j in range(n - 1)]
    back_images.append(ring.linear_form(coeffs))
    return Ideal(ring, [g.compose(ring, back_images) for g in sat.generators])


def saturate_irrelevant(a: Ideal) -> Ideal:
    """Saturation of a homogeneous ideal by the irrelevant maximal ideal."""
    if not a.is_homogeneous():
        raise NotHomogeneous("irrelevant saturation needs a homogeneous ideal")
    if a.is_zero():
        return a
    ring = a.ring
    field = ring.field
    target = _hilbert.hilbert_series(a).hilbert_poly
    candidates = []
    for i in range(ring.arity):
        coeffs = [field.zero()] * ring.arity
        coeffs[i] = field.one()
        candidates.append(coeffs)
    rng = SplitMix64(0xC1D_5A7)
    for _ in range(6):
        candidates.append([field.from_int(rng.unit_coefficient()) for _ in range(ring.arity)])
    for coeffs in candidates:
        sat = _sat_linear_inf(a, coeffs)
        if _hilbert.hilbert_series(sat).hilbert_poly == target:
            return sat
    # exact fallback: intersection of all coordinate saturations
    result = _sat_var_inf(a, 0)
    for i in range(1, ring.arity):
        result = intersect(result, _sat_var_inf(a, i))
    return result


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


def _lt_min_gens(a: Ideal, order=GREVLEX):
    return _hilbert.minimalize([g.leading(order)[0] for g in a.gb(order).elements])


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
    """Length of the quotient localized at the origin: vdim(a + m^N) for
    doubling N until two consecutive values agree."""
    if a.is_unit():
        return 0
    previous = None
    n = 2
    while n <= cap:
        truncated = Ideal(a.ring, list(a.generators) + _degree_monomials(a.ring, n))
        value = vdim(truncated)
        if previous is not None and value == previous:
            return value
        previous = value
        n *= 2
    raise PrecisionCapExceeded(
        f"local length did not stabilize up to truncation order {cap}", cap=cap
    )


# --- zero-dimensional radical ------------------------------------------


def _standard_monomial_basis(a: Ideal):
    lt = _lt_min_gens(a)
    bounds = []
    for i in range(a.ring.arity):
        pure = [g[i] for g in lt if sum(g) == g[i] and g[i] > 0]
        if not pure:
            raise NotZeroDimensional("no pure power for a variable in the staircase")
        bounds.append(min(pure))
    basis = []

    def walk(prefix, i):
        if i == a.ring.arity:
            exps = tuple(prefix)
            if not any(all(x <= y for x, y in zip(g, exps)) for g in lt):
                basis.append(exps)
            return
        for k in range(bounds[i]):
            walk(prefix + [k], i + 1)

    walk([], 0)
    basis.sort(key=GREVLEX.key)
    return basis


def _univariate(ring: PolyRing, index: int, coeffs) -> Polynomial:
    """sum_k coeffs[k] * x_index^k, from a coefficient list (constant
    first)."""
    terms = {}
    for k, c in enumerate(coeffs):
        e = [0] * ring.arity
        e[index] = k
        terms[tuple(e)] = c
    return ring.polynomial(terms)


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


def minimal_polynomial_of_element(a: Ideal, f):
    """Monic minimal polynomial of the residue class of f acting on the
    finite quotient, as a coefficient list (constant first)."""
    ring = a.ring
    field = ring.field
    gb = a.gb()
    if gb.is_unit():
        return [field.one()]
    basis = _standard_monomial_basis(a)
    pos = {m: i for i, m in enumerate(basis)}
    x = gb.normal_form(f)

    def axpy(target, factor, row):
        for k, v in row.items():
            nv = field.sub(target.get(k, field.zero()), field.mul(factor, v))
            if nv:
                target[k] = nv
            else:
                target.pop(k, None)

    # echelonized rows, pivot column -> (vector, power-combination)
    pivots = {}
    current = ring.one()
    power = 0
    while True:
        vec = {pos[e]: c for e, c in gb.normal_form(current).terms.items()}
        combo = {power: field.one()}
        while vec:
            j = min(vec)
            row = pivots.get(j)
            if row is None:
                break
            factor = field.div(vec[j], row[0][j])
            axpy(vec, factor, row[0])
            axpy(combo, factor, row[1])
        if not vec:
            degree = max(combo)
            lead = combo[degree]
            coeffs = [field.zero()] * (degree + 1)
            for k, v in combo.items():
                coeffs[k] = field.div(v, lead)
            return coeffs
        pivots[min(vec)] = (vec, combo)
        power += 1
        current = gb.normal_form(current * x)


def minimal_polynomial_of_variable(a: Ideal, index: int):
    return minimal_polynomial_of_element(a, a.ring.variable(index))


def reduce_mod_prime(a: Ideal, p: int) -> Ideal:
    """The generators of a rational ideal, scaled to primitive integer
    form, mapped into the same variables over F_p.

    For homogeneous input the graded quotient can only grow under this
    specialization (Macaulay-matrix ranks can only drop mod p), so any
    dimension bound or Hilbert-function vanishing established mod p is
    a valid certificate for the rational ideal.  The converse fails for
    unlucky primes; callers must fall back to the exact computation."""
    from .fields import Field

    fp = Field.prime_field(p)
    ring_p = PolyRing(fp, a.ring.names)
    gens = []
    for g in a.generators:
        gi = g.primitive_int()
        image = ring_p.polynomial(
            {e: fp.from_int(int(c)) for e, c in gi.terms.items()}
        )
        if image:
            gens.append(image)
    return Ideal(ring_p, gens)


CERTIFICATE_PRIMES = (32003, 65537)


def dimension_at_most(a: Ideal, bound: int) -> bool:
    """Whether the projective-cone dimension of a homogeneous rational
    ideal is at most `bound`; tries cheap mod-p certificates before the
    exact rational basis."""
    if a.ring.field.characteristic:
        return _hilbert.krull_dimension(a) <= bound
    for p in CERTIFICATE_PRIMES:
        if _hilbert.krull_dimension(reduce_mod_prime(a, p)) <= bound:
            return True
    return _hilbert.krull_dimension(a) <= bound


def distinct_point_count(a: Ideal, seed: int = 0, tries: int = 3) -> int:
    """Number of distinct points of a finite scheme, counted with
    residue-field degree: the vdim of the radical.

    Fast path: for a random linear form, the squarefree part of its
    minimal polynomial has degree at most the radical's vdim, with
    equality when the form separates the points.  If that degree
    reaches vdim(a) the scheme is certified reduced and the count is
    returned without computing the radical; otherwise (non-reduced, or
    every draw non-separating) the exact radical route decides.
    """
    length = vdim(a)
    if length == INFINITE:
        raise NotZeroDimensional("point counting needs a finite quotient")
    if length == 0:
        return 0
    ring = a.ring
    field = ring.field
    rng = SplitMix64(seed ^ 0xD157_C007)
    for _ in range(tries):
        coeffs = [field.from_int(rng.unit_coefficient())
                  for _ in range(ring.arity)]
        form = ring.linear_form(coeffs)
        mp = _univariate(ring, 0, minimal_polynomial_of_element(a, form))
        if _squarefree_part(mp, 0).total_degree() == length:
            return length
    return vdim(radical_zero_dim(a))


def radical_zero_dim(a: Ideal) -> Ideal:
    """Radical of a zero-dimensional ideal: add the squarefree part of
    each variable's minimal polynomial (Seidenberg)."""
    if a.is_unit():
        return a
    if vdim(a) == INFINITE:
        raise NotZeroDimensional("radical_zero_dim needs a finite quotient")
    ring = a.ring
    gens = list(a.generators)
    for i in range(ring.arity):
        mp = minimal_polynomial_of_variable(a, i)
        gens.append(_squarefree_part(_univariate(ring, i, mp), i))
    return Ideal(ring, gens)
