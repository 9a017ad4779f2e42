"""Intersection-length pipeline for geometrically linked curves.

Given a curve X and a complete intersection Z through it, the residual
curve W satisfies I_W = (I_Z : I_X), and the discrepancy is the total
length of the intersection scheme X ∩ W.  It is computed by several
independent routes (direct length of I_X + I_W, Jacobian length for
smooth X, a saturation variant for local complete intersections, and
a pure degree count for almost complete intersections); route agreement
is the designed detector for insufficiently general witnesses.  Every
length is a constant Hilbert polynomial, read off a grevlex basis with
no chart.  The routes read I_Z, I_W and the witness Jacobian scheme on
X from the certified witness (`linkage.CIWitness`), which derived them
once, and decide smoothness on that scheme.  On a smooth curve the
Jacobian and saturation routes are one computation, so it runs once
and its value is filed under both names.  Every Jacobian minor comes
from one kernel, `_minors`, which works on integer rows and computes
each shared sub-minor once per stream of minors.  Minors reduced mod
a base ideal come from one generator, `_reduced_minors`:
`_jacobian_scheme` takes them all (the witness scheme, X's singular
locus), and `_minors_reach` (smoothness, the transversal singular
test) only until a dimension bound is reached.  The genus report
bundles the discrepancy with the Hilbert-polynomial invariants and
verifies the adjunction-type genus formula, Bezout and the linkage
genus exchange (which the degree-certified linkage colon and the
double-link certification make hold by construction), and the
degree/e-term identity.

When W is empty the witness Jacobian scheme on X is expected to be
empty too, and `_empty_on_curve` certifies that from its mod-p image
(`ideals.dimension_at_most`), with no exact basis of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod
from operator import add

from .errors import (
    BadCodim,
    ChartMeetsIntersection,
    ExhaustedCandidates,
    NotContained,
    NotSmooth,
    NotSmoothableRoute,
    NotZeroDimensional,
    OutOfHypothesis,
    RouteDisagreement,
    TooManySubsets,
    WrongCharacteristic,
)
from . import hilbert as _hilbert
from .ideals import (
    Ideal,
    chart_ideal,
    dimension_at_most,
    distinct_point_count,
    ideal_equal,
    ideal_sum,
    quotient,
    saturate,
    saturate_irrelevant,
)
from .polynomials import Chart, Polynomial, partial_derivative
from .rng import SplitMix64

ROUTE_NAMES = ("direct", "smooth_jacobian", "lci_general", "aci")


# --- Jacobian machinery ------------------------------------------------


def _minors(rows, pairs):
    """det(rows[i][j] for i in ri, j in ci) for each (ri, ci) in pairs,
    in that order; ri and ci are equally long index tuples.

    Each row is converted once to integer term dicts: over QQ it is
    scaled by the lcm of its denominators, over F_p its entries are
    already residues.  A minor is expanded along its first row, and
    each sub-minor (row tail, column subset) is computed once for the
    whole stream and kept until the stream is done; the minors
    themselves are not kept.  Dividing each minor once by the product
    of its rows' multipliers gives exactly the determinant of the
    given entries."""
    ring = rows[0][0].ring
    char = ring.field.characteristic
    entries, mults = [], []
    for row in rows:
        if char:
            entries.append([f.terms for f in row])
            mults.append(1)
            continue
        m = lcm(*(c.denominator for f in row for c in f.terms.values()))
        entries.append([{e: c.numerator * (m // c.denominator)
                         for e, c in f.terms.items()} for f in row])
        mults.append(m)
    memo = {}

    def det(ri, ci):
        top = entries[ri[0]]
        if len(ri) == 1:
            return top[ci[0]]
        tail = ri[1:]
        total = {}
        for k, c in enumerate(ci):
            pivot = top[c]
            if not pivot:
                continue
            key = (tail, ci[:k] + ci[k + 1:])
            sub = memo.get(key)
            if sub is None:
                sub = memo[key] = det(*key)
            for e1, c1 in pivot.items():
                if k % 2:
                    c1 = -c1
                for e2, c2 in sub.items():
                    e = tuple(map(add, e1, e2))
                    total[e] = total.get(e, 0) + c1 * c2
        if char:
            return {e: c % char for e, c in total.items() if c % char}
        return {e: c for e, c in total.items() if c}

    try:
        for ri, ci in pairs:
            d = det(ri, ci)
            if char:
                yield Polynomial(ring, d)
                continue
            m = prod(mults[i] for i in ri)
            yield Polynomial(ring, {e: Fraction(c, m) for e, c in d.items()})
    finally:
        del det  # empties its own cell: no cycle is left for the collector


def _determinant(rows):
    """Determinant of one square matrix of polynomials."""
    square = tuple(range(len(rows)))
    return next(_minors(rows, [(square, square)]))


def _minor_stream(gens, codim: int, seed=None):
    """Minors of the Jacobian matrix, one at a time; with a seed, in a
    seeded random order so that early minors sample many row subsets."""
    ring = gens[0].ring
    pairs = [
        (ri, ci)
        for ri in combinations(range(len(gens)), codim)
        for ci in combinations(range(ring.arity), codim)
    ]
    if seed is not None:
        rng = SplitMix64(seed ^ 0x3140085)
        for k in range(len(pairs) - 1, 0, -1):
            j = rng.randint(0, k)
            pairs[k], pairs[j] = pairs[j], pairs[k]
    rows = [
        [partial_derivative(g, j) for j in range(ring.arity)] for g in gens
    ]
    yield from _minors(rows, pairs)


def jacobian_ideal(gens, codim: int) -> Ideal:
    """Ideal of all codim x codim minors of the Jacobian matrix of gens."""
    gens = [g for g in gens if g]
    if not gens:
        raise BadCodim("no generators to differentiate")
    ring = gens[0].ring
    if codim < 1 or codim > min(len(gens), ring.arity):
        raise BadCodim(
            f"codim {codim} outside 1..min({len(gens)}, {ring.arity})"
        )
    # primitive minors keep downstream bases in small integers
    return Ideal(ring, [d.primitive_int() for d in _minor_stream(gens, codim)
                        if d])


def curve_codim(ring) -> int:
    """Codimension of a curve in the projective space with this
    coordinate ring (arity = n + 1 homogeneous coordinates)."""
    return ring.arity - 2


def _reduced_minors(base: Ideal, forms, seed=None):
    """The nonzero Jacobian minors of `forms` of the curve codimension
    mod base, made primitive, in `_minor_stream` order for `seed`."""
    normal_form = base.gb().normal_form
    for minor in _minor_stream(forms, curve_codim(base.ring), seed):
        minor = normal_form(minor)
        if minor:
            yield minor.primitive_int()


def _jacobian_scheme(base: Ideal, forms) -> Ideal:
    """base plus the reduced Jacobian minors of `forms`: the Jacobian
    scheme of V(forms) on V(base).  With the base's own generators as
    forms it is the singular locus of V(base), kept with the base."""
    own = tuple(forms) == base.generators
    scheme = base._data_cache.get("jacobian_scheme") if own else None
    if scheme is None:
        scheme = Ideal(base.ring,
                       [*base.generators, *_reduced_minors(base, forms)])
        if own:
            base._data_cache["jacobian_scheme"] = scheme
    return scheme


def is_smooth_curve(i_x: Ideal, seed: int = 0) -> bool:
    """Jacobian criterion: the singular scheme of the curve is empty."""
    return _minors_reach(i_x, i_x.generators, 0, seed)


def _minors_reach(base: Ideal, forms, bound: int, seed) -> bool:
    """Whether `_jacobian_scheme(base, forms)` has Krull dimension at
    most `bound`, reading minors in `_minor_stream` order for `seed`;
    the verdict is kept with base, by forms and bound.

    A generator lowers the dimension by at most one, so the first check
    comes after dim(base) - bound minors, then after twice as many new
    ones each time.  Once a partial minor ideal reaches the bound the
    full one does too, and the remaining minors are not computed; a
    negative answer consumes every minor.
    """
    key = (tuple(forms), bound)
    answer = base._data_cache.get(key)
    if answer is None:
        collected = list(base.generators)
        checkpoint = _hilbert.krull_dimension(base) - bound
        answer, pending = checkpoint <= 0, 0
        for minor in () if answer else _reduced_minors(base, forms, seed):
            collected.append(minor)
            pending += 1
            if pending == checkpoint:
                answer = _hilbert.krull_dimension(
                    Ideal(base.ring, collected)) <= bound
                if answer:
                    break
                pending, checkpoint = 0, checkpoint * 2
        if pending and not answer:  # else the last check read every minor
            answer = _hilbert.krull_dimension(
                Ideal(base.ring, collected)) <= bound
        base._data_cache[key] = answer
    return answer


# --- residual and charts -----------------------------------------------


def residual(i_z: Ideal, i_x: Ideal, seed: int = 0) -> Ideal:
    """Saturated ideal (I_Z : I_X) of the residual curve W = closure of
    Z minus X, for a complete intersection I_Z inside I_X.  That I_Z is
    unmixed, hence saturated, so the colon needs no saturation step:
    (I_Z : I_X) : m^inf = (I_Z : m^inf) : I_X = I_Z : I_X.
    When I_X has the dimension of I_Z, linkage fixes the colon's degree,
    and `quotient` certifies it by that degree."""
    gb_x = i_x.gb()
    for g in i_z.generators:
        if not gb_x.contains(g):
            raise NotContained(f"{g} does not lie in the curve ideal")
    return quotient(i_z, i_x, seed=seed)


def _hyperplane_misses(finite: Ideal, h: Polynomial) -> bool:
    """Whether the hyperplane h misses the finite projective scheme of
    `finite`: finite plus h has Krull dimension 0."""
    with_h = Ideal(finite.ring, [*finite.generators, h])
    return _hilbert.krull_dimension(with_h) == 0


def _check_chart(finite_ideal: Ideal, h: Polynomial) -> None:
    """The hyperplane h must miss the (finite) projective support."""
    if not _hyperplane_misses(finite_ideal, h):
        raise ChartMeetsIntersection(
            f"hyperplane {h} meets the finite scheme being measured"
        )


def _projective_length(finite: Ideal) -> int:
    """Length of a finite projective scheme: the constant Hilbert
    polynomial of any homogeneous ideal defining it, read off its
    grevlex basis with no chart."""
    data = _hilbert.hilbert_series(finite)
    if data.krull_dim > 1:
        raise NotZeroDimensional("the measured scheme is not finite")
    return data.degree


# --- the four routes ---------------------------------------------------


def cid_direct(i_x: Ideal, i_w: Ideal) -> int:
    """Total intersection length of X and W: the constant Hilbert
    polynomial of I_X + I_W."""
    return _projective_length(ideal_sum(i_x, i_w))


def _empty_on_curve(witness) -> bool:
    """Whether W and the witness Jacobian scheme on X are both empty.

    V(on_curve) contains X ∩ W, which is not empty when W is not: a
    complete-intersection curve is connected.  So only an empty W asks
    `dimension_at_most` about `on_curve`, whose mod-p image then
    usually certifies the empty scheme with no exact basis of it; the
    W test decides whether that question is asked and certifies
    nothing."""
    return witness.i_w.is_unit() and dimension_at_most(witness.on_curve, 0)


def _smooth_on_witness(i_x: Ideal, witness) -> bool:
    """`is_smooth_curve(i_x)`, decided on the witness Jacobian scheme.

    F lies in I_X, so on X the Jacobian of F is A times that of the
    curve's generators, and by Cauchy-Binet every singular point of X
    lies on V(on_curve).  Adding the curve's minors to `on_curve`
    instead of to I_X therefore cuts out the same singular scheme.
    When `on_curve` is already empty (every smooth complete intersection
    and plane curve), X is smooth with no minor drawn, and
    `_empty_on_curve` certifies that mod p.  Otherwise `on_curve` is
    finite on a witness that passed `reduced_along_input`, so a single
    minor may already finish the check.  The answer depends on the
    witness, so it is kept with `on_curve`, not with I_X.
    """
    return (_empty_on_curve(witness)
            or _minors_reach(witness.on_curve, i_x.generators, 0, 0))


def _witness_locus(i_x: Ideal, witness) -> Ideal:
    """The witness Jacobian scheme on X with the singular locus of X
    saturated away, as a homogeneous ideal.  On a smooth curve that
    locus is empty and saturation by it is the identity, so that step is
    skipped rather than paid for (the curve's full minor ideal is
    large)."""
    if _smooth_on_witness(i_x, witness):
        return witness.on_curve
    return saturate(witness.on_curve,
                    _jacobian_scheme(i_x, i_x.generators))


def cid_smooth_jacobian(i_x: Ideal, witness) -> int:
    """Discrepancy as the length of the witness Jacobian scheme on X;
    valid when X is smooth."""
    if _empty_on_curve(witness):
        return 0
    if not _smooth_on_witness(i_x, witness):
        raise NotSmooth("the Jacobian route requires a smooth curve")
    return _projective_length(witness.on_curve)


def cid_lci_general(i_x: Ideal, witness) -> int:
    """Discrepancy for a reduced local complete intersection X with a
    general witness: contributions along the singular locus of X are
    stripped by saturation."""
    return _projective_length(_witness_locus(i_x, witness))


def cid_aci(degrees, deg_x: int) -> int:
    """Degree count for an almost complete intersection: product of the
    n form degrees minus the last degree times deg X."""
    degrees = tuple(int(d) for d in degrees)
    if not degrees or any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    if any(a < b for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be non-increasing")
    if deg_x < 1:
        raise ValueError("deg_x must be positive")
    return prod(degrees) - degrees[-1] * deg_x


def _route_values(curve, witness, route, assume_lci, deg_x=None) -> dict:
    """Route values as selected by `route`; deg X is computed here only
    when the aci route needs it and none is passed.  Under "auto" on a
    smooth curve the lci_general route is the smooth_jacobian
    computation, so its value is reused."""
    i_x = curve.ideal()
    values = {}
    if route in ("auto", "direct"):
        values["direct"] = cid_direct(i_x, witness.i_w)
    smooth = route == "auto" and _smooth_on_witness(i_x, witness)
    if route == "smooth" or smooth:
        values["smooth_jacobian"] = cid_smooth_jacobian(i_x, witness)
    if route == "lci" or (route == "auto" and assume_lci and not smooth):
        values["lci_general"] = cid_lci_general(i_x, witness)
    elif smooth:
        values["lci_general"] = values["smooth_jacobian"]
    if route == "aci" or (route == "auto" and curve.r == curve.n):
        if curve.r != curve.n:
            raise OutOfHypothesis(
                f"the aci route needs {curve.n} generators, not {curve.r}")
        if deg_x is None:
            deg_x = _hilbert.proj_degree(i_x)
        values["aci"] = cid_aci(curve.degrees, deg_x)
    if not values:
        raise ValueError(f"unknown route {route!r}")
    return values


def cid_routes(curve, witness, route: str = "auto",
               assume_lci: bool = False) -> dict:
    """Discrepancy by the selected route, or by every applicable route
    under "auto" with agreement demanded."""
    values = _route_values(curve, witness, route, assume_lci)
    if route == "auto" and len(set(values.values())) > 1:
        others = [v for k, v in values.items() if k != "lci_general"]
        if "lci_general" in values and len(set(others)) == 1:
            raise NotSmoothableRoute(
                f"saturation route disagrees with the rest: {values}"
            )
        raise RouteDisagreement(f"routes disagree: {values}")
    return values


# --- genus report ------------------------------------------------------


def _linkage_genus_holds(data_x, data_w, sigma: int) -> bool:
    """The genus relation 2 (p_a(X) - p_a(W)) = (deg X - deg W)(sigma - 2)
    between the Hilbert data of curves X and W linked by a complete
    intersection of form degrees d_i, sigma = sum(d_i - 1)
    (Peskine-Szpiro 1974).  An empty W has degree 0 and p_a 1."""
    return (2 * (data_x.p_a - data_w.p_a)
            == (data_x.degree - data_w.degree) * (sigma - 2))


@dataclass(frozen=True)
class GenusReport:
    """Degrees, discrepancy routes, genus values and identity checks for
    one linked-curve instance."""

    deg_X: int
    deg_W: int
    deg_Z: int
    degrees: tuple
    sigma: int
    pi: int
    cid_routes: dict
    p_a_hilbert: int
    p_a_formula: object
    p_a_W: object
    e_X: object
    e_W: object
    e_Z: object
    checks: dict = field(default_factory=dict)

    @property
    def cid(self):
        return next(iter(self.cid_routes.values()))

    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        def num(v):
            if isinstance(v, Fraction):
                return int(v) if v.denominator == 1 else str(v)
            return v

        return {
            "deg_X": self.deg_X,
            "deg_W": self.deg_W,
            "deg_Z": self.deg_Z,
            "degrees": list(self.degrees),
            "sigma": self.sigma,
            "pi": self.pi,
            "cid_routes": dict(sorted(self.cid_routes.items())),
            "p_a_hilbert": self.p_a_hilbert,
            "p_a_formula": num(self.p_a_formula),
            "p_a_W": num(self.p_a_W),
            "e_X": num(self.e_X),
            "e_W": num(self.e_W),
            "e_Z": num(self.e_Z),
            "checks": dict(sorted(self.checks.items())),
        }


def genus_report(curve, witness) -> GenusReport:
    i_x = curve.ideal()

    degrees = curve.degrees[: curve.n - 1]
    sigma = sum(d - 1 for d in degrees)
    pi = prod(degrees)

    # Hilbert-polynomial invariants (degree, e-term, genus) are
    # insensitive to irrelevant-primary junk, so no saturation here.
    data_x = _hilbert.hilbert_series(i_x)
    data_z = _hilbert.hilbert_series(witness.i_z)
    data_w = _hilbert.hilbert_series(witness.i_w)

    deg_x, deg_z, deg_w = data_x.degree, data_z.degree, data_w.degree
    e_x = data_x.e_term if data_x.e_term is not None else Fraction(0)
    e_z = data_z.e_term if data_z.e_term is not None else Fraction(0)
    e_w = data_w.e_term if data_w.e_term is not None else Fraction(0)
    p_a_x = data_x.p_a
    p_a_w = data_w.p_a

    values = _route_values(curve, witness, "auto", assume_lci=False,
                           deg_x=deg_x)
    cid = values["direct"]

    numerator = (sigma - 2) * deg_x - cid
    p_a_formula = Fraction(1) + Fraction(numerator, 2)
    checks = {
        "genus_formula": numerator % 2 == 0 and p_a_x == p_a_formula,
        "bezout": deg_x + deg_w == deg_z and deg_z == pi,
        "peskine_szpiro": _linkage_genus_holds(data_x, data_w, sigma),
        "two_e_identity": 2 * e_x == sigma * deg_x - cid,
        "route_agreement": len(set(values.values())) == 1,
    }
    p_a_hilbert = int(p_a_x) if p_a_x.denominator == 1 else p_a_x
    return GenusReport(
        deg_X=deg_x,
        deg_W=deg_w,
        deg_Z=deg_z,
        degrees=tuple(degrees),
        sigma=sigma,
        pi=pi,
        cid_routes=values,
        p_a_hilbert=p_a_hilbert,
        p_a_formula=p_a_formula,
        p_a_W=int(p_a_w) if p_a_w.denominator == 1 else p_a_w,
        e_X=e_x,
        e_W=e_w,
        e_Z=e_z,
        checks=checks,
    )


# --- corollaries and cross-checks --------------------------------------


def degree_lower_bound(n: int, d_n: int) -> Fraction:
    """Lower bound for the degree of a nondegenerate curve linked inside
    a complete intersection whose smallest form degree is d_n."""
    if n < 3 or d_n < 2:
        raise OutOfHypothesis("bound requires n >= 3 and smallest degree >= 2")
    return Fraction(d_n**n - 2, n * d_n - n - 1)


def omega_jacobian(i_x: Ideal, witness, seed: int = 0) -> Ideal:
    """The colon of the witness Jacobian by the residual ideal inside the
    curve's coordinate ring; presented as an ambient ideal over I_X."""
    if witness.i_w.is_unit():
        return witness.on_curve
    return quotient(witness.on_curve, witness.i_w, seed=seed)


def omega_matches_jacobian(i_x: Ideal, witness, seed: int = 0) -> bool:
    """Whether the omega-Jacobian agrees with the curve's own Jacobian
    ideal as ideal sheaves on the curve.

    Graded representatives may differ by irrelevant-primary junk (on a
    smooth curve both sides are merely irrelevant-primary), so raw
    generator comparison is tried first and the saturated comparison,
    which is exactly sheaf equality, decides.
    """
    j = omega_jacobian(i_x, witness, seed=seed)
    if _smooth_on_witness(i_x, witness):
        # Both sheaves are trivial on a smooth curve: the Jacobian side
        # is irrelevant-primary by the smoothness certificate itself, so
        # only the omega side still needs checking: it is trivial when it
        # cuts out the empty projective scheme.
        return dimension_at_most(j, 0)
    jac_x = _jacobian_scheme(i_x, i_x.generators)
    if ideal_equal(j, jac_x):
        return True
    return ideal_equal(saturate_irrelevant(j), saturate_irrelevant(jac_x))


def jacobian_cover_check(curve, seed: int = 0, degenerate: bool = False,
                         max_subsets: int = 20) -> bool:
    """Sum of Jacobian ideals of one random complete intersection per
    generator subset equals the full Jacobian ideal, modulo the curve.

    With degenerate=True every subset reuses the same coefficient
    matrix, which forces the minor matrix of the covering argument to be
    singular: the expected outcome is False.
    """
    e = curve.n - 1
    r = curve.r
    p = comb(r, e)
    if p > max_subsets:
        raise TooManySubsets(f"{p} subsets exceed the budget {max_subsets}")
    ring = curve.ring
    chart = None
    for i in range(ring.arity):
        candidate = Chart.from_form(ring.variable(i))
        if not chart_ideal(curve.ideal(), candidate).is_unit():
            chart = candidate
            break
    if chart is None:
        raise ExhaustedCandidates("curve avoids every coordinate chart")
    fx = [chart.apply(f) for f in curve.generators]
    i_xc = Ideal(chart.ring, fx)
    rng = SplitMix64(seed ^ 0xC0FE)

    def draw_matrix():
        return [rng.vector(ring.field, r) for _ in range(e)]

    shared = draw_matrix() if degenerate else None
    total = i_xc
    for _ in range(p):
        mat = shared if degenerate else draw_matrix()
        rows = []
        for line in mat:
            g = chart.ring.zero()
            for c, f in zip(line, fx):
                g = g + f.scale(c)
            rows.append(g)
        total = ideal_sum(total, jacobian_ideal(rows, e))
    target = ideal_sum(i_xc, jacobian_ideal(fx, e))
    return ideal_equal(total, target)


def transversality_count(curve, witness):
    """(number of distinct witness-singular points on the smooth part of
    X, whether that count equals the full intersection length).  The
    points are counted on the chart h = 1, which certification made
    miss them all, as the ideal locus + (h - 1) in the same ring."""
    i_x = curve.ideal()
    if i_x.ring.field.characteristic != 0:
        raise WrongCharacteristic("transversality analysis needs char 0")
    _check_chart(witness.on_curve, witness.h)
    locus = _witness_locus(i_x, witness)
    in_chart = ideal_sum(locus,
                         Ideal(locus.ring, [witness.h - locus.ring.one()]))
    count = distinct_point_count(in_chart)
    return count, count == cid_direct(i_x, witness.i_w)
