"""Invariants of reduced curve germs given by branch parametrizations.

A germ is presented by its branches, each a tuple of univariate
polynomials (the coordinates of a parametrization by t vanishing at
t = 0).  Orders of pullbacks along the branches drive everything:
multiplicity, the ramification multiplicity, Hilbert-Samuel
multiplicities of m-primary ideals, and the delta invariant, from which
the Milnor number and the local complete-intersection discrepancy
follow.

The delta invariant is the colength of the germ's local ring O in its
normalization, the direct sum of k[[t]] over the r branches (Serre,
Groupes algebriques et corps de classes, ch. IV).  Modulo t^P, O is the
span of the unit vector closed under multiplication by the coordinate
vectors, so an echelon basis over the positions e*r + i (order e on
branch i) is grown by multiplying each representative by each
coordinate and reducing the product by `groebner._echelon_insert`,
the one fraction-free echelon step: each coordinate is scaled by one
common denominator over all branches, and the representatives are
integer vectors, primitive over QQ and monic over F_p.
Representatives are taken in increasing position and a product gains
at least the least branch multiplicity in order, so the low positions
are final while the window is still open.  Delta is certified at the
first N where every position of order N <= e < N + m_i on each branch
i is attained: t^N k[[t]] on every branch then lies in O, and delta
counts the positions missing below N.  For one branch that is a
gap-free run of length m in the value semigroup.  The window P doubles
up to the precision cap.  No window proves the opposite, so a germ
that never certifies is judged only on certificates.  A branch whose
exponents share a factor d > 1 is not primitive.  Past the cap the
other verdicts read the pairs (s, t) with p_a(s) = p_b(t).  By Lüroth,
p = Q(u) for a polynomial u and a Q birational onto the image
(Schinzel, Selected Topics on Polynomials, 1982), so a branch's pairs
with itself are the diagonal, the curve (u(s) - u(t))/(s - t) = 0 and
finitely many points.  That curve passes through (0, 0) iff u'(0) = 0:
t -> p(t) has local degree above 1 at t = 0, not primitive
(x = t^2 + t^3, y = x^2).  A curve of pairs of two branches through
(0, 0) makes them one germ, so the germ is not m-primary.  Both ask
whether (0, 0) is a point of the pairs that is not isolated
(`ideals._local_h`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heappop, heappush
from math import gcd, lcm

from .discrepancy import _determinant, jacobian_ideal
from .errors import (
    DerivativeVanishes,
    EmptyInput,
    InputError,
    NonNegativityViolation,
    NotACIPresentation,
    NotMPrimary,
    NotPrimitive,
    PrecisionCapExceeded,
    RingMismatch,
)
from .groebner import _echelon_insert, basis_unless_dimension_at_most
from .ideals import (
    Ideal,
    _fresh_name,
    _local_h,
    divide_exact,
    eliminate,
    ideal_equal,
    ideal_sum,
    local_vdim_origin,
    quotient,
)
from .polynomials import (
    Polynomial,
    PolyRing,
    _reduced,
    _substitute,
    partial_derivative,
)
from .rng import SplitMix64

DEFAULT_PRECISION_CAP = 256


@dataclass(frozen=True)
class BranchParam:
    """One branch of a curve germ: coordinates p_1(t), ..., p_n(t) with
    p_i(0) = 0, not all identically zero."""

    coords: tuple
    label: str = ""

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords:
            raise EmptyInput("a branch needs at least one coordinate")
        ring = coords[0].ring
        if ring.arity != 1:
            raise InputError("branch coordinates must be univariate")
        for p in coords:
            if p.ring != ring:
                raise RingMismatch("branch coordinates in different rings")
            if p.coefficient_of((0,)):
                raise InputError(
                    f"coordinate {p} does not vanish at the origin"
                )
        if all(not p for p in coords):
            raise InputError("all branch coordinates are zero")
        object.__setattr__(self, "coords", coords)

    @property
    def ring(self) -> PolyRing:
        return self.coords[0].ring

    @property
    def arity(self) -> int:
        return len(self.coords)


def _ord(p: Polynomial):
    """Order of vanishing at t = 0; None for the zero polynomial."""
    if not p:
        return None
    return min(e[0] for e in p.terms)


def branch_multiplicity(branch: BranchParam) -> int:
    return min(o for o in (_ord(p) for p in branch.coords) if o is not None)


def _check_branches(branches, arity=None):
    """The branches as a list, all in one parameter ring and with one
    number of coordinates: `arity`, the germ ring's, when given."""
    branches = list(branches)
    if not branches:
        raise EmptyInput("no branches given")
    ring = branches[0].ring
    if arity is None:
        arity = branches[0].arity
    for b in branches:
        if b.ring != ring:
            raise RingMismatch("branches disagree in ring")
        if b.arity != arity:
            raise RingMismatch(
                f"a branch has {b.arity} coordinates, not {arity}")
    return branches


def _check_ci_count(Z_gens, n: int) -> None:
    """A complete-intersection germ in n variables has n - 1 nonzero
    generators."""
    if len(Z_gens) != n - 1:
        raise InputError(
            f"a complete-intersection germ needs {n - 1} generators, "
            f"got {len(Z_gens)}"
        )


def germ_multiplicity(branches) -> int:
    """Multiplicity of the germ: sum of branch multiplicities."""
    return sum(branch_multiplicity(b) for b in _check_branches(branches))


def e_ramification(branches) -> int:
    """Multiplicity of the ramification ideal: per branch, the minimal
    order among the formal derivatives of the coordinates.  The
    derivative is taken in the coefficient field, so in characteristic
    p a coordinate t^p contributes nothing and a fully inseparable
    parametrization is an error."""
    total = 0
    for b in _check_branches(branches):
        orders = [
            o for o in (_ord(p.derivative(0)) for p in b.coords)
            if o is not None
        ]
        if not orders:
            raise DerivativeVanishes(
                f"every coordinate derivative of branch {b.label!r} vanishes"
            )
        total += min(orders)
    return total


def is_tame(branches) -> bool:
    """Characteristic zero, or the characteristic divides no branch
    multiplicity."""
    branches = _check_branches(branches)
    p = branches[0].ring.field.characteristic
    if p == 0:
        return True
    return all(branch_multiplicity(b) % p != 0 for b in branches)


# --- delta invariant ---------------------------------------------------


def _attained_orders(branches, precision: int):
    """Positions e*r + i (order e on branch i) attained by O modulo
    t^precision, as a stream: after each echelon representative is
    multiplied out it yields (reps, bound), where reps maps every position
    attained so far to its representative and the positions of order below
    bound are final.  The last bound is precision.

    Products go into the echelon by `groebner._echelon_insert`.  A
    coordinate is scaled by one denominator for all the branches: that
    keeps O, and clearing each branch alone would not."""
    char = branches[0].ring.field.characteristic
    r = len(branches)
    step = min(branch_multiplicity(b) for b in branches)
    limit = precision * r
    # coordinate j as a vector: per branch, its terms shifted to e*r
    coords = []
    for j in range(branches[0].arity):
        terms = [[(e[0] * r, c) for e, c in b.coords[j].terms.items()
                  if e[0] < precision] for b in branches]
        if any(terms):
            den = lcm(*(c.denominator for branch in terms for _, c in branch))
            coords.append([[(s, c.numerator * (den // c.denominator))
                            for s, c in branch] for branch in terms])
    reps = {0: dict.fromkeys(range(r), 1)}
    pending = [0]
    while pending:
        rep = reps[heappop(pending)]
        for coord in coords:
            prod = {}
            for k, v in rep.items():
                for s, c in coord[k % r]:
                    if k + s < limit:
                        prod[k + s] = prod.get(k + s, 0) + v * c
            position = _echelon_insert(reps, _reduced(prod, char), char)
            if position is not None:
                heappush(pending, position)
        yield reps, (min(pending[0] // r + step, precision) if pending
                     else precision)


def _conductor_delta(branches, precision: int):
    """Delta certified in the window [0, precision), or None.  J_N, the
    sum of the t^N k[[t]], lies in O once the positions of order
    N <= e < N + m_i on each branch i are attained and final: their
    representatives span J_N modulo m J_N, the sum of the t^(N + m_i)
    k[[t]], so J_N lies in O + m^k J_N for every k, and O holds its
    conductor.  No position from order N on is then missing, so N is one
    above the last missing order and delta is the missing count."""
    r = len(branches)
    top = max(branch_multiplicity(b) for b in branches)
    gaps = start = scanned = 0
    for reps, bound in _attained_orders(branches, precision):
        for e in range(scanned, bound):
            for position in range(e * r, e * r + r):
                if position not in reps:
                    gaps += 1
                    start = e + 1
        scanned = bound
        if start + top <= bound:
            return gaps
    return None


def branch_ideal(branch: BranchParam, ambient: PolyRing) -> Ideal:
    """Implicit ideal of the branch in the given coordinate ring, by
    eliminating the parameter from (x_i - p_i(t))."""
    if ambient.arity != branch.arity:
        raise RingMismatch("ambient ring arity differs from the branch")
    field = branch.ring.field
    join = PolyRing(field, (_fresh_name(ambient),) + ambient.names)
    t = join.variable(0)
    gens = [join.variable(1 + i) - p.compose(join, [t])
            for i, p in enumerate(branch.coords)]
    return eliminate(Ideal(join, gens), (0,))


def _same_germ(a: BranchParam, b: BranchParam) -> bool:
    """Whether b parametrizes the germ of a at the origin: a curve of
    pairs (s, t) with p_a(s) = p_b(t) passes through (0, 0).  For a
    branch with itself each p(s) - p(t) is divided by s - t, which drops
    the diagonal when some p_i' is nonzero.  Pairs that a stopped
    Buchberger run proves finite answer no; else the answer is whether
    (0, 0) is on them and not isolated (`ideals._local_h`)."""
    ring = PolyRing(a.ring.field, ("s", "t"))
    s, t = ring.variables()
    gens = [p.compose(ring, [s]) - q.compose(ring, [t])
            for p, q in zip(a.coords, b.coords)]
    if a is b:
        gens = [divide_exact(g, s - t) for g in gens]
    if basis_unless_dimension_at_most(gens, 0, ring) is None:
        return False
    return _local_h(Ideal(ring, gens)) is None


def delta_invariant(branches,
                    precision_cap: int = DEFAULT_PRECISION_CAP) -> int:
    """Colength of the germ's local ring in its normalization, at the
    first conductor certificate in windows of 32, 64, ... up to
    precision_cap.  Past the cap, a branch that does not certify alone
    is NotPrimitive when it meets itself in a curve of parameter pairs
    through (0, 0) (`_same_germ`), else PrecisionCapExceeded naming it;
    when every branch certifies alone, a branch that parametrizes the
    germ of an earlier one is NotMPrimary, else the germ's
    PrecisionCapExceeded.  A cap below 1 is a window with no positions,
    an InputError."""
    if precision_cap < 1:
        raise InputError(
            f"precision_cap must be at least 1, not {precision_cap}")
    branches = _check_branches(branches)
    for b in branches:
        common = gcd(*(e[0] for p in b.coords for e in p.terms))
        if common > 1:
            raise NotPrimitive(
                f"attained orders of branch {b.label!r} share the "
                f"factor {common}; the parametrization is not primitive"
            )
    precision = min(32, precision_cap)
    while True:
        delta = _conductor_delta(branches, precision)
        if delta is not None:
            return delta
        if precision >= precision_cap:
            break
        precision = min(precision * 2, precision_cap)
    for b in branches:
        if len(branches) == 1 or _conductor_delta([b], precision) is None:
            if _same_germ(b, b):
                raise NotPrimitive(
                    f"branch {b.label!r} has local degree above 1 at "
                    f"t = 0; the parametrization is not primitive"
                )
            raise PrecisionCapExceeded(
                f"delta of branch {b.label!r} did not certify below "
                f"precision {precision_cap}",
                cap=precision_cap,
            )
    for k, b in enumerate(branches):
        for a in branches[:k]:
            if _same_germ(a, b):
                raise NotMPrimary(
                    f"branch {b.label!r} traces the curve of branch "
                    f"{a.label!r}; the two meet in a curve, not a point"
                )
    raise PrecisionCapExceeded(
        f"delta of the germ did not certify below precision "
        f"{precision_cap}",
        cap=precision_cap,
    )


def milnor_number(branches,
                  precision_cap: int = DEFAULT_PRECISION_CAP) -> int:
    branches = _check_branches(branches)
    return 2 * delta_invariant(branches, precision_cap) - len(branches) + 1


# --- multiplicities by valuation pullback ------------------------------


def _pullbacks(gens, branch: BranchParam):
    """The generators composed with the branch's parametrization, one
    after another, through one table of powers of its coordinates."""
    return _substitute(gens, branch.ring, branch.coords)


def hs_multiplicity_pullback(gens, branches) -> int:
    """Hilbert-Samuel multiplicity of an m-primary ideal of the germ:
    per branch, the minimal pullback order over the generators; summed.
    Exact for reduced one-dimensional germs.  Per branch, the generators
    are pulled back through one table of the coordinates' powers, each
    power made from the one before it.  A branch needs one coordinate
    per variable of the generators' ring, else RingMismatch."""
    gens = [g for g in gens if g]
    if not gens:
        raise EmptyInput("no generators")
    branches = _check_branches(branches, gens[0].ring.arity)
    total = 0
    for b in branches:
        orders = [_ord(q) for q in _pullbacks(gens, b) if q]
        if not orders:
            raise NotMPrimary(
                f"every generator vanishes along branch {b.label!r}"
            )
        total += min(orders)
    return total


# --- local discrepancy routes ------------------------------------------


@dataclass(frozen=True)
class GermInvariants:
    """Bundle of germ invariants; fields that need extra input (a germ
    ideal or a complete-intersection germ) stay None without it."""

    m: int
    r: int
    delta: int
    milnor: int
    e_ramification: int
    tame: bool
    e_jac_ci: int = None
    cid: int = None
    nash_degree: int = None

    def to_dict(self) -> dict:
        out = {
            "multiplicity": self.m,
            "branches": self.r,
            "delta": self.delta,
            "milnor": self.milnor,
            "e_ramification": self.e_ramification,
            "tame": self.tame,
        }
        if self.e_jac_ci is not None:
            out["e_jac_ci"] = self.e_jac_ci
        if self.cid is not None:
            out["cid"] = self.cid
        if self.nash_degree is not None:
            out["nash_degree"] = self.nash_degree
        return out


def germ_invariants(branches,
                    precision_cap: int = DEFAULT_PRECISION_CAP) -> GermInvariants:
    """The parametrization-only invariants (no germ ideal needed)."""
    branches = _check_branches(branches)
    delta = delta_invariant(branches, precision_cap)
    return GermInvariants(
        m=germ_multiplicity(branches),
        r=len(branches),
        delta=delta,
        milnor=2 * delta - len(branches) + 1,
        e_ramification=e_ramification(branches),
        tame=is_tame(branches),
    )


def cid_local_multiplicities(X_ideal, branches, Z_germ,
                             precision_cap: int = DEFAULT_PRECISION_CAP,
                             ) -> GermInvariants:
    """Local discrepancy from multiplicities alone: the Jacobian
    multiplicity of the complete-intersection germ splits into twice
    delta, the ramification term, and the discrepancy."""
    X_gens = [g for g in X_ideal if g]
    if not X_gens:
        raise EmptyInput("no germ ideal generators")
    ring = X_gens[0].ring
    n = ring.arity
    branches = _check_branches(branches, n)
    for b in branches:
        for g, q in zip(X_gens, _pullbacks(X_gens, b)):
            if q:
                raise InputError(
                    f"{g} does not vanish along branch {b.label!r}")
    Z_gens = [g for g in Z_germ if g]
    _check_ci_count(Z_gens, n)
    gb_x = Ideal(ring, X_gens).gb()
    for g in Z_gens:
        if not gb_x.contains(g):
            raise InputError(f"{g} is not in the germ ideal")
    base = germ_invariants(branches, precision_cap)
    e_jac_z = hs_multiplicity_pullback(
        jacobian_ideal(Z_gens, n - 1).generators, branches)
    cid = e_jac_z - 2 * base.delta - base.e_ramification
    if cid < 0:
        raise NonNegativityViolation(
            f"discrepancy {cid} is negative: the chosen complete "
            "intersection is not general enough for this germ"
        )
    e_jac_x = hs_multiplicity_pullback(
        jacobian_ideal(X_gens, n - 1).generators, branches)
    return replace(base, e_jac_ci=e_jac_z, cid=cid,
                   nash_degree=e_jac_x - cid)


def cid_local_direct(X_ideal, Z_germ) -> int:
    """Local discrepancy by its definition: length at the origin of the
    germ ideal plus the residual (colon) ideal."""
    X_gens = [g for g in X_ideal if g]
    Z_gens = [g for g in Z_germ if g]
    if not X_gens or not Z_gens:
        raise EmptyInput("need germ and complete-intersection generators")
    ring = X_gens[0].ring
    i_x = Ideal(ring, X_gens)
    i_w = quotient(Ideal(ring, Z_gens), i_x)
    return local_vdim_origin(ideal_sum(i_x, i_w))


def cid_local_aci(X_ideal, Z_germ, f_n: Polynomial) -> int:
    """Local discrepancy for an almost-complete-intersection germ
    presented as the complete-intersection germ plus one distinguished
    generator: the length of the residual germ modulo that generator."""
    X_gens = [g for g in X_ideal if g]
    Z_gens = [g for g in Z_germ if g]
    if not X_gens or not Z_gens or not f_n:
        raise EmptyInput("need germ, complete intersection and extra form")
    ring = X_gens[0].ring
    i_x = Ideal(ring, X_gens)
    i_z = Ideal(ring, Z_gens)
    if not ideal_equal(Ideal(ring, Z_gens + [f_n]), i_x):
        raise NotACIPresentation(
            "the complete intersection plus the distinguished generator "
            "does not present the germ ideal"
        )
    i_w = quotient(i_z, i_x)
    return local_vdim_origin(Ideal(ring, list(i_w.generators) + [f_n]))


def general_ci_germ(X_ideal, seed: int = 0):
    """n-1 seeded random unit combinations of the germ generators; the
    standard way to draw a complete-intersection germ through the germ."""
    X_gens = [g for g in X_ideal if g]
    if not X_gens:
        raise EmptyInput("no germ ideal generators")
    ring = X_gens[0].ring
    n = ring.arity
    if len(X_gens) < n - 1:
        raise InputError(
            f"{len(X_gens)} generators cannot span {n - 1} combinations"
        )
    rng = SplitMix64(seed ^ 0x6E12_4C1)
    out = []
    for _ in range(n - 1):
        acc = ring.zero()
        for g, c in zip(X_gens, rng.vector(ring.field, len(X_gens))):
            acc = acc + g.scale(c)
        out.append(acc)
    return tuple(out)


def e_jacobian_single_minor(Z_germ, branches, seed: int = 0) -> int:
    """Cross-check for the Jacobian multiplicity: after a seeded random
    triangular change of coordinates, the single minor obtained by
    deleting the first Jacobian column already computes it (for a
    sufficiently general change).

    With x = U x', U the unipotent change, the moved Jacobian along the
    moved branch is J(p(t)) U, so the minor is det(J U[:, 1..k]) for the
    k = n - 1 generators of a complete intersection in n variables,
    pulled back along the branches as given, which have n coordinates.
    Column c of J U is J_c + sum_{i < c} u_ic J_i, so the minor is one
    determinant of polynomial entries; by Cauchy-Binet it is the sum
    over k-subsets S of the coordinates of det(U[S, 1..k]) times the
    Jacobian minor on the columns S."""
    Z_gens = [g for g in Z_germ if g]
    if not Z_gens:
        raise EmptyInput("no complete-intersection generators")
    ring = Z_gens[0].ring
    n = ring.arity
    _check_ci_count(Z_gens, n)
    branches = _check_branches(branches, n)
    rng = SplitMix64(seed ^ 0x51_4C7A)
    # x_i -> x_i + sum_{j > i} u_ij x_j: unipotent, hence invertible
    upper = iter(rng.vector(ring.field, n * (n - 1) // 2))
    u = {(i, j): next(upper) for i in range(n) for j in range(i + 1, n)}
    rows = []
    for g in Z_gens:
        jac = [partial_derivative(g, j) for j in range(n)]
        rows.append([sum((jac[i].scale(u[i, c]) for i in range(c)), jac[c])
                     for c in range(1, n)])
    return hs_multiplicity_pullback([_determinant(rows)], branches)
