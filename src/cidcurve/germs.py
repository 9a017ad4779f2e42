"""Invariants of reduced curve germs given by branch parametrizations.

A germ is presented by its branches, each a tuple of univariate
polynomials (the coordinates of a parametrization by t vanishing at
t = 0).  Orders of pullbacks along the branches drive everything:
multiplicity, the ramification multiplicity, Hilbert-Samuel
multiplicities of m-primary ideals, and the delta invariant, from which
the Milnor number and the local complete-intersection discrepancy
follow.

The delta invariant of one branch is the gap count of the set of orders
attained by the parametrization subalgebra of k[t].  Modulo t^P the
positive part of k[p_1..p_n] is the span of the coordinates closed under
multiplication by the coordinates, so an order-echelon basis of it,
seeded by the unit, is grown by multiplying each representative by each
coordinate and reducing the product into the echelon.  Representatives
are sparse {order: coeff} dicts cut at t^P and are taken in increasing
order, so every representative still to come has order at least the
least pending order plus the multiplicity m: the attained orders below
that bound are final while the rest of the window is still open.  The
computation certifies its own answer as soon as the final part allows:
attained orders form a numerical semigroup, so once a gap-free run of
length m lies below the bound, every larger order is attained and the
gap count below the run is the delta.  A smooth branch certifies after
its first representative; the window P doubles up to the precision cap
only when a whole window shows no such run.  No window can prove the
opposite, so a branch is declared not primitive only on a certificate:
when every exponent of every coordinate is divisible by some d > 1 the
subalgebra lies in k[t^d]; and, before the precision cap is reported,
when the branch ideal meets the hyperplane of a least-order coordinate
with a length below that order (a reparametrization such as
x = t^2 + t^3, y = x^2).  Several branches glue: delta of a union adds
the origin-length of the pairwise intersection scheme, branch ideals
being recovered by elimination from their parametrizations; a branch
lying on an earlier one is rejected before that length is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd

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
from .ideals import (
    Ideal,
    eliminate,
    ideal_equal,
    ideal_sum,
    intersect,
    local_vdim_origin,
    quotient,
)
from .polynomials import (
    Polynomial,
    PolyRing,
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


def _check_branches(branches):
    branches = list(branches)
    if not branches:
        raise EmptyInput("no branches given")
    arity = branches[0].arity
    ring = branches[0].ring
    for b in branches:
        if b.arity != arity or b.ring != ring:
            raise RingMismatch("branches disagree in ring or coordinates")
    return branches


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


def _attained_orders(branch: BranchParam, precision: int):
    """Orders attained by the parametrization subalgebra on
    [0, precision), as a stream: after each echelon representative is
    multiplied out it yields (reps, bound), where reps maps every order
    attained so far to its representative and the orders below bound
    are final.  The last bound is precision."""
    field = branch.ring.field
    m = branch_multiplicity(branch)
    coords = [
        {e[0]: c for e, c in p.terms.items() if e[0] < precision}
        for p in branch.coords
    ]
    coords = [c for c in coords if c]
    reps = {0: {0: field.one()}}
    pending = [0]
    while pending:
        rep = reps[heappop(pending)]
        for coord in coords:
            prod = {}
            for e, c in coord.items():
                for k, v in rep.items():
                    if k + e < precision:
                        prod[k + e] = field.add(prod.get(k + e, 0),
                                                field.mul(v, c))
            # reduce into the echelon; cancelled terms are dropped
            prod = {k: c for k, c in prod.items() if c}
            while prod:
                order = min(prod)
                lead = prod[order]
                pivot = reps.get(order)
                if pivot is None:
                    inv = field.inv(lead)
                    reps[order] = {k: field.mul(inv, c)
                                   for k, c in prod.items()}
                    heappush(pending, order)
                    break
                for k, c in pivot.items():
                    c = field.sub(prod.get(k, 0), field.mul(lead, c))
                    if c:
                        prod[k] = c
                    else:
                        del prod[k]
        yield reps, min(pending[0] + m, precision) if pending else precision


def _certified_gap_count(attained, bound: int):
    """Gap count, or None when the final part [0, bound) shows no
    multiplicity-long gap-free run, or no positive order at all (then
    the semigroup argument cannot conclude yet)."""
    mult = min((o for o in attained if o > 0), default=None)
    if mult is None:
        return None
    run = 0
    for v in range(bound):
        run = run + 1 if v in attained else 0
        if run >= mult:
            start = v - mult + 1
            return sum(1 for u in range(start) if u not in attained)
    return None


def _check_degree_one(branch: BranchParam) -> None:
    """NotPrimitive when t -> p(t) is visibly not of degree 1 onto its
    image.  For the coordinate x_i of least positive order m, the branch
    meets the hyperplane x_i = 0 at the origin with length L >= m / d,
    where d is that degree; so m > L forces d > 1."""
    m = branch_multiplicity(branch)
    i = next(k for k, p in enumerate(branch.coords) if _ord(p) == m)
    ambient = _germ_ambient(branch)
    cut = Ideal(ambient, [ambient.variable(i)])
    length = local_vdim_origin(ideal_sum(branch_ideal(branch, ambient), cut))
    if m > length:
        raise NotPrimitive(
            f"branch {branch.label!r} has order {m} in coordinate {i + 1} "
            f"but meets its hyperplane with length {length}; the "
            f"parametrization is not primitive"
        )


def _delta_single(branch: BranchParam,
                  precision_cap: int = DEFAULT_PRECISION_CAP) -> int:
    """Delta of one branch, read off the attained-order stream at the
    first bound whose final part holds a multiplicity-long gap-free run.
    Windows of 32, 64, ... up to precision_cap are tried in turn; a
    window that ends without the run is followed by the next, and the
    last one by the degree-one check and PrecisionCapExceeded."""
    common = gcd(*(e[0] for p in branch.coords for e in p.terms))
    if common > 1:
        raise NotPrimitive(
            f"attained orders of branch {branch.label!r} share the "
            f"factor {common}; the parametrization is not primitive"
        )
    precision = min(32, precision_cap)
    while True:
        for attained, bound in _attained_orders(branch, precision):
            delta = _certified_gap_count(attained, bound)
            if delta is not None:
                return delta
        if precision >= precision_cap:
            _check_degree_one(branch)
            raise PrecisionCapExceeded(
                f"delta of branch {branch.label!r} did not certify below "
                f"precision {precision_cap}",
                cap=precision_cap,
            )
        precision = min(precision * 2, precision_cap)


def _germ_ambient(branch: BranchParam) -> PolyRing:
    """Coordinate ring u0, u1, ... for the branch's implicit ideal."""
    return PolyRing(branch.ring.field,
                    tuple(f"u{i}" for i in range(branch.arity)))


def branch_ideal(branch: BranchParam, ambient: PolyRing) -> Ideal:
    """Implicit ideal of the branch in the given coordinate ring, by
    eliminating the parameter from (x_i - p_i(t))."""
    if ambient.arity != branch.arity:
        raise RingMismatch("ambient ring arity differs from the branch")
    field = branch.ring.field
    join = PolyRing(field, ("t__",) + ambient.names)
    gens = []
    for i, p in enumerate(branch.coords):
        expr = join.variable(1 + i)
        for e, c in p.terms.items():
            expr = expr - join.polynomial({(e[0],) + (0,) * ambient.arity: c})
        gens.append(expr)
    return eliminate(Ideal(join, gens), (0,))


def delta_invariant(branches,
                    precision_cap: int = DEFAULT_PRECISION_CAP) -> int:
    """Colength of the germ's local ring inside its normalization.

    One branch: certified gap count of the attained-order semigroup.
    Several branches: single-branch deltas plus gluing lengths, where
    branch k meets the union of its predecessors in a finite scheme
    whose origin-length is added.  That scheme is not finite when
    branch k lies on an earlier branch: then every generator of the
    union pulls back to zero along it (exact, a branch being
    irreducible), and the germ is NotMPrimary."""
    branches = _check_branches(branches)
    total = _delta_single(branches[0], precision_cap)
    if len(branches) == 1:
        return total
    ambient = _germ_ambient(branches[0])
    ideals = [branch_ideal(branches[0], ambient)]
    union = ideals[0]
    for b in branches[1:]:
        total += _delta_single(b, precision_cap)
        if _lies_on(b, union):
            a = next(a for a, ia in zip(branches, ideals) if _lies_on(b, ia))
            raise NotMPrimary(
                f"branch {b.label!r} traces the curve of branch "
                f"{a.label!r}; the two meet in a curve, not a point"
            )
        ib = branch_ideal(b, ambient)
        total += local_vdim_origin(ideal_sum(union, ib))
        ideals.append(ib)
        if len(ideals) < len(branches):
            union = intersect(union, ib)
    return total


def _lies_on(branch: BranchParam, ideal: Ideal) -> bool:
    """Every generator of the ideal pulls back to zero along the branch,
    exactly; the pullbacks share one table of coordinate powers and stop
    at the first nonzero one."""
    return not any(_pullbacks(ideal.generators, branch))


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
    power made from the one before it."""
    gens = [g for g in gens if g]
    if not gens:
        raise EmptyInput("no generators")
    branches = _check_branches(branches)
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
    branches = _check_branches(branches)
    ring = X_gens[0].ring
    n = ring.arity
    Z_gens = [g for g in Z_germ if g]
    if len(Z_gens) != n - 1:
        raise InputError(
            f"a complete-intersection germ needs {n - 1} generators, "
            f"got {len(Z_gens)}"
        )
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
    return GermInvariants(
        m=base.m,
        r=base.r,
        delta=base.delta,
        milnor=base.milnor,
        e_ramification=base.e_ramification,
        tame=base.tame,
        e_jac_ci=e_jac_z,
        cid=cid,
        nash_degree=e_jac_x - cid,
    )


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
        for g in X_gens:
            acc = acc + g.scale(ring.field.from_int(rng.unit_coefficient()))
        out.append(acc)
    return tuple(out)


def e_jacobian_single_minor(Z_germ, branches, seed: int = 0) -> int:
    """Cross-check for the Jacobian multiplicity: after a seeded random
    triangular change of coordinates, the single minor obtained by
    deleting the first Jacobian column already computes it (for a
    sufficiently general change)."""
    Z_gens = [g for g in Z_germ if g]
    if not Z_gens:
        raise EmptyInput("no complete-intersection generators")
    branches = _check_branches(branches)
    ring = Z_gens[0].ring
    field = ring.field
    n = ring.arity
    rng = SplitMix64(seed ^ 0x51_4C7A)
    # x_i -> x_i + sum_{j > i} c_ij x_j: unipotent, hence invertible
    upper = {
        (i, j): field.from_int(rng.unit_coefficient())
        for i in range(n) for j in range(i + 1, n)
    }
    images = []
    for i in range(n):
        expr = ring.variable(i)
        for j in range(i + 1, n):
            expr = expr + ring.variable(j).scale(upper[(i, j)])
        images.append(expr)
    moved = [g.compose(ring, images) for g in Z_gens]
    # the parametrization transforms by the inverse substitution,
    # solved by back-substitution from the last coordinate
    new_branches = []
    for b in branches:
        q = list(b.coords)
        for i in range(n - 1, -1, -1):
            expr = b.coords[i]
            for j in range(i + 1, n):
                expr = expr - q[j].scale(upper[(i, j)])
            q[i] = expr
        new_branches.append(BranchParam(tuple(q), label=b.label))
    rows = [
        [partial_derivative(g, j) for j in range(1, n)] for g in moved
    ]
    minor = _determinant(rows)
    return hs_multiplicity_pullback([minor], new_branches)
