"""Germ invariants: branch validation, delta, multiplicities, and the
local discrepancy routes checked against each other and against an
independent Milnor-number computation."""

import pathlib
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cidcurve
from cidcurve import (
    BranchParam,
    Field,
    Ideal,
    PolyRing,
    branch_ideal,
    cid_local_aci,
    cid_local_direct,
    cid_local_multiplicities,
    delta_invariant,
    e_jacobian_single_minor,
    e_ramification,
    general_ci_germ,
    germ_invariants,
    germ_multiplicity,
    hs_multiplicity_pullback,
    ideal_equal,
    ideal_sum,
    intersect,
    is_tame,
    local_vdim_origin,
    milnor_number,
    quotient,
)
from cidcurve import ideals as ideals_module
from cidcurve.errors import (
    DerivativeVanishes,
    EmptyInput,
    InputError,
    NotACIPresentation,
    NotMPrimary,
    NotPrimitive,
    PrecisionCapExceeded,
    RingMismatch,
)
from cidcurve.cli import main
from cidcurve.germs import (
    _attained_orders,
    _ord,
    _pullbacks,
    _same_germ,
)
from cidcurve.discrepancy import _determinant
from cidcurve.polynomials import partial_derivative
from cidcurve.rng import SplitMix64

from conftest import compose_by_powers, quotient_by_elimination

QQ = Field.rationals()
T = PolyRing(QQ, ("t",))
t = T.variable(0)
R2 = PolyRing(QQ, ("x", "y"))
X, Y = R2.variables()


def plane_milnor_oracle(branches):
    """Independent route: implicitize the germ to a plane equation f and
    compute dim of the local ring modulo both partials of f."""
    total = branch_ideal(branches[0], R2)
    for b in branches[1:]:
        total = intersect(total, branch_ideal(b, R2))
    assert len(total.generators) == 1
    f = total.generators[0]
    jac = Ideal(R2, [partial_derivative(f, 0), partial_derivative(f, 1)])
    return local_vdim_origin(jac)


def test_branch_validation():
    with pytest.raises(EmptyInput):
        BranchParam(())
    with pytest.raises(InputError):
        BranchParam((t + T.one(),))  # does not vanish at 0
    with pytest.raises(InputError):
        BranchParam((T.zero(), T.zero()))
    with pytest.raises(InputError):
        BranchParam((R2.variable(0),))  # not univariate
    other = PolyRing(QQ, ("s",))
    with pytest.raises(RingMismatch):
        BranchParam((t, other.variable(0)))
    with pytest.raises(RingMismatch):
        germ_multiplicity([BranchParam((t,)), BranchParam((t, t**2))])


def test_multiplicity():
    assert germ_multiplicity([BranchParam((t**2, t**3))]) == 2
    assert germ_multiplicity([BranchParam((t, T.zero()))]) == 1
    two = [BranchParam((t, T.zero())), BranchParam((T.zero(), t))]
    assert germ_multiplicity(two) == 2


def test_e_ramification():
    assert e_ramification([BranchParam((t**2, t**3))]) == 1
    assert e_ramification([BranchParam((t**3, t**4))]) == 2
    assert e_ramification([BranchParam((t, T.zero()))]) == 0


def test_delta_monomial_closed_form():
    # for coprime (a, b) the gap count is (a-1)(b-1)/2; the certifying
    # run [(a-1)(b-1), (a-1)(b-1) + a) of the last three ends past the
    # windows 64, 64 and 128, so they certify at 128, 128 and 256
    for a, b in ((2, 3), (3, 4), (2, 5), (3, 5), (4, 5),
                 (8, 11), (9, 11), (11, 13)):
        delta = delta_invariant([BranchParam((t**a, t**b))])
        assert delta == (a - 1) * (b - 1) // 2


@pytest.mark.parametrize("coords,expected_delta", [
    ((lambda: (t**2, t**3)), 1),
    ((lambda: (t**3, t**4)), 3),
    ((lambda: (t**4, t**6 + t**7)), 8),
])
def test_delta_matches_plane_milnor(coords, expected_delta):
    branch = BranchParam(coords())
    delta = delta_invariant([branch])
    assert delta == expected_delta
    # independent check through the implicit plane equation:
    # Milnor number = 2*delta - r + 1 for one branch
    assert plane_milnor_oracle([branch]) == 2 * delta
    assert milnor_number([branch]) == 2 * delta


def test_delta_smooth_branch():
    assert delta_invariant([BranchParam((t, T.zero()))]) == 0
    assert milnor_number([BranchParam((t, T.zero()))]) == 0


def test_delta_node_gluing():
    two = [BranchParam((t, T.zero()), "a"), BranchParam((T.zero(), t), "b")]
    assert delta_invariant(two) == 1
    assert milnor_number(two) == 1
    assert plane_milnor_oracle(two) == 1
    # tacnode: two smooth branches meeting to order 2
    tac = [BranchParam((t, T.zero())), BranchParam((t, t**2))]
    assert delta_invariant(tac) == 2
    assert milnor_number(tac) == 3
    assert plane_milnor_oracle(tac) == 3


def test_three_branch_star():
    # three pairwise-transverse lines through the origin
    star = [
        BranchParam((t, T.zero())),
        BranchParam((T.zero(), t)),
        BranchParam((t, t)),
    ]
    # delta = number of pairwise intersections for transverse lines
    assert delta_invariant(star) == 3
    assert milnor_number(star) == 4
    assert plane_milnor_oracle(star) == 4


def test_lines_with_rational_slopes_stay_apart():
    # three distinct lines: delta 3, Milnor number 4.  Clearing the
    # denominators of y on each branch alone would put (t, t/2) and
    # (t, t/3) on one line, (t, t)
    half, third, two_sevenths = (QQ.from_fraction(Fraction(n, d))
                                 for n, d in ((1, 2), (1, 3), (2, 7)))
    lines = [BranchParam((t, t.scale(half))),
             BranchParam((t, t.scale(third))),
             BranchParam((t.scale(two_sevenths), t))]
    assert delta_invariant(lines) == 3
    assert milnor_number(lines) == 4
    assert plane_milnor_oracle(lines) == 4


def test_delta_counts_only_the_branches_at_the_origin():
    # a = (t^2 - t, t^3 - t^2) also passes through the origin at t = 1,
    # a second branch of its image curve y^2 = x^3 + xy; the germ of a at
    # t = 0 is smooth with y of order 2 along it, so it meets the line
    # y = 0 with multiplicity 2 and delta = 0 + 0 + 2
    a = BranchParam((t**2 - t, t**3 - t**2), "a")
    line = BranchParam((t, T.zero()), "line")
    assert delta_invariant([a, line]) == 2
    assert milnor_number([a, line]) == 3


def test_not_primitive():
    with pytest.raises(NotPrimitive):
        delta_invariant([BranchParam((t**2, t**4))], precision_cap=64)


def test_precision_cap():
    with pytest.raises(PrecisionCapExceeded):
        # primitive, but the certifying gap-free run sits beyond the cap
        delta_invariant([BranchParam((t**4, t**6 + t**7))],
                        precision_cap=16)


def test_cap_names_the_branch_that_does_not_certify_alone():
    line = BranchParam((t, T.zero()), "line")
    # y = x^2 traced twice never certifies; its parameter pairs with
    # equal images form a curve through (0, 0)
    twice = BranchParam((t**2 + t**3, (t**2 + t**3) ** 2), "twice")
    with pytest.raises(NotPrimitive, match="'twice'"):
        delta_invariant([line, twice], precision_cap=64)
    # primitive, but its own certificate lies beyond the cap
    slow = BranchParam((t**4, t**6 + t**7), "slow")
    with pytest.raises(PrecisionCapExceeded, match="branch 'slow'") as info:
        delta_invariant([line, slow], precision_cap=16)
    assert info.value.cap == 16


def test_not_primitive_is_certified():
    # every exponent is even: the subalgebra lies in k[t^2] at any cap
    branch = BranchParam((t**2, t**4 + t**6))
    for cap in (1, 256):
        with pytest.raises(NotPrimitive, match="share the factor 2"):
            delta_invariant([branch], precision_cap=cap)


def test_cap_before_certificate_is_not_a_verdict():
    # the window [0, 3) sees order 2 alone; the cusp is primitive
    with pytest.raises(PrecisionCapExceeded) as info:
        delta_invariant([BranchParam((t**2, t**3))], precision_cap=3)
    assert info.value.cap == 3


def test_composed_branch_is_not_primitive_at_every_cap():
    # Q(u) with Q = (x + x^2, x^2 + x^3) and u = t^2 + t^3: every
    # exponent gcd is 1, but t -> (x, y) has local degree 2 at t = 0
    branch = BranchParam((T.parse("t^2 + t^3 + t^4 + 2*t^5 + t^6"),
                          T.parse("t^4 + 2*t^5 + 2*t^6 + 3*t^7 + 3*t^8 "
                                  "+ t^9")), "twice")
    for cap in (1, 16, 256):
        with pytest.raises(NotPrimitive, match="'twice'"):
            delta_invariant([branch], precision_cap=cap)


def test_reparametrization_over_f5_is_not_primitive():
    # (2u + 3u^3, u + 4u^2) with u = 2t^2 + 3t^3 has local degree 2
    ring = PolyRing(Field.prime_field(5), ("t",))
    line = PolyRing(ring.field, ("x",))
    u = ring.parse("2*t^2 + 3*t^3")
    branch = BranchParam(tuple(line.parse(r).compose(ring, [u])
                               for r in ("2*x + 3*x^3", "x + 4*x^2")))
    with pytest.raises(NotPrimitive):
        delta_invariant([branch], precision_cap=16)


def test_branch_through_the_origin_twice_is_primitive():
    # (u^2, u^3) with u = t + t^2 is the cusp at t = 0 and again at
    # t = -1; its self pairs meet (0, 0) only as an isolated point
    u = t + t**2
    branch = BranchParam((u**2, u**3))
    assert delta_invariant([branch]) == 1
    assert not _same_germ(branch, branch)
    with pytest.raises(PrecisionCapExceeded) as info:
        delta_invariant([branch], precision_cap=1)
    assert info.value.cap == 1


def test_delta_never_implicitizes_a_branch(monkeypatch):
    # every verdict past the cap reads parameter pairs, not an implicit
    # ideal
    def spy(branch, ambient):
        raise AssertionError("branch_ideal called")

    monkeypatch.setattr(cidcurve.germs, "branch_ideal", spy)
    cusp = BranchParam((t**2, t**3), "a")
    twice = BranchParam((t**2 + t**3, (t**2 + t**3) ** 2), "twice")
    with pytest.raises(NotPrimitive):
        delta_invariant([twice])
    with pytest.raises(NotMPrimary):
        delta_invariant([cusp, BranchParam((t**2, -t**3), "b")])
    with pytest.raises(PrecisionCapExceeded):
        delta_invariant([BranchParam((t**4, t**6 + t**7))],
                        precision_cap=16)
    assert delta_invariant([cusp]) == 1


def test_precision_cap_below_first_order():
    # the window [0, 1) holds no positive order of the cusp
    with pytest.raises(PrecisionCapExceeded) as info:
        delta_invariant([BranchParam((t**2, t**3))], precision_cap=1)
    assert info.value.cap == 1


def test_precision_cap_below_one_is_an_input_error():
    # a window with no positions is not a cap the germ exceeded; it is
    # rejected before the branches are read
    for cap in (0, -5):
        for branches in ([BranchParam((t**2, t**3))], []):
            with pytest.raises(InputError,
                               match=f"at least 1, not {cap}$"):
                delta_invariant(branches, precision_cap=cap)


def test_branch_ideal_cusp():
    out = branch_ideal(BranchParam((t**2, t**3)), R2)
    assert ideal_equal(out, Ideal(R2, [Y**2 - X**3]))


def test_branch_ideal_names_its_parameter_afresh():
    # the parameter takes a name the ambient ring does not use, so a
    # coordinate may be called t__ or t
    for names in (("t__", "y"), ("t", "t_")):
        ring = PolyRing(QQ, names)
        u, v = ring.variables()
        out = branch_ideal(BranchParam((t**2, t**3)), ring)
        assert ideal_equal(out, Ideal(ring, [v**2 - u**3]))


def test_hs_multiplicity_examples():
    cusp = BranchParam((t**2, t**3))
    # the Jacobian generators of the cusp equation
    assert hs_multiplicity_pullback([Y.scale(QQ.from_int(2)),
                                     (X**2).scale(QQ.from_int(3))],
                                    [cusp]) == 3
    # the maximal ideal pulls back to the multiplicity
    assert hs_multiplicity_pullback([X, Y], [cusp]) == 2
    e6 = BranchParam((t**3, t**4))
    assert hs_multiplicity_pullback([(X**3).scale(QQ.from_int(4)),
                                     (Y**2).scale(QQ.from_int(3))],
                                    [e6]) == 8
    with pytest.raises(NotMPrimary):
        hs_multiplicity_pullback([Y], [BranchParam((t, T.zero()))])
    with pytest.raises(EmptyInput):
        hs_multiplicity_pullback([], [cusp])


def test_hs_multiplicity_checks_branches_against_the_ring():
    # a branch needs one coordinate per variable of the generators
    R3 = PolyRing(QQ, ("x", "y", "z"))
    gens = list(R3.variables())
    for coords in ((t**2, t**3), (t, t**2, t**3, t**4)):
        with pytest.raises(RingMismatch, match="not 3"):
            hs_multiplicity_pullback(gens, [BranchParam(coords)])


def test_multiplicity_route_cusp():
    fx = Y**2 - X**3
    inv = cid_local_multiplicities([fx], [BranchParam((t**2, t**3))], [fx])
    assert (inv.m, inv.r, inv.delta, inv.milnor) == (2, 1, 1, 2)
    assert inv.e_ramification == 1
    assert inv.e_jac_ci == 3
    assert inv.cid == 0
    assert inv.nash_degree == 3
    assert inv.tame
    # the multiplicity identity: e(Jac) - cid = milnor + m - 1
    assert inv.e_jac_ci - inv.cid == inv.milnor + inv.m - 1


def test_multiplicity_route_membership_guard():
    fx = Y**2 - X**3
    with pytest.raises(InputError):
        cid_local_multiplicities([fx], [BranchParam((t**2, t**3))], [X])
    with pytest.raises(InputError):
        cid_local_multiplicities([fx], [BranchParam((t**2, t**3))], [fx, fx])


def test_space_germ_routes_agree():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    gens = [x * z - y**2, x**3 - y * z, x**2 * y - z**2]
    branch = BranchParam((t**3, t**4, t**5))
    for seed in (1, 2, 5):
        z_germ = general_ci_germ(gens, seed=seed)
        inv = cid_local_multiplicities(gens, [branch], z_germ)
        assert inv.cid == cid_local_direct(gens, z_germ)
        assert inv.cid >= 0
        # Jacobian multiplicity identity under tameness
        assert inv.e_jac_ci - inv.cid == inv.milnor + inv.m - 1


def test_space_germ_colon_is_one_linked_principal_colon(monkeypatch):
    # the residual colon of the germ (t^3, t^4, t^5) is affine; its
    # generators homogenized by a fresh z are linked in S[z], so the
    # colon is one principal colon, certified by the linked degree, and
    # no intersection is taken
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    gens = [x * z - y**2, x**3 - y * z, x**2 * y - z**2]
    i_x = Ideal(ring, gens)
    for seed in (0, 1, 2, 5):
        i_z = Ideal(ring, list(general_ci_germ(gens, seed=seed)))
        calls = []
        for name in ("colon_principal", "intersect"):
            real = getattr(ideals_module, name)
            monkeypatch.setattr(
                ideals_module, name,
                lambda *args, name=name, real=real:
                    calls.append(name) or real(*args))
        i_w = quotient(i_z, i_x)
        monkeypatch.undo()
        assert calls == ["colon_principal"]
        assert ideal_equal(i_w, quotient_by_elimination(i_z, i_x))


def test_cid_local_aci():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    gens = [x * z - y**2, x**3 - y * z, x**2 * y - z**2]
    z_germ = gens[:2]
    value = cid_local_aci(gens, z_germ, gens[2])
    assert value == cid_local_direct(gens, z_germ)
    with pytest.raises(NotACIPresentation):
        cid_local_aci(gens, z_germ, x)


def test_cid_local_aci_redundant_generator():
    # plane cusp presented with a redundant extra generator
    fx = Y**2 - X**3
    gens = [fx, X * fx]
    assert cid_local_aci(gens, [fx], X * fx) == 0


def test_single_minor_cross_check():
    fx = Y**2 - X**3
    cusp = BranchParam((t**2, t**3))
    assert e_jacobian_single_minor([fx], [cusp], seed=0) == 3
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.variables()
    gens = [x * z - y**2, x**3 - y * z, x**2 * y - z**2]
    branch = BranchParam((t**3, t**4, t**5))
    z_germ = general_ci_germ(gens, seed=1)
    full = hs_multiplicity_pullback(
        __import__("cidcurve").jacobian_ideal(list(z_germ), 2).generators,
        [branch],
    )
    assert e_jacobian_single_minor(list(z_germ), [branch], seed=0) == full


def test_single_minor_checks_its_input():
    fx = Y**2 - X**3
    cusp = BranchParam((t**2, t**3))
    # the plane needs one generator, not two
    with pytest.raises(InputError):
        e_jacobian_single_minor([fx, Y], [cusp], seed=0)
    # a branch in space does not live in the plane
    with pytest.raises(RingMismatch):
        e_jacobian_single_minor([fx], [BranchParam((t**2, t**3, t**4))],
                                seed=0)
    with pytest.raises(RingMismatch):
        e_jacobian_single_minor([fx], [cusp, BranchParam((t, t, t))],
                                seed=0)


def _moved_single_minor(Z_germ, branches, seed=0):
    """The single minor by moving the germ: Z composed with the seeded
    unipotent change, each branch back-substituted into the new
    coordinates, and the first Jacobian column deleted; kept as the
    oracle."""
    Z_gens = [g for g in Z_germ if g]
    if not Z_gens:
        raise EmptyInput("no complete-intersection generators")
    ring = Z_gens[0].ring
    field = ring.field
    n = ring.arity
    if len(Z_gens) != n - 1:
        raise InputError(f"{len(Z_gens)} generators in {n} variables")
    rng = SplitMix64(seed ^ 0x51_4C7A)
    draws = iter(rng.vector(field, n * (n - 1) // 2))
    upper = {
        (i, j): next(draws)
        for i in range(n) for j in range(i + 1, n)
    }
    images = []
    for i in range(n):
        expr = ring.variable(i)
        for j in range(i + 1, n):
            expr = expr + ring.variable(j).scale(upper[(i, j)])
        images.append(expr)
    moved = [g.compose(ring, images) for g in Z_gens]
    new_branches = []
    for b in branches:
        q = list(b.coords)
        for i in range(n - 1, -1, -1):
            expr = b.coords[i]
            for j in range(i + 1, n):
                expr = expr - q[j].scale(upper[(i, j)])
            q[i] = expr
        new_branches.append(BranchParam(tuple(q), label=b.label))
    rows = [[partial_derivative(g, j) for j in range(1, n)] for g in moved]
    return hs_multiplicity_pullback([_determinant(rows)], new_branches)


@st.composite
def _ci_germ_and_branches(draw):
    """n - 1 random generators in n = 2 or 3 variables, now and then a
    zero one, and one or two branches in the same coordinates."""
    field = draw(st.sampled_from(_FIELDS + (Field.prime_field(5),)))
    n = draw(st.integers(2, 3))
    ring = PolyRing(field, ("x", "y", "z")[:n])
    monomials = [e for e in product(range(4), repeat=n) if 1 <= sum(e) <= 3]
    coefficient = st.integers(-3, 3).map(field.from_int).filter(bool)
    gens = [ring.polynomial(draw(st.dictionaries(
        st.sampled_from(monomials), coefficient, min_size=1, max_size=3)))
        for _ in range(n - 1)]
    if draw(st.integers(0, 7)) == 0:
        gens[0] = ring.zero()
    branch_ring = PolyRing(field, ("t",))
    branches = []
    for _ in range(draw(st.integers(1, 2))):
        coords = [branch_ring.polynomial(draw(st.dictionaries(
            st.integers(1, 6).map(lambda k: (k,)), coefficient,
            max_size=2))) for _ in range(n)]
        if all(not p for p in coords):
            coords[0] = branch_ring.variable(0)
        branches.append(BranchParam(tuple(coords)))
    return gens, branches, draw(st.integers(0, 2**16))


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except (InputError, NotMPrimary) as err:
        return type(err)


@settings(max_examples=160, deadline=None, derandomize=True)
@given(case=_ci_germ_and_branches())
def test_single_minor_matches_the_moved_germ(case):
    gens, branches, seed = case
    assert _value_or_error(e_jacobian_single_minor, gens, branches, seed) \
        == _value_or_error(_moved_single_minor, gens, branches, seed)


def test_char_p_ramification():
    f5 = Field.prime_field(5)
    t5 = PolyRing(f5, ("t",)).variable(0)
    wild = BranchParam((t5**5, t5**6))
    assert e_ramification([wild]) == 5
    assert not is_tame([wild])
    with pytest.raises(DerivativeVanishes):
        e_ramification([BranchParam((t5**5, t5**10))])
    assert e_ramification([BranchParam((t**5, t**6))]) == 4
    assert is_tame([BranchParam((t**5, t**6))])


def test_tame_identity():
    # when tame, e(R_X) = m - r
    samples = [
        [BranchParam((t**2, t**3))],
        [BranchParam((t**3, t**4))],
        [BranchParam((t, T.zero())), BranchParam((T.zero(), t))],
        [BranchParam((t**4, t**6 + t**7))],
    ]
    for branches in samples:
        inv = germ_invariants(branches)
        assert inv.tame
        assert inv.e_ramification == inv.m - inv.r


def test_germ_invariants_to_dict():
    inv = germ_invariants([BranchParam((t**2, t**3))])
    data = inv.to_dict()
    assert data == {
        "multiplicity": 2,
        "branches": 1,
        "delta": 1,
        "milnor": 2,
        "e_ramification": 1,
        "tame": True,
    }


def _brute_orders(branch, precision):
    """Orders of the echelon span of every coordinate monomial of total
    degree < precision, each truncated at t^precision."""
    ring = branch.ring
    field = ring.field

    def truncate(p):
        return ring.polynomial(
            {e: c for e, c in p.terms.items() if e[0] < precision})

    echelon = {}

    def reduce_into(p):
        vec = {e[0]: c for e, c in p.terms.items()}
        while vec:
            order = min(vec)
            rep = echelon.get(order)
            if rep is None:
                inv = field.inv(vec[order])
                echelon[order] = {k: field.mul(inv, c) for k, c in vec.items()}
                return
            factor = vec[order]
            for k, c in rep.items():
                vec[k] = field.sub(vec.get(k, field.zero()),
                                   field.mul(factor, c))
            vec = {k: c for k, c in vec.items() if c}

    coords = list(branch.coords)
    # monomials as nondecreasing index sequences, so each comes once;
    # a monomial that truncates to zero has no nonzero multiples
    layer = [(0, ring.one())]
    for _ in range(1, precision):
        layer = [
            (i, mono)
            for last, p in layer
            for i in range(last, len(coords))
            for mono in (truncate(p * coords[i]),)
            if mono
        ]
        for _, mono in layer:
            reduce_into(mono)
    return set(echelon) | {0}


_FIELDS = (QQ, Field.prime_field(32003), Field.prime_field(3),
           Field.prime_field(2))


@st.composite
def _branch_and_precision(draw):
    field = draw(st.sampled_from(_FIELDS))
    ring = PolyRing(field, ("t",))
    coords = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(
            st.integers(1, 12), st.integers(-3, 3).filter(bool),
            min_size=1, max_size=3))
        coords.append(ring.polynomial(
            {(k,): field.from_int(c) for k, c in terms.items()}))
    if all(not p for p in coords):
        coords[0] = ring.variable(0) ** draw(st.integers(1, 12))
    return BranchParam(tuple(coords)), draw(st.integers(0, 48))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_branch_and_precision())
def test_attained_orders_match_brute_force(case):
    branch, precision = case
    expected = _brute_orders(branch, precision)
    # at every step the orders below the bound are already final, and
    # the stream run to its end holds the complete window
    for reps, bound in _attained_orders([branch], precision):
        assert {o for o in reps if o < bound} == \
            {o for o in expected if o < bound}
    assert bound == precision
    assert set(reps) == expected


@st.composite
def _cofinite_branch(draw):
    """A branch whose coordinate orders have gcd 1, with a window past
    its certificate: some coprime orders a, b generate a semigroup with
    conductor (a-1)(b-1), which bounds the branch's, so a gap-free run
    of multiplicity length starts at or below it."""
    field = draw(st.sampled_from(_FIELDS))
    ring = PolyRing(field, ("t",))
    coords = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(
            st.integers(2, 9), st.integers(-3, 3).filter(bool),
            min_size=1, max_size=3))
        coords.append(ring.polynomial(
            {(k,): field.from_int(c) for k, c in terms.items()}))
    orders = {min(e[0] for e in p.terms) for p in coords if p}
    assume(gcd(*orders) == 1)
    conductor = min((a - 1) * (b - 1) for a in orders for b in orders
                    if gcd(a, b) == 1)
    window = conductor + 2 * min(orders) + draw(st.integers(0, 8))
    return BranchParam(tuple(coords)), window


def _gap_count(attained, bound):
    """Gaps below the first gap-free run of multiplicity length in
    [0, bound), or None when there is none."""
    mult = min(o for o in attained if o > 0)
    run = 0
    for v in range(bound):
        run = run + 1 if v in attained else 0
        if run >= mult:
            return sum(1 for u in range(v - mult + 1) if u not in attained)
    return None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_cofinite_branch())
def test_early_certificate_matches_brute_force(case):
    branch, window = case
    expected = _gap_count(_brute_orders(branch, window), window)
    assert expected is not None
    assert delta_invariant([branch], window) == expected


def test_line_certifies_without_filling_the_window(monkeypatch):
    # the unit's products settle orders 0 and 1 below the bound 2, and
    # a gap-free run of length m = 1 certifies delta 0 there
    streamed = []
    real = cidcurve.germs._attained_orders

    def spy(branches, precision):
        for reps, bound in real(branches, precision):
            streamed.append((sorted(reps), bound, precision))
            yield reps, bound

    monkeypatch.setattr(cidcurve.germs, "_attained_orders", spy)
    five = QQ.from_int(5)
    assert delta_invariant([BranchParam((t, t.scale(five)))]) == 0
    assert streamed == [([0, 1], 2, 32)]


def test_local_computes_delta_once(monkeypatch, capsys):
    # cusp.germ carries an ideal, so `local` also runs the multiplicity
    # route; the branch delta must still be computed once
    calls = []
    real = cidcurve.germs._conductor_delta

    def spy(branches, precision):
        calls.append(branches)
        return real(branches, precision)

    monkeypatch.setattr(cidcurve.germs, "_conductor_delta", spy)
    cusp = pathlib.Path(__file__).resolve().parent.parent / "inputs" \
        / "cusp.germ"
    assert main(["local", "--input", str(cusp)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_concurrent_lines_build_no_groebner_basis(monkeypatch):
    # delta is read off the parametrizations alone: no implicit ideal,
    # intersection or local length is formed
    orders = []
    real_basis = cidcurve.ideals.groebner_basis
    real_chain = cidcurve.ideals._chain_basis

    def spy_basis(gens, order, ring=None):
        orders.append(order)
        return real_basis(gens, order, ring=ring)

    def spy_chain(a, order, target=None, bound=None):
        orders.append(order)
        return real_chain(a, order, target, bound)

    monkeypatch.setattr(cidcurve.ideals, "groebner_basis", spy_basis)
    monkeypatch.setattr(cidcurve.ideals, "_chain_basis", spy_chain)
    lines = [BranchParam((t, t.scale(QQ.from_int(s)))) for s in
             (1, -2, 3, 5, 7)]
    assert delta_invariant(lines) == 10
    assert orders == []


def gluing_oracle(branches):
    """Delta by the gluing formula: single-branch deltas plus, for each
    further branch, the origin-length of its meeting with the union of
    the earlier ones, every curve implicitized by elimination.  Exact
    when only t = 0 maps to the origin along every branch."""
    field = branches[0].ring.field
    ambient = PolyRing(field, ("x", "y", "z")[:branches[0].arity])
    total = sum(delta_invariant([b]) for b in branches)
    union = branch_ideal(branches[0], ambient)
    for k, b in enumerate(branches[1:], 2):
        if not any(g.compose(b.ring, list(b.coords))
                   for g in union.generators):
            raise NotMPrimary(f"branch {b.label!r} lies on the union")
        ib = branch_ideal(b, ambient)
        total += local_vdim_origin(ideal_sum(union, ib))
        if k < len(branches):
            union = intersect(union, ib)
    return total


@st.composite
def _germ_meeting_the_origin_once(draw):
    """Up to three plane or two space branches whose first coordinate is
    a monomial t^a, so that only t = 0 maps to the origin; exponents at
    most 6, over QQ, F_32003 or F_5.  The exponent a is prime to those of
    the other coordinates, so no branch lies in some k[t^d]."""
    field = draw(st.sampled_from((QQ, Field.prime_field(32003),
                                  Field.prime_field(5))))
    arity = draw(st.integers(2, 3))
    ring = PolyRing(field, ("t",))
    coefficient = st.integers(-3, 3).filter(bool).map(field.from_int)
    branches = []
    for k in range(draw(st.integers(1, 5 - arity))):
        others = [ring.polynomial(draw(st.dictionaries(
            st.integers(1, 6).map(lambda e: (e,)), coefficient,
            max_size=3))) for _ in range(arity - 1)]
        common = gcd(*(e[0] for p in others for e in p.terms))
        a = draw(st.sampled_from(
            [a for a in range(1, 7) if gcd(a, common) == 1]))
        branches.append(BranchParam((ring.variable(0) ** a, *others),
                                    f"b{k}"))
    return branches


def _delta_or_error(fn, branches):
    try:
        return fn(branches)
    except (NotMPrimary, NotPrimitive) as err:
        return type(err)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(branches=_germ_meeting_the_origin_once())
def test_conductor_delta_matches_the_gluing_formula(branches):
    assert _delta_or_error(delta_invariant, branches) \
        == _delta_or_error(gluing_oracle, branches)


@st.composite
def _germ_and_coordinate_scale(draw):
    """Up to three branches in 2 or 3 coordinates, the first t^a, over
    QQ (with denominators) or F_32003, a coordinate index and a nonzero
    constant.  Only t = 0 maps to the origin, as in
    `_germ_meeting_the_origin_once`.  Every branch has the same a, and
    its other coordinates are one shared tail with one coefficient
    redrawn, so branches are often tangent and differ in a coefficient
    with the same numerator and another denominator."""
    field = draw(st.sampled_from((QQ, Field.prime_field(32003))))
    arity = draw(st.integers(2, 3))
    ring = PolyRing(field, ("t",))
    coefficient = st.builds(Fraction, st.integers(-2, 2).filter(bool),
                            st.integers(1, 3)).map(field.from_fraction)
    exponent = st.integers(1, 4).map(lambda e: (e,))
    tail = [draw(st.dictionaries(exponent, coefficient, max_size=2))
            for _ in range(arity - 1)]
    tails = []
    for _ in range(draw(st.integers(1, 3))):
        others = [dict(terms) for terms in tail]
        others[draw(st.integers(0, arity - 2))][draw(exponent)] = \
            draw(coefficient)
        tails.append([ring.polynomial(terms) for terms in others])
    common = gcd(*(e[0] for others in tails for p in others
                   for e in p.terms))
    a = draw(st.sampled_from([a for a in range(1, 5) if gcd(a, common) == 1]))
    branches = [BranchParam((ring.variable(0) ** a, *others))
                for others in tails]
    scale = field.from_fraction(Fraction(
        draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 5))))
    return branches, draw(st.integers(0, arity - 1)), scale


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_germ_and_coordinate_scale())
def test_delta_is_blind_to_scaling_a_coordinate(case):
    # scaling coordinate j of every branch by one constant is a linear
    # change of coordinates, so the local ring and delta stay the same
    branches, j, scale = case
    scaled = [BranchParam(tuple(p.scale(scale) if i == j else p
                                for i, p in enumerate(b.coords)))
              for b in branches]
    assert _delta_or_error(delta_invariant, scaled) \
        == _delta_or_error(delta_invariant, branches)


@st.composite
def _generators_and_branch(draw):
    """Germ generators in 2-3 variables, zero and constants included,
    and a branch, over QQ (with denominators), F_2 or F_3."""
    field = draw(st.sampled_from((QQ, Field.prime_field(2),
                                  Field.prime_field(3))))
    arity = draw(st.integers(2, 3))
    ring = PolyRing(field, ("x", "y", "z")[:arity])
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        g = ring.zero()
        for _ in range(draw(st.integers(0, 4))):
            exps = tuple(draw(st.integers(0, 3)) for _ in range(arity))
            den = draw(st.integers(1, 3)) if field.is_rationals else 1
            c = field.from_fraction(Fraction(draw(st.integers(-3, 3)), den))
            g = g + ring.polynomial({exps: c})
        gens.append(g)
    t_ring = PolyRing(field, ("t",))
    coords = []
    for _ in range(arity):
        p = t_ring.zero()
        for _ in range(draw(st.integers(0, 3))):
            c = field.from_int(draw(st.integers(-4, 4)))
            p = p + t_ring.polynomial({(draw(st.integers(1, 6)),): c})
        coords.append(p)
    assume(any(coords))
    return gens, BranchParam(tuple(coords))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_generators_and_branch())
def test_pullbacks_match_term_by_term_substitution(case):
    gens, branch = case
    expected = [compose_by_powers(g, branch.ring, list(branch.coords))
                for g in gens]
    got = list(_pullbacks(gens, branch))
    assert [q.terms for q in got] == [q.terms for q in expected]
    assert [_ord(q) for q in got] == [_ord(q) for q in expected]


@st.composite
def _branch_through_u(draw):
    """(u, r(u)) for u of order 1, 2 or 3 and r with r(0) = 0, over QQ,
    F_32003 or F_5; the branch has local degree ord u at t = 0.  With it
    a reparametrization v of order 1."""
    field = draw(st.sampled_from((QQ, Field.prime_field(32003),
                                  Field.prime_field(5))))
    ring = PolyRing(field, ("t",))
    line = PolyRing(field, ("x",))
    coefficient = st.integers(-3, 3).filter(bool).map(field.from_int)

    def poly(target, low, high, more):
        lead = target.polynomial({(low,): draw(coefficient)})
        return lead + target.polynomial(draw(st.dictionaries(
            st.integers(low + 1, high).map(lambda e: (e,)), coefficient,
            min_size=more, max_size=2)))

    order = draw(st.integers(1, 3))
    u = poly(ring, order, order + 3, 1)
    r = poly(line, 1, 3, 0)
    v = poly(ring, 1, 2, 0)
    return order, BranchParam((u, r.compose(ring, [u]))), v


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_branch_through_u())
def test_same_germ_reads_the_local_degree(case):
    order, branch, v = case
    assume(gcd(*(e[0] for p in branch.coords for e in p.terms)) == 1)
    assert _same_germ(branch, branch) == (order > 1)
    moved = BranchParam(tuple(p.compose(branch.ring, [v])
                              for p in branch.coords))
    assert _same_germ(branch, moved)
