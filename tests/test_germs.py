"""Germ invariants: branch validation, delta, multiplicities, and the
local discrepancy routes checked against each other and against an
independent Milnor-number computation."""

import pathlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cidcurve
from cidcurve import (
    BranchParam,
    Field,
    GREVLEX,
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
    is_tame,
    local_vdim_origin,
    milnor_number,
)
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
    _certified_gap_count,
    _delta_single,
    _germ_ambient,
    _lies_on,
    _ord,
    _pullbacks,
)
from cidcurve.polynomials import partial_derivative

from conftest import compose_by_powers

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
        from cidcurve import intersect

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


def test_not_primitive():
    with pytest.raises(NotPrimitive):
        delta_invariant([BranchParam((t**2, t**4))], precision_cap=64)


def test_precision_cap():
    with pytest.raises(PrecisionCapExceeded):
        # primitive, but the certifying gap-free run sits beyond the cap
        delta_invariant([BranchParam((t**4, t**6 + t**7))],
                        precision_cap=16)


def test_not_primitive_is_certified():
    # every exponent is even: the subalgebra lies in k[t^2] at any cap
    branch = BranchParam((t**2, t**4 + t**6))
    for cap in (0, 256):
        with pytest.raises(NotPrimitive, match="share the factor 2"):
            delta_invariant([branch], precision_cap=cap)


def test_cap_before_certificate_is_not_a_verdict():
    # the window [0, 3) sees order 2 alone; the cusp is primitive
    with pytest.raises(PrecisionCapExceeded) as info:
        delta_invariant([BranchParam((t**2, t**3))], precision_cap=3)
    assert info.value.cap == 3


def test_precision_cap_below_first_order():
    # the window [0, 1) holds no positive order of the cusp
    with pytest.raises(PrecisionCapExceeded) as info:
        delta_invariant([BranchParam((t**2, t**3))], precision_cap=1)
    assert info.value.cap == 1


def test_branch_ideal_cusp():
    out = branch_ideal(BranchParam((t**2, t**3)), R2)
    assert ideal_equal(out, Ideal(R2, [Y**2 - X**3]))


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
    for reps, bound in _attained_orders(branch, precision):
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_cofinite_branch())
def test_early_certificate_matches_brute_force(case):
    branch, window = case
    expected = _certified_gap_count(_brute_orders(branch, window), window)
    assert expected is not None
    assert _delta_single(branch, window) == expected


def test_line_certifies_without_filling_the_window(monkeypatch):
    # the unit's products settle orders 0 and 1 below the bound 2, and
    # a gap-free run of length m = 1 certifies delta 0 there
    streamed = []
    real = cidcurve.germs._attained_orders

    def spy(branch, precision):
        for reps, bound in real(branch, precision):
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
    real = cidcurve.germs._delta_single

    def spy(branch, precision_cap):
        calls.append(branch)
        return real(branch, precision_cap)

    monkeypatch.setattr(cidcurve.germs, "_delta_single", spy)
    cusp = pathlib.Path(__file__).resolve().parent.parent / "inputs" \
        / "cusp.germ"
    assert main(["local", "--input", str(cusp)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_gluing_length_builds_one_grevlex_basis(monkeypatch):
    # five concurrent lines: every gluing ideal is homogeneous with a
    # finite quotient, so its length is read off one grevlex basis
    orders = []
    real_basis = cidcurve.ideals.groebner_basis

    def spy_basis(gens, order, ring=None):
        orders.append(order)
        return real_basis(gens, order, ring=ring)

    lengths = []
    real_length = cidcurve.germs.local_vdim_origin

    def spy_length(a, cap=256):
        start = len(orders)
        value = real_length(a, cap)
        lengths.append((value, orders[start:]))
        return value

    monkeypatch.setattr(cidcurve.ideals, "groebner_basis", spy_basis)
    monkeypatch.setattr(cidcurve.germs, "local_vdim_origin", spy_length)
    lines = [BranchParam((t, t.scale(QQ.from_int(s)))) for s in
             (1, -2, 3, 5, 7)]
    assert delta_invariant(lines) == 10
    assert lengths == [(k, [GREVLEX]) for k in (1, 2, 3, 4)]


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


@pytest.mark.parametrize("field,coords", [
    (QQ, ("t^2", "t^3")),
    (QQ, ("t^4", "t^6 + t^7")),
    (QQ, ("t^3", "t^4", "t^5")),
    (QQ, ("t", "0", "2*t")),
    (Field.prime_field(3), ("t^2", "t^3 + t^4")),
    (Field.prime_field(2), ("t^3 + t^4", "t^5")),
], ids=["cusp", "4_6_7", "space_3_4_5", "line_3", "cusp_f3", "branch_f2"])
def test_lies_on_is_an_exact_zero_test(field, coords):
    ring = PolyRing(field, ("t",))
    branch = BranchParam(tuple(ring.parse(p) for p in coords))
    ambient = _germ_ambient(branch)
    own = branch_ideal(branch, ambient)
    assert _lies_on(branch, own)
    # adding x_i^2, x_i a nonzero coordinate, to any one generator
    # leaves a pullback p_i^2 != 0
    i = next(k for k, p in enumerate(branch.coords) if p)
    bump = ambient.variable(i) ** 2
    for k in range(len(own.generators)):
        gens = list(own.generators)
        gens[k] = gens[k] + bump
        assert not _lies_on(branch, Ideal(ambient, gens))
