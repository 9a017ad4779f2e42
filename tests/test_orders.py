"""Monomial order laws: total, multiplicative, with 1 minimal; and the
packing of monomials into ints that the Groebner core compares, shifts
and divides, and that the minor kernel and substitution add.

`less` below compares the `fields` tuples that `Packing` packs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cidcurve import GREVLEX, LEX, order_from_name
from cidcurve.orders import Block, Packing, WeightedGrevLex

exps = st.tuples(*[st.integers(0, 6)] * 3)

ORDERS = [GREVLEX, LEX, Block(1), WeightedGrevLex((1, 1, 3)),
          WeightedGrevLex((2, 1, 1))]
IDS = ["grevlex", "lex", "block(1)", "wgrevlex(1,1,3)", "wgrevlex(2,1,1)"]


def less(order, a, b):
    return order.fields(a) < order.fields(b)


@pytest.mark.parametrize("order", ORDERS, ids=IDS)
@settings(max_examples=80, deadline=None)
@given(a=exps, b=exps, c=exps)
def test_total_order(order, a, b, c):
    # antisymmetry and totality
    assert (less(order, a, b) or less(order, b, a)) == (a != b)
    assert not (less(order, a, b) and less(order, b, a))
    # transitivity
    if less(order, a, b) and less(order, b, c):
        assert less(order, a, c)


@pytest.mark.parametrize("order", ORDERS, ids=IDS)
@settings(max_examples=80, deadline=None)
@given(a=exps, b=exps, c=exps)
def test_multiplicative(order, a, b, c):
    shifted_a = tuple(x + y for x, y in zip(a, c))
    shifted_b = tuple(x + y for x, y in zip(b, c))
    assert less(order, a, b) == less(order, shifted_a, shifted_b)


@pytest.mark.parametrize("order", ORDERS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(a=exps)
def test_one_is_minimal(order, a):
    one = (0, 0, 0)
    if a != one:
        assert less(order, one, a)


@st.composite
def packed_pairs(draw):
    """An exponent width and two exponent tuples that fit it."""
    bits = draw(st.integers(1, 12))
    fit = st.tuples(*[st.integers(0, (1 << bits) - 1)] * 3)
    return bits, draw(fit), draw(fit)


@pytest.mark.parametrize("order", ORDERS, ids=IDS)
@settings(max_examples=80, deadline=None)
@given(case=packed_pairs())
def test_packing_preserves_the_order(order, case):
    bits, a, b = case
    pack = Packing(order, 3, bits).pack
    assert less(order, a, b) == (pack(a) < pack(b))


@pytest.mark.parametrize("order", ORDERS, ids=IDS)
@settings(max_examples=80, deadline=None)
@given(case=packed_pairs())
def test_packing_is_additive_and_invertible(order, case):
    bits, a, b = case
    packing = Packing(order, 3, bits)
    total = tuple(x + y for x, y in zip(a, b))
    assert packing.pack(total) == packing.pack(a) + packing.pack(b)
    assert packing.unpack(packing.pack(a)) == a
    # a sum that outgrows the width shows on a guard bit
    fits = max(total) < 1 << bits
    assert fits == (not packing.pack(total) & packing.guard)
    if fits:
        assert packing.unpack(packing.pack(total)) == total


@pytest.mark.parametrize("order", ORDERS, ids=IDS)
@settings(max_examples=80, deadline=None)
@given(case=packed_pairs())
def test_guard_mask_divisibility(order, case):
    bits, a, b = case
    packing = Packing(order, 3, bits)
    divides = not (packing.pack(b) - packing.pack(a)) & packing.guard
    assert divides == all(x <= y for x, y in zip(a, b))


def test_known_comparisons():
    # lex: x0 beats any power of later variables
    assert less(LEX, (0, 9, 9), (1, 0, 0))
    # grevlex: degree first ...
    assert less(GREVLEX, (1, 1, 0), (3, 0, 0))
    # ... then smaller exponent on the last variable wins among equals
    assert less(GREVLEX, (0, 1, 1), (1, 1, 0))
    assert less(GREVLEX, (1, 0, 1), (0, 2, 0))
    # block(1) eliminates x0: any x0 power dominates the rest
    assert less(Block(1), (0, 9, 9), (1, 0, 0))
    # weighted grevlex: weighted degree first ...
    heavy = WeightedGrevLex((1, 1, 3))
    assert less(heavy, (1, 1, 0), (0, 0, 1))
    # ... then grevlex, so among equal weights the last variable loses
    assert less(heavy, (0, 0, 1), (3, 0, 0))
    assert less(heavy, (0, 0, 1), (1, 2, 0))
    # unit weights give grevlex
    flat = WeightedGrevLex((1, 1, 1))
    for a, b in (((1, 1, 0), (3, 0, 0)), ((0, 1, 1), (1, 1, 0))):
        assert less(flat, a, b) and less(GREVLEX, a, b)


def test_order_from_name():
    assert order_from_name("lex") is LEX
    assert order_from_name("grevlex") is GREVLEX
    assert order_from_name("block(2)") == Block(2)
    # the weighted order is internal to the colon, not a CLI order
    with pytest.raises(ValueError):
        order_from_name("wgrevlex(1,1,3)")
    with pytest.raises(ValueError):
        order_from_name("mystery")
