"""Field arithmetic over the rationals and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cidcurve import Field
from cidcurve.fields import rational
from cidcurve.errors import DivisionByZero, NotPrime

FIELDS = [Field.rationals(), Field.prime_field(5), Field.prime_field(32003)]

scalars = st.integers(min_value=-50, max_value=50)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name())
@settings(max_examples=60, deadline=None)
@given(a=scalars, b=scalars, c=scalars)
def test_ring_axioms(field, a, b, c):
    fa, fb, fc = field.from_int(a), field.from_int(b), field.from_int(c)
    assert field.add(fa, fb) == field.add(fb, fa)
    assert field.mul(fa, fb) == field.mul(fb, fa)
    assert field.add(field.add(fa, fb), fc) == field.add(fa, field.add(fb, fc))
    assert field.mul(field.mul(fa, fb), fc) == field.mul(fa, field.mul(fb, fc))
    assert field.mul(fa, field.add(fb, fc)) == field.add(
        field.mul(fa, fb), field.mul(fa, fc)
    )
    assert field.add(fa, field.neg(fa)) == field.zero()
    assert field.sub(fa, fb) == field.add(fa, field.neg(fb))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name())
@settings(max_examples=60, deadline=None)
@given(a=scalars)
def test_inverse(field, a):
    fa = field.from_int(a)
    if fa == field.zero():
        with pytest.raises(DivisionByZero):
            field.inv(fa)
    else:
        assert field.mul(fa, field.inv(fa)) == field.one()
        assert field.div(field.one(), fa) == field.inv(fa)


def test_from_fraction():
    qq = Field.rationals()
    assert qq.from_fraction(Fraction(3, 4)) == Fraction(3, 4)
    f7 = Field.prime_field(7)
    # 3/4 = 3 * 4^{-1} = 3 * 2 = 6 mod 7
    assert f7.from_fraction(Fraction(3, 4)) == 6
    with pytest.raises(DivisionByZero):
        f7.from_fraction(Fraction(1, 7))


def test_characteristic_validation():
    with pytest.raises(NotPrime):
        Field(4)
    with pytest.raises(NotPrime):
        Field(1)
    with pytest.raises(NotPrime):
        Field(2**31)
    # Field(0) is QQ, but a prime field of characteristic 0 is no field
    with pytest.raises(NotPrime):
        Field.prime_field(0)
    assert Field(0) == Field.rationals()
    assert Field(2).characteristic == 2


def test_names():
    assert Field.rationals().name() == "QQ"
    assert Field.prime_field(5).name() == "Fp(5)"
    assert Field.prime_field(5).to_str(3) == "3"
    assert Field.rationals().to_str(Fraction(1, 2)) == "1/2"


def _is_the_rational(v, expected):
    """v is the QQ scalar of value `expected`: an int when it is
    integral, else a Fraction with a denominator above 1, never a
    float."""
    assert not isinstance(v, float)
    assert v == expected
    if expected.denominator == 1:
        assert type(v) is int
    else:
        assert type(v) is Fraction and v.denominator > 1


rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 6))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=scalars, d=scalars.filter(bool), a=rationals, b=rationals)
def test_rational_scalars_are_ints_when_integral(n, d, a, b):
    qq = Field.rationals()
    _is_the_rational(rational(n, d), Fraction(n, d))
    _is_the_rational(qq.from_int(n), Fraction(n))
    _is_the_rational(qq.from_fraction(a), a)
    if b:
        _is_the_rational(rational(a, b), a / b)
    # operands as the field builds them and as integral Fractions
    for x, y in ((qq.from_fraction(a), qq.from_fraction(b)), (a, b)):
        if x:
            _is_the_rational(qq.inv(x), 1 / a)
        if y:
            _is_the_rational(qq.div(x, y), a / b)
