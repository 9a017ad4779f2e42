"""Polynomial arithmetic, parsing, charts and (de)homogenization."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cidcurve import Chart, Field, PolyRing, parse_polynomial
from cidcurve.errors import (
    IndexOutOfRange,
    NotLinear,
    ParseError,
    RingMismatch,
    UnknownVariable,
)
from cidcurve.polynomials import (
    _substitute,
    dehomogenize,
    homogenize,
    partial_derivative,
)

from conftest import compose_by_powers

QQ = Field.rationals()
F5 = Field.prime_field(5)
R = PolyRing(QQ, ("x", "y", "z"))
R5 = PolyRing(F5, ("x", "y", "z"))


def poly_strategy(ring, max_terms=4, max_exp=3, max_coeff=7):
    def build(spec):
        out = ring.zero()
        for exps, coeff in spec:
            out = out + ring.polynomial({exps: ring.field.from_int(coeff)})
        return out

    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp)] * ring.arity),
        st.integers(-max_coeff, max_coeff),
    )
    return st.lists(term, max_size=max_terms).map(build)


@pytest.mark.parametrize("ring", [R, R5], ids=["QQ", "F5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_commutative_ring_axioms(ring, data):
    polys = poly_strategy(ring)
    f, g, h = data.draw(polys), data.draw(polys), data.draw(polys)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == ring.zero()
    assert f * ring.one() == f
    assert f * ring.zero() == ring.zero()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_degree_additivity_over_integral_domain(data):
    polys = poly_strategy(R)
    f, g = data.draw(polys), data.draw(polys)
    if f and g:
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()
        assert f * g  # no zero divisors


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_parse_print_round_trip(data):
    f = data.draw(poly_strategy(R))
    assert R.parse(str(f)) == f


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_rule(data):
    polys = poly_strategy(R, max_terms=3, max_exp=2)
    f, g = data.draw(polys), data.draw(polys)
    for i in range(R.arity):
        lhs = partial_derivative(f * g, i)
        rhs = partial_derivative(f, i) * g + f * partial_derivative(g, i)
        assert lhs == rhs


def test_parser_examples():
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    f = ring.parse("x2^2 - x1*x3")
    x0, x1, x2, x3 = ring.variables()
    assert f == x2**2 - x1 * x3
    assert ring.parse("0") == ring.zero()
    assert ring.parse("(x0+x1)^2 - x0^2 - 2*x0*x1") == x1**2
    assert ring.parse("-x0") == -x0
    with pytest.raises(UnknownVariable):
        ring.parse("w^2")
    with pytest.raises(ParseError):
        ring.parse("x0 +")


def test_parse_rational_coefficient():
    x, y, z = R.variables()
    assert R.parse("1/2*x") == x.scale(Fraction(1, 2))


def test_ring_mismatch():
    other = PolyRing(QQ, ("a", "b", "c"))
    with pytest.raises(RingMismatch):
        R.variable(0) + other.variable(0)


def test_derivative_char_p():
    x, y, z = R5.variables()
    assert partial_derivative(x**5, 0) == R5.zero()
    assert partial_derivative(x**6, 0) == x**5
    with pytest.raises(IndexOutOfRange):
        partial_derivative(x, 7)


def test_homogeneity():
    x, y, z = R.variables()
    assert (x * y + z**2).is_homogeneous()
    assert not (x + z**2).is_homogeneous()
    assert (x * y + z**2).homogeneous_degree() == 2


def test_dehomogenize_examples():
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    f = x0 * x3 - x1 * x2
    g = dehomogenize(f, x0)
    assert str(g.ring.names) == str(("x1", "x2", "x3"))
    gx1, gx2, gx3 = g.ring.variables()
    assert g == gx3 - gx1 * gx2
    assert dehomogenize(x0**2, x0) == g.ring.one()
    with pytest.raises(NotLinear):
        dehomogenize(f, x0 * x0)


def test_homogenize_round_trip():
    ring = PolyRing(QQ, ("x0", "x1", "x2"))
    x0, x1, x2 = ring.variables()
    f = x1**3 - x0 * x2**2 + x0**2 * x1
    g = dehomogenize(f, x0)
    assert homogenize(g, ring, 0) == f


def test_chart_general_form():
    ring = PolyRing(QQ, ("x0", "x1", "x2"))
    x0, x1, x2 = ring.variables()
    chart = Chart.from_form(x0 + x1.scale(Fraction(2)))
    assert chart.pivot == 0
    assert not chart.is_coordinate() or chart.form == x0
    f = x0 + x1.scale(Fraction(2))
    # the chart form itself maps to 1
    assert chart.apply(f) == chart.ring.one()


def test_primitive_int():
    x, y, z = R.variables()
    f = x.scale(Fraction(2, 3)) + y.scale(Fraction(4, 3))
    g = f.primitive_int()
    assert g == x + y.scale(Fraction(2))
    # sign convention: positive leading coefficient
    assert (-g).primitive_int() == g
    assert R.zero().primitive_int() == R.zero()


def test_linear_form():
    f = R.linear_form([1, -2, 3])
    x, y, z = R.variables()
    assert f == x - y.scale(Fraction(2)) + z.scale(Fraction(3))
    assert f.is_linear_form()
    assert not (x * y).is_linear_form()


def test_evaluate():
    x, y, z = R.variables()
    f = x**2 + y * z
    assert f.evaluate([Fraction(2), Fraction(3), Fraction(4)]) == Fraction(16)


def test_parse_polynomial_function():
    assert parse_polynomial(R, "x*y - z") == R.variable(0) * R.variable(1) - R.variable(2)


def _ring_of(field, arity, stem):
    return PolyRing(field, tuple(f"{stem}{i}" for i in range(arity)))


@st.composite
def _random_polynomial(draw, ring, max_terms=4, max_exp=4):
    """Zero, a constant, or up to max_terms terms; over QQ the
    coefficients carry denominators up to 4."""
    field = ring.field
    f = ring.zero()
    shape = draw(st.sampled_from(("terms", "terms", "terms", "zero",
                                  "constant")))
    if shape == "zero":
        return f
    for _ in range(1 if shape == "constant" else
                   draw(st.integers(1, max_terms))):
        exps = (0,) * ring.arity if shape == "constant" else tuple(
            draw(st.integers(0, max_exp)) for _ in range(ring.arity))
        num = draw(st.integers(-5, 5))
        den = draw(st.integers(1, 4)) if field.is_rationals else 1
        f = f + ring.polynomial({exps: field.from_fraction(Fraction(num,
                                                                    den))})
    return f


@st.composite
def _substitutions(draw):
    """(polys, target, images) in 1-4 source and target variables over
    QQ, F_2 or F_3; small characteristics make terms cancel."""
    field = draw(st.sampled_from((QQ, Field.prime_field(2),
                                  Field.prime_field(3))))
    source = _ring_of(field, draw(st.integers(1, 4)), "x")
    target = _ring_of(field, draw(st.integers(1, 4)), "u")
    images = [draw(_random_polynomial(target, max_terms=3, max_exp=3))
              for _ in range(source.arity)]
    polys = [draw(_random_polynomial(source))
             for _ in range(draw(st.integers(1, 3)))]
    return polys, target, images


def _ninth_power_of_seventh(field, f, image):
    """f in x0 under x0 -> image in u0: x0^9 under u0^7 reaches
    u0^63 = u0^(2^6 - 1), the largest exponent of the layout sized for
    the substitution."""
    source, target = _ring_of(field, 1, "x"), _ring_of(field, 1, "u")
    return [source.parse(f)], target, [target.parse(image)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_substitutions())
@example(case=_ninth_power_of_seventh(QQ, "x0^9 - 1/2*x0", "u0^7"))
@example(case=_ninth_power_of_seventh(Field.prime_field(3), "x0^9 + 2*x0",
                                      "u0^7 + u0"))
def test_compose_matches_term_by_term_substitution(case):
    polys, target, images = case
    expected = [compose_by_powers(f, target, images) for f in polys]
    for f, want in zip(polys, expected):
        got = f.compose(target, images)
        assert got.ring == target
        assert got.terms == want.terms
    # one shared power table for several polynomials
    batch = list(_substitute(polys, target, images))
    assert [g.terms for g in batch] == [w.terms for w in expected]
