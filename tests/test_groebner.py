"""Groebner bases: defining properties, examples, and a cross-check
against an independent computer-algebra system."""

from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cidcurve import (
    GREVLEX,
    LEX,
    Field,
    Ideal,
    PolyRing,
    construct_ci,
    groebner_basis,
    is_member,
    krull_dimension,
    normal_form,
)
from cidcurve import groebner, hilbert, ideals, linkage
from cidcurve.hilbert import ci_hilbert_data
from cidcurve.orders import Block, WeightedGrevLex, _packing
from cidcurve.polynomials import _reduced
from cidcurve.rng import SplitMix64

from conftest import rnc_curve, twisted_cubic_gens

QQ = Field.rationals()
FP = Field.prime_field(32003)


def field_params(fields, seeds):
    """(field, seed) cases; the QQ ones keep their seed-only ids."""
    return [pytest.param(field, seed, id=f"F{field.characteristic}-{seed}"
                         if field.characteristic else str(seed))
            for field in fields for seed in seeds]


def tc_ring():
    return PolyRing(QQ, ("x0", "x1", "x2", "x3"))


def tc_gens(ring):
    x0, x1, x2, x3 = ring.variables()
    return [x2**2 - x1 * x3, x1**2 - x0 * x2, x0 * x3 - x1 * x2]


def spoly(f, g, order):
    lm_f, lc_f = f.leading(order)
    lm_g, lc_g = g.leading(order)
    lcm = tuple(max(a, b) for a, b in zip(lm_f, lm_g))
    ring = f.ring
    mf = ring.polynomial({tuple(l - a for l, a in zip(lcm, lm_f)): ring.field.inv(lc_f)})
    mg = ring.polynomial({tuple(l - a for l, a in zip(lcm, lm_g)): ring.field.inv(lc_g)})
    return mf * f - mg * g


def random_polys(ring, seed, count, max_deg=2, terms=3):
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        f = ring.zero()
        for _ in range(terms):
            exps = [0] * ring.arity
            for _ in range(rng.randint(1, max_deg)):
                exps[rng.randint(0, ring.arity - 1)] += 1
            coeff = ring.field.from_int(rng.randint(-9, 9))
            f = f + ring.polynomial({tuple(exps): coeff})
        if f:
            out.append(f)
    return out


# each order packs its monomials with its own bit layout
@pytest.mark.parametrize(
    "order", [GREVLEX, LEX, Block(1), WeightedGrevLex((2, 1, 1))],
    ids=["grevlex", "lex", "block(1)", "wgrevlex(2,1,1)"])
@pytest.mark.parametrize("field,seed", field_params([QQ, FP], [1, 2, 3, 4]))
def test_buchberger_criterion_and_reducedness(order, field, seed):
    ring = PolyRing(field, ("x", "y", "z"))
    gens = random_polys(ring, seed, 3)
    basis = groebner_basis(gens, order=order, ring=ring)
    elements = list(basis.elements)
    # the input ideal is contained: every generator reduces to zero
    for g in gens:
        assert not basis.normal_form(g)
    # every S-polynomial reduces to zero
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            assert not basis.normal_form(spoly(elements[i], elements[j], order))
    # reduced: no term of one element is divisible by another leading monomial
    lms = [f.leading(order)[0] for f in elements]
    for k, f in enumerate(elements):
        for exps in f.terms:
            for l, lm in enumerate(lms):
                if l == k:
                    continue
                assert not all(a >= b for a, b in zip(exps, lm))


@pytest.mark.parametrize("field,seed", field_params(
    [QQ, Field.prime_field(7), FP], [1, 2, 3, 4, 5, 6]))
def test_matches_independent_system(field, seed):
    ring = PolyRing(field, ("x", "y", "z"))
    gens = random_polys(ring, seed * 101, 3)
    basis = groebner_basis(gens, order=GREVLEX, ring=ring)
    symbols = sympy.symbols("x y z")
    names = dict(zip(("x", "y", "z"), symbols))
    options = ({"modulus": field.characteristic} if field.characteristic
               else {"domain": "QQ"})

    def monic(expr):
        return sympy.Poly(expr, *symbols, **options).monic().as_expr()

    translated = [sympy.sympify(str(g), names) for g in gens]
    reference = sympy.groebner(translated, *symbols, order="grevlex",
                               **options)
    mine = {monic(sympy.sympify(str(f), names)) for f in basis.elements}
    theirs = {monic(p) for p in reference.exprs}
    assert mine == theirs


# the inputs' exponents reach 2 or 3, so the first packing holds
# exponents below 4 or 8; z^5 and z^6 first appear while an
# S-polynomial is reduced, z^9 while one is formed
WIDENED = {
    "reduction": (("x*y - z^2", "y*z - x^2", "x*z - 1"),
                  ("z^6 - 1", "y - z^3", "x - z^5")),
    "spoly": (("x*y - z^2", "x*z - 1", "x^3 - y^2"),
              ("z^9 - 1", "y - z^3", "x - z^8")),
}


@pytest.mark.parametrize("site", sorted(WIDENED))
@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp"])
def test_basis_outgrowing_its_packing_is_widened(site, field, monkeypatch):
    ring = PolyRing(field, ("x", "y", "z"))
    gens, expected = WIDENED[site]
    spoly_bits, overflows = [], []
    real_spoly, real_reduce = groebner._spoly, groebner._Reducer.reduce

    def spoly(a, b, l, guard, char):
        spoly_bits.append(guard.bit_length())
        try:
            return real_spoly(a, b, l, guard, char)
        except groebner._FieldOverflow:
            overflows.append(("spoly", guard.bit_length()))
            raise

    def reduce(self, d, scale=1):
        try:
            return real_reduce(self, d, scale)
        except groebner._FieldOverflow:
            overflows.append(("reduction", self.packing.guard.bit_length()))
            raise

    monkeypatch.setattr(groebner, "_spoly", spoly)
    monkeypatch.setattr(groebner._Reducer, "reduce", reduce)
    basis = groebner_basis([ring.parse(g) for g in gens], order=LEX,
                           ring=ring)
    # the narrow packing overflowed after pairs were taken, and a wider
    # one finished the basis
    (where, bits), = overflows
    assert where == site and bits in spoly_bits
    assert max(spoly_bits) > bits
    assert list(basis.elements) == [ring.parse(g) for g in expected]


def test_normal_form_past_the_basis_packing():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    basis = groebner_basis([x * y - ring.one()], ring=ring)
    assert basis.normal_form(x**300 * y**299) == x
    assert normal_form(x**300 * y**299, [x * y - ring.one()]) == x


@pytest.mark.parametrize("field,divisor,expected", [
    (Field.prime_field(7), "3*x*y - 1", "4*x + y"),
    (QQ, "-2*x*y + 1", "1/4*x + y"),
], ids=["F7", "QQ"])
def test_normal_form_by_non_monic_divisors(field, divisor, expected):
    # a raw divisor list is scaled to reducer entries, which changes no
    # remainder: x^3*y^2 = x * (x*y)^2 and x*y acts as 1/3 or 1/2
    ring = PolyRing(field, ("x", "y"))
    f = ring.parse("x^3*y^2 + y")
    assert normal_form(f, [ring.parse(divisor)]) == ring.parse(expected)


def test_normal_form_widens_the_packing_until_the_remainder_fits(
        monkeypatch):
    # x^50 needs 7-bit exponent fields, and its remainder y^150 does not
    # fit those, so the reducer is repacked twice
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    basis = groebner_basis([x - y**3], LEX)
    widths = []
    real = groebner._Reducer.widened

    def widened(self, bits):
        widths.append(bits)
        return real(self, bits)

    monkeypatch.setattr(groebner._Reducer, "widened", widened)
    assert basis.normal_form(x**50) == y**150
    assert widths == [7, 14]


def test_twisted_cubic_basis():
    ring = tc_ring()
    gens = tc_gens(ring)
    basis = groebner_basis(gens, ring=ring)
    assert len(basis.elements) == 3
    for g in gens:
        assert basis.contains(g)
    x0, x1, x2, x3 = ring.variables()
    # a known member produced by combining generators
    member = x1 * gens[0] + x3 * gens[1]
    assert is_member(member, basis)
    assert not is_member(x0 * x2, basis)


def test_unit_ideal():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    basis = groebner_basis([x, x + ring.one()], ring=ring)
    assert basis.is_unit()
    assert list(basis.elements) == [ring.one()]


def test_zero_ideal():
    ring = PolyRing(QQ, ("x", "y"))
    basis = groebner_basis([ring.zero()], ring=ring)
    assert not basis.elements
    assert not basis.is_unit()


def test_normal_form_is_linear_and_idempotent():
    ring = PolyRing(QQ, ("x", "y", "z"))
    gens = random_polys(ring, 99, 3)
    basis = groebner_basis(gens, ring=ring)
    f, g = random_polys(ring, 100, 2)
    nf = basis.normal_form
    assert nf(nf(f)) == nf(f)
    assert nf(f + g) == nf(nf(f) + nf(g))
    assert nf(f * g) == nf(nf(f) * nf(g))


def test_char_p_basis():
    ring = PolyRing(Field.prime_field(5), ("x", "y"))
    x, y = ring.variables()
    basis = groebner_basis([x**5 - y, (x + y) ** 5], ring=ring)
    # over F5 the Frobenius collapses (x + y)^5 to x^5 + y^5 = y + y^5
    assert basis.contains(y**5 + y)


def test_lex_elimination_shape():
    # lex basis of a zero-dimensional ideal contains a univariate in the
    # last variable
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    basis = groebner_basis([x**2 + y**2 - ring.one(), x - y], order=LEX,
                           ring=ring)
    univariate = [f for f in basis.elements
                  if all(e[0] == 0 for e in f.terms)]
    assert univariate


def _ci33(ring):
    """Two cubic forms in P^3 with seeded coefficients."""
    rng = SplitMix64(33)
    cubics = [e for e in ((a, b, c, 3 - a - b - c) for a in range(4)
                          for b in range(4 - a) for c in range(4 - a - b))]
    return [ring.polynomial({e: ring.field.from_int(rng.randint(-9, 9))
                             for e in cubics}) for _ in range(2)]


def _rnc5(ring):
    x = ring.variables()
    return [x[i] * x[j] - x[i + 1] * x[j - 1]
            for i in range(6) for j in range(i + 2, 6)]


# S-polynomials formed by each basis computation, as recorded when the
# criteria still compared exponent tuples; the same count shows that the
# criteria on packed lcms prune the same pairs
SPOLY_COUNTS = {
    ("twisted_cubic", "grevlex"): 2, ("twisted_cubic", "block(1)"): 2,
    ("twisted_cubic", "lex"): 2,
    ("rnc5", "grevlex"): 20, ("rnc5", "block(1)"): 20, ("rnc5", "lex"): 20,
    ("ci33", "grevlex"): 3, ("ci33", "block(1)"): 32, ("ci33", "lex"): 77,
}
SPOLY_ORDERS = {"grevlex": GREVLEX, "block(1)": Block(1), "lex": LEX}
SPOLY_IDEALS = {"twisted_cubic": tc_gens, "rnc5": _rnc5, "ci33": _ci33}


@pytest.mark.parametrize("name,order", sorted(SPOLY_COUNTS))
@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp"])
def test_pair_criteria_keep_the_spoly_count(name, order, field,
                                            monkeypatch):
    arity = 6 if name == "rnc5" else 4
    ring = PolyRing(field, tuple(f"x{i}" for i in range(arity)))
    calls = []
    real_spoly = groebner._spoly

    def spoly(*args):
        calls.append(args)
        return real_spoly(*args)

    monkeypatch.setattr(groebner, "_spoly", spoly)
    groebner_basis(SPOLY_IDEALS[name](ring), order=SPOLY_ORDERS[order],
                   ring=ring)
    assert len(calls) == SPOLY_COUNTS[name, order]


# --- the Hilbert-driven stop -------------------------------------------


def _targeted_bases(monkeypatch, run):
    """The bases that `run()` computes through the ideal layer with a
    target, as (gens, order, ring, target)."""
    calls = []
    real = ideals._chain_basis

    def spy(a, order, target=None, bound=None):
        if target is not None:
            calls.append((list(a.generators), order, a.ring, target))
        return real(a, order, target, bound)

    monkeypatch.setattr(ideals, "_chain_basis", spy)
    run()
    monkeypatch.undo()
    return calls


def _spolys(monkeypatch, gens, order, ring, target=None):
    """The basis and the number of S-polynomials it formed."""
    count = 0
    real = groebner._spoly

    def spoly(*args):
        nonlocal count
        count += 1
        return real(*args)

    monkeypatch.setattr(groebner, "_spoly", spoly)
    basis = groebner._basis(gens, order, ring, target)
    monkeypatch.undo()
    return basis.elements, count


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp"])
def test_hilbert_stop_keeps_the_linkage_bases(n, field, monkeypatch):
    # the I_Z test basis (grevlex, the complete-intersection series),
    # the residual colon's Bayer basis (weighted, I_Z's series times
    # 1 - t^d) and the colon's own grevlex basis (the series its Bayer
    # basis fixes) are the same with and without their targets, and
    # each stops before its pair queue runs out
    calls = _targeted_bases(
        monkeypatch, lambda: construct_ci(rnc_curve(n, field), seed=0))
    assert sorted(type(order).__name__ for _, order, _, _ in calls) == [
        "GrevLex", "GrevLex", "WeightedGrevLex"]
    for gens, order, ring, target in calls:
        with_target, count = _spolys(monkeypatch, gens, order, ring, target)
        without, full = _spolys(monkeypatch, gens, order, ring)
        assert with_target == without
        assert count < full


@pytest.mark.parametrize("forms", [
    ["x0*x1", "x0*x2"],                       # a plane and a line
    ["(x0 + x1)*x2", "(x0 + x1)*(x3^2 + x1*x2)"],  # a common factor
    ["x0^2", "x0*x1", "x1^2"],                # a double line
], ids=["plane_plus_line", "common_factor", "double_line"])
def test_hilbert_stop_undershoot_runs_plain_buchberger(forms, monkeypatch):
    # forms that are not a regular sequence never reach the
    # complete-intersection series, a lower bound of theirs: the pair
    # queue runs to its end, to the same basis and, for the n - 1 = 2
    # forms of a linkage draw in P^3, the same verdict
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
    gens = [ring.parse(f) for f in forms]
    target = ci_hilbert_data([g.total_degree() for g in gens], 4).numerator
    with_target, count = _spolys(monkeypatch, gens, GREVLEX, ring, target)
    without, full = _spolys(monkeypatch, gens, GREVLEX, ring)
    assert with_target == without
    assert count == full
    if len(gens) == 2:
        i_z = Ideal(ring, gens)
        assert not linkage._is_complete_intersection(i_z)
        assert i_z.gb().elements == without
        assert krull_dimension(Ideal(ring, gens)) == 3


# _Reducer.reduce calls in construct_ci(rnc_curve(5), seed=0) over QQ:
# 508 when every basis runs its pair queue to the end, 256 with the
# global Hilbert stop and the known-basis starts, 239 when every pair
# whose degree the target already fills is skipped
def test_hilbert_stop_reduces_fewer_pairs_on_rnc5(monkeypatch):
    count = 0
    real = groebner._Reducer.reduce

    def reduce(self, d, scale=1):
        nonlocal count
        count += 1
        return real(self, d, scale)

    monkeypatch.setattr(groebner._Reducer, "reduce", reduce)
    construct_ci(rnc_curve(5), seed=0)
    assert count <= 239


@pytest.mark.parametrize("field", [QQ, Field.prime_field(32003)],
                         ids=["QQ", "Fp"])
def test_degree_skip_fires_before_the_target_is_reached(field,
                                                        monkeypatch):
    # the residual colon's Bayer run on RNC5 drops pairs whose weighted
    # degree its leading monomials already fill while the K-polynomial
    # of S/LT(G) still differs from the target, and every targeted run
    # ends at the basis computed with no target
    calls = _targeted_bases(
        monkeypatch, lambda: construct_ci(rnc_curve(5, field), seed=0))
    assert any(isinstance(order, WeightedGrevLex) for _, order, _, _ in calls)
    real = groebner._filled
    for gens, order, ring, target in calls:
        early = []

        def filled(numerator, target, *args):
            out = real(numerator, target, *args)
            early.append(out and numerator != target)
            return out

        monkeypatch.setattr(groebner, "_filled", filled)
        with_target = groebner._basis(gens, order, ring, target)
        monkeypatch.undo()
        without = groebner_basis(gens, order, ring=ring)
        assert with_target.elements == without.elements
        if isinstance(order, WeightedGrevLex):
            assert any(early)


@st.composite
def _graded_ideals(draw):
    """A ring over QQ or F_7 with an order and the weights of its
    grading, and forms homogeneous in that grading: two to four forms
    in three or four variables under grevlex, or, Bayer style, two or
    three forms in the first three variables and y - g for a fresh last
    variable y of weight d and a form g of degree d, under weighted
    grevlex."""
    field = draw(st.sampled_from((QQ, Field.prime_field(7))))
    bayer = draw(st.booleans())
    arity = 4 if bayer else draw(st.integers(3, 4))
    ring = PolyRing(field, tuple(f"x{i}" for i in range(arity)))
    plain = 3 if bayer else arity
    coeffs = st.sampled_from((1, -1, 2, 3, 5))

    def form(degree):
        monomials = [e + (0,) * (arity - plain)
                     for e in product(range(degree + 1), repeat=plain)
                     if sum(e) == degree]
        return ring.polynomial({
            draw(st.sampled_from(monomials)): field.from_int(draw(coeffs))
            for _ in range(draw(st.integers(1, 3)))})

    gens = [form(draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(2, 3 if bayer else 4)))]
    weights = (1,) * arity
    order = GREVLEX
    if bayer:
        d = draw(st.integers(1, 3))
        weights = (1,) * plain + (d,)
        order = WeightedGrevLex(weights)
        gens.append(ring.variable(plain) - form(d))
    return ring, order, weights, gens


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_graded_ideals(), extra=st.lists(st.integers(0, 2),
                                             min_size=4, max_size=4))
def test_degree_skip_keeps_the_basis(case, extra):
    # the per-degree skip is exact for the ideal's own K-polynomial and
    # for a coefficientwise lower bound of its series, here that of
    # LT(J) plus one more monomial
    ring, order, weights, gens = case
    plain = groebner_basis(gens, order, ring=ring)
    lms = plain.leading_exponents()
    monomial = tuple(extra[:ring.arity])
    for target in (hilbert.lt_numerator(lms, ring.arity, weights),
                   hilbert.lt_numerator(lms + [monomial], ring.arity,
                                        weights)):
        basis = groebner._basis(gens, order, ring, target)
        assert basis.elements == plain.elements


def _linked_pair(name):
    """A fresh complete intersection a and a curve b inside it whose
    colon (a : b) is linked."""
    if name == "conic_in_ci23":
        # the conic x3 = q = 0, with generators of degrees 1 and 2, in a
        # quadric-cubic complete intersection: the draw raises x3 to
        # degree 2
        ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
        x3 = ring.variable(3)
        q = ring.parse("x0*x2 - x1^2")
        a = Ideal(ring, [x3 * ring.parse("x0 + 2*x1 + 3*x2"),
                         q * ring.parse("x0 - x3")
                         + x3 * ring.parse("x1^2 + x2^2 + 5*x0*x3")])
        return a, Ideal(ring, [x3, q])
    curve = rnc_curve(int(name[-1]))
    witness = construct_ci(curve, seed=0)
    return (Ideal(curve.ring, witness.i_z.generators),
            Ideal(curve.ring, curve.generators))


@pytest.mark.parametrize("name", ["rnc3", "rnc4", "rnc5", "conic_in_ci23"])
def test_colon_target_keeps_the_basis_and_its_series(name, monkeypatch):
    # the linked colon's grevlex basis stops at the series its Bayer
    # basis fixes: the same basis and Hilbert data as with no target,
    # with fewer S-pairs, and quotient's degree check reads the data the
    # run kept, with no pass over the basis's leading monomials
    def colon(targeted):
        a, b = _linked_pair(name)
        assert ideals._linked_degree(a, b) is not None
        if not targeted:
            monkeypatch.setattr(ideals, "_colon_numerator",
                                lambda *args: None)
        passes = []
        real_leading = groebner.GroebnerBasis.leading_exponents
        monkeypatch.setattr(groebner.GroebnerBasis, "leading_exponents",
                            lambda gb: passes.append(gb) or real_leading(gb))
        count = 0
        real_spoly = groebner._spoly

        def spoly(*args):
            nonlocal count
            count += 1
            return real_spoly(*args)

        monkeypatch.setattr(groebner, "_spoly", spoly)
        result = ideals.quotient(a, b)
        monkeypatch.undo()
        return result, count, passes

    targeted, count, passes = colon(True)
    plain, full, plain_passes = colon(False)
    assert targeted.generators == plain.generators
    assert targeted.gb().hilbert == hilbert.hilbert_series(plain)
    assert count < full
    assert targeted.gb() not in passes and plain.gb() in plain_passes


def test_dimension_stop_reduces_less_than_the_full_basis(monkeypatch):
    # RNC5 has dimension 2: the stopped run proves dim <= 2 before its
    # pair queue runs out, and dim <= 1 is refused with the full basis
    curve = rnc_curve(5)
    gens, ring = list(curve.generators), curve.ring
    count = 0
    real = groebner._Reducer.reduce

    def reduce(self, d, scale=1):
        nonlocal count
        count += 1
        return real(self, d, scale)

    monkeypatch.setattr(groebner._Reducer, "reduce", reduce)
    assert groebner.basis_unless_dimension_at_most(gens, 2, ring) is None
    stopped, count = count, 0
    basis = groebner_basis(gens, ring=ring)
    full, count = count, 0
    refused = groebner.basis_unless_dimension_at_most(gens, 1, ring)
    assert refused.elements == basis.elements
    assert stopped < full == count


@st.composite
def _extension_cases(draw):
    """A ring of three or four variables over QQ or F_7, an order
    (grevlex, weighted grevlex or a block order) with the grading of its
    K-polynomial, and two to five forms homogeneous in that grading,
    split into the generators of a base ideal and the rest."""
    field = draw(st.sampled_from((QQ, Field.prime_field(7))))
    arity = draw(st.integers(3, 4))
    ring = PolyRing(field, tuple(f"x{i}" for i in range(arity)))
    kind = draw(st.sampled_from(("grevlex", "weighted", "block")))
    weights = (1,) * arity
    if kind == "grevlex":
        order = GREVLEX
    elif kind == "weighted":
        weights = tuple(draw(st.integers(1, 3)) for _ in range(arity))
        order = WeightedGrevLex(weights)
    else:
        order = Block(draw(st.integers(1, arity - 1)))
    gens = []
    count = draw(st.integers(2, 5))
    while len(gens) < count:
        degree = draw(st.integers(1, 4))
        monomials = [e for e in product(range(degree + 1), repeat=arity)
                     if sum(w * k for w, k in zip(weights, e)) == degree]
        if not monomials:
            continue
        terms = {draw(st.sampled_from(monomials)):
                 field.from_int(draw(st.sampled_from((1, -1, 2, 3, 5))))
                 for _ in range(draw(st.integers(1, 3)))}
        f = ring.polynomial(terms)
        if f:
            gens.append(f)
    split = draw(st.integers(1, len(gens) - 1))
    return ring, order, gens[:split], gens[split:]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_extension_cases(), targeted=st.booleans())
def test_basis_from_a_known_basis_is_the_fresh_basis(case, targeted):
    # a run started from the base's reduced basis, directly or through
    # an extension ideal, ends at the basis computed from scratch, with
    # or without the exact K-polynomial as its target, and with the same
    # standard Hilbert data, which a weighted run does not take from the
    # K-polynomial it kept; its divisor memo is gone once it returns
    ring, order, base, extra = case
    fresh = groebner_basis(base + extra, order, ring=ring)
    target = None
    if targeted:
        target = hilbert.lt_numerator(
            [f.leading(order)[0] for f in fresh.elements], ring.arity,
            getattr(order, "weights", None))
    known = groebner_basis(base, order, ring=ring)
    started = groebner._basis(extra, order, ring, target, known=known)
    assert started.elements == fresh.elements
    assert started.hilbert == fresh.hilbert
    assert started._reducer.memo is None
    a = Ideal(ring, base)
    a.gb(order)
    extension = ideals._extension(a, extra)
    assert (ideals._cached_basis(extension, order, target).elements
            == fresh.elements)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lms=st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=2,
                    max_size=14))
def test_sorted_criterion_m_keeps_the_quadratic_set(lms):
    # criterion M by its definition: (i, t) goes when another new pair's
    # lcm divides its own, properly or equally with a smaller index;
    # then the coprime pairs go.  The sorted scan forms the same pairs
    packing = _packing(GREVLEX, 3, 3)
    t = len(lms) - 1
    lcms = [tuple(map(max, lm, lms[t])) for lm in lms[:t]]
    kept = [i for i in range(t)
            if not any(j != i and _divides(lcms[j], lcms[i])
                       and (lcms[j] != lcms[i] or j < i) for j in range(t))]
    expected = sorted(
        (sum(lcms[i]), packing.pack(lcms[i]), i, t) for i in kept
        if not all(x == 0 or y == 0 for x, y in zip(lms[i], lms[t])))
    assert sorted(groebner._update_pairs([], lms, t, packing)) == expected


def test_divisor_memo_scans_an_entry_appended_after_a_miss():
    # the memo keeps, per monomial, how far the divisor scan got: a miss
    # recorded before an entry is appended scans that entry afterwards,
    # and a divisor found is found again at once
    packing = _packing(GREVLEX, 2, 3)
    x2, y2, y, x3 = (packing.pack(e) for e in ((2, 0), (0, 2), (0, 1),
                                               (3, 0)))
    reducer = groebner._Reducer(packing, 0)
    reducer.add(x2, {x2: 1})
    reducer.memo = {}
    assert reducer.reduce({y2: 1, x3: 1}) == ({y2: 1}, 1)
    assert reducer.memo == {x3: 0, y2: 1}
    reducer.add(y, {y: 1})
    assert reducer.reduce({y2: 1, x3: 1}) == ({}, 1)
    assert reducer.memo == {x3: 0, y2: 1}


def test_packings_are_shared():
    # one Packing per (order, arity, bits), from a bounded cache
    assert _packing(GREVLEX, 4, 5) is _packing(GREVLEX, 4, 5)
    assert _packing(GREVLEX, 4, 5) is not _packing(GREVLEX, 4, 6)
    assert _packing.cache_info().maxsize is not None


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp32003"])
def test_a_basis_answers_before_its_elements_are_built(field):
    # a basis is its packed reducer: membership, normal forms, the unit
    # test and the Hilbert series read it, and its elements are built
    # only when read, then equal to a fresh basis's
    ring = PolyRing(field, ("x0", "x1", "x2", "x3"))
    gens = twisted_cubic_gens(ring)
    a = Ideal(ring, gens)
    basis = a.gb()
    x0, x1, x2, x3 = ring.variables()
    assert basis.contains(x0 * x3 * x3 - x1 * x2 * x3)
    assert not basis.contains(x0 * x3)
    assert basis.normal_form(x1 * x1 + x0 * x3) == x0 * x2 + x0 * x3
    assert not basis.is_unit()
    assert hilbert.hilbert_series(a).degree == 3
    assert ideals.vdim(a) == ideals.INFINITE
    assert "elements" not in vars(basis)
    assert basis.elements == groebner_basis(gens, ring=ring).elements
    assert basis.leading_exponents() == [
        f.leading(GREVLEX)[0] for f in basis.elements]


def _fraction_rref(vectors, char):
    """Reduced row echelon form of integer dicts by Gaussian elimination
    in `Fraction`s over QQ and residues over F_p, each pivot at its
    row's least key: {pivot key: row}, the oracle for the echelon."""
    def inv(c):
        return pow(c, -1, char) if char else 1 / Fraction(c)

    def residue(c):
        return c % char if char else c

    rows = {}
    for vector in vectors:
        v = {k: residue(c) for k, c in vector.items() if residue(c)}
        for key, row in rows.items():
            c = v.get(key)
            if c:
                for k, rc in row.items():
                    v[k] = residue(v.get(k, 0) - c * rc)
                v = {k: vc for k, vc in v.items() if vc}
        if not v:
            continue
        key = min(v)
        scale = inv(v[key])
        new = {k: residue(c * scale) for k, c in v.items()}
        for other, row in rows.items():
            c = row.get(key)
            if c:
                for k, nc in new.items():
                    row[k] = residue(row.get(k, 0) - c * nc)
                rows[other] = {k: rc for k, rc in row.items() if rc}
        rows[key] = new
    return rows


@pytest.mark.parametrize("char", [0, 7], ids=["QQ", "F7"])
@pytest.mark.parametrize("seed", range(6))
def test_echelon_insert_matches_a_fraction_oracle(char, seed):
    # every vector goes into one echelon; it adds a row exactly when it
    # raises the rank, under the oracle's new pivot, and the rows span
    # the oracle's row space with the same pivots, each made by
    # `_normalize`
    rng = SplitMix64(0xEC4E_1017 + seed)
    vectors = []
    for n in range(14):
        if n % 3 == 2:
            # a combination of two earlier vectors, scaled: often in
            # the span already
            a, b = (vectors[rng.randint(0, n - 1)] for _ in range(2))
            s, t = rng.randint(-6, 6), rng.randint(-6, 6)
            vectors.append({k: s * a.get(k, 0) + t * b.get(k, 0)
                            for k in a.keys() | b.keys()})
        else:
            vectors.append({k: rng.randint(-9, 9) * rng.randint(1, 4)
                            for k in range(10) if rng.randint(0, 2)})
    rows = {}
    for n, vector in enumerate(vectors):
        before = _fraction_rref(vectors[:n], char)
        after = _fraction_rref(vectors[:n + 1], char)
        key = groebner._echelon_insert(rows, _reduced(vector, char), char)
        new = set(after) - set(before)
        assert key == (new.pop() if new else None)
    oracle = _fraction_rref(vectors, char)
    assert set(rows) == set(oracle)
    assert _fraction_rref(rows.values(), char) == oracle
    for key, row in rows.items():
        assert min(row) == key
        assert row == groebner._normalize(dict(row), key, char)
