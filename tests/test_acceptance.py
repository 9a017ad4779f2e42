"""Acceptance suite: one test per release criterion, exact values,
with a wall-clock budget printed and enforced per criterion.

Instances shared between criteria are computed once and cached at
module level; the criterion that first needs an instance pays for it,
so the printed times reflect where the work actually happened.
"""

import time
from fractions import Fraction

import pytest

from cidcurve import (
    BranchParam,
    Chart,
    CurveInput,
    Field,
    Ideal,
    PolyRing,
    cid_local_direct,
    cid_local_multiplicities,
    cid_routes,
    construct_ci,
    construct_ci_transversal,
    degree_lower_bound,
    delta_invariant,
    e_ramification,
    general_ci_germ,
    genus_report,
    germ_invariants,
    ideal_equal,
    ideal_sum,
    is_smooth_curve,
    is_tame,
    jacobian_cover_check,
    milnor_number,
    omega_matches_jacobian,
    quotient,
    residual,
    saturate,
    saturate_irrelevant,
    transversality_count,
    vdim,
)
from cidcurve.errors import NotSmooth
from cidcurve.ideals import chart_ideal
from cidcurve.rng import SplitMix64

from conftest import rnc_curve, twisted_cubic_gens

QQ = Field.rationals()


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_around_capture(capfd):
    """Let the criterion lines reach the real terminal even when pytest
    captures output at the file-descriptor level."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _announce(line):
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


class criterion:
    """Context manager printing one pass/fail line with the runtime."""

    def __init__(self, number, label, limit_seconds):
        self.number = number
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.limit \
            else "FAIL"
        line = (f"ACCEPTANCE {self.number} ({self.label}): {verdict} "
                f"[{elapsed:.2f}s / limit {self.limit}s]")
        print(line)
        _announce(line)
        if exc_type is None:
            assert elapsed < self.limit, \
                f"criterion {self.number} runtime {elapsed:.2f}s over budget"
        return False


# --- shared instances --------------------------------------------------

_CACHE = {}


def tc_curve():
    if "tc" not in _CACHE:
        ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
        _CACHE["tc"] = CurveInput(ring, twisted_cubic_gens(ring))
    return _CACHE["tc"]


def rnc_instances():
    """(curve, witness, report) per degree and seed, built once."""
    if "rnc" not in _CACHE:
        data = {}
        for n in (3, 4, 5):
            curve = rnc_curve(n)
            rows = {}
            for seed in (0, 1, 2):
                witness = construct_ci(curve, seed=seed)
                report = genus_report(curve, witness)
                rows[seed] = (witness, report)
            data[n] = (curve, rows)
        _CACHE["rnc"] = data
    return _CACHE["rnc"]


def random_smooth_ci_curves():
    """Five random smooth complete-intersection curves in P^3 with
    degree pairs from {2,3} x {2,3}."""
    if "cis" not in _CACHE:
        ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
        pairs = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 3)]
        out = []
        for k, (d1, d2) in enumerate(pairs):
            seed = 1000 + k
            while True:
                rng = SplitMix64(seed)
                gens = [_random_form(ring, d, rng) for d in (d1, d2)]
                curve = CurveInput(ring, gens)
                if is_smooth_curve(curve.ideal()):
                    out.append(curve)
                    break
                seed += 1
        _CACHE["cis"] = out
    return _CACHE["cis"]


def _random_form(ring, degree, rng):
    out = ring.zero()
    exps = [()]
    for _ in range(degree):
        exps = [e + (i,) for e in exps for i in range(ring.arity)]
    for e in exps:
        mono = [0] * ring.arity
        for i in e:
            mono[i] += 1
        out = out + ring.polynomial(
            {tuple(mono): ring.field.from_int(rng.randint(1, 50))}
        )
    return out


# --- criteria ----------------------------------------------------------


def test_criterion_1_twisted_cubic_forced_witness():
    with criterion(1, "twisted cubic, forced coefficients", 1.0):
        curve = tc_curve()
        ring = curve.ring
        x0, x1, x2, x3 = ring.variables()
        witness = construct_ci(curve, coeff_matrix=((1, 0, 0), (1, 2)))
        f1, f2, f3 = curve.generators
        assert witness.F == (f1, f2 + f3.scale(QQ.from_int(2)))

        i_x = curve.ideal()
        i_z = Ideal(ring, list(witness.F))
        i_w = residual(i_z, i_x)
        expected_w = Ideal(ring, [x1 - x3.scale(QQ.from_int(4)),
                                  x2 - x3.scale(QQ.from_int(2))])
        assert ideal_equal(i_w, expected_w)

        # the witness Jacobian modulo the curve, in the x0 chart
        chart = Chart.from_form(x0)
        affine = chart_ideal(witness.on_curve, chart)
        c1, c2, c3 = chart.ring.variables()
        expected = Ideal(chart.ring, [
            c2 - c3.scale(QQ.from_int(2)),
            c1 - c3.scale(QQ.from_int(4)),
            (c3**2).scale(QQ.from_int(8)) - c3,
        ])
        assert ideal_equal(affine, expected)

        values = cid_routes(curve, witness)
        assert values["direct"] == 2
        assert values["smooth_jacobian"] == 2
        assert values["aci"] == 2


def test_criterion_2_twisted_cubic_family():
    with criterion(2, "twisted cubic pencil of witnesses", 2.0):
        curve = tc_curve()
        ring = curve.ring
        x1, x2, x3 = ring.variable(1), ring.variable(2), ring.variable(3)
        for s, t in ((1, 2), (1, 0), (1, 1), (0, 1)):
            witness = construct_ci(curve, coeff_matrix=((1, 0, 0), (s, t)))
            values = cid_routes(curve, witness)
            assert set(values.values()) == {2}, (s, t, values)
        # the degenerate member concentrates the intersection in one
        # length-2 point
        witness = construct_ci(curve, coeff_matrix=((1, 0, 0), (0, 1)))
        i_x = curve.ideal()
        i_w = residual(Ideal(ring, list(witness.F)), i_x)
        meet = saturate_irrelevant(ideal_sum(i_x, i_w))
        assert ideal_equal(meet, Ideal(ring, [x1**2, x2, x3]))


def test_criterion_3_rational_normal_curves():
    with criterion(3, "rational normal curves, three seeds", 60.0):
        data = rnc_instances()
        for n in (3, 4, 5):
            curve, rows = data[n]
            for seed, (witness, report) in rows.items():
                assert report.cid == n * (n - 3) + 2, (n, seed)
                assert report.deg_W == 2 ** (n - 1) - n, (n, seed)
                assert report.p_a_W == (n - 3) * (2 ** (n - 2) - n), (n, seed)
            t_witness = construct_ci_transversal(curve, seed=0)
            count, all_reduced = transversality_count(curve, t_witness)
            assert count == n * (n - 3) + 2
            assert all_reduced


def test_criterion_4_genus_formula_everywhere():
    with criterion(4, "genus and degree identities", 60.0):
        data = rnc_instances()
        reports = [report
                   for _, rows in data.values()
                   for _, report in rows.values()]
        for curve in random_smooth_ci_curves():
            witness = construct_ci(curve, seed=0)
            reports.append(genus_report(curve, witness))
        tc = tc_curve()
        reports.append(genus_report(tc, construct_ci(tc, seed=4)))
        assert len(reports) >= 15
        for report in reports:
            assert report.checks["genus_formula"], report
            assert report.checks["bezout"], report
            assert report.checks["two_e_identity"], report
            assert report.checks["peskine_szpiro"], report
            assert report.p_a_hilbert == report.p_a_formula
            assert report.deg_Z == report.pi


def test_criterion_5_plane_curves():
    with criterion(5, "plane curves of degree 3..6", 5.0):
        ring = PolyRing(QQ, ("x", "y", "z"))
        x, y, z = ring.variables()
        for d in (3, 4, 5, 6):
            curve = CurveInput(ring, [x**d + y**d + z**d])
            witness = construct_ci(curve, seed=0)
            # in the plane the curve is its own witness
            assert witness.F == tuple(curve.generators)
            report = genus_report(curve, witness)
            assert report.cid == 0
            assert report.p_a_hilbert == (d - 1) * (d - 2) // 2
            assert report.all_checks_pass()


def test_criterion_6_local_germ_suite():
    with criterion(6, "local germ suite with both routes", 30.0):
        T = PolyRing(QQ, ("t",))
        t = T.variable(0)
        R2 = PolyRing(QQ, ("x", "y"))
        x, y = R2.variables()

        cusp = BranchParam((t**2, t**3))
        f_cusp = y**2 - x**3
        inv = cid_local_multiplicities([f_cusp], [cusp], [f_cusp])
        assert (inv.m, inv.r, inv.delta, inv.milnor) == (2, 1, 1, 2)
        assert inv.e_ramification == 1
        assert inv.e_jac_ci == 3
        assert inv.cid == 0
        assert inv.cid == cid_local_direct([f_cusp], [f_cusp])

        e6 = BranchParam((t**3, t**4))
        f_e6 = y**3 - x**4
        inv6 = cid_local_multiplicities([f_e6], [e6], [f_e6])
        assert inv6.delta == 3
        assert inv6.milnor == 6
        assert inv6.e_jac_ci == 8
        assert inv6.cid == cid_local_direct([f_e6], [f_e6]) == 0

        weighted = BranchParam((t**4, t**6 + t**7))
        assert delta_invariant([weighted]) == 8
        assert milnor_number([weighted]) == 16

        node = [BranchParam((t, T.zero()), "a"),
                BranchParam((T.zero(), t), "b")]
        node_inv = germ_invariants(node)
        assert node_inv.delta == 1
        assert node_inv.milnor == 1
        assert node_inv.r == 2
        f_node = x * y
        full = cid_local_multiplicities([f_node], node, [f_node])
        assert full.cid == cid_local_direct([f_node], [f_node]) == 0

        # a germ with nonzero discrepancy: both routes agree
        R3 = PolyRing(QQ, ("x", "y", "z"))
        x3, y3, z3 = R3.variables()
        space_gens = [x3 * z3 - y3**2, x3**3 - y3 * z3, x3**2 * y3 - z3**2]
        branch = BranchParam((t**3, t**4, t**5))
        z_germ = general_ci_germ(space_gens, seed=1)
        space = cid_local_multiplicities(space_gens, [branch], z_germ)
        assert space.cid == cid_local_direct(space_gens, z_germ) == 2


def test_criterion_7_characteristic_p():
    with criterion(7, "wild versus tame ramification", 1.0):
        T = PolyRing(QQ, ("t",))
        t = T.variable(0)
        tame_branch = BranchParam((t**5, t**6))
        assert e_ramification([tame_branch]) == 4
        assert is_tame([tame_branch])

        T5 = PolyRing(Field.prime_field(5), ("t",))
        t5 = T5.variable(0)
        wild = BranchParam((t5**5, t5**6))
        assert e_ramification([wild]) == 5
        assert not is_tame([wild])


def test_criterion_8_omega_jacobian():
    with criterion(8, "canonical-module Jacobian comparison", 10.0):
        tc = tc_curve()
        witness = construct_ci(tc, seed=0)
        assert omega_matches_jacobian(tc.ideal(), witness)

        ring = PolyRing(QQ, ("x", "y", "z"))
        x, y, z = ring.variables()
        fermat = CurveInput(ring, [x**3 + y**3 + z**3])
        assert omega_matches_jacobian(fermat.ideal(),
                                      construct_ci(fermat, seed=0))

        assert jacobian_cover_check(tc, seed=0)
        assert not jacobian_cover_check(tc, seed=0, degenerate=True)


def test_criterion_9_property_suite():
    with criterion(9, "randomized algebra properties", 60.0):
        ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"))
        tc = tc_curve()
        i_x = tc.ideal()

        # double linkage returns the curve, across seeds
        for seed in (0, 1, 2):
            witness = construct_ci(tc, seed=seed)
            i_z = Ideal(ring, list(witness.F))
            i_w = quotient(i_z, i_x)
            back = quotient(i_z, i_w)
            assert ideal_equal(saturate_irrelevant(back),
                               saturate_irrelevant(i_x))

        # witness-seed independence of the discrepancy
        data = rnc_instances()
        for n in (3, 4, 5):
            _, rows = data[n]
            values = {report.cid for _, report in rows.values()}
            assert len(values) == 1

        # saturation and quotient laws on seeded ideals
        x0, x1, x2, x3 = ring.variables()
        rng = SplitMix64(99)
        for _ in range(3):
            f = _random_form(ring, 2, rng)
            g = _random_form(ring, 1, rng)
            a = Ideal(ring, [f * g, f * f])
            sat = saturate(a, Ideal(ring, [f]))
            assert ideal_equal(saturate(sat, Ideal(ring, [f])), sat)
            quo = quotient(a, Ideal(ring, [g]))
            gb_a = a.gb()
            for h in quo.generators:
                assert gb_a.contains(h * g)

        # vdim does not depend on the monomial order: a hyperplane
        # section of the cubic is three points in the affine chart
        from cidcurve import LEX
        from cidcurve.hilbert import _h_polynomial

        section = chart_ideal(ideal_sum(i_x, Ideal(ring, [x0 - x3])),
                              Chart.from_form(x0))
        lex = section.gb(LEX).hilbert.numerator
        arity = section.ring.arity
        assert vdim(section) == sum(_h_polynomial(lex, arity)) == 3

        # the degree bound for smoothable curves is attained by the
        # twisted cubic: bound(3, 2) = 3 = its degree
        assert degree_lower_bound(3, 2) == 3
        from cidcurve import proj_degree

        assert proj_degree(i_x) == 3
