"""Construction of a linking complete intersection through a curve.

Given generators of the homogeneous ideal of a projective curve X, draw
auxiliary linear forms and upper-triangular coefficient rows to combine
the generators into forms F_1, ..., F_(n-1) inside the curve ideal, one
per required degree, so that Z = V(F_1, ..., F_(n-1)) is a complete
intersection agreeing with X along X.  The residual curve W then links
X geometrically, which is what every downstream discrepancy and genus
computation consumes.

Random draws are certified, never trusted: each attempt runs a battery
of exact tests (expected dimension, reducedness along the input curve,
finitely many singular points of Z for the shared-form variant, a
measuring hyperplane, and the double link: W linked back by Z is X).
A finiteness is a bound on the Krull dimension of an ideal of Z, X or
W (Z's singular points on X and on W), asked of
`ideals.dimension_at_most`, which may answer it mod p and keeps every
bound it proves for the ideal and its extensions; the double link is
the degree and genus relation linkage by Z fixes between X and W, read
off their Hilbert series with no second colon.

The reducedness test asks whether Z's Jacobian scheme on X,
`discrepancy._jacobian_scheme(I_X, F)`, is finite, and that is asked of
the scheme once.  Linkage fixes deg W = prod d_i - deg X (Peskine-Szpiro
1974), so when deg X < prod d_i, W is a curve, which meets X
(Hartshorne's connectedness theorem, 1962) where Z is singular: the
scheme is not empty, and its grevlex basis, which the genus report
reads anyway, is computed at once and answers the test.  Otherwise W is
empty and the test asks whether the scheme is empty, which the mod-p
screen may certify, before it asks whether it is finite.  The chart
test asks whether a hyperplane misses the scheme: each candidate is an
extension of it, so it starts from its basis or reads the bound the
reducedness test kept.  The singular test reads F's minors on W
one at a time through the kernel that decides smoothness
(`discrepancy._minors_reach`) and stops at the first partial minor
ideal that bounds the dimension.

A failing attempt is redrawn, except where no other draw can pass.
On X, F's Jacobian is C times that of I_X's generators, so Z's
Jacobian scheme on X contains Sing(X) for every draw: the first
reducedness failure asks once whether Sing(X) is finite, and if it is
not, X is not generically reduced (`NotGenericallyReduced`).  Linking
back by any Z gives the top-dimensional part of I_X, so the first
double-link failure is final too (`NotGenericallyCI`).  Otherwise the
draws run out as `MaxAttemptsExceeded`.

Certification derives I_Z, the residual I_W = (I_Z : I_X) and the
Jacobian scheme of Z on X; the accepted witness carries all three, so
the discrepancy routes and the genus report read them instead of
deriving them again.  The one linkage colon, I_W, is certified by the
degree linkage fixes (see `ideals.quotient`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import prod

from .discrepancy import (
    _hyperplane_misses,
    _jacobian_scheme,
    _linkage_genus_holds,
    _minors_reach,
    residual,
)
from .errors import (
    EmptyInput,
    ExhaustedCandidates,
    InputError,
    MaxAttemptsExceeded,
    NotACurve,
    NotGenericallyCI,
    NotGenericallyReduced,
    NotHomogeneous,
    NotZeroDimensional,
    RingMismatch,
    WrongCharacteristic,
)
from .hilbert import ci_hilbert_data, hilbert_series
from .ideals import Ideal, _cached_basis, dimension_at_most
from .orders import GREVLEX
from .polynomials import Polynomial, PolyRing
from .rng import SplitMix64

TEST_NAMES = (
    "complete_intersection",
    "reduced_along_input",
    "singular_locus_finite",
    "chart_misses_intersection",
    "double_link",
)


@dataclass(frozen=True)
class CurveInput:
    """A projective curve presented by homogeneous generators.

    Generators are stored sorted by weakly decreasing total degree,
    which is the order the construction consumes them in.
    """

    ring: PolyRing
    generators: tuple

    def __post_init__(self):
        gens = [g for g in self.generators if g]
        if not gens:
            raise EmptyInput("need at least one nonzero generator")
        if self.ring.arity < 3:
            raise InputError("ambient space must be P^2 or larger")
        for g in gens:
            if g.ring != self.ring:
                raise RingMismatch(f"generator {g} lives in a different ring")
            if not g.is_homogeneous():
                raise NotHomogeneous(f"generator {g} is not homogeneous")
            if g.is_constant():
                raise InputError("a constant generator defines no curve")
        ordered = sorted(gens, key=lambda g: -g.total_degree())
        object.__setattr__(self, "generators", tuple(ordered))

    @property
    def n(self) -> int:
        """Dimension of the ambient projective space."""
        return self.ring.arity - 1

    @property
    def r(self) -> int:
        return len(self.generators)

    @property
    def degrees(self) -> tuple:
        return tuple(g.total_degree() for g in self.generators)

    def ideal(self) -> Ideal:
        cached = self.__dict__.get("_ideal")
        if cached is None:
            cached = Ideal(self.ring, list(self.generators))
            self.__dict__["_ideal"] = cached
        return cached


def choose_chart(avoid: Ideal, seed: int = 0) -> Polynomial:
    """A linear form whose hyperplane misses the finite projective locus
    of `avoid`, that is, `avoid` plus the form has Krull dimension 0;
    coordinate forms are tried before random ones.

    A hyperplane lowers the Krull dimension by at most one, so a form
    that passes proves the locus finite.  Only when x0 fails is the
    locus itself bounded, to raise NotZeroDimensional on a
    positive-dimensional one, so a passing x0 asks nothing of it.  Each
    candidate is an extension of `avoid`, so on a locus already proved
    empty x0 passes with no run (`dimension_at_most` keeps the bound),
    and otherwise its run starts from the basis cached on `avoid` or
    below it."""
    ring = avoid.ring
    candidates = [ring.variable(i) for i in range(ring.arity)]
    rng = SplitMix64(seed ^ 0xCAA7)
    for _ in range(12):
        candidates.append(ring.linear_form(rng.vector(ring.field, ring.arity)))
    for k, h in enumerate(candidates):
        if _hyperplane_misses(avoid, h):
            return h
        if not k and not dimension_at_most(avoid, 1):
            raise NotZeroDimensional("locus to avoid has positive dimension")
    raise ExhaustedCandidates("no hyperplane misses the locus to avoid")


@dataclass(frozen=True)
class CIWitness:
    """Accepted construction data: the complete-intersection forms, the
    auxiliary draws that produced them, the measuring hyperplane, and
    the per-test certification outcomes.  The ideals certification
    derived ride along outside equality, repr and `witness_to_dict`:
    i_z = (F), i_w = (I_Z : I_X), and on_curve = I_X plus the Jacobian
    minors of F mod I_X, the scheme h was certified against."""

    F: tuple
    ells: tuple
    coeffs: tuple
    h: Polynomial
    seed: int
    attempts: int
    i_z: Ideal = dc_field(compare=False, repr=False)
    i_w: Ideal = dc_field(compare=False, repr=False)
    on_curve: Ideal = dc_field(compare=False, repr=False)
    tests: dict = dc_field(default_factory=dict)
    transversal: bool = False


def witness_to_dict(witness: CIWitness) -> dict:
    fld = witness.F[0].ring.field
    return {
        "forms": [str(f) for f in witness.F],
        "linear_forms": [str(ell) for ell in witness.ells],
        "coefficients": [[fld.to_str(c) for c in row]
                         for row in witness.coeffs],
        "chart": str(witness.h),
        "seed": witness.seed,
        "attempts": witness.attempts,
        "tests": dict(sorted(witness.tests.items())),
        "transversal": witness.transversal,
    }


def construct_ci(curve: CurveInput, seed: int = 0, max_attempts: int = 24,
                 coeff_matrix=None) -> CIWitness:
    """Linking complete intersection with one fresh auxiliary linear
    form per elimination stage."""
    return _construct(curve, seed, max_attempts, coeff_matrix,
                      transversal=False)


def construct_ci_transversal(curve: CurveInput, seed: int = 0,
                             max_attempts: int = 24,
                             coeff_matrix=None) -> CIWitness:
    """Variant sharing a single general linear form across every row, so
    that for a reduced local complete intersection curve the residual
    meets it transversally.  Requires characteristic zero."""
    if curve.ring.field.characteristic != 0:
        raise WrongCharacteristic(
            "the shared-form variant requires characteristic zero"
        )
    return _construct(curve, seed, max_attempts, coeff_matrix,
                      transversal=True)


def _validate_coeffs(curve: CurveInput, coeff_matrix):
    fld = curve.ring.field
    rows = []
    if len(coeff_matrix) != curve.n - 1:
        raise InputError(
            f"expected {curve.n - 1} coefficient rows, "
            f"got {len(coeff_matrix)}"
        )
    for i, row in enumerate(coeff_matrix):
        row = tuple(fld.from_int(c) if isinstance(c, int) else c for c in row)
        if len(row) != curve.r - i:
            raise InputError(
                f"row {i} must have {curve.r - i} entries, got {len(row)}"
            )
        rows.append(row)
    return tuple(rows)


def _draw_ells(curve: CurveInput, rng: SplitMix64, count: int):
    out = []
    for _ in range(count):
        out.append(curve.ring.linear_form(
            rng.vector(curve.ring.field, curve.ring.arity)))
    return tuple(out)


def _draw_coeffs(curve: CurveInput, rng: SplitMix64):
    return tuple(rng.vector(curve.ring.field, curve.r - i)
                 for i in range(curve.n - 1))


def _combine_rows(curve: CurveInput, ells, coeffs, transversal: bool):
    """F_i = sum over j >= i of b_(i,j) ell^(d_i - d_j) f_j, with the
    stage form for row i being the shared one when transversal, ells[0]
    for the first two rows otherwise, and ells[i-1] after that."""
    degrees = curve.degrees
    forms = []
    for i in range(curve.n - 1):
        ell = ells[-1] if transversal else ells[0] if i <= 1 else ells[i - 1]
        acc = curve.ring.zero()
        for t, j in enumerate(range(i, curve.r)):
            b = coeffs[i][t]
            if not b:
                continue
            term = curve.generators[j].scale(b)
            gap = degrees[i] - degrees[j]
            if gap:
                term = term * ell**gap
            acc = acc + term
        forms.append(acc)
    return tuple(forms)


def _plane_curve_witness(curve: CurveInput, seed: int,
                         transversal: bool) -> CIWitness:
    """In P^2 the curve is already a hypersurface, so Z = X and the
    residual is empty; only a measuring chart needs choosing."""
    if curve.r != 1:
        raise InputError("a plane curve must be given by a single form")
    i_x = curve.ideal()
    F = (curve.generators[0],)
    on_curve = _jacobian_scheme(i_x, F)  # X's singular locus
    try:
        h = choose_chart(on_curve, seed=seed)
    except NotZeroDimensional:
        # Singular locus is a curve (non-reduced input); the residual is
        # still empty, so any chart measures the empty intersection.
        h = curve.ring.variable(0)
    tests = {
        "complete_intersection": True,
        "chart_misses_intersection": True,
        "double_link": True,
    }
    return CIWitness(F=F, ells=(), coeffs=((curve.ring.field.one(),),),
                     h=h, seed=seed, attempts=1, i_z=i_x,
                     i_w=Ideal(curve.ring, [curve.ring.one()]),
                     on_curve=on_curve, tests=tests, transversal=transversal)


def _is_complete_intersection(i_z: Ideal) -> bool:
    """Whether the n - 1 nonzero forms generating i_z cut out a curve.

    n - 1 forms force dimension >= 2, so <= 2 is the whole test.  Forms
    of degrees d_i have at least the series of a complete intersection,
    prod (1 - t^d_i) / (1 - t)^(n + 1), in every degree: the degree-k
    part of the ideal is the image of (a_i) -> sum a_i F_i, whose rank
    is largest for generic forms, and generic forms are a regular
    sequence.  So that series is a lower bound that the grevlex basis
    takes as its target (`ideals._cached_basis`), skipping the S-pairs
    of every degree where its leading monomials reach it, and reaching
    it in every degree proves the forms a regular sequence; forms that
    are not one fall short of it in some degree, whose pairs their basis
    still reduces."""
    degrees = [f.total_degree() for f in i_z.generators]
    _cached_basis(i_z, GREVLEX,
                  ci_hilbert_data(degrees, i_z.ring.arity).numerator)
    return dimension_at_most(i_z, 2)


def _finite(scheme: Ideal) -> bool:
    """Whether the homogeneous `scheme` cuts out a finite projective
    scheme, dim <= 1, asked after dim <= 0: an empty scheme keeps the
    mod-p screen, and a no caches the basis the second question reads.
    Either certified bound is kept on `scheme` (`dimension_at_most`)."""
    return dimension_at_most(scheme, 0) or dimension_at_most(scheme, 1)


def _construct(curve: CurveInput, seed: int, max_attempts: int,
               coeff_matrix, transversal: bool) -> CIWitness:
    if max_attempts < 1:
        raise InputError(
            f"max_attempts must be at least 1, not {max_attempts}")
    if curve.n == 2:
        return _plane_curve_witness(curve, seed, transversal)
    if curve.r < curve.n - 1:
        raise InputError(
            f"{curve.r} generators cannot span {curve.n - 1} "
            "complete-intersection forms"
        )
    n_ells = 1 if transversal else curve.n - 2
    if coeff_matrix is not None:
        coeff_matrix = _validate_coeffs(curve, coeff_matrix)

    i_x = curve.ideal()
    data_x = hilbert_series(i_x)
    if data_x.krull_dim != 2:
        raise NotACurve(
            f"projective dimension is {data_x.krull_dim - 1}, not 1")
    degrees = curve.degrees[: curve.n - 1]
    sigma = sum(d - 1 for d in degrees)
    tallies = {name: 0 for name in TEST_NAMES}
    attempts_allowed = 1 if coeff_matrix is not None else max_attempts
    singular_finite = None  # whether Sing(X) is finite, asked at most once

    for attempt in range(1, attempts_allowed + 1):
        rng = SplitMix64(seed).derive(attempt)
        ells = _draw_ells(curve, rng, n_ells)
        coeffs = coeff_matrix if coeff_matrix is not None else _draw_coeffs(
            curve, rng)
        F = _combine_rows(curve, ells, coeffs, transversal)
        tests = {}

        def record(name, verdict):
            tests[name] = verdict
            tallies[name] += not verdict
            return verdict

        i_z = Ideal(curve.ring, list(F))
        if not record("complete_intersection",
                      all(F) and _is_complete_intersection(i_z)):
            continue

        on_curve = _jacobian_scheme(i_x, F)
        if data_x.degree < prod(degrees):
            # deg W = prod d_i - deg X (Peskine-Szpiro 1974), so W is a
            # curve, which meets X (Hartshorne 1962) where Z is singular:
            # on_curve is not empty, and the genus report reads its
            # grevlex basis (smoothness, the Jacobian length).  Computed
            # now, it answers the finiteness below, and every chart
            # candidate is a one-generator extension of it
            on_curve.gb()
        if not record("reduced_along_input", _finite(on_curve)):
            # on X, F's Jacobian is C times that of I_X's generators, so
            # by Cauchy-Binet on_curve contains Sing(X) for every draw;
            # over a perfect field Sing(X) is finite exactly when X is
            # generically reduced
            if singular_finite is None:
                singular_finite = _minors_reach(i_x, i_x.generators, 1,
                                                shuffled=True)
            if not singular_finite:
                raise NotGenericallyReduced(
                    "the curve has infinitely many singular points, so it "
                    "is not generically reduced and no complete "
                    "intersection through it is reduced along it",
                    failures=tallies,
                )
            continue

        i_w = residual(i_z, i_x)
        # V(I_Z) = V(I_X) u V(I_W), and Z's Jacobian scheme on X is
        # on_curve, finite once reduced_along_input passes.  So Z has
        # finitely many singular points exactly when I_W plus F's
        # minors has dimension <= 1; minors are drawn in plain order
        # and the first one mod I_W usually settles it.
        if transversal and not record(
                "singular_locus_finite",
                _minors_reach(i_w, F, 1, shuffled=False)):
            continue

        try:
            h = choose_chart(on_curve, seed=seed ^ attempt)
        except ExhaustedCandidates:
            h = None
        if not record("chart_misses_intersection", h is not None):
            continue

        # I_W is a colon into the unmixed I_Z, so it is unmixed, and
        # back = (I_Z : I_W) is linked to W by Z: linkage fixes its
        # Hilbert polynomial from W's (Peskine-Szpiro 1974).  back has
        # I_X's Hilbert polynomial, which is back = I_X^sat, exactly when
        # deg X + deg W = prod d_i and the linkage genus relation holds.
        # Both series are cached: I_X's by the curve check above, I_W's
        # by the degree certificate of its colon.  For every complete
        # intersection of X's dimension through X, back is the
        # top-dimensional part of I_X, so the verdict is X's alone.
        data_w = hilbert_series(i_w)
        if not record("double_link",
                      data_x.degree + data_w.degree == prod(degrees)
                      and _linkage_genus_holds(data_x, data_w, sigma)):
            raise NotGenericallyCI(
                "the double-link test failed, and no other draw can pass "
                "it: linking twice returns the curve's top-dimensional "
                "part, whose Hilbert polynomial is not the curve's; the "
                "curve does not look generically like a complete "
                "intersection",
                failures=tallies,
            )

        return CIWitness(F=F, ells=ells, coeffs=coeffs, h=h, seed=seed,
                         attempts=attempt, i_z=i_z, i_w=i_w,
                         on_curve=on_curve, tests=tests,
                         transversal=transversal)

    raise MaxAttemptsExceeded(
        f"no draw passed certification in {attempts_allowed} attempts",
        failures=tallies,
    )
