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
existence of a measuring hyperplane, and the double-link identity that
coloning W back out of Z recovers X).  Every test is read off the
grevlex Hilbert series of an ideal at hand: a dimension or a finiteness
is its Krull dimension, and the double link compares two Hilbert
polynomials.  A failing attempt is discarded and redrawn; persistent
double-link failure is reported as evidence that the input curve is not
generically a complete intersection.

Certification derives I_Z, the residual I_W = (I_Z : I_X) and the
Jacobian scheme of Z on X; the accepted witness carries all three, so
the discrepancy routes and the genus report read them instead of
deriving them again.  Both linkage colons, I_W and the double-link
colon (I_Z : I_W), are certified by the degree linkage fixes (see
`ideals.colon_certified`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .discrepancy import jacobian_ideal, residual
from .errors import (
    EmptyInput,
    ExhaustedCandidates,
    InputError,
    MaxAttemptsExceeded,
    NotACurve,
    NotContained,
    NotGenericallyCI,
    NotHomogeneous,
    NotLinear,
    NotZeroDimensional,
    RingMismatch,
    WrongCharacteristic,
)
from .hilbert import hilbert_polynomial, krull_dimension
from .ideals import Ideal, colon_certified, ideal_sum
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
    coordinate forms are tried before random ones."""
    ring = avoid.ring
    if not avoid.is_unit() and krull_dimension(avoid) > 1:
        raise NotZeroDimensional("locus to avoid has positive dimension")
    candidates = [ring.variable(i) for i in range(ring.arity)]
    rng = SplitMix64(seed ^ 0xCAA7)
    for _ in range(12):
        coeffs = [ring.field.from_int(rng.unit_coefficient())
                  for _ in range(ring.arity)]
        candidates.append(ring.linear_form(coeffs))
    for h in candidates:
        if krull_dimension(Ideal(ring, list(avoid.generators) + [h])) == 0:
            return h
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
                 coeff_matrix=None, ells=None) -> CIWitness:
    """Linking complete intersection with one fresh auxiliary linear
    form per elimination stage."""
    return _construct(curve, seed, max_attempts, coeff_matrix, ells,
                      transversal=False)


def construct_ci_transversal(curve: CurveInput, seed: int = 0,
                             max_attempts: int = 24, coeff_matrix=None,
                             ells=None) -> CIWitness:
    """Variant sharing a single general linear form across every row, so
    that for a reduced local complete intersection curve the residual
    meets it transversally.  Requires characteristic zero."""
    if curve.ring.field.characteristic != 0:
        raise WrongCharacteristic(
            "the shared-form variant requires characteristic zero"
        )
    return _construct(curve, seed, max_attempts, coeff_matrix, ells,
                      transversal=True)


def _validate_ells(curve: CurveInput, ells, expected: int):
    ells = tuple(ells)
    if len(ells) != expected:
        raise InputError(f"expected {expected} linear forms, got {len(ells)}")
    for ell in ells:
        if ell.ring != curve.ring:
            raise RingMismatch("auxiliary form lives in a different ring")
        if not ell.is_linear_form():
            raise NotLinear(f"auxiliary form {ell} is not linear")
    return ells


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
        coeffs = [curve.ring.field.from_int(rng.unit_coefficient())
                  for _ in range(curve.ring.arity)]
        out.append(curve.ring.linear_form(coeffs))
    return tuple(out)


def _draw_coeffs(curve: CurveInput, rng: SplitMix64):
    fld = curve.ring.field
    return tuple(
        tuple(fld.from_int(rng.unit_coefficient())
              for _ in range(curve.r - i))
        for i in range(curve.n - 1)
    )


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
    on_curve = ideal_sum(i_x, jacobian_ideal(F, 1, ambient=i_x))
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
                     i_w=residual(i_x, i_x), on_curve=on_curve,
                     tests=tests, transversal=transversal)


def _construct(curve: CurveInput, seed: int, max_attempts: int,
               coeff_matrix, ells_arg, transversal: bool) -> CIWitness:
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
    if ells_arg is not None:
        ells_arg = _validate_ells(curve, ells_arg, n_ells)
    if coeff_matrix is not None:
        coeff_matrix = _validate_coeffs(curve, coeff_matrix)

    i_x = curve.ideal()
    gb_x = i_x.gb()
    dim_x = krull_dimension(i_x)
    if dim_x != 2:
        raise NotACurve(f"projective dimension is {dim_x - 1}, not 1")
    tallies = {name: 0 for name in TEST_NAMES}
    attempts_allowed = 1 if coeff_matrix is not None else max_attempts

    for attempt in range(1, attempts_allowed + 1):
        rng = SplitMix64(seed).derive(attempt)
        ells = ells_arg if ells_arg is not None else _draw_ells(
            curve, rng, n_ells)
        coeffs = coeff_matrix if coeff_matrix is not None else _draw_coeffs(
            curve, rng)
        F = _combine_rows(curve, ells, coeffs, transversal)
        for f in F:
            if not gb_x.contains(f):
                raise NotContained(f"witness form {f} is not in I_X")
        tests = {}

        def record(name, verdict):
            tests[name] = verdict
            tallies[name] += not verdict
            return verdict

        i_z = Ideal(curve.ring, list(F))
        # n-1 forms force dimension >= 2, so <= 2 is the whole test
        if not record("complete_intersection",
                      all(F) and krull_dimension(i_z) <= 2):
            continue

        jac = jacobian_ideal(F, curve.n - 1, ambient=i_x)
        on_curve = ideal_sum(i_x, jac)
        along = Ideal(curve.ring, list(on_curve.generators) + [ells[-1]])
        if not record("reduced_along_input", krull_dimension(along) == 0):
            continue

        if transversal:
            full_jac = jacobian_ideal(F, curve.n - 1)
            if not record("singular_locus_finite",
                          krull_dimension(ideal_sum(i_z, full_jac)) <= 1):
                continue

        try:
            h = choose_chart(on_curve, seed=seed ^ attempt)
        except (NotZeroDimensional, ExhaustedCandidates):
            h = None
        if not record("chart_misses_intersection", h is not None):
            continue

        i_w = residual(i_z, i_x, seed=seed ^ attempt)
        back = colon_certified(i_z, i_w, seed=seed ^ attempt)
        # back = I_X^sat, decided by Hilbert polynomials alone.  I_Z is
        # a complete intersection, hence saturated, so back = (I_Z : I_W)
        # is saturated too.  I_X * I_W lies in I_Z, so back contains I_X
        # and with it I_X^sat.  Saturated ideals J' ⊇ J with the same
        # Hilbert polynomial are equal (J'/J vanishes in high degrees),
        # and I_X has the Hilbert polynomial of I_X^sat.  Both series
        # are cached already: back's by the degree certificate, I_X's
        # by the curve check above.
        if not record("double_link",
                      hilbert_polynomial(back) == hilbert_polynomial(i_x)):
            continue

        return CIWitness(F=F, ells=ells, coeffs=coeffs, h=h, seed=seed,
                         attempts=attempt, i_z=i_z, i_w=i_w,
                         on_curve=on_curve, tests=tests,
                         transversal=transversal)

    if tallies["double_link"] == attempts_allowed:
        raise NotGenericallyCI(
            "every attempt failed the double-link test; the curve does "
            "not look generically like a complete intersection",
            failures=tallies,
        )
    raise MaxAttemptsExceeded(
        f"no draw passed certification in {attempts_allowed} attempts",
        failures=tallies,
    )
