"""Exception types shared across the toolkit.

Every failure mode that a caller can act on gets its own class.  All of
them derive from CidError so a CLI or test harness can catch the whole
family at once; mathematical precondition failures are distinguished
from input syntax problems by the MathPrecondition marker base.
"""


class CidError(Exception):
    """Base class for all toolkit errors."""


class InputError(CidError):
    """Bad input text or malformed job description (CLI exit code 1)."""


class MathPrecondition(CidError):
    """A mathematical precondition failed (CLI exit code 2)."""


# --- scalars -----------------------------------------------------------

class DivisionByZero(MathPrecondition, ZeroDivisionError):
    """Division by the zero scalar or zero polynomial."""


class NotPrime(InputError):
    """Requested positive characteristic is not a prime number."""


# --- polynomials -------------------------------------------------------

class ParseError(InputError):
    """Syntax error in polynomial or file input; carries line/column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnknownVariable(ParseError):
    """A name in the input is not a variable of the ring."""


class RingMismatch(MathPrecondition):
    """Operands belong to different polynomial rings."""


class IndexOutOfRange(MathPrecondition, IndexError):
    """Variable index outside the ring arity."""


class NotLinear(MathPrecondition):
    """A linear form was required."""


class NotHomogeneous(MathPrecondition):
    """A homogeneous polynomial or ideal was required."""


# --- ideal operations --------------------------------------------------

class DivisionFailure(MathPrecondition):
    """Internal exact division left a remainder; indicates a bug upstream."""


class NotZeroDimensional(MathPrecondition):
    """A zero-dimensional ideal/scheme was required."""


class PrecisionCapExceeded(MathPrecondition):
    """An iterative computation hit its precision cap before stabilizing."""

    def __init__(self, message, cap=None):
        self.cap = cap
        super().__init__(message)


class NotSaturated(MathPrecondition):
    """Input ideal is not saturated and auto-saturation was not requested."""


class NotACurve(MathPrecondition):
    """The projective scheme is not one-dimensional."""


# --- linkage construction ----------------------------------------------

class MaxAttemptsExceeded(MathPrecondition):
    """Random choices failed the construction tests on every attempt."""

    def __init__(self, message, failures=None):
        self.failures = dict(failures or {})
        super().__init__(message)


class NotGenericallyCI(MathPrecondition):
    """Input curve is not generically a complete intersection."""

    def __init__(self, message, failures=None):
        self.failures = dict(failures or {})
        super().__init__(message)


class WrongCharacteristic(MathPrecondition):
    """Operation requires characteristic zero."""


class ExhaustedCandidates(MathPrecondition):
    """No acceptable linear form found among coordinate and random candidates."""


# --- discrepancy routes ------------------------------------------------

class ChartMeetsIntersection(MathPrecondition):
    """Chosen affine chart hyperplane meets the finite scheme being measured."""


class NotSmooth(MathPrecondition):
    """Smoothness was required but the singular locus is nonempty."""


class NotContained(MathPrecondition):
    """Expected ideal containment does not hold."""


class BadCodim(MathPrecondition):
    """Jacobian minor size does not match the requested codimension."""


class TooManySubsets(MathPrecondition):
    """Generator subset enumeration would exceed the configured guard."""


class OutOfHypothesis(MathPrecondition):
    """Numeric hypothesis of a formula (e.g. n >= 3, d >= 2) violated."""


class RouteDisagreement(MathPrecondition):
    """Independent discrepancy routes returned different values."""


class NotSmoothableRoute(MathPrecondition):
    """The saturation route alone disagrees with the others, which is
    the signature of a curve that is not a reduced local complete
    intersection (so that route's hypothesis fails)."""


# --- local germs -------------------------------------------------------

class EmptyInput(InputError):
    """No branches (or no generators) were supplied."""


class DerivativeVanishes(MathPrecondition):
    """All branch derivatives vanish identically (inseparable parametrization)."""


class NotPrimitive(MathPrecondition):
    """Branch parametrization is not primitive (attained orders share a factor)."""


class NotMPrimary(MathPrecondition):
    """Ideal pullback vanishes on a branch, so it is not m-primary on the germ."""


class NonNegativityViolation(MathPrecondition):
    """A quantity that must be non-negative came out negative."""


class NotACIPresentation(MathPrecondition):
    """Supplied generators do not present the germ as an almost complete intersection."""
