"""Exception types shared across the package.

Every error raised by fracstab derives from FracstabError, so callers can
catch the whole family with one clause while tests pin the exact subtype.
"""

__all__ = [
    "FracstabError",
    "BracketFailure",
    "DeltaNotPositive",
    "DeltaZeroUnclassified",
    "ContourThroughRoot",
    "AnnulusOutOfRange",
    "RefinementLimit",
    "NotRational",
    "StepCap",
    "NotDecaying",
    "SingularStep",
]


class FracstabError(Exception):
    """Base class for all fracstab errors."""


class BracketFailure(FracstabError):
    """Newton for omega* did not settle within its step cap or left a residual above 1e-10."""


class DeltaNotPositive(FracstabError):
    """An operation defined only for det(A) > 0 received delta <= 0."""


class DeltaZeroUnclassified(FracstabError):
    """delta == 0 and no order-independent rule applies; the theory is silent here."""


class ContourThroughRoot(FracstabError):
    """A root of Delta lies on a winding contour to working precision, so it cannot be counted.

    Raised when |Delta| at a contour sample is within Delta's rounding bound
    (chareq.delta_rounding_bound, relative to the term majorant), or when a
    phase step still jumps by pi/2 or more after the last bisection. A
    system on the critical curve, with roots on the imaginary axis, raises
    it from count_unstable_roots; the CLI exits 2.
    """


class AnnulusOutOfRange(FracstabError):
    """The root annulus [l, L] leaves [1e-300, 1e300], or Delta's terms overflow a double on it."""


class RefinementLimit(FracstabError):
    """A winding did not settle to a nonnegative integer, or the locator could not place its roots.

    polish_unstable_roots raises it when its count is neither the number of
    positive real roots nor 2 with no positive real root, when a22 does not
    lie above phi(a11), when the continuation from Gamma stalls (a step too
    small to move a22, as at a double root where the pair meets the real
    axis) or when it ends outside Re s >= 0, Im s > 0; a wrong expected count
    ends here.
    """


class NotRational(FracstabError):
    """Orders are not exact rationals with the requested denominators."""


class StepCap(FracstabError):
    """The requested time grid exceeds the integrator's step cap."""


class NotDecaying(FracstabError):
    """Decay estimation was asked for a trajectory whose norm did not shrink."""


class SingularStep(FracstabError):
    """The implicit step's matrix I - Wc A is singular to rounding, or its determinant is not finite."""
