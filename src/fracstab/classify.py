"""Exact stability decision procedures in the (a11, a22) plane.

Two order-independent regions settle a system regardless of (q1, q2):

    R_u(delta) = { a11 + a22 >= delta + 1 }  or  { a11 > 0, a22 > 0, a11*a22 >= delta }
    R_s(delta) = { a11 + a22 < 0  and  max(a11, a22) < min(1, delta) }

(unstable and stable respectively, for delta > 0; delta < 0 is unstable
outright). Everything in between is order-dependent and decided by the sign
of the margin a22 - phi(a11) relative to the critical curve: below the curve
the system is asymptotically stable with algebraic decay exponent
min(q1, q2), above it unstable, and points on the curve carry pure imaginary
roots and are reported as marginal, never silently resolved. phi comes from
the crossing frequency omega* of the roots +-i*omega*, by one exact solver
for every order pair, equal and near-equal orders included (curve.py).

The (q1, q2) rasters of qscan and qscan_verdicts run the region test once per
system, because its verdict does not depend on the orders, and otherwise find
omega* for every cell at once by the Newton iteration that the scalar phi
runs, applied to arrays (curve.phi_orders).

A margin inside the tie band 1e-12*(|a22| + T_phi) is marginal, with T_phi
the sum of the moduli of phi's terms (curve.phi_terms). The band is relative
to the magnitudes the margin is computed from, so a time scaling
(a11, a22, delta) -> (a11*c^q1, a22*c^q2, delta*c^(q1+q2)), which moves
every root along its ray, changes no verdict. One rule (_side_of_gamma)
compares margin and band for classify and the rasters alike, and one table
(_CODES) gives each verdict kind its raster code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chareq import SystemSpec
from .curve import CurveParams, phi_orders, phi_terms
from .errors import DeltaNotPositive, DeltaZeroUnclassified, DomainError

__all__ = [
    "VerdictKind",
    "Reason",
    "Verdict",
    "RegionMembership",
    "region_membership",
    "classify_order_independent",
    "classify",
    "qscan",
    "qscan_verdicts",
    "a2_inequality_check",
    "tie_tolerance",
]


class VerdictKind(str, Enum):
    UnstableAllOrders = "UnstableAllOrders"
    StableAllOrders = "StableAllOrders"
    StableForOrders = "StableForOrders"
    UnstableForOrders = "UnstableForOrders"
    MarginalOnCurve = "MarginalOnCurve"


class Reason(str, Enum):
    NegativeDelta = "NegativeDelta"
    SumExceedsDeltaPlusOne = "SumExceedsDeltaPlusOne"
    PositiveProductExceedsDelta = "PositiveProductExceedsDelta"
    RsMembership = "RsMembership"
    BelowGamma = "BelowGamma"
    AboveGamma = "AboveGamma"
    OnGamma = "OnGamma"


# the tie band's multiple of the magnitudes of a22 and phi's terms
_KAPPA = 1e-12

# the raster code of each verdict kind: 1 stable, 0 unstable, 2 marginal
_CODES = {
    VerdictKind.UnstableAllOrders: 0,
    VerdictKind.StableAllOrders: 1,
    VerdictKind.StableForOrders: 1,
    VerdictKind.UnstableForOrders: 0,
    VerdictKind.MarginalOnCurve: 2,
}
# the order-dependent verdict of each code of _side_of_gamma
_SIDES = {
    1: (VerdictKind.StableForOrders, Reason.BelowGamma),
    0: (VerdictKind.UnstableForOrders, Reason.AboveGamma),
    2: (VerdictKind.MarginalOnCurve, Reason.OnGamma),
}


@dataclass(frozen=True)
class Verdict:
    """Classification outcome together with the rule that produced it.

    margin is the signed distance a22 - phi(a11) when the order-dependent test
    ran, else 0, and tie_band the tie_tolerance it was compared against
    (|margin| <= tie_band is marginal), else 0. decay_exponent = min(q1, q2)
    is attached to stable verdicts produced with known orders; phi_value is
    set whenever phi was computed.
    """

    kind: VerdictKind
    reason: Reason
    margin: float = 0.0
    decay_exponent: float | None = None
    phi_value: float | None = None
    tie_band: float = 0.0

    @property
    def is_stable(self) -> bool:
        return _CODES[self.kind] == 1

    @property
    def is_unstable(self) -> bool:
        return _CODES[self.kind] == 0


@dataclass(frozen=True)
class RegionMembership:
    in_ru: bool
    in_rs: bool


def tie_tolerance(a22, phi_value, phi_terms):
    """Half-width of the marginal band around the curve: 1e-12 * (|a22| + T_phi).

    T_phi is the sum of the moduli of phi's terms (curve.phi_terms), so the
    band scales with the margin under time scaling. Against 50 digits the
    margin's error stays below an eighth of the band (tests/test_classify.py),
    so a margin outside the band has the sign of the exact one. Where phi is
    +-inf the margin is infinite and the band is 0. Takes floats or arrays.
    """
    band = _KAPPA * (np.abs(a22) + phi_terms)
    return np.where(np.isinf(phi_value), 0.0, band)


def _side_of_gamma(a22, phi_value, phi_terms):
    """(code, margin, band) of a22 against phi: the order-dependent decision.

    margin = a22 - phi and band = tie_tolerance; code is 1 below the band
    (margin < -band), 0 above it (margin > band) and 2 inside it, |margin| =
    band and a NaN margin included. Takes floats or arrays; code is int8.
    """
    margin = a22 - phi_value
    band = tie_tolerance(a22, phi_value, phi_terms)
    code = np.int8(2) - (margin < -band) - np.int8(2) * (margin > band)
    return code, margin, band


def region_membership(a11: float, a22: float, delta: float) -> RegionMembership:
    """Literal membership in R_u(delta) and R_s(delta); defined for delta > 0 only.

    Read off classify_order_independent, which holds the inequalities with
    their exact strictness: R_u uses >= on both branches, R_s uses strict <.
    The two regions are disjoint.
    """
    if not delta > 0.0:
        raise DeltaNotPositive(f"R_u/R_s are defined for delta > 0, got {delta!r}")
    v = classify_order_independent(a11, a22, delta)
    return RegionMembership(in_ru=v is not None and v.is_unstable, in_rs=v is not None and v.is_stable)


def classify_order_independent(a11: float, a22: float, delta: float) -> Verdict | None:
    """The order-independent rules alone; None when they are silent.

    delta < 0 is unstable for every order pair; for delta > 0, membership in
    R_u or R_s settles the system, each inequality evaluated once. delta = 0
    is never settled here, and a NaN delta (an overflowed det) raises
    DeltaNotPositive.
    """
    if delta < 0.0:
        return Verdict(VerdictKind.UnstableAllOrders, Reason.NegativeDelta)
    if delta == 0.0:
        return None
    if not delta > 0.0:
        raise DeltaNotPositive(f"R_u/R_s are defined for delta > 0, got {delta!r}")
    if a11 + a22 >= delta + 1.0:
        return Verdict(VerdictKind.UnstableAllOrders, Reason.SumExceedsDeltaPlusOne)
    if a11 > 0.0 and a22 > 0.0 and a11 * a22 >= delta:
        return Verdict(VerdictKind.UnstableAllOrders, Reason.PositiveProductExceedsDelta)
    if a11 + a22 < 0.0 and max(a11, a22) < min(1.0, delta):
        return Verdict(VerdictKind.StableAllOrders, Reason.RsMembership)
    return None


def _classify_params(
    a11: float, a22: float, delta: float, q1: float, q2: float
) -> Verdict:
    oi = classify_order_independent(a11, a22, delta)
    if oi is not None:
        kind, reason, margin, phi_val, band = oi.kind, oi.reason, 0.0, None, 0.0
    elif delta == 0.0:
        raise DeltaZeroUnclassified(
            "delta = 0 and no order-independent rule applies; "
            "the region tests assume det(A) != 0"
        )
    else:
        phi_val, terms = phi_terms(CurveParams(delta, q1, q2), a11)
        code, margin, band = _side_of_gamma(a22, phi_val, terms)
        kind, reason = _SIDES[int(code)]
        band = float(band)
    decay = min(q1, q2) if _CODES[kind] == 1 else None
    return Verdict(kind, reason, margin, decay, phi_val, band)


def classify(s: SystemSpec) -> Verdict:
    """Full decision for a system: order-independent rules first, then the
    phi margin test. Raises DeltaZeroUnclassified when det(A) = 0 falls
    through the order-independent rules."""
    return _classify_params(s.a11, s.a22, s.delta(), s.q1, s.q2)


def qscan(a11: float, a22: float, delta: float, grid_n: int) -> np.ndarray:
    """Boolean stability raster over (q1, q2) in (0, 1]^2.

    Cell [j-1, k-1] is True iff the system is classified stable at
    q1 = j/grid_n, q2 = k/grid_n (j, k = 1..grid_n). Marginal cells are False
    here; use qscan_verdicts, which decides the raster, to keep them
    distinguishable.
    """
    return np.asarray(qscan_verdicts(a11, a22, delta, grid_n) == 1)


def qscan_verdicts(a11: float, a22: float, delta: float, grid_n: int) -> np.ndarray:
    """Ternary raster over (q1, q2): 0 unstable, 1 stable, 2 marginal.

    Cell [j-1, k-1] holds the verdict of classify at q1 = j/grid_n,
    q2 = k/grid_n. The order-independent rules run once, since their verdict
    holds for every cell; when they are silent, phi_orders finds phi and
    T_phi in every cell at once and _side_of_gamma, the rule classify
    applies, decides every cell.
    """
    if not delta > 0.0:
        raise DeltaNotPositive(f"qscan requires delta > 0, got {delta!r}")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n!r}")
    oi = classify_order_independent(a11, a22, delta)
    if oi is not None:
        return np.full((grid_n, grid_n), _CODES[oi.kind], dtype=np.int8)
    q = np.arange(1, grid_n + 1) / grid_n
    return _side_of_gamma(a22, *phi_orders(delta, a11, q[:, None], q[None, :]))[0]


def a2_inequality_check(x: float, y: float, alpha: float) -> bool:
    """Check alpha^y*cos(y) + alpha^(y-x)*cos(y-x) + alpha^(-x)*cos(x) >= 1.

    Stated for x, y in [0, pi/2] and alpha > 0; the comparison allows
    numerical slack of 1e-12 on the >= side. This inequality is what forces
    the curve family to stay clear of the third quadrant.
    """
    half_pi = math.pi / 2.0
    if not (0.0 <= x <= half_pi and 0.0 <= y <= half_pi):
        raise DomainError(f"(x, y) must lie in [0, pi/2]^2, got ({x}, {y})")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be finite and > 0, got {alpha!r}")
    value = (
        alpha**y * math.cos(y)
        + alpha ** (y - x) * math.cos(y - x)
        + alpha ** (-x) * math.cos(x)
    )
    return value >= 1.0 - 1e-12
