"""The critical curve Gamma(delta, q1, q2) and its boundary function phi.

For delta > 0 the set of (a11, a22) where Delta has a pair of pure imaginary
roots is a smooth parametric curve

    a11(w) = delta^(q1/(q1+q2)) * h(w, q1, q2)
    a22(w) = delta^(q2/(q1+q2)) * h(-w, q1, q2)

with

    h(w, q1, q2) = rho2 * exp(q1*w) - rho1 * exp(-q2*w),
    rho_k = sin(q_k*pi/2) / sin((q2-q1)*pi/2),          q1 != q2,

and, in the commensurate limit q1 = q2 = q, the straight line parametrized by
h(w, q, q) = cos(q*pi/2) - w. The curve is the graph of a decreasing concave
bijection a22 = phi(a11); the sign of a22 - phi(a11) is the whole
order-dependent stability test.

h is strictly monotone in w: increasing for q1 < q2 and decreasing for q1 > q2
(rho1, rho2 share the sign of q2 - q1, so both terms of dh/dw carry it), which
makes a11(w) strictly monotone and the inversion a bisection problem. The
commensurate h is decreasing by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, CommensurateOrders
from .chareq import _check_order

__all__ = [
    "EPS_COMM",
    "CurveParams",
    "CurvePoint",
    "rho",
    "h_func",
    "curve_point",
    "solve_omega_star",
    "phi",
    "phi_orders",
    "sample_curve",
    "u_max",
]

# Below this order gap rho1, rho2 lose all precision (1/sin of a tiny angle);
# the curve as a point set converges to the commensurate line, so we switch
# formulas there. Documented approximation zone: w values are not comparable
# across the switch.
EPS_COMM = 1e-8

# Bisection tolerances for solve_omega_star and phi_orders.
_OMEGA_REL_WIDTH = 1e-13
_RESID_ABS = 1e-12
_RESID_REL = 1e-10
# The bracket stays within |q*w| <= _EXP_ARG_MAX for the smaller order q.
_EXP_ARG_MAX = 700.0


@dataclass(frozen=True)
class CurveParams:
    """Curve parameters: delta strictly positive, orders in (0, 1]."""

    delta: float
    q1: float
    q2: float

    def __post_init__(self) -> None:
        _check_order("q1", self.q1)
        _check_order("q2", self.q2)
        if not (isinstance(self.delta, (int, float)) and math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be finite and > 0, got {self.delta!r}")

    @property
    def commensurate(self) -> bool:
        return abs(self.q1 - self.q2) <= EPS_COMM


@dataclass(frozen=True)
class CurvePoint:
    """One sample (w, a11(w), a22(w)) of Gamma."""

    omega: float
    a11: float
    a22: float

    def __post_init__(self) -> None:
        # Gamma stays out of the open third quadrant.
        if self.a11 < 0.0 and self.a22 < 0.0:
            raise ValueError(
                f"curve point ({self.a11}, {self.a22}) lies in the third quadrant"
            )


def rho(k: int, q1: float, q2: float) -> float:
    """rho_k(q1, q2) = sin(q_k*pi/2) / sin((q2-q1)*pi/2) for k in {1, 2}.

    Defined only away from the commensurate band; the numerator is positive,
    so the sign is the sign of q2 - q1.
    """
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k!r}")
    if abs(q1 - q2) <= EPS_COMM:
        raise CommensurateOrders(
            f"rho is singular for |q1 - q2| <= {EPS_COMM:g} (got q1={q1}, q2={q2})"
        )
    qk = q1 if k == 1 else q2
    return math.sin(qk * math.pi / 2.0) / math.sin((q2 - q1) * math.pi / 2.0)


def h_func(omega: float, q1: float, q2: float) -> float:
    """The curve profile h; switches to the commensurate line inside the band.

    Incommensurate: rho2*exp(q1*w) - rho1*exp(-q2*w), strictly increasing in w
    for q1 < q2 and strictly decreasing for q1 > q2. Commensurate
    (|q1 - q2| <= EPS_COMM): cos(q*pi/2) - w with q = (q1+q2)/2, decreasing.
    """
    if abs(q1 - q2) <= EPS_COMM:
        q = 0.5 * (q1 + q2)
        return math.cos(q * math.pi / 2.0) - omega
    r1 = rho(1, q1, q2)
    r2 = rho(2, q1, q2)
    return r2 * math.exp(q1 * omega) - r1 * math.exp(-q2 * omega)


def curve_point(cp: CurveParams, omega: float) -> CurvePoint:
    """The point of Gamma(delta, q1, q2) at curve parameter w."""
    e1 = cp.q1 / (cp.q1 + cp.q2)
    e2 = cp.q2 / (cp.q1 + cp.q2)
    a11 = cp.delta**e1 * h_func(omega, cp.q1, cp.q2)
    a22 = cp.delta**e2 * h_func(-omega, cp.q1, cp.q2)
    return CurvePoint(omega, a11, a22)


def _omega_cap(q1: float, q2: float) -> float:
    # exp(q*w) overflows past ~709/q in double precision
    return _EXP_ARG_MAX / min(q1, q2)


def solve_omega_star(cp: CurveParams, a11: float) -> float:
    """Invert a11(w) = delta^(q1/(q1+q2)) * h(w): the unique w* hitting a11.

    Commensurate band: the equation is linear in w and solved in closed form.
    Otherwise: bracket by doubling outward from [-1, 1] (capped at
    |w| <= 700/min(q1, q2), with +-inf where exp overflows first), then bisect
    to 1e-13 relative interval width; strict monotonicity of h gives uniqueness.
    The residual is checked against 1e-12 + 1e-10*|a11| plus the local secant
    variation of the final bracket (the attainable bound when h is steep, as
    happens just outside the commensurate band).
    """
    if not math.isfinite(a11):
        raise ValueError(f"a11 must be finite, got {a11!r}")
    if cp.commensurate:
        q = 0.5 * (cp.q1 + cp.q2)
        return math.cos(q * math.pi / 2.0) - a11 / math.sqrt(cp.delta)

    scale = cp.delta ** (cp.q1 / (cp.q1 + cp.q2))

    def g(w: float) -> float:
        try:
            return scale * h_func(w, cp.q1, cp.q2) - a11
        except OverflowError:
            # far out in w the term with sign (q2 - q1)*w dominates h
            return math.copysign(math.inf, (cp.q2 - cp.q1) * w)

    cap = _omega_cap(cp.q1, cp.q2)
    lo, hi = -1.0, 1.0
    glo, ghi = g(lo), g(hi)
    while glo * ghi > 0.0:
        if lo <= -cap and hi >= cap:
            raise BracketFailure(
                f"no sign change of a11(w) - a11 within |w| <= {cap:g}"
            )
        lo = max(2.0 * lo, -cap)
        hi = min(2.0 * hi, cap)
        glo, ghi = g(lo), g(hi)

    while hi - lo > _OMEGA_REL_WIDTH * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        gmid = g(mid)
        if gmid == 0.0:
            return mid
        if glo * gmid < 0.0:
            hi, ghi = mid, gmid
        else:
            lo, glo = mid, gmid

    w = 0.5 * (lo + hi)
    allowance = _RESID_ABS + _RESID_REL * abs(a11) + abs(ghi - glo)
    if abs(g(w)) > allowance:
        raise BracketFailure(
            f"bisection residual {abs(g(w)):.3e} exceeds allowance {allowance:.3e}"
        )
    return w


def phi(cp: CurveParams, a11: float) -> float:
    """The boundary function phi(a11) = delta^(q2/(q1+q2)) * h(-w*, q1, q2).

    As a function of a11 it is a decreasing, concave bijection of the real
    line; a22 < phi(a11) is the order-dependent stability condition.
    """
    w_star = solve_omega_star(cp, a11)
    e2 = cp.q2 / (cp.q1 + cp.q2)
    return cp.delta**e2 * h_func(-w_star, cp.q1, cp.q2)


def phi_orders(delta: float, a11: float, q1, q2) -> np.ndarray:
    """phi(CurveParams(delta, q1, q2), a11) for every order pair of two arrays.

    q1 and q2 broadcast against each other. Commensurate pairs go through phi
    itself; all others share one array bisection that keeps, cell by cell,
    the doubling, stop rules and residual allowance of solve_omega_star, and
    raises BracketFailure if any cell fails. np.exp and math.exp may differ
    in the last bit, so the values match phi to within 1e-11 relative, not
    bitwise. Where math.exp would overflow, np.exp gives inf of the same
    sign that solve_omega_star assigns, so both brackets carry on alike.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    if not math.isfinite(a11):
        raise ValueError(f"a11 must be finite, got {a11!r}")
    q1, q2 = np.broadcast_arrays(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float))
    if not np.all((q1 > 0.0) & (q1 <= 1.0) & (q2 > 0.0) & (q2 <= 1.0)):
        raise ValueError("orders must lie in (0, 1]")
    out = np.empty(q1.shape)
    comm = np.abs(q1 - q2) <= EPS_COMM
    for i in map(tuple, np.argwhere(comm)):
        out[i] = phi(CurveParams(delta, float(q1[i]), float(q2[i])), a11)
    p1, p2 = q1[~comm], q2[~comm]
    den = np.sin((p2 - p1) * math.pi / 2.0)
    r1 = np.sin(p1 * math.pi / 2.0) / den
    r2 = np.sin(p2 * math.pi / 2.0) / den
    scale = delta ** (p1 / (p1 + p2))

    def h(w):
        return r2 * np.exp(p1 * w) - r1 * np.exp(-p2 * w)

    def g(w):
        return scale * h(w) - a11

    with np.errstate(over="ignore"):
        cap = _EXP_ARG_MAX / np.minimum(p1, p2)
        lo = np.full(p1.shape, -1.0)
        hi = np.full(p1.shape, 1.0)
        glo, ghi = g(lo), g(hi)
        need = glo * ghi > 0.0
        while need.any():
            stuck = need & (lo <= -cap) & (hi >= cap)
            if stuck.any():
                raise BracketFailure(
                    f"no sign change of a11(w) - a11 within |w| <= {cap[stuck][0]:g}"
                )
            lo = np.where(need, np.maximum(2.0 * lo, -cap), lo)
            hi = np.where(need, np.minimum(2.0 * hi, cap), hi)
            glo, ghi = g(lo), g(hi)
            need = glo * ghi > 0.0

        while True:
            mid = 0.5 * (lo + hi)
            width = _OMEGA_REL_WIDTH * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
            active = (hi - lo > width) & (mid > lo) & (mid < hi)
            if not active.any():
                break
            gmid = g(mid)
            left = glo * gmid < 0.0
            # a zero of g at mid closes the bracket onto mid
            to_hi = active & (left | (gmid == 0.0))
            to_lo = active & ~left
            hi, ghi = np.where(to_hi, mid, hi), np.where(to_hi, gmid, ghi)
            lo, glo = np.where(to_lo, mid, lo), np.where(to_lo, gmid, glo)

        w = 0.5 * (lo + hi)
        resid = np.abs(g(w))
        allowance = _RESID_ABS + _RESID_REL * abs(a11) + np.abs(ghi - glo)
        bad = resid > allowance
        if bad.any():
            raise BracketFailure(
                f"bisection residual {resid[bad][0]:.3e} exceeds allowance "
                f"{allowance[bad][0]:.3e}"
            )
        out[~comm] = delta ** (p2 / (p1 + p2)) * h(-w)
    return out


def sample_curve(
    cp: CurveParams, omega_min: float, omega_max: float, n: int
) -> list[CurvePoint]:
    """n curve points at uniformly spaced w in [omega_min, omega_max]."""
    if not omega_min < omega_max:
        raise ValueError("omega_min must be < omega_max")
    if n < 2:
        raise ValueError("n must be >= 2")
    step = (omega_max - omega_min) / (n - 1)
    return [curve_point(cp, omega_min + i * step) for i in range(n)]


def u_max(q1: float, q2: float) -> float:
    """The extremal value u_max for 0 < q1 < q2 <= 1; always < 1.

    u_max = (sin(q2*pi/2)/q2)^(q2/(q2-q1)) * (q1/sin(q1*pi/2))^(q1/(q2-q1))
            * (q2-q1)/sin((q2-q1)*pi/2)

    This is the maximum of the ratio controlling how far the curve family can
    reach toward the third quadrant; u_max < 1 is what keeps Gamma outside it.
    """
    if not (0.0 < q1 < q2 <= 1.0):
        raise ValueError(f"u_max requires 0 < q1 < q2 <= 1, got ({q1}, {q2})")
    d = q2 - q1
    # evaluated in log space: the two power factors overflow separately for
    # small q2 - q1 even though their product stays bounded
    ell = lambda q: math.log(math.sin(q * math.pi / 2.0) / q)
    log_pow = (q2 * ell(q2) - q1 * ell(q1)) / d
    return math.exp(log_pow) * d / math.sin(d * math.pi / 2.0)
