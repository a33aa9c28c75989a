"""The critical curve Gamma(delta, q1, q2) and its boundary function phi.

For delta > 0 the (a11, a22) where Delta has roots +-i*omega form a curve,
the graph of a decreasing concave bijection a22 = phi(a11); the sign of
a22 - phi(a11) is the whole order-dependent stability test. Eliminating a22
between the real and imaginary parts of Delta(i*omega) = 0 leaves, with
s_k = sin(q_k*pi/2) and Q = q1 + q2, one equation for the crossing
frequency omega* and two equal forms of phi:

    s2*omega^Q + a11*sin((q1-q2)*pi/2)*omega^q2 = delta*s1,
    phi = [omega^q2*sin(Q*pi/2) - a11*omega^(q2-q1)*s2] / s1
        = [delta*omega^(-q1)*sin(Q*pi/2) - a11*omega^(q2-q1)*s1] / s2.

The order gap multiplies a term instead of dividing one, so one solver
serves every order pair; at q1 = q2 exactly, omega*^Q = delta.

The paper parametrizes Gamma by w = log(omega) - log(delta)/Q, as
a11 = delta^(q1/Q)*h(w, q1, q2) and a22 = delta^(q2/Q)*h(-w, q1, q2) with
h = rho2*exp(q1*w) - rho1*exp(-q2*w), rho_k = sin(q_k*pi/2)/sin((q2-q1)*pi/2);
rho, h_func, curve_point and sample_curve sample Gamma so. Where
|q1 - q2| <= EPS_COMM the rho_k lose all precision, and they sample the line
that Gamma is at q1 = q2 = q, parametrized by h(w, q, q) = cos(q*pi/2) - w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, CommensurateOrders
from .chareq import _HALF_PI, _check_order

__all__ = [
    "EPS_COMM",
    "CurveParams",
    "CurvePoint",
    "rho",
    "h_func",
    "curve_point",
    "solve_omega_star",
    "phi",
    "phi_terms",
    "phi_orders",
    "sample_curve",
    "u_max",
]

# the order gap below which rho, h_func and curve_point sample the equal-order line
EPS_COMM = 1e-8

# Newton for omega* (_omega_star): stop on a step below _STEP_REL*max(1, |u|)
# or a residual within _FLOOR_ULPS of the magnitudes it is computed from; fail
# past _NEWTON_MAX steps or a final residual above _RESID_REL.
_STEP_REL = 1e-13
_FLOOR_ULPS = 4.0 * np.finfo(float).eps
_NEWTON_MAX = 50
_RESID_REL = 1e-10


def _commensurate(q1, q2):
    """True where |q1 - q2| <= EPS_COMM, for floats or arrays of orders."""
    return abs(q1 - q2) <= EPS_COMM


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
        return _commensurate(self.q1, self.q2)


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
    if _commensurate(q1, q2):
        raise CommensurateOrders(
            f"rho is singular for |q1 - q2| <= {EPS_COMM:g} (got q1={q1}, q2={q2})"
        )
    qk = q1 if k == 1 else q2
    return math.sin(qk * math.pi / 2.0) / math.sin((q2 - q1) * math.pi / 2.0)


def h_func(omega: float, q1: float, q2: float) -> float:
    """The curve profile h; switches to the commensurate line inside the band.

    Incommensurate: rho2*exp(q1*w) - rho1*exp(-q2*w), strictly increasing in w
    for q1 < q2 and strictly decreasing for q1 > q2. Commensurate
    (|q1 - q2| <= EPS_COMM): cos(q*pi/2) - w with q = (q1+q2)/2, decreasing;
    cos(q*pi/2) is taken as sin((1-q)*pi/2), as in _equal_orders, so the line
    is a11 + a22 = 0 exactly at q = 1.
    """
    if _commensurate(q1, q2):
        q = 0.5 * (q1 + q2)
        return math.sin((1.0 - q) * _HALF_PI) - omega
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


def _equal_orders(delta: float, a11: float, q):
    """(w*, phi(a11), T_phi) at q1 = q2 = q, a float or an array.

    omega*^(2q) = delta, so w* = 0 and phi = 2*sqrt(delta)*cos(q*pi/2) - a11,
    with cos(q*pi/2) as sin((1-q)*pi/2): 0 at q = 1, not cos(fl(pi/2)) = 6e-17.
    """
    line = 2.0 * math.sqrt(delta) * np.sin((1.0 - q) * _HALF_PI)
    return 0.0, line - a11, line + abs(a11)


def _omega_star(delta: float, a11: float, q1, q2):
    """(w*, phi(a11), T_phi) for q1 != q2; q1, q2 floats or arrays.

    Divided by omega^q2 and written in w, the frequency equation reads
    s2*exp(q1*w) + C = s1*exp(-q2*w), C = a11*sin((q1-q2)*pi/2)*delta^(-q1/Q).
    With (alpha, beta, s) = (min(q1, q2), max(q1, q2), 1) for a11 >= 0, else
    (max, min, -1), and u = s*sign(q2 - q1)*w, moving C to the side where it
    adds and taking logs gives

        K(u) = alpha*u - logaddexp(log(|C|/s_beta), log(s_alpha/s_beta) - beta*u) = 0,

    increasing and concave from -inf to +inf, so Newton from u = 0 needs no
    bracket: after the first step the iterates lie left of the root and rise
    to it (Fourier's condition). Newton stops on a step below
    1e-13*max(1, |u|) or a |K| at its rounding floor; more than _NEWTON_MAX
    steps, or a final |K| above 1e-10, raises BracketFailure.

    phi takes the form of the module docstring with s_beta in the
    denominator. Where a11 > 0 the other form can cancel by a factor of
    order (s_beta/s_alpha)^2; this one never has larger terms than the
    1/sin((q2-q1)*pi/2) form of h. T_phi, the sum of the moduli of the terms,
    bounds phi's rounding and scales as phi does under time scaling. Scaled
    by the larger term, phi is +-inf past double range, never NaN.
    sin(Q*pi/2) for Q > 1 is sin((2-Q)*pi/2), from the exact 1 - q_k.
    """
    a, b = np.minimum(q1, q2), np.maximum(q1, q2)
    total, gap = q1 + q2, q2 - q1
    log_delta = math.log(delta)
    log_a11 = math.log(abs(a11)) if a11 else -math.inf
    alpha, beta, sign = (a, b, 1.0) if a11 >= 0.0 else (b, a, -1.0)
    s_alpha, s_beta = np.sin(alpha * _HALF_PI), np.sin(beta * _HALF_PI)
    log_ca = log_a11 + np.log(abs(np.sin(gap * _HALF_PI)) / s_beta) - q1 / total * log_delta
    log_ba = np.log(s_alpha / s_beta)
    u = 0.0 * a  # zero, shaped like the orders
    step, done = math.inf, False
    for _ in range(_NEWTON_MAX + 1):
        other = log_ba - beta * u
        lae = np.logaddexp(log_ca, other)
        own = alpha * u
        k = own - lae
        short = abs(step) <= _STEP_REL * np.maximum(1.0, abs(u))
        done = done | short | (abs(k) <= _FLOOR_ULPS * (abs(own) + abs(lae)))
        if done.all():
            break
        step = k / (alpha + beta * np.exp(other - lae))
        u = u - step
    else:
        raise BracketFailure(f"Newton for omega* did not settle in {_NEWTON_MAX} steps")
    if (abs(k) > _RESID_REL).any():
        raise BracketFailure(f"omega* log residual {np.max(abs(k)):.3e} exceeds {_RESID_REL:g}")
    w = sign * np.sign(gap) * u
    s_total = np.sin(np.minimum(total, (1.0 - q1) + (1.0 - q2)) * _HALF_PI)
    # phi = [V*sin(Q*pi/2) - a11*omega^(q2-q1)*s_alpha] / s_beta, where V is
    # omega^q2 for alpha = q2 and delta*omega^(-q1) for alpha = q1
    log1 = (q2 / total * log_delta + np.log(s_total / s_beta)) - alpha * u
    log2 = (log_a11 + gap / total * log_delta + log_ba) + gap * w
    top = np.maximum(log1, log2)
    r1, r2 = np.exp(log1 - top), np.exp(log2 - top)
    rest = r1 - sign * r2  # phi / exp(top), in [-1, 2]
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(top)
        phi_val = np.where(rest == 0.0, 0.0, scale * rest)  # not inf * 0
        terms = scale * (r1 + r2)
    return w, phi_val, terms


def _crossing(cp: CurveParams, a11: float) -> tuple[float, float, float]:
    """(w*, phi(a11), T_phi) for one order pair."""
    if not math.isfinite(a11):
        raise ValueError(f"a11 must be finite, got {a11!r}")
    if cp.q1 == cp.q2:
        w, val, terms = _equal_orders(cp.delta, a11, cp.q1)
    else:
        w, val, terms = _omega_star(cp.delta, a11, cp.q1, cp.q2)
    return float(w), float(val), float(terms)


def solve_omega_star(cp: CurveParams, a11: float) -> float:
    """w* = log(omega*) - log(delta)/(q1+q2) at a11; continuous, 0 at q1 = q2.

    For |q1 - q2| <= EPS_COMM curve_point samples the equal-order line by a
    parameter that is not w*, so curve_point(cp, w*).a11 == a11 only off it.
    """
    return _crossing(cp, a11)[0]


def phi(cp: CurveParams, a11: float) -> float:
    """The boundary function phi(a11): a22 on Gamma above a11.

    As a function of a11 it is a decreasing, concave bijection of the real
    line; a22 < phi(a11) is the order-dependent stability condition. A phi
    beyond double range is returned as +-inf.
    """
    return _crossing(cp, a11)[1]


def phi_terms(cp: CurveParams, a11: float) -> tuple[float, float]:
    """(phi(a11), T_phi), with T_phi the sum of the moduli of phi's terms.

    eps*T_phi is the scale of phi's rounding (_omega_star); T_phi scales
    exactly as phi does under time scaling.
    """
    return _crossing(cp, a11)[1:]


def phi_orders(delta: float, a11: float, q1, q2) -> tuple[np.ndarray, np.ndarray]:
    """phi_terms(CurveParams(delta, q1, q2), a11) for every order pair of two arrays.

    q1 and q2 broadcast against each other; returns the arrays of phi and
    T_phi. Pairs with q1 == q2 go through phi itself, in closed form; the
    others through the Newton iteration of _omega_star at once, which raises
    BracketFailure if any cell fails. The scalar phi runs the same
    iteration, so values agree to rounding, not always bitwise.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    if not math.isfinite(a11):
        raise ValueError(f"a11 must be finite, got {a11!r}")
    q1, q2 = np.broadcast_arrays(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float))
    if not np.all((q1 > 0.0) & (q1 <= 1.0) & (q2 > 0.0) & (q2 <= 1.0)):
        raise ValueError("orders must lie in (0, 1]")
    out, terms = np.empty(q1.shape), np.empty(q1.shape)
    equal = q1 == q2
    for i in map(tuple, np.argwhere(equal)):
        out[i] = phi(CurveParams(delta, float(q1[i]), float(q2[i])), a11)
    terms[equal] = _equal_orders(delta, a11, q1[equal])[2]
    _, out[~equal], terms[~equal] = _omega_star(delta, a11, q1[~equal], q2[~equal])
    return out, terms


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
