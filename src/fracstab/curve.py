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
sample_curve tabulates Gamma by a11 through that solver, so each of its
points is one that classify puts on Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure
from .chareq import _HALF_PI, _check_order

__all__ = [
    "CurveParams",
    "solve_omega_star",
    "phi",
    "phi_terms",
    "phi_orders",
    "sample_curve",
]

# Newton for omega* (_omega_star): stop on a step below _STEP_REL*max(1, |u|)
# or a residual within _FLOOR_ULPS of the magnitudes it is computed from; fail
# past _NEWTON_MAX steps or a final residual above _RESID_REL.
_STEP_REL = 1e-13
_FLOOR_ULPS = 4.0 * np.finfo(float).eps
_NEWTON_MAX = 50
_RESID_REL = 1e-10


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
    steps, or a final |K| above 1e-10, raises BracketFailure. Each cell of
    an array stops on its own test and is stepped no further, so it takes
    exactly the steps of the scalar call at its orders and returns its bits.

    phi takes the form of the module docstring with s_beta in the
    denominator. Where a11 > 0 the other form can cancel by a factor of
    order (s_beta/s_alpha)^2; this one never has larger terms than the
    paper's form, which divides by sin((q2-q1)*pi/2). T_phi, the sum of the
    moduli of the terms, bounds phi's rounding and scales as phi does under
    time scaling. Scaled by the larger term, phi is +-inf past double range,
    never NaN.
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
        u = u - step * ~done  # a settled cell stays where the scalar phi stops
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
    """w* = log(omega*) - log(delta)/(q1+q2) at a11; continuous, 0 at q1 = q2."""
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
    BracketFailure if any cell fails. Every cell takes the steps the scalar
    phi takes, so each value is bitwise phi_terms at its order pair.
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


def sample_curve(cp: CurveParams, a11_min: float, a11_max: float, n: int) -> np.ndarray:
    """The (n, 3) array of rows (w*, a11, phi(a11)) of Gamma.

    a11 runs over a11_min + i*(a11_max - a11_min)/(n - 1), i = 0, ..., n-1;
    each row is what solve_omega_star and phi return at its a11, bit for
    bit, so classify puts every row on Gamma with margin 0.
    """
    if not a11_min < a11_max:
        raise ValueError("a11_min must be < a11_max")
    if n < 2:
        raise ValueError("n must be >= 2")
    step = (a11_max - a11_min) / (n - 1)
    rows = np.empty((n, 3))
    for i in range(n):
        a11 = a11_min + i * step
        w, val, _ = _crossing(cp, a11)
        rows[i] = w, a11, val
    return rows
