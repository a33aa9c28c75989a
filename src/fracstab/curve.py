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
makes a11(w) strictly monotone and w* unique. One bracket-free Newton
iteration on the logarithm of a11(w) = a11 finds it, for one order pair or
for arrays of them. The commensurate h is decreasing by construction.
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
    "phi_terms",
    "phi_orders",
    "sample_curve",
    "u_max",
]

# Below this order gap rho1, rho2 lose all precision (1/sin of a tiny angle);
# the curve as a point set converges to the commensurate line, so we switch
# formulas there. Approximation zone: w is not comparable across the switch,
# and phi is off by about 0.2*|q1 - q2| relative, which can exceed the tie
# band (tests/test_classify.py::test_equal_order_band_near_curve).
EPS_COMM = 1e-8

_HALF_PI = 0.5 * math.pi
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
    (|q1 - q2| <= EPS_COMM): cos(q*pi/2) - w with q = (q1+q2)/2, decreasing.
    """
    if _commensurate(q1, q2):
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


def _omega_star(delta: float, a11: float, q1, q2):
    """(w*, phi(a11), T_phi) off the commensurate band; q1, q2 floats or arrays.

    With a, b = min, max(q1, q2), v = sign(q2 - q1)*w, d = |sin((q2-q1)*pi/2)|
    and S = delta^(q1/(q1+q2)), for either order of q1 and q2

        S*h(w) = P*exp(a*v) - N*exp(-b*v),  P = S*sin(b*pi/2)/d,  N = S*sin(a*pi/2)/d.

    Moving the term of the other sign to a11's side and taking logs turns
    S*h(w) = a11 into

        K(u) = alpha*u - logaddexp(log(|a11|/A), log(B/A) - beta*u) = 0,

    (A, alpha, B, beta, u) = (P, a, N, b, v) for a11 >= 0, (N, b, P, a, -v)
    otherwise. K is increasing and concave from -inf to +inf, so Newton from
    u = 0 needs no bracket: after the first step the iterates lie left of the
    root and rise to it (Fourier's condition). logaddexp cannot overflow, and
    S and d cancel from B/A, so large logarithms enter only with a11's weight.
    The same ufunc body runs on floats and arrays. Newton stops on a step
    below 1e-13*max(1, |u|) or a |K| at its rounding floor; more than
    _NEWTON_MAX steps, or a final |K| (a relative residual) above 1e-10,
    raises BracketFailure. phi = delta^(q2/(q1+q2))*h(-w*) is +-inf where it
    leaves double range. T_phi is the sum of the moduli of phi's two terms,
    which bounds phi's rounding and scales as phi does under time scaling.
    """
    if not math.isfinite(a11):
        raise ValueError(f"a11 must be finite, got {a11!r}")
    a, b = np.minimum(q1, q2), np.maximum(q1, q2)
    d = abs(np.sin((q2 - q1) * _HALF_PI))
    p, n = np.sin(b * _HALF_PI) / d, np.sin(a * _HALF_PI) / d  # P/S, N/S
    log_c = math.log(abs(a11)) if a11 else -math.inf
    log_c = log_c - q1 / (q1 + q2) * math.log(delta)  # log(|a11|/S)
    if a11 >= 0.0:
        alpha, beta, sign, log_ca = a, b, 1.0, log_c - np.log(p)
    else:
        alpha, beta, sign, log_ca = b, a, -1.0, log_c - np.log(n)
    log_ba = sign * np.log(n / p)
    u = 0.0 * a  # zero, shaped like the orders
    step = math.inf
    done = False
    for _ in range(_NEWTON_MAX + 1):
        lae = np.logaddexp(log_ca, log_ba - beta * u)
        k = alpha * u - lae
        floor = _FLOOR_ULPS * (abs(alpha * u) + abs(lae))
        short = (abs(step) <= _STEP_REL) | (abs(step) <= _STEP_REL * abs(u))
        done = done | short | (abs(k) <= floor)
        if done.all():
            break
        step = k / (alpha + beta * np.exp(log_ba - beta * u - lae))
        u = u - step
    else:
        raise BracketFailure(f"Newton for omega* did not settle in {_NEWTON_MAX} steps")
    if (abs(k) > _RESID_REL).any():
        raise BracketFailure(
            f"omega* log residual {np.max(abs(k)):.3e} exceeds {_RESID_REL:g}"
        )
    v = sign * u
    with np.errstate(over="ignore"):
        scale = delta ** (q2 / (q1 + q2))
        plus, minus = p * np.exp(-a * v), n * np.exp(b * v)
        phi_val = scale * (plus - minus)
        terms = scale * (plus + minus)
    return np.sign(q2 - q1) * v, phi_val, terms


def solve_omega_star(cp: CurveParams, a11: float) -> float:
    """Invert a11(w) = delta^(q1/(q1+q2)) * h(w): the unique w* hitting a11.

    Commensurate band: the equation is linear in w and solved in closed form.
    Otherwise _omega_star runs bracket-free Newton on the logarithm of the
    equation; strict monotonicity of h gives uniqueness.
    """
    if not math.isfinite(a11):
        raise ValueError(f"a11 must be finite, got {a11!r}")
    if cp.commensurate:
        q = 0.5 * (cp.q1 + cp.q2)
        return math.cos(q * math.pi / 2.0) - a11 / math.sqrt(cp.delta)
    return float(_omega_star(cp.delta, a11, cp.q1, cp.q2)[0])


def phi(cp: CurveParams, a11: float) -> float:
    """The boundary function phi(a11) = delta^(q2/(q1+q2)) * h(-w*, q1, q2).

    As a function of a11 it is a decreasing, concave bijection of the real
    line; a22 < phi(a11) is the order-dependent stability condition. A phi
    beyond double range is returned as +-inf.
    """
    if not cp.commensurate:
        return float(_omega_star(cp.delta, a11, cp.q1, cp.q2)[1])
    w_star = solve_omega_star(cp, a11)
    e2 = cp.q2 / (cp.q1 + cp.q2)
    return cp.delta**e2 * h_func(-w_star, cp.q1, cp.q2)


def _line_terms(delta: float, a11: float, q1, q2):
    # T_phi on the commensurate line phi = 2*sqrt(delta)*cos(q*pi/2) - a11
    return 2.0 * math.sqrt(delta) * np.cos(0.25 * math.pi * (q1 + q2)) + abs(a11)


def phi_terms(cp: CurveParams, a11: float) -> tuple[float, float]:
    """(phi(a11), T_phi), with T_phi the sum of the moduli of phi's terms.

    T_phi bounds the magnitudes phi is computed from, so eps*T_phi is the
    scale of phi's rounding; it scales exactly as phi does under time
    scaling. Off the commensurate band the terms are the two exponentials
    of _omega_star; on it, 2*sqrt(delta)*cos(q*pi/2) and a11.
    """
    if cp.commensurate:
        return phi(cp, a11), float(_line_terms(cp.delta, a11, cp.q1, cp.q2))
    _, val, terms = _omega_star(cp.delta, a11, cp.q1, cp.q2)
    return float(val), float(terms)


def phi_orders(delta: float, a11: float, q1, q2) -> tuple[np.ndarray, np.ndarray]:
    """phi_terms(CurveParams(delta, q1, q2), a11) for every order pair of two arrays.

    q1 and q2 broadcast against each other; returns the arrays of phi and
    T_phi. Commensurate pairs go through phi itself; all others go through
    the Newton iteration of _omega_star at once, which raises BracketFailure
    if any cell fails. The scalar phi runs the same iteration, so values
    agree to rounding, not always bitwise.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    q1, q2 = np.broadcast_arrays(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float))
    if not np.all((q1 > 0.0) & (q1 <= 1.0) & (q2 > 0.0) & (q2 <= 1.0)):
        raise ValueError("orders must lie in (0, 1]")
    out, terms = np.empty(q1.shape), np.empty(q1.shape)
    comm = _commensurate(q1, q2)
    for i in map(tuple, np.argwhere(comm)):
        out[i] = phi(CurveParams(delta, float(q1[i]), float(q2[i])), a11)
    terms[comm] = _line_terms(delta, a11, q1[comm], q2[comm])
    _, out[~comm], terms[~comm] = _omega_star(delta, a11, q1[~comm], q2[~comm])
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
