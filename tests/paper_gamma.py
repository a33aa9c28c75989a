"""The paper's closed-form parametrization of Gamma, an oracle for phi.

For q1 != q2 the source paper writes the critical curve by a parameter w,

    a11 = delta^(q1/Q) * h(w, q1, q2),   a22 = delta^(q2/Q) * h(-w, q1, q2),
    h(w, q1, q2) = rho2*exp(q1*w) - rho1*exp(-q2*w),
    rho_k = sin(q_k*pi/2) / sin((q2 - q1)*pi/2),   Q = q1 + q2,

where w = log(omega) - log(delta)/Q at the crossing frequency omega. It
shares no code with fracstab.curve, so the tests place on-curve systems by
it and check phi and solve_omega_star against it. The rho_k are singular at
q1 = q2 and lose precision as the orders meet; fracstab's solver is regular
there and is checked at equal orders by the line it reduces to.

u_max and the scalar inequality A2 are the paper's two facts that keep Gamma
out of the third quadrant.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PaperPoint:
    """One point (w, a11(w), a22(w)) of Gamma."""

    omega: float
    a11: float
    a22: float


def rho(k: int, q1: float, q2: float) -> float:
    """rho_k(q1, q2) = sin(q_k*pi/2) / sin((q2-q1)*pi/2) for k in {1, 2}, q1 != q2.

    The numerator is positive, so the sign is the sign of q2 - q1.
    """
    qk = q1 if k == 1 else q2
    return math.sin(qk * math.pi / 2.0) / math.sin((q2 - q1) * math.pi / 2.0)


def h_func(w: float, q1: float, q2: float) -> float:
    """h(w) = rho2*exp(q1*w) - rho1*exp(-q2*w); increasing in w for q1 < q2, decreasing for q1 > q2."""
    return rho(2, q1, q2) * math.exp(q1 * w) - rho(1, q1, q2) * math.exp(-q2 * w)


def curve_point(cp, w: float) -> PaperPoint:
    """The point of Gamma(cp.delta, cp.q1, cp.q2) at parameter w, for cp.q1 != cp.q2."""
    total = cp.q1 + cp.q2
    a11 = cp.delta ** (cp.q1 / total) * h_func(w, cp.q1, cp.q2)
    a22 = cp.delta ** (cp.q2 / total) * h_func(-w, cp.q1, cp.q2)
    return PaperPoint(w, a11, a22)


def u_max(q1: float, q2: float) -> float:
    """The extremal value u_max for 0 < q1 < q2 <= 1; always < 1.

    u_max = (sin(q2*pi/2)/q2)^(q2/(q2-q1)) * (q1/sin(q1*pi/2))^(q1/(q2-q1))
            * (q2-q1)/sin((q2-q1)*pi/2)

    The maximum of the ratio that controls how far the curve family reaches
    toward the third quadrant; u_max < 1 keeps Gamma outside it. Evaluated in
    log space: the two power factors overflow separately for small q2 - q1
    even though their product stays bounded.
    """
    if not (0.0 < q1 < q2 <= 1.0):
        raise ValueError(f"u_max requires 0 < q1 < q2 <= 1, got ({q1}, {q2})")
    d = q2 - q1
    ell = lambda q: math.log(math.sin(q * math.pi / 2.0) / q)
    log_pow = (q2 * ell(q2) - q1 * ell(q1)) / d
    return math.exp(log_pow) * d / math.sin(d * math.pi / 2.0)


def a2_inequality(x: float, y: float, alpha: float) -> bool:
    """alpha^y*cos(y) + alpha^(y-x)*cos(y-x) + alpha^(-x)*cos(x) >= 1, with 1e-12 of slack.

    Stated for x, y in [0, pi/2] and alpha > 0; it forces the curve family
    to stay clear of the third quadrant.
    """
    value = (
        alpha**y * math.cos(y)
        + alpha ** (y - x) * math.cos(y - x)
        + alpha ** (-x) * math.cos(x)
    )
    return value >= 1.0 - 1e-12
