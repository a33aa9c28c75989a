"""Reference solutions computed apart from fracstab.

Nothing here imports the package: each oracle is built from the problem
statement alone, so an agreement between an oracle and fracstab is evidence
that both are right.

* ``z_roots``: for rational orders q1 = k1/n, q2 = k2/n the substitution
  z = s^(1/n) turns Delta into the polynomial
  z^(k1+k2) - a11*z^k2 - a22*z^k1 + delta. Roots with |arg z| < pi/n are the
  principal-branch roots s = z^n; those with |arg z| < pi/(2n) have Re s > 0.
* ``critical_point``: the point of the critical curve above a11, found from
  the condition that Delta has a root s = i*y on the imaginary axis.
* ``decoupled_solution``: the exact solution x0*erfcx(lam*sqrt(t)) of
  cD^(1/2) x = -lam*x.
* ``classical_solution``: the matrix exponential for q1 = q2 = 1.
* ``leading_term``: the large-t leading term
  -A^(-1) [x0_1 t^(-q1)/Gamma(1-q1), x0_2 t^(-q2)/Gamma(1-q2)] of a stable
  system with orders below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZRoots",
    "z_roots",
    "critical_point",
    "region_verdict",
    "decoupled_solution",
    "classical_solution",
    "leading_term",
]


@dataclass(frozen=True)
class ZRoots:
    """Principal-branch roots of Delta for rational orders, from z = s^(1/n).

    unstable holds the roots s = z^n with |arg z| < pi/(2n), i.e. Re s > 0.
    edge_gap is the smallest distance, in the argument of s, from a
    principal-branch root to the imaginary axis: a small gap marks a system
    too close to the critical curve to decide reliably.
    """

    count: int
    unstable: np.ndarray
    edge_gap: float


def z_roots(a11: float, a22: float, delta: float, k1: int, k2: int, n: int) -> ZRoots:
    """Roots of z^(k1+k2) - a11*z^k2 - a22*z^k1 + delta, read back in s."""
    degree = k1 + k2
    coeffs = np.zeros(degree + 1)
    coeffs[0] = 1.0
    # coeffs[i] multiplies z^(degree - i)
    coeffs[degree - k2] -= a11
    coeffs[degree - k1] -= a22
    coeffs[degree] += delta
    z = np.roots(coeffs)
    arg_z = np.abs(np.angle(z))
    principal = arg_z < math.pi / n
    unstable = arg_z < math.pi / (2.0 * n)
    gaps = np.abs(n * arg_z[principal] - 0.5 * math.pi)
    return ZRoots(
        count=int(np.count_nonzero(unstable)),
        unstable=z[unstable] ** n,
        edge_gap=float(gaps.min()) if gaps.size else math.inf,
    )


def critical_point(delta: float, q1: float, q2: float, a11: float) -> tuple[float, float]:
    """(y, a22) such that Delta has the root s = i*y at (a11, a22).

    With u = (iy)^q1 and v = (iy)^q2, Delta(iy) = u*v - a11*v - a22*u + delta
    is linear in a22, so a22 = v - a11*v/u + delta/u. It is real exactly when

        y^(q1+q2) sin(q2*pi/2) - a11 y^q2 sin((q2-q1)*pi/2) - delta sin(q1*pi/2) = 0,

    which is negative as y -> 0 and positive as y -> inf; the root is found by
    bisection in log y. The second value is the curve's a22 = phi(a11).
    """
    s1, s2 = math.sin(q1 * math.pi / 2.0), math.sin(q2 * math.pi / 2.0)
    s21 = math.sin((q2 - q1) * math.pi / 2.0)

    def imag_part(log_y: float) -> float:
        return (
            math.exp((q1 + q2) * log_y) * s2
            - a11 * math.exp(q2 * log_y) * s21
            - delta * s1
        )

    lo, hi = -1.0, 1.0
    while imag_part(lo) > 0.0:
        lo *= 2.0
    while imag_part(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if imag_part(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    y = math.exp(0.5 * (lo + hi))
    a22 = (
        y**q2 * math.cos(q2 * math.pi / 2.0)
        - a11 * y ** (q2 - q1) * math.cos((q2 - q1) * math.pi / 2.0)
        + delta * y ** (-q1) * math.cos(q1 * math.pi / 2.0)
    )
    return y, a22


def region_verdict(a11: float, a22: float, delta: float) -> int | None:
    """0 in R_u(delta), 1 in R_s(delta), None elsewhere; delta > 0.

    These regions settle stability for every order pair, so a qscan raster of
    such a system holds this one value in every cell.
    """
    if a11 + a22 >= delta + 1.0 or (a11 > 0.0 and a22 > 0.0 and a11 * a22 >= delta):
        return 0
    if a11 + a22 < 0.0 and max(a11, a22) < min(1.0, delta):
        return 1
    return None


def decoupled_solution(lam: float, x0: float, t: np.ndarray) -> np.ndarray:
    """x0 * erfcx(lam*sqrt(t)) = x0 * E_{1/2}(-lam*sqrt(t)), lam > 0."""
    from scipy.special import erfcx

    return x0 * erfcx(lam * np.sqrt(t))


def classical_solution(a: np.ndarray, x0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(A t) x0 at each time in t; one row per time."""
    from scipy.linalg import expm

    return np.array([expm(a * ti) @ x0 for ti in t])


def leading_term(a: np.ndarray, x0: np.ndarray, q1: float, q2: float, t: float) -> np.ndarray:
    """-A^(-1) [x0_1 t^(-q1)/Gamma(1-q1), x0_2 t^(-q2)/Gamma(1-q2)] for q < 1.

    From X(s) = (diag(s^q1, s^q2) - A)^(-1) diag(s^(q1-1), s^(q2-1)) x0 as
    s -> 0.
    """
    forcing = np.array(
        [x0[0] * t ** (-q1) / math.gamma(1.0 - q1), x0[1] * t ** (-q2) / math.gamma(1.0 - q2)]
    )
    return -np.linalg.solve(a, forcing)
