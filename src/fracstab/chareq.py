"""System description and the characteristic function Delta on the principal branch.

The two-dimensional system

    cD^{q1} x = a11*x + a12*y
    cD^{q2} y = a21*x + a22*y,     0 < q1, q2 <= 1  (Caputo derivatives)

has the characteristic function

    Delta(s) = s^(q1+q2) - a11*s^q2 - a22*s^q1 + delta,   delta = det(A),

with every complex power taken on the principal branch Arg s in (-pi, pi].
Roots of Delta with Re s >= 0 decide asymptotic stability; everything else
in the package is built on top of this function.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

__all__ = [
    "SystemSpec",
    "CharParams",
    "principal_power",
    "delta_eval",
    "term_majorant",
    "delta_rounding_bound",
]

_EPS = sys.float_info.epsilon
# rho's multiple of eps; against 50 digits (tests/test_chareq.py) the error of
# delta_eval stays below 1.3*eps*(1 + (q1+q2)*|log s|)*M(|s|)
_RHO_ULPS = 8.0
_HALF_PI = 0.5 * math.pi


def _check_order(name: str, q: float) -> None:
    if not (isinstance(q, (int, float)) and math.isfinite(q) and 0.0 < q <= 1.0):
        raise ValueError(f"{name} must lie in (0, 1], got {q!r}")


def _check_finite(name: str, x: float) -> None:
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise ValueError(f"{name} must be a finite real, got {x!r}")


@dataclass(frozen=True)
class SystemSpec:
    """A 2x2 real matrix A = [[a11, a12], [a21, a22]] with orders q1, q2 in (0, 1]."""

    a11: float
    a12: float
    a21: float
    a22: float
    q1: float
    q2: float

    def __post_init__(self) -> None:
        for name in ("a11", "a12", "a21", "a22"):
            _check_finite(name, getattr(self, name))
        _check_order("q1", self.q1)
        _check_order("q2", self.q2)

    def delta(self) -> float:
        """det(A), written exactly as a11*a22 - a12*a21."""
        return self.a11 * self.a22 - self.a12 * self.a21

    def char_params(self) -> "CharParams":
        return CharParams(self.a11, self.a22, self.delta(), self.q1, self.q2)


@dataclass(frozen=True)
class CharParams:
    """The five parameters Delta actually depends on.

    Constructed from a SystemSpec or directly; delta of either sign is legal
    here (the classifier decides what each sign means). The direct route also
    covers scalar three-term equations sharing the same Delta.
    """

    a11: float
    a22: float
    delta: float
    q1: float
    q2: float

    def __post_init__(self) -> None:
        for name in ("a11", "a22", "delta"):
            _check_finite(name, getattr(self, name))
        _check_order("q1", self.q1)
        _check_order("q2", self.q2)


def _delta_on_axis(y: float, a11: float, a22: float, delta: float, q1: float, q2: float) -> complex:
    """Delta(i*y) for y != 0, each power (i*y)^q as |y|^q*(cos(q*pi/2) + i*sign(y)*sin(q*pi/2)).

    cos(q*pi/2) is sin((1-q)*pi/2), and sin(q*pi/2) for q = q1+q2 > 1 is
    sin((2-q)*pi/2); both differences are exact for q in [1/2, 2], so i^1 = i
    and i^2 = -1 exactly, not through fl(pi/2). With zero coefficients and
    q2 = 0 it is the power (i*y)^q1, for q1 in (0, 2].
    """
    q, r = q1 + q2, abs(y)
    rq, r2, r1 = r**q, r**q2, r**q1
    re = (
        rq * math.sin((1.0 - q) * _HALF_PI)
        - a11 * (r2 * math.sin((1.0 - q2) * _HALF_PI))
        - a22 * (r1 * math.sin((1.0 - q1) * _HALF_PI))
        + delta
    )
    im = (
        rq * math.sin((2.0 - q if q > 1.0 else q) * _HALF_PI)
        - a11 * (r2 * math.sin(q2 * _HALF_PI))
        - a22 * (r1 * math.sin(q1 * _HALF_PI))
    )
    return complex(re, im if y > 0.0 else -im)


def principal_power(s: complex, q: float) -> complex:
    """s**q on the principal branch, exp(q*(ln|s| + i*Arg s)), Arg s in (-pi, pi].

    A negative real s with a -0.0 imaginary component would otherwise fall on
    the Arg = -pi side; the imaginary part is normalized so the branch cut
    itself always evaluates with Arg = pi. On the imaginary axis s^q is taken
    from _delta_on_axis. principal_power(0, q) = 0 for q > 0.
    """
    s = complex(s)
    if s == 0:
        return 0j
    if s.real == 0.0:
        return _delta_on_axis(s.imag, 0.0, 0.0, 0.0, q, 0.0)
    if s.imag == 0.0:
        # collapse -0.0 so Arg(negative real) is +pi, not -pi
        s = complex(s.real, 0.0)
    return cmath.exp(q * cmath.log(s))


def delta_eval(p: CharParams, s: complex) -> complex:
    """Delta(s) = s^(q1+q2) - a11*s^q2 - a22*s^q1 + delta on the principal branch.

    Each power is exp(q*log s), as in principal_power, from one shared log s;
    on the imaginary axis both take _delta_on_axis's exact angles.
    delta_eval(p, 0) returns delta by convention (the limit value), which
    makes the sign test Delta(0) = delta directly executable.
    """
    s = complex(s)
    if s == 0:
        return complex(p.delta)
    if s.real == 0.0:
        return _delta_on_axis(s.imag, p.a11, p.a22, p.delta, p.q1, p.q2)
    if s.imag == 0.0:
        s = complex(s.real, 0.0)
    log_s = cmath.log(s)
    return (
        cmath.exp((p.q1 + p.q2) * log_s)
        - p.a11 * cmath.exp(p.q2 * log_s)
        - p.a22 * cmath.exp(p.q1 * log_s)
        + p.delta
    )


def term_majorant(p: CharParams, r: float) -> float:
    """M(r) = |delta| + r^(q1+q2) + |a11|*r^q2 + |a22|*r^q1, the moduli of Delta's terms at |s| = r.

    M bounds |Delta| on the circle |s| = r and scales exactly as Delta does
    under time scaling, so it is the magnitude every "zero to rounding" test
    on Delta is judged against.
    """
    return abs(p.delta) + r ** (p.q1 + p.q2) + abs(p.a11) * r**p.q2 + abs(p.a22) * r**p.q1


def delta_rounding_bound(p: CharParams, s: complex) -> float:
    """A bound on |delta_eval(p, s) - Delta(s)| for s != 0: a running error bound.

    Each power exp(q*log s) inherits the rounding of log s, an absolute error
    of about eps*q*|log s| in its exponent and so a relative one in its
    value; the products and the three additions add a few eps of each term.
    Every term is at most M(|s|), so

        rho(s) = _RHO_ULPS * eps * (1 + (q1+q2)*|log s|) * M(|s|).

    |Delta| <= rho(s) means Delta(s) is zero to working precision.
    """
    log_s = cmath.log(s)
    return _RHO_ULPS * _EPS * (1.0 + (p.q1 + p.q2) * abs(log_s)) * term_majorant(p, abs(s))
