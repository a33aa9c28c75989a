"""Independent root-count verification for the characteristic function.

Three cross-checking instruments:

* explicit modulus bounds l <= |s| <= L valid for every root with Re s >= 0,
  which make the right half-plane effectively compact;
* an argument-principle winding count of Delta around one rectangle in
  w = log s, the bounded half-annulus, with adaptive phase tracking; the
  positive real roots are isolated exactly between the critical points of
  Delta on the real axis, and a complex pair is continued from Gamma;
* for rational orders, reduction to a single-order companion system checked
  against the eigenvalue sector criterion (|Arg lambda| > pi/(2n)).

The count and the companion test use none of the curve machinery, so they
check classify's side of Gamma instead of repeating it. The locator takes
only its start from Gamma; the residual, the quadrant and the count certify
the root, so a wrong start can make it raise but not return another root.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .chareq import _EPS, _HALF_PI, _RHO_ULPS, CharParams, SystemSpec, delta_eval, delta_rounding_bound
from .curve import CurveParams, _crossing
from .errors import (
    AnnulusOutOfRange,
    ContourThroughRoot,
    DeltaNotPositive,
    NotRational,
    RefinementLimit,
)

__all__ = [
    "RootBounds",
    "RootCountReport",
    "CompanionSystem",
    "unstable_root_bounds",
    "count_unstable_roots",
    "positive_real_roots",
    "polish_unstable_roots",
    "commensurate_reduce",
    "matignon_stable",
]

_TWO_PI = 2.0 * math.pi
_MAX_DEPTH = 24  # bisections of one contour step
_NEWTON_MAX = 80  # the locator's Newton steps per continuation step
# l and L must lie in [1e-300, 1e300], so the contour radii stay doubles
_LOG_ANNULUS_MIN, _LOG_ANNULUS_MAX = math.log(1e-300), math.log(1e300)
_LOG_DBL_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class RootBounds:
    """Moduli bounds l <= |s| <= L for the roots of Delta with Re s >= 0."""

    l: float
    L: float

    def __post_init__(self) -> None:
        if not (0.0 < self.l <= self.L):
            raise ValueError(f"bounds must satisfy 0 < l <= L, got ({self.l}, {self.L})")


@dataclass(frozen=True)
class RootCountReport:
    """Winding evidence for the count of roots with Re s >= 0."""

    n_unstable: int
    bounds: RootBounds
    contour_samples: int
    winding_turns: float
    refinement_depth: int


def unstable_root_bounds(p: CharParams) -> RootBounds:
    """Compute l, L with l <= |s| <= L for every root of Delta with Re s >= 0.

    With m = min(q1, q2), alpha = (q1+q2)/2,

        p_exp = (q1+q2)/(2m),  gamma = max(q1, q2)/m,
        D = max(delta^(-q1/(2m)), delta^(-q2/(2m))),
        u = D * (|a11|^p_exp + |a22|^p_exp),
        l = (sqrt(delta)*f(u))^(1/alpha),  L = (sqrt(delta)*F(u))^(1/alpha),

    with f(u) = (-u + sqrt(u^2+4*gamma))/(2*gamma) and F(u) = u + sqrt(gamma).
    gamma is the paper's (q_conj+1)/(q_conj-1), q_conj = (q1+q2)/|q1-q2|,
    written so that it stays finite, 1, at q1 = q2 (the Hoelder limit with
    exponents 1 and infinity), and f is written as 2/(u + sqrt(u^2+4*gamma))
    to avoid cancellation. u and the powers overflow long before the bounds
    do, so log l and log L are formed from logs by logaddexp and moved
    outward by a running bound on their rounding: _RHO_ULPS eps of the logs
    they add, per unit of alpha, as in delta_rounding_bound. AnnulusOutOfRange
    is raised when l or L falls outside [1e-300, 1e300].
    """
    if not p.delta > 0.0:
        raise DeltaNotPositive(f"root bounds require delta > 0, got {p.delta!r}")
    log_delta = math.log(p.delta)
    m = min(p.q1, p.q2)
    alpha = 0.5 * (p.q1 + p.q2)
    p_exp = alpha / m
    gamma = max(p.q1, p.q2) / m
    log_d = max(-p.q1 * log_delta, -p.q2 * log_delta) / (2.0 * m)
    log_a = [p_exp * math.log(abs(c)) if c else -math.inf for c in (p.a11, p.a22)]
    log_u = log_d + _logaddexp(*log_a)
    log_F = _logaddexp(log_u, 0.5 * math.log(gamma))
    log_f = math.log(2.0) - _logaddexp(log_u, 0.5 * _logaddexp(2.0 * log_u, math.log(4.0 * gamma)))
    magnitude = 0.5 * abs(log_delta) + abs(log_d) + 0.5 * math.log(gamma) + 1.0
    magnitude += max((abs(v) for v in log_a if v > -math.inf), default=0.0)
    pad = _RHO_ULPS * _EPS * magnitude / alpha
    log_l = (0.5 * log_delta + log_f) / alpha - pad
    log_L = (0.5 * log_delta + log_F) / alpha + pad
    if not (_LOG_ANNULUS_MIN <= log_l and log_L <= _LOG_ANNULUS_MAX):
        raise AnnulusOutOfRange(
            f"root annulus [exp({log_l:.6g}), exp({log_L:.6g})] leaves [1e-300, 1e300]"
        )
    return RootBounds(math.exp(log_l), math.exp(log_L))


def _logaddexp(x: float, y: float) -> float:
    # log(e^x + e^y) without overflow; -inf stands for a zero term
    if x < y:
        x, y = y, x
    return x if x == -math.inf else x + math.log1p(math.exp(y - x))


def _exp_w(x: float, y: float) -> complex:
    # Im w = +-pi/2 is the imaginary axis; sample it exactly on Re s = 0
    if abs(y) == _HALF_PI:
        return complex(0.0, math.copysign(math.exp(x), y))
    return cmath.rect(math.exp(x), y)


def _winding(
    p: CharParams, x0: float, x1: float, y0: float, y1: float
) -> tuple[int, float, int, int]:
    """Wind Delta(e^w) around the w = log s rectangle [x0, x1] x [y0, y1].

    The rectangle is the annular sector x0 <= log|s| <= x1, y0 <= Arg s <= y1.
    Its edges run counterclockwise and linearly in w from 32 equal steps
    each; a step is bisected until the phase of Delta moves by less than
    pi/2. ContourThroughRoot is raised when a root lies on the contour to
    working precision: a sample with |Delta| <= delta_rounding_bound, which
    is relative to Delta's term majorant, or a step whose phase still jumps
    by pi/2 or more after _MAX_DEPTH bisections, which puts a root within
    2^-_MAX_DEPTH of a step of the edge. RefinementLimit is raised only for
    turns that do not settle to an integer >= 0. Returns (roots inside,
    turns, samples, deepest).
    """
    evals = 0
    deepest = 0

    def phase_at(x: float, y: float) -> float:
        nonlocal evals
        evals += 1
        s = _exp_w(x, y)
        val = delta_eval(p, s)
        if abs(val) <= delta_rounding_bound(p, s):
            raise ContourThroughRoot(
                f"|Delta| = {abs(val):.3e} is zero to rounding at contour point {s}"
            )
        return cmath.phase(val)

    total = 0.0
    corners = ((x1, y0), (x1, y1), (x0, y1), (x0, y0), (x1, y0))
    for (xa, ya), (xb, yb) in zip(corners, corners[1:]):
        dx, dy = xb - xa, yb - ya
        ts = [i / 32 for i in range(33)]
        phs = [phase_at(xa + dx * t, ya + dy * t) for t in ts]
        stack = [(ts[i], phs[i], ts[i + 1], phs[i + 1], 0) for i in range(32)]
        while stack:
            t0, ph0, t1, ph1, depth = stack.pop()
            d = (ph1 - ph0 + math.pi) % _TWO_PI - math.pi
            if abs(d) < _HALF_PI:
                total += d
                continue
            if depth + 1 > _MAX_DEPTH:
                s0, s1 = _exp_w(xa + dx * t0, ya + dy * t0), _exp_w(xa + dx * t1, ya + dy * t1)
                raise ContourThroughRoot(
                    f"phase step {d:.3f} rad still >= pi/2 at depth {_MAX_DEPTH}, "
                    f"a root between contour points {s0} and {s1}"
                )
            deepest = max(deepest, depth + 1)
            tm = 0.5 * (t0 + t1)
            phm = phase_at(xa + dx * tm, ya + dy * tm)
            stack.append((t0, ph0, tm, phm, depth + 1))
            stack.append((tm, phm, t1, ph1, depth + 1))
    turns = total / _TWO_PI
    n = round(turns)
    if abs(turns - n) > 1e-6 or n < 0:
        raise RefinementLimit(
            f"winding {turns!r} did not settle to a nonnegative integer"
        )
    return n, turns, evals, deepest


def _log_annulus(p: CharParams, b: RootBounds) -> tuple[float, float]:
    # the counted annulus, widened by 1e-3 so no bound root sits on an arc;
    # every term of Delta peaks on its outer arc, so the sum of their moduli
    # must stay a double there or no evaluation on the annulus can be trusted
    x0, x1 = math.log(b.l * (1.0 - 1e-3)), math.log(b.L * (1.0 + 1e-3))
    logs = [(p.q1 + p.q2) * x1, math.log(p.delta)]
    logs += [math.log(abs(c)) + q * x1 for c, q in ((p.a11, p.q2), (p.a22, p.q1)) if c != 0.0]
    top = max(logs)
    log_sum = top + math.log(sum(math.exp(v - top) for v in logs))
    if log_sum > _LOG_DBL_MAX:
        raise AnnulusOutOfRange(
            f"the terms of Delta sum to exp({log_sum:.6g}) at |s| = exp({x1:.6g}), past double range"
        )
    return x0, x1


def count_unstable_roots(p: CharParams) -> RootCountReport:
    """Count roots with Re s >= 0 (with multiplicity) by the argument principle.

    The contour bounds {Re s >= 0, l*(1-1e-3) <= |s| <= L*(1+1e-3)}, which in
    w = log s is the rectangle [log(l*(1-1e-3)), log(L*(1+1e-3))] x
    [-pi/2, pi/2]. Its vertical edges are the arcs, sampled uniformly in
    Arg s; its horizontal edges are the imaginary axis, sampled
    geometrically in |s|, so an annulus of many decades stays cheap.

    A system on the critical curve has a root on the imaginary axis, which
    the contour cannot count: it raises ContourThroughRoot, from a sample
    where Delta is zero to rounding or from a phase step that bisection
    cannot settle. Both tests are relative to Delta's term majorant. The
    count is checked invariant under time scaling for c in [1e-12, 1e12] on
    moderate systems only: a system that counts 2 counts 0 at c = 1e-8 and
    at c = 1e8 (ROADMAP items 1 and 13).
    """
    if not p.delta > 0.0:
        raise DeltaNotPositive(f"contour counting requires delta > 0, got {p.delta!r}")
    b = unstable_root_bounds(p)
    n, turns, evals, deepest = _winding(p, *_log_annulus(p, b), -_HALF_PI, _HALF_PI)
    return RootCountReport(n, b, evals, turns, deepest)


def _sign_change_zeros(f: Callable[[float], float], ts: list[float]) -> list[float]:
    # the zero of f in each [ts[i], ts[i+1]] (ts > 0) whose ends differ in sign,
    # bisected to adjacent doubles, at the geometric mean while the ends lie a
    # factor 2 apart; f must be monotone on each piece
    zeros = []
    pos = [f(t) > 0.0 for t in ts]
    for lo, hi, pos_lo, pos_hi in zip(ts, ts[1:], pos, pos[1:]):
        if pos_lo == pos_hi:
            continue
        while lo < (mid := 0.5 * (lo + hi) if hi <= 2 * lo else math.sqrt(lo) * math.sqrt(hi)) < hi:
            if (f(mid) > 0.0) == pos_lo:
                lo = mid
            else:
                hi = mid
        zeros.append(mid)
    return zeros


def positive_real_roots(p: CharParams) -> list[float]:
    """Locate the positive real roots of Delta exactly, in ascending order.

    With the orders sorted as a <= b and c_a, c_b the coefficients of t^a
    and t^b, Delta(e^x) = e^((a+b)x) + c_b*e^(bx) + c_a*e^(ax) + delta, and
    k(x) = (a+b)*e^(bx) + b*c_b*e^((b-a)x) + a*c_a = e^(-ax) dDelta/dx has
    the sign of Delta'. k' has one zero at most, where
    e^(ax) = -(b-a)*c_b/(a+b) (only for c_b < 0 and a < b), so k has two
    zeros at most and Delta is monotone on the at most three pieces between
    them. The zeros of k, then the sign changes of Delta, are bisected over
    the count's annulus to adjacent doubles t, with k and Delta taken from
    powers of t itself; no sampling. DeltaNotPositive for delta <= 0.
    """
    if not p.delta > 0.0:
        raise DeltaNotPositive(f"positive real roots require delta > 0, got {p.delta!r}")
    x0, x1 = _log_annulus(p, unstable_root_bounds(p))
    (a, c_a), (b, c_b) = sorted(((p.q1, -p.a22), (p.q2, -p.a11)))

    def delta(t: float) -> float:
        ta, tb = t**a, t**b
        return ta * tb + c_b * tb + c_a * ta + p.delta

    def k(t: float) -> float:
        return (a + b) * t**b + b * c_b * t ** (b - a) + a * c_a

    k_pieces = [math.exp(x0), math.exp(x1)]
    if c_b < 0.0 and a < b:
        x_crit = (math.log(-c_b) + math.log((b - a) / (a + b))) / a
        if x0 < x_crit < x1:
            k_pieces.insert(1, math.exp(x_crit))
    pieces = [k_pieces[0], *_sign_change_zeros(k, k_pieces), k_pieces[-1]]
    return _sign_change_zeros(delta, pieces)


def _delta_w(p: CharParams, w: complex) -> tuple[complex, complex]:
    # Delta(e^w) and its derivative in w, s*Delta'(s), from one set of powers
    total = p.q1 + p.q2
    t_q, t_2, t_1 = cmath.exp(total * w), p.a11 * cmath.exp(p.q2 * w), p.a22 * cmath.exp(p.q1 * w)
    return t_q - t_2 - t_1 + p.delta, total * t_q - p.q2 * t_2 - p.q1 * t_1


def _newton_upper(p: CharParams, w: complex) -> tuple[complex, complex] | None:
    # Newton on Delta(e^w) to the first iterate where Delta is zero to rounding,
    # the contour's test; returns it and s*Delta'(s) there, or None once an
    # iterate leaves 0 < Im w <= pi/2 or Delta's terms or rho leave the doubles
    for _ in range(_NEWTON_MAX):
        if not (0.0 < w.imag <= _HALF_PI and -_LOG_DBL_MAX <= w.real <= _LOG_DBL_MAX / max(1.0, p.q1 + p.q2)):
            return None
        rho = delta_rounding_bound(p, cmath.exp(w))
        if not rho < math.inf:
            return None
        f, df = _delta_w(p, w)
        if abs(f) <= rho:
            return w, df
        if df == 0:
            return None
        w -= f / df
    return None


def _continue_pair(p: CharParams) -> complex:
    # the unstable root in Im s > 0, continued in a22 from phi(a11), where it
    # is i*omega*: an Euler step in w = log s, dw/da22 = s^q1/(s*Delta'(s)),
    # then Newton; the step grows by 1.5 on success, shrinks by 4 on failure
    w_star, phi0, _ = _crossing(CurveParams(p.delta, p.q1, p.q2), p.a11)
    if not (math.isfinite(phi0) and p.a22 > phi0):
        raise RefinementLimit(f"a22 = {p.a22:.17g} does not lie above phi(a11) = {phi0:.17g}")
    w = complex(w_star + math.log(p.delta) / (p.q1 + p.q2), _HALF_PI)
    if not w.real <= _LOG_DBL_MAX / max(1.0, p.q1 + p.q2):
        raise RefinementLimit(f"the crossing i*omega* = i*exp({w.real:.6g}) is past double range")
    t, step, slope = phi0, p.a22 - phi0, _delta_w(CharParams(p.a11, phi0, p.delta, p.q1, p.q2), w)[1]
    while t < p.a22:
        if t + step == t:
            raise RefinementLimit(f"continuation stalled at a22 = {t:.17g} on the way to {p.a22:.17g}")
        t_next = min(t + step, p.a22)
        nxt = p if t_next == p.a22 else CharParams(p.a11, t_next, p.delta, p.q1, p.q2)
        guess = w + (t_next - t) * cmath.exp(p.q1 * w) / slope if slope else w
        located = _newton_upper(nxt, guess)
        if located is None:
            step *= 0.25
        else:
            (w, slope), t, step = located, t_next, 1.5 * step
    s = cmath.exp(w)
    if not (s.real >= 0.0 and s.imag > 0.0):
        raise RefinementLimit(f"continuation ended at {s}, outside Re s >= 0, Im s > 0")
    return s


def polish_unstable_roots(
    p: CharParams, expected: int | None = None
) -> list[complex]:
    """Locate all `expected` roots behind a root count, or raise.

    Positive real roots come from positive_real_roots, which isolates them
    exactly between Delta's critical points on the real axis. A count is at
    most 2, so a count of 2 with no positive real root is one complex pair,
    and any other count must equal the number of real roots. The pair is
    continued in a22 from (a11, phi(a11)) on Gamma, where it is +-i*omega*,
    by Newton on Delta(e^w) at each step: every iterate keeps
    0 < Arg s <= pi/2 and Delta's terms finite, and |Delta| must come within
    delta_rounding_bound in _NEWTON_MAX steps. The residual, the quadrant and
    the count certify the root. Returns exactly `expected` roots sorted by
    (real, imag), or raises RefinementLimit.
    """
    if expected is None:
        expected = count_unstable_roots(p).n_unstable
    if expected == 0:
        return []
    real = positive_real_roots(p)
    found = [complex(r, 0.0) for r in real]
    if expected == 2 and not real:
        s = _continue_pair(p)
        found += (s, s.conjugate())
    elif expected != len(real):
        raise RefinementLimit(f"{len(real)} positive real roots do not fit a count of {expected}")
    return sorted(found, key=lambda s: (s.real, s.imag))


@dataclass(frozen=True, eq=False)
class CompanionSystem:
    """Single-order companion form of a rational-order system.

    matrix is the (k1+k2) x (k1+k2) real matrix B whose order-(1/denom)
    linear system is equivalent to the original; the state chain is
    (x, D^(1/n)x, ..., D^((k1-1)/n)x, y, D^(1/n)y, ..., D^((k2-1)/n)y).
    """

    matrix: np.ndarray
    denom: int

    @property
    def base_order(self) -> float:
        return 1.0 / self.denom


def commensurate_reduce(
    s: SystemSpec, denominators: tuple[int, int]
) -> CompanionSystem:
    """Reduce q1 = k1/n, q2 = k2/n to one system of k1+k2 equations of order 1/n.

    denominators are the claimed denominators of q1 and q2; their lcm n must
    not exceed 64 and the orders must match k/n to within 1e-12, else
    NotRational. The chain rows shift by one 1/n-derivative each; the rows
    for D^(q1)x and D^(q2)y couple back to the x and y slots.
    """
    n1, n2 = denominators
    if not (isinstance(n1, int) and isinstance(n2, int) and n1 >= 1 and n2 >= 1):
        raise NotRational(f"denominators must be positive integers, got {denominators!r}")
    n = math.lcm(n1, n2)
    if n > 64:
        raise NotRational(f"common denominator {n} exceeds the supported 64")
    k1 = round(s.q1 * n)
    k2 = round(s.q2 * n)
    if k1 < 1 or abs(s.q1 - k1 / n) > 1e-12:
        raise NotRational(f"q1 = {s.q1!r} is not k/{n} within 1e-12")
    if k2 < 1 or abs(s.q2 - k2 / n) > 1e-12:
        raise NotRational(f"q2 = {s.q2!r} is not k/{n} within 1e-12")
    size = k1 + k2
    b = np.zeros((size, size))
    for i in range(k1 - 1):
        b[i, i + 1] = 1.0
    b[k1 - 1, 0] = s.a11
    b[k1 - 1, k1] = s.a12
    for j in range(k2 - 1):
        b[k1 + j, k1 + j + 1] = 1.0
    b[size - 1, 0] = s.a21
    b[size - 1, k1] = s.a22
    return CompanionSystem(matrix=b, denom=n)


def matignon_stable(cs: CompanionSystem) -> bool:
    """Sector criterion for the companion system: every eigenvalue lambda of B
    must satisfy |Arg lambda| > pi/(2n) for asymptotic stability."""
    eigs = np.linalg.eigvals(cs.matrix)
    return bool(np.all(np.abs(np.angle(eigs)) > math.pi / (2.0 * cs.denom)))
