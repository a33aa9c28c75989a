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
from .chareq import _EPS, _HALF_PI, _RHO_ULPS, _check_order

__all__ = [
    "CurveParams",
    "solve_omega_star",
    "phi",
    "phi_bound",
    "phi_orders",
    "sample_curve",
]

_NEWTON_MAX = 50  # _omega_star's Newton step cap, past which BracketFailure is raised


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
    """(w*, phi(a11), E_phi) at q1 = q2 = q, a float or an array.

    omega*^(2q) = delta, so w* = 0 and phi = 2*sqrt(delta)*cos(q*pi/2) - a11,
    with cos(q*pi/2) as sin((1-q)*pi/2): 0 at q = 1, not cos(fl(pi/2)) = 6e-17.
    E_phi counts line's six roundings (as in _omega_star) and the difference's.
    """
    line = 2.0 * math.sqrt(delta) * np.sin((1.0 - q) * _HALF_PI)
    return 0.0, line - a11, _RHO_ULPS * _EPS * (7.0 * line + abs(a11))


def _logaddexp(a, b):
    """log(exp(a) + exp(b)) as numpy's npy_logaddexp forms it, for floats or arrays.

    np.logaddexp runs a scalar libm loop; this form runs numpy's vector exp
    and log1p, and gives a float the bits its array cell gets. An argument
    may be -inf, not both.
    """
    return np.maximum(a, b) + np.log1p(np.exp(-abs(a - b)))


def _omega_star(delta: float, a11: float, q1, q2):
    """(w*, phi(a11), E_phi) for q1 != q2; q1, q2 floats or arrays.

    Divided by omega^q2 and written in w, the frequency equation reads
    s2*exp(q1*w) + C = s1*exp(-q2*w), C = a11*sin((q1-q2)*pi/2)*delta^(-q1/Q).
    With (alpha, beta, s) = (min(q1, q2), max(q1, q2), 1) for a11 >= 0, else
    (max, min, -1), and u = s*sign(q2 - q1)*w, moving C to the side where it
    adds and taking logs gives

        K(u) = alpha*u - logaddexp(log(|C|/s_beta), log(s_alpha/s_beta) - beta*u) = 0,

    increasing and concave from -inf to +inf, so Newton from a u where K <= 0
    needs no bracket: its iterates lie left of the root and rise to it
    (Fourier's condition). Newton stops once |K| <= _RHO_ULPS*eps*n_K
    and takes the step this last evaluation asks for; more than _NEWTON_MAX
    steps raise BracketFailure. Each cell of an array stops on its own test
    and is stepped no further, so it takes exactly the steps of the scalar
    call at its orders and returns its bits.

    phi takes the form of the module docstring with s_beta in the
    denominator. Where a11 > 0 the other form can cancel by a factor of
    order (s_beta/s_alpha)^2; this one never has larger terms than the
    paper's form, which divides by sin((q2-q1)*pi/2). Scaled by the larger
    term, phi is +-inf past double range, never NaN.
    sin(Q*pi/2) for Q > 1 is sin((2-Q)*pi/2), from the exact 1 - q_k.

    E_phi is a running error bound (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.3) scaled by _RHO_ULPS. n_K and the other counts are
    in eps per operation: each counts the modulus of its result, a sum of n
    parts (n - 1) times their moduli, and sin(q*pi/2) 3 relatively (fl(pi/2),
    the product, sin; x*cot(x) <= 1), one more per rounded order sum or
    difference. u ends off the root by eps*(n_K/K' + |u|), which moves phi by
    |dphi/du| = alpha*t1 + |q2 - q1|*t2 (t1, t2 the moduli of phi's terms),
    and each term's log moves the term relatively.

    lae is _logaddexp's m + log1p(y), m the larger argument, y = exp(-d) and
    d the gap, in numpy's vector exp and log1p for floats and arrays alike.
    It relies on their float64 results lying within 1 ulp of the correctly
    rounded one, so 1.5 ulp of the exact one, the bound numpy's accuracy
    tests (test_umath_accuracy) hold them to; on AVX-512 with numpy 2.4 they
    came within 0.71 and 0.61 ulp of 64-bit-mantissa values on 6e6
    arguments each. With y/(1+y) <= 1/2 the weight of the smaller argument,
    d's rounding moves lae by at most eps*d*y/(2*(1+y)) <= 0.14 eps, exp's
    1.5 ulp by 1.5 eps*y/(1+y) <= 0.75 eps, and log1p's 1.5 ulp of a result
    below ln 2 by 0.75 eps: 1.64 eps, inside the 2 eps that n_K's constant
    grants lae; the rounding of the sum is inside its 2*|lae|.
    """
    a, b = np.minimum(q1, q2), np.maximum(q1, q2)
    total, gap = q1 + q2, q2 - q1
    log_delta = math.log(delta)
    log_a11 = math.log(abs(a11)) if a11 else -math.inf
    n_a11 = abs(log_a11) if a11 else 0.0  # a zero C has no rounding
    alpha, beta, sign = (a, b, 1.0) if a11 >= 0.0 else (b, a, -1.0)
    s_alpha, s_beta = np.sin(alpha * _HALF_PI), np.sin(beta * _HALF_PI)
    log_g, p_c = np.log(abs(np.sin(gap * _HALF_PI)) / s_beta), q1 / total * log_delta
    log_ca = log_a11 + log_g - p_c
    log_ba = np.log(s_alpha / s_beta)
    # counts of log(|C|/s_beta), its sines 4 + 3 + 1, and of log_ba - beta*u
    # but the product, its sines 3 + 3 + 1, less the first
    n_ca = 3.0 * (n_a11 + abs(log_g)) + 6.0 * abs(p_c) + 8.0
    n_x = 2.0 * abs(log_ba) + 7.0 - n_ca
    u = np.maximum(log_ca / alpha, log_ba / (alpha + beta))  # K(u) <= 0: lae >= either argument
    for _ in range(_NEWTON_MAX + 1):
        other = log_ba - beta * u
        lae = _logaddexp(log_ca, other)
        x = np.exp(other - lae)  # d lae/d other; 1 - x is d lae/d log_ca
        slope = alpha + beta * x  # K'(u)
        k = alpha * u - lae
        # K adds 2*(|alpha*u| + |lae| + 1) to its arguments' counts, weighted
        # by 1 - x and x, and |alpha*u| + x*|beta*u| is |u|*K'(u)
        n_k = 2.0 * (abs(lae) + abs(u) * slope + 1.0) + n_ca + x * n_x
        done = abs(k) <= _RHO_ULPS * _EPS * n_k
        if done.all() if done.ndim else done:
            break
        u = u - k / slope * np.logical_not(done)  # a settled cell stays
    else:
        raise BracketFailure(f"Newton for omega* did not settle in {_NEWTON_MAX} steps")
    u = u - k / slope
    err_u = _EPS * (n_k / slope + abs(u))
    w = sign * np.sign(gap) * u
    s_total = np.sin(np.minimum(total, (1.0 - q1) + (1.0 - q2)) * _HALF_PI)
    # phi = [V*sin(Q*pi/2) - a11*omega^(q2-q1)*s_alpha] / s_beta, where V is
    # omega^q2 for alpha = q2 and delta*omega^(-q1) for alpha = q1
    p_t, log_t = q2 / total * log_delta, np.log(s_total / s_beta)
    log1 = (p_t + log_t) - alpha * u
    p_g, gw = gap / total * log_delta, gap * w
    log2 = (log_a11 + p_g + log_ba) + gw
    top = np.maximum(log1, log2)
    r1, r2 = np.exp(log1 - top), np.exp(log2 - top)
    rest = r1 - sign * r2  # phi / exp(top), in [-1, 2]
    # each log's count (sines 5 + 3 + 1, and 7), plus 5 for the exps and products after it
    n1 = 6.0 * abs(p_t) + 3.0 * (abs(log_t) + alpha * abs(u)) + 14.0
    n2 = 4.0 * (n_a11 + abs(log_ba)) + 8.0 * abs(p_g) + 5.0 * abs(gw) + 12.0
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(top)
        phi_val = np.where(rest == 0.0, 0.0, scale * rest)  # not inf * 0
        # t_i = scale*r_i; the bracket is >= 12 eps, so an infinite scale gives inf
        err = _RHO_ULPS * scale * (r1 * (alpha * err_u + _EPS * n1) + r2 * (abs(gap) * err_u + _EPS * n2))
    return w, phi_val, err


def _crossing(cp: CurveParams, a11: float) -> tuple[float, float, float]:
    """(w*, phi(a11), E_phi) for one order pair."""
    if not math.isfinite(a11):
        raise ValueError(f"a11 must be finite, got {a11!r}")
    if cp.q1 == cp.q2:
        w, val, err = _equal_orders(cp.delta, a11, cp.q1)
    else:
        w, val, err = _omega_star(cp.delta, a11, cp.q1, cp.q2)
    return float(w), float(val), float(err)


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


def phi_bound(cp: CurveParams, a11: float) -> tuple[float, float]:
    """(phi(a11), E_phi), with E_phi the bound on phi's rounding error of _omega_star."""
    return _crossing(cp, a11)[1:]


def phi_orders(delta: float, a11: float, q1, q2) -> tuple[np.ndarray, np.ndarray]:
    """phi_bound(CurveParams(delta, q1, q2), a11) for every order pair of two arrays.

    q1 and q2 broadcast against each other; returns the arrays of phi and
    E_phi. Pairs with q1 == q2 go through phi itself, in closed form; the
    others through the Newton iteration of _omega_star at once, which raises
    BracketFailure if any cell fails. Every cell takes the steps the scalar
    phi takes, so each value is bitwise phi_bound at its order pair.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    if not math.isfinite(a11):
        raise ValueError(f"a11 must be finite, got {a11!r}")
    q1, q2 = np.broadcast_arrays(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float))
    if not np.all((q1 > 0.0) & (q1 <= 1.0) & (q2 > 0.0) & (q2 <= 1.0)):
        raise ValueError("orders must lie in (0, 1]")
    out, errs = np.empty(q1.shape), np.empty(q1.shape)
    equal = q1 == q2
    other = ~equal
    q = q1[equal]
    out[equal] = [phi(CurveParams(delta, v, v), a11) for v in q.tolist()]
    errs[equal] = _equal_orders(delta, a11, q)[2]
    _, out[other], errs[other] = _omega_star(delta, a11, q1[other], q2[other])
    return out, errs


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
