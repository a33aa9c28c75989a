"""Trajectory integration for the two-dimensional multi-order Caputo IVP.

The integrator is the fractional Adams-Bashforth-Moulton predictor-corrector
(PECE, one corrector sweep) applied per component with that component's own
order: product-rectangle weights for the predictor, product-trapezoid weights
for the corrector, and the full memory term. With f = A x,

    predictor  x^P_{n+1} = x0 + h^q/G(q+1) * sum_{j<=n} d_{n-j} f_j,
               d_m = (m+1)^q - m^q,
    corrector  x_{n+1}   = x0 + h^q/G(q+2) * ( f(x^P_{n+1}) + a_{0,n} f_0
                           + sum_{1<=j<=n} c_{n-j} f_j ),
               a_{0,n} = n^(q+1) - (n-q)(n+1)^q,
               c_m = (m+2)^(q+1) + m^(q+1) - 2(m+1)^(q+1).

No short-memory truncation: the decay checks downstream rely on the exact
tail behavior. The memory sums are convolutions whose f_j become known one
step at a time, so they are split over a tree of power-of-two blocks (Hairer,
Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985; Garrappa,
Mathematics 6(2):16, 2018): pairs of steps inside one base block are summed
directly, and once the left half of a larger block is known, its share of the
sums of the right half is added by FFT. That costs O(N log^2 N) instead of
O(N^2), with the same weights, so the states match the direct sum to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chareq import SystemSpec
from .errors import NotDecaying, StepCap

__all__ = ["Trajectory", "DecayEstimate", "integrate", "estimate_decay", "STEP_CAP"]

# cap on the number of grid steps, which bounds a run's time and memory
STEP_CAP = 2e5

# steps per base block of the memory sums (a power of two); larger blocks
# trade FFT calls for longer direct sums
_BLOCK = 256

# states beyond this magnitude terminate the run with the overflow flag
_OVERFLOW_LIMIT = 1e300

_METHOD_NOTE = (
    "fractional Adams-Bashforth-Moulton PECE, per-component orders, "
    "full memory, one corrector sweep"
)


@dataclass(eq=False)
class Trajectory:
    """Discrete solution: times[k] = k*h, states[k] = (x, y) at times[k].

    overflowed marks early termination because the state left [-1e300, 1e300];
    for unstable systems this is an expected outcome, not a failure.
    """

    times: np.ndarray
    states: np.ndarray
    step: float
    method_order_note: str
    overflowed: bool = False

    def norms(self) -> np.ndarray:
        return np.hypot(self.states[:, 0], self.states[:, 1])


@dataclass(frozen=True)
class DecayEstimate:
    """Least-squares slope of log||state|| against log t over the tail."""

    slope: float
    tail_fraction: float
    r_squared: float


def integrate(
    s: SystemSpec, x0: tuple[float, float], t_end: float, h: float
) -> Trajectory:
    """Integrate the IVP from x(0) = x0 on the uniform grid with step h.

    Deterministic; raises StepCap when t_end/h exceeds 2e5 grid steps. The
    trajectory is truncated with overflowed=True as soon as a state component
    leaves the finite range (growth past 1e300).
    """
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be finite and > 0, got {t_end!r}")
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h must be finite and > 0, got {h!r}")
    if t_end / h > STEP_CAP * (1.0 + 1e-12):
        raise StepCap(
            f"t_end/h = {t_end / h:.3g} exceeds the {STEP_CAP:.0e} step cap"
        )
    x_init = np.asarray(x0, dtype=float)
    if x_init.shape != (2,) or not np.all(np.isfinite(x_init)):
        raise ValueError(f"x0 must be a finite real pair, got {x0!r}")

    n_steps = int(math.ceil(t_end / h - 1e-12))
    a11, a12, a21, a22 = s.a11, s.a12, s.a21, s.a22
    q1, q2 = qs = (s.q1, s.q2)
    x01, x02 = float(x_init[0]), float(x_init[1])
    wp1, wp2 = (h**q / math.gamma(q + 1.0) for q in qs)
    wc1, wc2 = (h**q / math.gamma(q + 2.0) for q in qs)

    ker = _kernels(qs, max(n_steps, _BLOCK))
    amat = np.array([[a11, a12], [a21, a22]])
    # near[2k + i, 2t + l] = ker[k, i, _BLOCK-1-t] * a_il, so that near @ x over
    # the flattened states of one block gives all four in-block sums of f = A x
    near = (ker[:, :, _BLOCK - 1 :: -1, None] * amat[:, None, :]).reshape(4, 2 * _BLOCK)

    x = np.empty((n_steps + 1, 2))
    flat_x = x.reshape(-1)
    x[0] = x01, x02
    f01 = a11 * x01 + a12 * x02
    f02 = a21 * x01 + a22 * x02
    # far[n] = (p1, p2, c1, c2): the predictor and corrector sums of step n over
    # the steps before its block. The corrector sums run from j = 0, so they
    # start at -c_n f_0 to cancel that term.
    far = np.zeros((n_steps, 4))
    far[:, 2] = ker[1, 0, :n_steps] * -f01
    far[:, 3] = ker[1, 1, :n_steps] * -f02

    overflowed = False
    last = n_steps
    for n in range(n_steps):
        r = n % _BLOCK
        if r == 0:
            if n:
                _add_far_field(far, ker, amat, x, n)
            far_block = far[n : n + _BLOCK].tolist()
        p1, p2, c1, c2 = far_block[r]
        # sums over j = n - r .. n, the steps of this block so far
        in_block = near[:, 2 * (_BLOCK - 1 - r) :] @ flat_x[2 * (n - r) : 2 * n + 2]
        dp1, dp2, dc1, dc2 = in_block.tolist()
        xp1 = x01 + wp1 * (p1 + dp1)
        xp2 = x02 + wp2 * (p2 + dp2)
        # a_{0,n} by scalar pow: the formula cancels, and numpy's vectorized
        # pow can differ from it in the last bit
        a01 = n ** (q1 + 1.0) - (n - q1) * (n + 1.0) ** q1
        a02 = n ** (q2 + 1.0) - (n - q2) * (n + 1.0) ** q2
        y1 = x01 + wc1 * (a11 * xp1 + a12 * xp2 + a01 * f01 + (c1 + dc1))
        y2 = x02 + wc2 * (a21 * xp1 + a22 * xp2 + a02 * f02 + (c2 + dc2))
        if not (abs(y1) <= _OVERFLOW_LIMIT and abs(y2) <= _OVERFLOW_LIMIT):
            overflowed = True
            last = n
            break
        x[n + 1] = y1, y2

    return Trajectory(
        times=h * np.arange(last + 1, dtype=float),
        states=x[: last + 1],
        step=h,
        method_order_note=_METHOD_NOTE,
        overflowed=overflowed,
    )


def _kernels(qs: tuple[float, float], length: int) -> np.ndarray:
    """Quadrature kernels ker[kind, component, m], m < length: kind 0 holds
    the predictor's d_m, kind 1 the corrector's c_m."""
    m = np.arange(length, dtype=float)
    ker = np.empty((2, 2, length))
    for i, q in enumerate(qs):
        ker[0, i] = (m + 1.0) ** q - m**q
        ker[1, i] = (m + 2.0) ** (q + 1.0) + m ** (q + 1.0) - 2.0 * (m + 1.0) ** (q + 1.0)
    return ker


def _add_far_field(
    far: np.ndarray, ker: np.ndarray, amat: np.ndarray, x: np.ndarray, n: int
) -> None:
    """Add the sums' terms j in [n - b, n) to steps [n, n + b), b = lowbit(n).

    One circular convolution of length 2b per component and kind; outputs at
    or past b see no wrap-around. Each block of f = A x is scaled by a power
    of two so that its transform cannot overflow where the direct sum would
    not.
    """
    b = n & -n
    size = 2 * b
    count = min(b, len(far) - n)
    for i in (0, 1):
        block = x[n - b : n] @ amat[i]
        exp = math.frexp(np.max(np.abs(block)))[1]
        spectrum = np.fft.rfft(np.ldexp(block, -exp, out=block), size)
        for k in (0, 1):
            product = np.fft.rfft(ker[k, i, :size], size)
            product *= spectrum
            conv = np.fft.irfft(product, size)
            far[n : n + count, 2 * k + i] += np.ldexp(conv[b : b + count], exp)


def estimate_decay(traj: Trajectory, tail_fraction: float) -> DecayEstimate:
    """Fit log||state|| ~ slope * log t over the final tail_fraction of samples.

    Requires an actually decaying trajectory (final norm below the initial
    one, no overflow) and at least two tail samples above the 1e-300
    underflow guard; otherwise NotDecaying.
    """
    if not (0.0 < tail_fraction <= 0.9):
        raise ValueError(f"tail_fraction must lie in (0, 0.9], got {tail_fraction!r}")
    norms = traj.norms()
    if traj.overflowed:
        raise NotDecaying("trajectory overflowed; norm grew past 1e300")
    if len(norms) < 3:
        raise NotDecaying("trajectory too short for a tail fit")
    if not norms[-1] < norms[0]:
        raise NotDecaying(
            f"final norm {norms[-1]:.6g} did not drop below initial {norms[0]:.6g}"
        )
    n = len(norms)
    i0 = max(1, n - max(2, int(round(n * tail_fraction))))
    t = traj.times[i0:]
    y = norms[i0:]
    keep = y > 1e-300
    if np.count_nonzero(keep) < 2:
        raise NotDecaying("tail norms underflowed the 1e-300 guard")
    log_t = np.log(t[keep])
    log_y = np.log(y[keep])
    slope, intercept = np.polyfit(log_t, log_y, 1)
    fit = slope * log_t + intercept
    ss_res = float(np.sum((log_y - fit) ** 2))
    ss_tot = float(np.sum((log_y - np.mean(log_y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayEstimate(
        slope=float(slope), tail_fraction=tail_fraction, r_squared=r_squared
    )
