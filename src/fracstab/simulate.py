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
tail behavior. The memory sums are convolutions, so they are split over a
tree of power-of-two blocks (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
Comput. 6, 1985; Garrappa, Mathematics 6(2):16, 2018): once the left half of
a larger block is known, its share of the sums of the right half is added by
FFT. That costs O(N log^2 N) instead of O(N^2), with the same weights.

Inside one base block the steps are solved together rather than one by one.
f = A x is linear, so a step is x_{n+1} = g_n + sum_{n0<=j<=n} K_{n-j} x_j
with K_m = Wc (A Wp D_m + C_m) A, Wp = diag(h^q/G(q+1)),
Wc = diag(h^q/G(q+2)), D_m = diag(d_m), C_m = diag(c_m), and g_n holding
the known terms. The unknowns z_r = x_{n0+r+1} of the block then solve the
same unit lower triangular block-Toeplitz system in every block, whose
inverse is the discrete resolvent R_0 = I, R_m = sum_{i<m} K_{m-1-i} R_i,
computed once per run. A block is z = R * rhs, a direct convolution cut to
the block. A second such solve, on the residual of the PECE steps as
written above, makes the states at least as accurate as a step-by-step
loop; with the merged kernels K alone, runs where the scheme itself is
unstable drifted from it by more than 1e-12 of the largest state. Where R_m leaves [-1e300, 1e300] before the end
of a block, blocks are solved in pieces short enough for R to stay finite.
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

# steps per base block (a power of two), solved together through the
# resolvent; larger blocks trade FFT calls for longer direct convolutions
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
    qs = (s.q1, s.q2)
    amat = np.array([[s.a11, s.a12], [s.a21, s.a22]])
    wp = np.array([h**q / math.gamma(q + 1.0) for q in qs])
    wc = np.array([h**q / math.gamma(q + 2.0) for q in qs])
    ker = _kernels(qs, max(n_steps, _BLOCK))

    x = np.empty((n_steps + 1, 2))
    x[0] = x_init
    f0 = amat @ x_init
    # far[n] = (p1, p2, c1, c2): the predictor and corrector sums of step n over
    # the steps before its block. The corrector sums run from j = 0, so they
    # start at -c_n f_0 to cancel that term.
    far = np.zeros((n_steps, 4))
    far[:, 2:] = ker[1, :, :n_steps].T * -f0

    last = n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        # step kernels K_m = Wc (A Wp D_m + C_m) A, m < _BLOCK
        size = min(_BLOCK, n_steps)
        kmat = amat * (wp * ker[0, :, :size].T)[:, None, :]
        kmat[:, (0, 1), (0, 1)] += ker[1, :, :size].T
        kmat = wc[:, None] * (kmat @ amat)
        res = _resolvent(kmat)
        for n0 in range(0, n_steps, _BLOCK):
            if n0:
                _add_far_field(far, ker, amat, x, n0)
            count = min(_BLOCK, n_steps - n0)
            # a_{0,n} by scalar pow: the formula cancels, and numpy's vectorized
            # pow can differ from it in the last bit
            a0 = np.array(
                [
                    [n ** (q + 1.0) - (n - q) * (n + 1.0) ** q for n in range(n0, n0 + count)]
                    for q in qs
                ]
            ).T
            a0f0 = a0 * f0
            z = x[n0 + 1 : n0 + 1 + count]
            z[:] = 0.0
            # two sweeps, the first seeing x_{n0} alone and the second the
            # whole block; each adds the solution of the block system for the
            # residual of the PECE steps as a step-by-step loop evaluates them
            for seen in (1, count):
                f = x[n0 : n0 + seen] @ amat.T
                sums = far[n0 : n0 + count].copy()
                for k in (0, 1):
                    for i in (0, 1):
                        sums[:, 2 * k + i] += np.convolve(ker[k, i, :count], f[:, i])[:count]
                xp = x_init + wp * sums[:, :2]
                pece = x_init + wc * (xp @ amat.T + a0f0 + sums[:, 2:])
                z += _solve_block(res, kmat, pece - z)
            inside = np.all(np.abs(z) <= _OVERFLOW_LIMIT, axis=1)
            if not inside.all():
                last = n0 + int(np.argmin(inside))
                break

    return Trajectory(
        times=h * np.arange(last + 1, dtype=float),
        states=x[: last + 1],
        step=h,
        method_order_note=_METHOD_NOTE,
        overflowed=last < n_steps,
    )


def _resolvent(kmat: np.ndarray) -> np.ndarray:
    """Discrete resolvent of the step kernels: R_0 = I and
    R_m = sum_{i<m} K_{m-1-i} R_i, ending before the first R_m with an entry
    outside [-1e300, 1e300]."""
    size = len(kmat)
    # krev[:, 2(size-1-m) : 2(size-m)] = K_m, so the last 2m columns are
    # (K_{m-1}, ..., K_0); rows 2i, 2i+1 of flat are R_i
    krev = kmat[::-1].transpose(1, 0, 2).reshape(2, 2 * size)
    res = np.empty((size, 2, 2))
    res[0] = np.eye(2)
    flat = res.reshape(2 * size, 2)
    for m in range(1, size):
        res[m] = krev[:, 2 * (size - m) :] @ flat[: 2 * m]
    inside = np.all(np.abs(res) <= _OVERFLOW_LIMIT, axis=(1, 2))
    return res if inside.all() else res[: np.argmin(inside)]


def _solve_block(res: np.ndarray, kmat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve z_r = rhs_r + sum_{i<r} K_{r-1-i} z_i for the rows of rhs.

    z is the resolvent convolved with rhs, in pieces of len(res) rows; the
    terms of earlier pieces join the right-hand side of later ones. Row r of
    z depends on rows i <= r of rhs only.
    """
    z = np.empty_like(rhs)
    for start in range(0, len(rhs), len(res)):
        stop = min(start + len(res), len(rhs))
        piece = rhs[start:stop].copy()
        if start:
            for i in (0, 1):
                for l in (0, 1):
                    piece[:, i] += np.convolve(kmat[: stop - 1, i, l], z[:start, l])[start - 1 : stop - 1]
        width = stop - start
        for i in (0, 1):
            z[start:stop, i] = (
                np.convolve(res[:width, i, 0], piece[:, 0])[:width]
                + np.convolve(res[:width, i, 1], piece[:, 1])[:width]
            )
    return z


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
