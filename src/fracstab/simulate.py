"""Trajectory integration for the two-dimensional multi-order Caputo IVP.

The integrator is the implicit fractional product-trapezoidal rule, the
Adams-Moulton corrector of the fractional Adams-Bashforth-Moulton method
solved exactly (Garrappa, Math. Comput. Simul. 110, 2015). It is applied per
component with that component's own order, with the full memory term. With
f = A x,

    x_{n+1} = x0 + h^q/G(q+2) * ( f_{n+1} + a_{0,n} f_0 + sum_{1<=j<=n} c_{n-j} f_j ),
    a_{0,n} = n^(q+1) - (n-q)(n+1)^q,
    c_m     = (m+2)^(q+1) + m^(q+1) - 2(m+1)^(q+1).

f is linear, so each step is one solve with the same 2 x 2 matrix
M = I - Wc A, Wc = diag(h^q/G(q+2)). SingularStep is raised when det M is
zero to rounding or not finite. The implicit step's stability region is far
larger than an explicit predictor's, so stiff stable systems need no small
h. In turn it can damp an unstable root s that the step does not resolve, so
a growing system then may look decaying: h |s| > 1 is never resolved, and a
root with Re s << |s| needs h |s| well below 1 (one with Re s / |s| = 0.004
still looked decaying at h |s| = 0.54).

As written, each weight is a difference of terms up to m^2 times larger than
itself; `_weights` evaluates both in forms that do not cancel (expm1 and
log1p, and series in 1/m), to about 1e-14 relative.

No short-memory truncation: the decay checks downstream rely on the exact
tail behavior. The memory sums are convolutions, so they are split over a
tree of power-of-two blocks (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
Comput. 6, 1985; Garrappa, Mathematics 6(2):16, 2018): once the left half of
a larger block is known, its share of the sums of the right half is added by
FFT. That costs O(N log^2 N) instead of O(N^2), with the same weights.

A step is x_{n+1} = g_n + sum_{n0<=j<=n} K_{n-j} x_j with the step kernels
K_m = M^-1 Wc C_m A, C_m = diag(c_m), and g_n = M^-1 (x0 + Wc (a_{0,n} - c_n)
f_0) holding the known terms. The far field of a step only enters through
that sum, so it is kept as one pair per step, and the FFT of a tree level
convolves the x block with the spectrum of K_m, m < 2b: two forward and two
inverse real transforms per block. Each level's spectrum is built on its
first block and dropped after its last.

Inside one base block the steps are solved together rather than one by one.
The unknowns z_r = x_{n0+r+1} of the block solve the same unit lower
triangular block-Toeplitz system in every block, whose inverse is the
discrete resolvent R_0 = I, R_m = sum_{i<m} K_{m-1-i} R_i, computed once per
run. A block is z = R * rhs, a direct convolution cut to the block. The base
block holds 256 steps, or, where R_m leaves [-1e300, 1e300] within the first
min(256, N) steps of N, the largest power of two of steps over which R stays
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chareq import SystemSpec
from .errors import NotDecaying, SingularStep, StepCap

__all__ = ["Trajectory", "DecayEstimate", "integrate", "estimate_decay", "STEP_CAP"]

# cap on the number of grid steps, which bounds a run's time and memory
STEP_CAP = 2e5

# steps per base block (a power of two), solved together through the
# resolvent; larger blocks trade FFT calls for longer direct convolutions
_BLOCK = 256

# states beyond this magnitude terminate the run with the overflow flag
_OVERFLOW_LIMIT = 1e300

# the share of the samples, counted from the end, that estimate_decay fits
_TAIL_FRACTION = 0.5


@dataclass(eq=False)
class Trajectory:
    """Discrete solution: times[k] = k*h, states[k] = (x, y) at times[k].

    overflowed marks early termination because the state left [-1e300, 1e300];
    for unstable systems this is an expected outcome, not a failure.
    """

    times: np.ndarray
    states: np.ndarray
    step: float
    overflowed: bool = False

    def norms(self) -> np.ndarray:
        return np.hypot(self.states[:, 0], self.states[:, 1])


@dataclass(frozen=True)
class DecayEstimate:
    """Least-squares slope of log||state|| against log t over the tail."""

    slope: float
    r_squared: float


def integrate(
    s: SystemSpec, x0: tuple[float, float], t_end: float, h: float
) -> Trajectory:
    """Integrate the IVP from x(0) = x0 on the uniform grid with step h.

    Deterministic; raises StepCap when t_end/h exceeds 2e5 grid steps and
    SingularStep when the step's matrix I - Wc A is singular to rounding. The
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
    wc = np.array([h**q / math.gamma(q + 2.0) for q in qs])
    # M = I - Wc A, as Python floats, whose products overflow to inf quietly
    (m00, m01), (m10, m11) = (np.eye(2) - wc[:, None] * amat).tolist()
    det = m00 * m11 - m01 * m10
    if not (math.isfinite(det) and abs(det) > 4.0 * math.ulp(1.0) * (abs(m00 * m11) + abs(m01 * m10))):
        raise SingularStep(
            f"det(I - Wc A) = {det:.6g} at h = {h!r} is zero to rounding or "
            "not finite, so the implicit step has no unique solution"
        )
    # the solve of each step, folded into the kernels and the known terms
    inv = np.array([[m11, -m01], [-m10, m00]]) / det
    mw = inv * wc
    weights = _weights(qs, max(n_steps, _BLOCK))

    x = np.empty((n_steps + 1, 2))
    x[0] = x_init
    f0 = amat @ x_init
    # far[n]: the known terms of step n, g_n, plus what the steps before n's
    # block add to it, M^-1 Wc C f for their sums C f. C runs from j = 0, so
    # g_n = M^-1 (x0 + Wc (a_{0,n} - c_n) f_0) adds the a_{0,n} f_0 term and
    # cancels the c_n f_0 one.
    far = inv @ x_init + ((weights[1, :, :n_steps] - weights[0, :, :n_steps]).T * f0) @ mw.T
    # a_{0,n} is not needed past far
    c = weights[0].copy()
    del weights

    # spectra[b]: rfft of K_m, m < 2b, for the blocks of length b added by
    # FFT; built on a level's first block and dropped after its last one
    spectra = {}

    last = n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        # K_m = M^-1 Wc C_m A = kern[:, :, m] = (basis @ c[:, m]).reshape(2, 2)
        basis = (mw[:, None, :] * amat.T).reshape(4, 2)
        kern = (basis @ c[:, : min(_BLOCK, n_steps)]).reshape(2, 2, -1)
        res = _resolvent(kern)
        span = res.shape[2]
        # a resolvent that overflows inside kern's columns shrinks the base
        # block to the largest power of two it covers
        block = _BLOCK if span == kern.shape[2] else 1 << (span.bit_length() - 1)
        for n0 in range(0, n_steps, block):
            if n0:
                b = n0 & -n0
                spectrum = spectra.pop(b, None)
                if spectrum is None:
                    spectrum = np.fft.rfft((basis @ c[:, : 2 * b]).reshape(2, 2, -1), 2 * b)
                _add_far_field(far, spectrum, x, n0)
                if n0 + 2 * b < n_steps:
                    spectra[b] = spectrum
            count = min(block, n_steps - n0)
            # the block's steps z_r = x_{n0+r+1} are far_{n0+r} + K_r x_{n0}
            # + sum_{i<r} K_{r-1-i} z_i, so z is R convolved with the rhs
            rhs = far[n0 : n0 + count] + x[n0] @ kern[:, :, :count].T
            z = x[n0 + 1 : n0 + 1 + count]
            for i in (0, 1):
                z[:, i] = (
                    np.convolve(res[i, 0, :count], rhs[:, 0])[:count]
                    + np.convolve(res[i, 1, :count], rhs[:, 1])[:count]
                )
            if not np.max(np.abs(z)) <= _OVERFLOW_LIMIT:
                inside = np.all(np.abs(z) <= _OVERFLOW_LIMIT, axis=1)
                last = n0 + int(np.argmin(inside))
                break

    return Trajectory(
        times=h * np.arange(last + 1, dtype=float),
        states=x[: last + 1],
        step=h,
        overflowed=last < n_steps,
    )


def _resolvent(kern: np.ndarray) -> np.ndarray:
    """Discrete resolvent of the step kernels K_m = kern[:, :, m]: R_0 = I
    and R_m = sum_{i<m} K_{m-1-i} R_i as res[:, :, m], ending before the
    first R_m with an entry outside [-1e300, 1e300]."""
    size = kern.shape[2]
    # krev[:, 2(size-1-m) : 2(size-m)] = K_m, so the last 2m columns are
    # (K_{m-1}, ..., K_0); rows 2i, 2i+1 of flat are R_i
    krev = kern[:, :, ::-1].transpose(0, 2, 1).reshape(2, 2 * size)
    res = np.empty((size, 2, 2))
    res[0] = np.eye(2)
    flat = res.reshape(2 * size, 2)
    for m in range(1, size):
        np.dot(krev[:, 2 * (size - m) :], flat[: 2 * m], out=res[m])
    inside = np.all(np.abs(res) <= _OVERFLOW_LIMIT, axis=(1, 2))
    return res.transpose(1, 2, 0)[:, :, : size if inside.all() else np.argmin(inside)].copy()


def _horner(coefs: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sum_k coefs[:, k] x^k, one row of coefficients per row of out."""
    np.multiply(coefs[:, -1:], x, out=out)
    out += coefs[:, -2:-1]
    for k in range(coefs.shape[1] - 3, -1, -1):
        out *= x
        out += coefs[:, k : k + 1]
    return out


def _weights(qs: tuple[float, float], length: int) -> np.ndarray:
    """The product-trapezoid weights w[kind, component, m], m < length: kind
    0 holds c_m and kind 1 a_{0,m}.

    Each is a difference of terms up to m^2 times larger than itself, so
    each is evaluated in a form that does not cancel:
        c_m     = 2 (m+1)^(q+1) sum_{k>=1} C(q+1, 2k) (m+1)^(-2k), and for
                  m < 4 the second difference of x^(q+1) = x + x expm1(q log x),
        a_{0,n} = -n^(q+1) expm1(L), L = log1p(-q/n) + q log1p(1/n), with L
                  summed as its series sum_{k>=2} (q (-1)^(k+1) - q^k) / (k n^k)
                  from n = 16 on.
    Against 50-digit values the relative error stays below 1e-13. The rows
    are filled in place, which keeps the temporaries of a long run small.
    """
    q = np.array(qs)[:, None]
    m = np.arange(length, dtype=float)
    w = np.empty((2, 2, length))
    c, a0 = w
    with np.errstate(divide="ignore", invalid="ignore"):
        # c_m: from m = 4 on consecutive terms of the series shrink by more
        # than 25 times, and 15 terms reach the last bit; c holds (m+1)^q
        # until the series multiplies it
        np.power(m + 1.0, q, out=c)
        head = m[:4]
        c[:, :4] = (
            (head + 2.0) * np.expm1(q * np.log(head + 2.0))
            + head * np.expm1(q * np.log(head))
            - 2.0 * (head + 1.0) * np.expm1(q * np.log(head + 1.0))
        )
        # binom[:, j] = C(q+1, j+1); q - (j - 1) keeps q + 1 - j exact for small q
        j = np.arange(30.0)
        binom = np.cumprod((q - (j - 1.0)) / (j + 1.0), axis=1)
        r = 1.0 / (m[4:] + 1.0)
        c[:, 4:] *= _horner(binom[:, 1::2], r * r, out=np.empty((2, len(r))))
        c[:, 4:] *= 2.0 * r
        # a_{0,n} = -n^q n expm1(L): a_{0,0} = q; at q = 1, n = 1 the log1p
        # form reads expm1(-inf) = -1, which is exact; from n = 16 on, 14
        # terms of the series reach the last bit
        np.power(m, q, out=a0)
        head = m[:16]
        a0[:, :16] *= -head * np.expm1(np.log1p(-q / head) + q * np.log1p(1.0 / head))
        a0[:, 0] = qs
        u = 1.0 / m[16:]
        k = np.arange(2.0, 16.0)
        series = _horner((q * (-1.0) ** (k + 1.0) - q**k) / k, u, out=np.empty((2, len(u))))
        series *= u * u
        a0[:, 16:] *= np.expm1(series, out=series)
        a0[:, 16:] *= -m[16:]
    return w


def _add_far_field(far: np.ndarray, spectrum: np.ndarray, x: np.ndarray, n: int) -> None:
    """Add the terms of steps j in [n - b, n) to far at steps [n, n + b),
    b = lowbit(n), given spectrum = rfft(K_m, m < 2b).

    One circular convolution of length 2b: the block of x is transformed
    (two real FFTs), multiplied by the merged 2 x 2 kernel spectrum, and
    transformed back (two inverse FFTs); outputs at or past b see no
    wrap-around. The block is scaled by a power of two so that its transform
    cannot overflow where the direct sum would not.
    """
    b = n & -n
    size = 2 * b
    count = min(b, len(far) - n)
    block = x[n - b : n].T
    exp = math.frexp(np.max(np.abs(block)))[1]
    xs = np.fft.rfft(np.ldexp(block, -exp), size)
    for i in (0, 1):
        product = spectrum[i, 0] * xs[0]
        product += spectrum[i, 1] * xs[1]
        far[n : n + count, i] += np.ldexp(np.fft.irfft(product, size)[b : b + count], exp)


def estimate_decay(traj: Trajectory) -> DecayEstimate:
    """Fit log||state|| ~ slope * log t over the last half of the samples (_TAIL_FRACTION).

    Requires an actually decaying trajectory (final norm below the initial
    one, no overflow) and at least two tail samples above the 1e-300
    underflow guard; otherwise NotDecaying.
    """
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
    i0 = max(1, n - max(2, int(round(n * _TAIL_FRACTION))))
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
    return DecayEstimate(slope=float(slope), r_squared=r_squared)
