"""Tests for the implicit fractional product-trapezoid integrator and decay fits."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fracstab import (
    CurveParams,
    NotDecaying,
    SingularStep,
    StepCap,
    SystemSpec,
    VerdictKind,
    classify,
    classify_order_independent,
    estimate_decay,
    integrate,
)
from fracstab import simulate
from fracstab.chareq import _EPS, _RHO_ULPS
from fracstab.simulate import _BLOCK, STEP_CAP, _weights
from paper_gamma import curve_point

REF_A = dict(a11=0.00001, a12=1.0, a21=-0.0022, a22=0.1)
REF_STABLE = SystemSpec(**REF_A, q1=0.5, q2=0.25)
REF_GROWING = SystemSpec(**REF_A, q1=0.25, q2=0.5)
DECOUPLED = SystemSpec(-1.0, 0.0, 0.0, -1.0, 0.5, 0.5)
FOCUS = SystemSpec(-1.0, 2.0, -2.0, -1.0, 1.0, 1.0)
MIXED = SystemSpec(-1.0, 0.5, -0.5, -0.8, 0.6, 0.9)


def direct_integrate(s, x0, t_end, h):
    """Reference implicit product-trapezoid rule: the same weights summed
    directly, O(N^2), and each step's 2 x 2 system solved by itself.

    Returns (states, overflowed); integrate must agree with it. The weights
    c_m and a_{0,n} come from `_weights`, which test_weights_match_mpmath
    checks against 50-digit values.
    """
    n_steps = math.ceil(t_end / h * (1.0 - _RHO_ULPS * _EPS))
    a = np.array([[s.a11, s.a12], [s.a21, s.a22]])
    qs = (s.q1, s.q2)
    c_ker, a0_ker = _weights(qs, n_steps + 1)
    w_corr = np.array([h**q / math.gamma(q + 2.0) for q in qs])
    m = np.eye(2) - w_corr[:, None] * a
    x_init = np.asarray(x0, dtype=float)
    x = np.empty((n_steps + 1, 2))
    f = np.empty((n_steps + 1, 2))
    x[0] = x_init
    f[0] = a @ x_init
    for n in range(n_steps):
        a0 = a0_ker[:, n]
        mem = np.array([np.dot(c_ker[i][:n][::-1], f[1 : n + 1, i]) for i in (0, 1)])
        x[n + 1] = np.linalg.solve(m, x_init + w_corr * (a0 * f[0] + mem))
        if not np.all(np.isfinite(x[n + 1])) or np.max(np.abs(x[n + 1])) > 1e300:
            return x[: n + 1], True
        f[n + 1] = a @ x[n + 1]
    return x, False


def test_trajectory_fields():
    traj = integrate(DECOUPLED, (1.0, 2.0), 1.0, 0.01)
    assert traj.times[0] == 0.0
    assert traj.states[0, 0] == 1.0 and traj.states[0, 1] == 2.0
    assert len(traj.times) == len(traj.states) == 101
    assert traj.step == 0.01
    assert not traj.overflowed
    assert np.all(np.diff(traj.times) > 0)
    assert traj.norms() == pytest.approx(np.hypot(traj.states[:, 0], traj.states[:, 1]))


def test_decoupled_relaxation_monotone():
    traj = integrate(DECOUPLED, (1.0, 1.0), 5.0, 1e-3)
    x = traj.states[1:, 0]
    assert np.all(x > 0.0) and np.all(x < 1.0)
    assert np.all(np.diff(x) < 0.0)


def test_classical_case_matches_matrix_exponential():
    from scipy.linalg import expm

    traj = integrate(FOCUS, (1.0, 0.0), 2.0, 1e-3)
    a = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    worst = 0.0
    for i in range(0, len(traj.times), 100):
        exact = expm(a * traj.times[i]) @ np.array([1.0, 0.0])
        worst = max(worst, float(np.hypot(*(traj.states[i] - exact))))
    assert worst <= 1e-4


@pytest.mark.xfail(
    strict=True,
    reason="the reference stable system peaks near t ~ 3e3; at t = 200 the norm "
    "is still growing, so the decay is only visible on far longer horizons "
    "(see test_stable_reference_long_horizon_decay)",
)
def test_stable_reference_norm_short_horizon():
    traj = integrate(REF_STABLE, (1.0, 1.0), 200.0, 5e-3)
    norms = traj.norms()
    tail = norms[-len(norms) // 4:]
    assert np.all(np.diff(tail) < 0.0)
    assert tail[-1] < norms[0]


def test_stable_reference_long_horizon_decay():
    assert classify(REF_STABLE).kind is VerdictKind.StableForOrders
    traj = integrate(REF_STABLE, (1.0, 1.0), 1e5, 2.5)
    norms = traj.norms()
    assert not traj.overflowed
    peak = float(norms.max())
    assert norms[-1] < 0.5 * peak
    tail_n = len(norms) // 4
    t = np.asarray(traj.times[-tail_n:])
    n = norms[-tail_n:]
    assert np.all(np.diff(n) < 0.0)
    slope = np.polyfit(np.log(t), np.log(n), 1)[0]
    assert slope == pytest.approx(-0.25, rel=0.30)


def test_estimate_decay_decoupled():
    traj = integrate(DECOUPLED, (1.0, 1.0), 50.0, 0.01)
    est = estimate_decay(traj)
    assert est.slope == pytest.approx(-0.5, rel=0.20)
    assert est.r_squared > 0.99


def test_estimate_decay_classical_focus():
    traj = integrate(FOCUS, (1.0, 0.0), 20.0, 0.01)
    est = estimate_decay(traj)
    assert est.slope < -2.0  # exponential decay swamps any algebraic fit


@pytest.mark.xfail(
    strict=True,
    reason="at t = 200 the reference stable system has final norm above its "
    "initial norm (transient peak near t ~ 3e3), so the decay precondition "
    "cannot hold on this horizon",
)
def test_estimate_decay_stable_reference_short_horizon():
    traj = integrate(REF_STABLE, (1.0, 1.0), 200.0, 5e-3)
    est = estimate_decay(traj)
    assert est.slope == pytest.approx(-0.25, rel=0.30)


def test_estimate_decay_rejects_growth():
    traj = integrate(REF_GROWING, (1.0, 1.0), 50.0, 0.05)
    assert traj.norms()[-1] > traj.norms()[0]
    with pytest.raises(NotDecaying):
        estimate_decay(traj)


def test_overflow_is_flagged_not_raised():
    traj = integrate(SystemSpec(5.0, 0.0, 0.0, 5.0, 1.0, 1.0), (1.0, 1.0), 200.0, 0.01)
    assert traj.overflowed
    assert len(traj.times) < 20001  # truncated early
    assert np.all(np.isfinite(traj.states))
    with pytest.raises(NotDecaying):
        estimate_decay(traj)


def test_linearity_in_initial_condition():
    s = SystemSpec(-1.0, 0.5, -0.5, -0.8, 0.6, 0.9)
    base = integrate(s, (1.0, 0.5), 5.0, 0.01)
    scaled = integrate(s, (3.7, 1.85), 5.0, 0.01)
    err = np.abs(scaled.states - 3.7 * base.states)
    assert np.all(err <= 1e-10 * (1.0 + np.abs(scaled.states)))


def test_refinement_convergence_order():
    s = SystemSpec(-1.0, 0.5, -0.5, -0.8, 0.6, 0.9)
    finals = [integrate(s, (1.0, 0.5), 2.0, h).states[-1] for h in (0.02, 0.01, 0.005, 0.0025)]
    d = [float(np.hypot(*(a - b))) for a, b in zip(finals, finals[1:])]
    assert d[0] / d[1] >= 1.8
    assert d[1] / d[2] >= 1.8


def test_verdict_corroboration():
    # random order-dependent systems at a safe margin from the curve:
    # stable verdicts must show a factor-100 norm drop by t = 500 and
    # unstable verdicts must show growth
    rng = np.random.default_rng(20240817)

    def draw_system():
        while True:
            q1, q2 = rng.uniform(0.85, 1.0, size=2)
            delta = rng.uniform(0.5, 2.0)
            omega = rng.uniform(-1.0, 1.0)
            pt = curve_point(CurveParams(delta, q1, q2), omega)
            if max(abs(pt.a11), abs(pt.a22)) > 2.0:
                continue
            u = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
            a11, a22 = pt.a11, pt.a22 + u
            if max(abs(a11), abs(a22)) > 3.0:
                continue
            if classify_order_independent(a11, a22, delta) is not None:
                continue
            s = SystemSpec(a11, 1.0, a11 * a22 - delta, a22, q1, q2)
            v = classify(s)
            if abs(v.margin) < 0.05 or v.kind not in (
                VerdictKind.StableForOrders,
                VerdictKind.UnstableForOrders,
            ):
                continue
            return s, v

    for _ in range(30):
        s, v = draw_system()
        traj = integrate(s, (1.0, 1.0), 500.0, 0.1)
        norms = traj.norms()
        if v.kind is VerdictKind.StableForOrders:
            assert not traj.overflowed
            assert norms[-1] < 1e-2 * norms[0], (s, v.margin, norms[-1])
        else:
            assert traj.overflowed or norms[-1] > norms[0], (s, v.margin, norms[-1])


def draw_commensurate(rng, unstable):
    """A system a12 = 1, a21 = a11 a22 - delta at orders k1/n, k2/n whose
    unstable characteristic roots are present or absent as asked, with every
    root at least 1e-3 (in n arg z) from the stability edge. Returns the
    system and its unstable roots s.

    In z = s^(1/n) the characteristic equation is the polynomial
    z^(k1+k2) - a22 z^k1 - a11 z^k2 + delta; a root is on the principal
    sheet when |arg z| < pi/n and unstable when |arg z| < pi/(2n).
    """
    while True:
        n = int(rng.integers(2, 21))
        k1, k2 = (int(k) for k in rng.integers(1, n + 1, size=2))
        a11, a22 = rng.uniform(-5.0, 5.0, size=2)
        delta = rng.uniform(0.01, 10.0)
        coeffs = np.zeros(k1 + k2 + 1)
        coeffs[0] = 1.0
        coeffs[k2] -= a22
        coeffs[k1] -= a11
        coeffs[-1] += delta
        z = np.roots(coeffs)
        arg = np.abs(np.angle(z))
        if np.any(np.abs(n * arg[arg < math.pi / n] - 0.5 * math.pi) < 1e-3):
            continue
        roots = z[arg < 0.5 * math.pi / n] ** n
        if (roots.size > 0) is unstable:
            return SystemSpec(a11, 1.0, a11 * a22 - delta, a22, k1 / n, k2 / n), roots


def test_stable_commensurate_systems_do_not_overflow():
    # stable systems, some with small orders or stiff entries: the implicit
    # step stays bounded, where an explicit PECE step overflowed on 15 of
    # these 100 draws
    rng = np.random.default_rng(17)
    for _ in range(100):
        s, _ = draw_commensurate(rng, unstable=False)
        assert not integrate(s, (1.0, 1.0), 100.0, 0.01).overflowed, s


def test_unstable_commensurate_systems_grow():
    # the other direction: where the step resolves the unstable roots,
    # h |s| <= 1, no unstable system may decay
    rng = np.random.default_rng(16)
    h = 0.01
    checked = 0
    while checked < 100:
        s, roots = draw_commensurate(rng, unstable=True)
        if h * np.max(np.abs(roots)) > 1.0:
            continue
        checked += 1
        t_end = min(2e4 * h, max(50.0, 40.0 / np.max(roots.real)))
        traj = integrate(s, (1.0, 1.0), t_end, h)
        norms = traj.norms()
        assert traj.overflowed or norms[-1] > norms[0], (s, roots)


def test_singular_step():
    # I - Wc A = 0: q = 1 and h a / 2 = 1
    with pytest.raises(SingularStep):
        integrate(SystemSpec(2.0, 0.0, 0.0, 2.0, 1.0, 1.0), (1.0, 1.0), 10.0, 1.0)
    # zero to rounding: I - Wc A = [[3, 1], [1, 1/3 + 1.7e-16]], whose det
    # 4.4e-16 is within 8 eps of its products; and 1/3 + 8.9e-16, whose det
    # 2.7e-15 is 6 eps of them
    for a22 in (1.333333333333333, 1.3333333333333315):
        with pytest.raises(SingularStep):
            integrate(SystemSpec(-4.0, -2.0, -2.0, a22, 1.0, 1.0), (1.0, 1.0), 10.0, 1.0)
    # its terms overflow a double
    with pytest.raises(SingularStep):
        integrate(SystemSpec(1e200, 0.0, 0.0, 1e200, 1.0, 1.0), (1.0, 1.0), 10.0, 1.0)


def test_bitwise_determinism():
    a = integrate(REF_GROWING, (1.0, 1.0), 10.0, 0.01)
    b = integrate(REF_GROWING, (1.0, 1.0), 10.0, 0.01)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


@pytest.mark.parametrize(
    "s, x0, h",
    [
        (DECOUPLED, (1.0, 2.0), 0.01),
        (FOCUS, (1.0, 0.0), 1e-3),
        (REF_STABLE, (1.0, 1.0), 2.5),
        (REF_GROWING, (1.0, 1.0), 0.05),
        (MIXED, (1.0, 0.5), 0.01),
        # small orders: the kernels decay like m^(q-1), so a block's solve
        # sums many terms of like size
        (SystemSpec(-4.0, -3.0, 2.5, 1.5, 0.1, 0.1), (-1.0, -0.5), 0.25),
    ],
)
@pytest.mark.parametrize(
    "steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 1, 6 * _BLOCK + 1, 3000, 4097]
)
def test_matches_direct_sum(s, x0, h, steps):
    # step counts straddle the base blocks of the FFT memory sums; 769 and
    # 1537 reuse a tree level's kernel spectrum, and 4097 cuts the top level
    # (blocks of 4096) to one step
    traj = integrate(s, x0, steps * h, h)
    ref, overflowed = direct_integrate(s, x0, steps * h, h)
    assert traj.states.shape == ref.shape == (steps + 1, 2)
    assert traj.overflowed is overflowed is False
    assert np.max(np.abs(traj.states - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "s, x0, t_end, h, rows, overflowed",
    [
        # grows past 1e300 and truncates after the same step as the direct sum
        (SystemSpec(5.0, 0.0, 0.0, 5.0, 1.0, 1.0), (1.0, 1.0), 200.0, 0.01, 13813, True),
        # decays from 1e300: a block of f summed by FFT would overflow unscaled
        (
            SystemSpec(-4000.0, 0.0, 0.0, -4000.0, 1.0, 1.0),
            (1e300, 1e300), 512e-6, 1e-6, 513, False,
        ),
    ],
)
def test_matches_direct_sum_near_overflow(s, x0, t_end, h, rows, overflowed):
    traj = integrate(s, x0, t_end, h)
    ref, ref_overflowed = direct_integrate(s, x0, t_end, h)
    assert len(traj.times) == len(traj.states) == len(ref) == rows
    assert traj.overflowed is ref_overflowed is overflowed
    assert np.max(np.abs(traj.states - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "s, x0, t_end, h, rows, overflowed",
    [
        # I - Wc A is near singular, so each step multiplies the states by up
        # to 4e4 and the block resolvent passes 1e300 long before the states
        # do: the base block shrinks to the largest power of two over which
        # the resolvent stays finite
        (SystemSpec(2.0001, 0.0, 0.0, 2.0001, 1.0, 1.0), (1e-250, 1e-250), 300.0, 1.0, 120, True),
        (SystemSpec(0.95, 0.0, -2.0, -1.0, 0.3, 0.8), (1e-200, 1e-200), 600.0, 2.0, 220, True),
        (SystemSpec(0.96, 0.0, -2.0, -1.0, 0.3, 0.8), (1e-300, 1e-300), 600.0, 2.0, 301, False),
        # the first system from (1, 1) overflows at row 66, just past its
        # first 64-step block
        (SystemSpec(2.0001, 0.0, 0.0, 2.0001, 1.0, 1.0), (1.0, 1.0), 300.0, 1.0, 66, True),
    ],
)
def test_block_solve_matches_direct_sum(monkeypatch, s, x0, t_end, h, rows, overflowed):
    spans = []

    def resolvent(kern, _resolvent=simulate._resolvent):
        res = _resolvent(kern)
        spans.append(res.shape[2])
        return res

    far_field_starts = []

    def add_far_field(far, spectrum, x, n, _add_far_field=simulate._add_far_field):
        far_field_starts.append(n)
        _add_far_field(far, spectrum, x, n)

    monkeypatch.setattr(simulate, "_resolvent", resolvent)
    monkeypatch.setattr(simulate, "_add_far_field", add_far_field)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(s, x0, t_end, h)
    ref, ref_overflowed = direct_integrate(s, x0, t_end, h)
    assert len(spans) == 1 and spans[0] < _BLOCK
    # every block starts at a multiple of the largest power of two <= span,
    # up to the last step solved: the overflowing one, or the run's last
    block = 1 << (spans[0].bit_length() - 1)
    assert far_field_starts == list(range(block, rows if overflowed else rows - 1, block))
    assert len(traj.states) == len(ref) == rows
    assert traj.overflowed is ref_overflowed is overflowed
    assert np.max(np.abs(traj.states - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_matches_direct_sum_random():
    # random systems, growing ones included, some of them past 1e300
    rng = np.random.default_rng(4127)
    overflowing = 0
    for _ in range(100):
        q1, q2 = rng.uniform(0.05, 1.0, size=2)
        a11, a12, a21, a22 = rng.uniform(-5.0, 5.0, size=4)
        s = SystemSpec(a11, a12, a21, a22, q1, q2)
        x0 = tuple(rng.uniform(-1.0, 1.0, size=2))
        h = 10.0 ** rng.uniform(-3.0, 0.0)
        steps = int(rng.integers(1, 601))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(s, x0, steps * h, h)
        ref, ref_overflowed = direct_integrate(s, x0, steps * h, h)
        overflowing += ref_overflowed
        assert traj.states.shape == ref.shape, (s, x0, h, steps)
        assert traj.overflowed is ref_overflowed, (s, x0, h, steps)
        assert np.max(np.abs(traj.states - ref)) <= 1e-12 * np.max(np.abs(ref)), (s, x0, h, steps)
    assert overflowing >= 4


def talbot_solution(s, x0, ts):
    """The exact solution at the times ts, shape (len(ts), 2): the inverse
    Laplace transform of X(s) = (diag(s^q1, s^q2) - A)^-1 diag(s^(q1-1),
    s^(q2-1)) x0 by Talbot's contour at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.matrix([[s.a11, s.a12], [s.a21, s.a22]])
        q1, q2 = mp.mpf(s.q1), mp.mpf(s.q2)

        def transform(i):
            def x_of(p):
                m = mp.matrix([[p**q1 - a[0, 0], -a[0, 1]], [-a[1, 0], p**q2 - a[1, 1]]])
                return mp.lu_solve(m, mp.matrix([p ** (q1 - 1) * x0[0], p ** (q2 - 1) * x0[1]]))[i]
            return x_of

        return np.array(
            [[float(mp.invertlaplace(transform(i), t, method="talbot")) for i in (0, 1)] for t in ts]
        )


@pytest.mark.parametrize(
    "s, x0, h, ts, max_err, min_order",
    [
        (SystemSpec(-1.0, 2.0, -2.0, -1.0, 0.7, 0.4), (1.0, 0.5), 1e-2, (1.0, 5.0), 2e-4, 1.35),
        (MIXED, (1.0, 0.5), 1e-2, (1.0, 5.0), 2e-4, 1.35),
        (DECOUPLED, (1.0, 2.0), 1e-2, (1.0, 5.0), 2e-4, 1.35),
        (REF_STABLE, (1.0, 1.0), 1.0, (100.0, 1000.0), 4e-3, 1.15),
    ],
)
def test_talbot_error_and_order(s, x0, h, ts, max_err, min_order):
    # the error against the exact solution at h, h/2 and h/4, and the order
    # log2 of each ratio; the observed orders are close to 1 + min(q1, q2):
    # 1.42, 1.61, 1.51 and 1.24
    exact = talbot_solution(s, x0, ts)
    errs = []
    for k in range(3):
        step = h / 2**k
        traj = integrate(s, x0, ts[-1], step)
        rows = [int(round(t / step)) for t in ts]
        errs.append(float(np.max(np.abs(traj.states[rows] - exact))))
    assert errs[0] <= max_err, errs
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) >= min_order, errs


@pytest.mark.parametrize("qs", [(0.06, 0.25), (0.5, 0.9), (0.999, 1.0)])
def test_weights_match_mpmath(qs):
    mp = pytest.importorskip("mpmath")
    points = list(range(64)) + [100, 1000, 3000, 30000, 100000, 200000]
    got = _weights(qs, points[-1] + 1)
    with mp.workdps(50):
        for i, qf in enumerate(qs):
            q = mp.mpf(qf)
            for m in points:
                big = mp.mpf(m)
                exact = (
                    (big + 2) ** (q + 1) + big ** (q + 1) - 2 * (big + 1) ** (q + 1),
                    # at q = 1, n = 1 the first factor of the second term is 0
                    big ** (q + 1) - (big - q) * (big + 1) ** q,
                )
                for kind, ref in enumerate(exact):
                    err = abs((mp.mpf(got[kind, i, m]) - ref) / ref)
                    assert err <= 1e-12, (kind, qf, m, float(err))


def test_far_field_transform_count(monkeypatch):
    # per far-field block: one rfft of the (2, b) x block and one irfft per
    # component; per tree level: one rfft of the (2, 2, 2b) kernels
    rows = {"rfft": 0, "irfft": 0}
    for name in rows:
        def counted(a, *args, _fft=getattr(np.fft, name), _name=name, **kwargs):
            rows[_name] += int(np.prod(np.shape(a)[:-1]))
            return _fft(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    integrate(MIXED, (1.0, 0.5), 4097 * 0.01, 0.01)
    blocks = len(range(_BLOCK, 4097, _BLOCK))
    levels = 5  # blocks of 256, 512, 1024, 2048 and 4096
    assert rows == {"rfft": 2 * blocks + 4 * levels, "irfft": 2 * blocks}


def test_memory_peak():
    # the x, far and weight arrays plus one tree level's kernel spectrum
    integrate(REF_STABLE, (1.0, 1.0), 5e4, 2.5)
    tracemalloc.start()
    try:
        integrate(REF_STABLE, (1.0, 1.0), 5e4, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_step_cap():
    with pytest.raises(StepCap):
        integrate(DECOUPLED, (1.0, 1.0), 30.0, 1e-4)


def test_step_count_absorbs_the_rounding_of_t_end_over_h():
    # 11470.2/0.7 reads 16386.000000000004 and 1800/0.009 reads
    # 200000.00000000003: each lies within its rounding of an integer, so
    # the grid takes that integer and ends at t_end to rounding, and the
    # second run is exactly the cap, not one step past it
    traj = integrate(DECOUPLED, (1.0, 1.0), 11470.2, 0.7)
    assert len(traj.times) == 16387 and traj.times[-1] <= 11470.2
    assert len(integrate(DECOUPLED, (1.0, 1.0), 1800.0, 0.009).times) == STEP_CAP + 1


def test_step_count_rounds_up_past_rounding():
    # t_end/h = 10.0000000000005 is 5e-14 relative above 10, far more than
    # its rounding: the grid takes 11 steps and covers t_end
    traj = integrate(DECOUPLED, (1.0, 1.0), 5.00000000000025, 0.5)
    assert len(traj.times) == 12 and traj.times[-1] >= 5.00000000000025
    # 5e-13 of the quotient past the cap is a 200001st step
    with pytest.raises(StepCap):
        integrate(DECOUPLED, (1.0, 1.0), 200000.0000001, 1.0)


def test_input_validation():
    with pytest.raises(ValueError):
        integrate(DECOUPLED, (1.0, 1.0), 0.0, 0.01)
    with pytest.raises(ValueError):
        integrate(DECOUPLED, (1.0, 1.0), 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(DECOUPLED, (1.0, 1.0, 2.0), 1.0, 0.01)
