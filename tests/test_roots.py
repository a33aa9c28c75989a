"""Tests for the root-counting oracle: bounds, winding, companion reduction."""

import cmath
import math

import numpy as np
import pytest

from fracstab import (
    AnnulusOutOfRange,
    CharParams,
    ContourThroughRoot,
    CurveParams,
    DeltaNotPositive,
    NotRational,
    RefinementLimit,
    SystemSpec,
    VerdictKind,
    classify,
    commensurate_reduce,
    count_unstable_roots,
    delta_eval,
    matignon_stable,
    phi,
    polish_unstable_roots,
    positive_real_roots,
    roots as roots_module,
    unstable_root_bounds,
)
from paper_gamma import curve_point

REF_A = dict(a11=0.00001, a12=1.0, a21=-0.0022, a22=0.1)
REF_DELTA = REF_A["a11"] * REF_A["a22"] - REF_A["a12"] * REF_A["a21"]
REF_P_UNSTABLE = CharParams(REF_A["a11"], REF_A["a22"], REF_DELTA, 0.25, 0.5)
REF_P_STABLE = CharParams(REF_A["a11"], REF_A["a22"], REF_DELTA, 0.5, 0.25)
REF_EIGS = (-0.326701, 0.304593, 0.0221182)


def test_bounds_zero_coefficients_closed_form():
    # a11 = a22 = 0 collapses f, F to 1/sqrt(gamma) and sqrt(gamma)
    b = unstable_root_bounds(CharParams(0.0, 0.0, 1.0, 0.3, 0.6))
    q_conj = (0.3 + 0.6) / abs(0.6 - 0.3)
    gamma = (q_conj + 1.0) / (q_conj - 1.0)
    alpha = (0.3 + 0.6) / 2.0
    assert b.p == pytest.approx((0.3 + 0.6) / (2 * 0.3), rel=1e-12)
    assert b.gamma_const == pytest.approx(gamma, rel=1e-12)
    assert b.d_const == pytest.approx(1.0, rel=1e-12)
    assert b.l == pytest.approx((1.0 / math.sqrt(gamma)) ** (1.0 / alpha), rel=1e-10)
    assert b.L == pytest.approx(math.sqrt(gamma) ** (1.0 / alpha), rel=1e-10)
    # the roots of s^0.9 + 1 = 0 all have |s| = 1
    assert b.l <= 1.0 <= b.L


def test_bounds_contain_reference_roots():
    b = unstable_root_bounds(REF_P_UNSTABLE)
    for lam in (0.304593, 0.0221182):
        assert b.l <= lam ** 4 <= b.L


def test_bounds_anchor_point_finite():
    b = unstable_root_bounds(CharParams(-1.0, -1.0, 1.0, 0.5, 0.25))
    assert 0.0 < b.l <= b.L < math.inf


def test_bounds_require_positive_delta():
    with pytest.raises(DeltaNotPositive):
        unstable_root_bounds(CharParams(1.0, 1.0, 0.0, 0.5, 0.25))
    with pytest.raises(DeltaNotPositive):
        unstable_root_bounds(CharParams(1.0, 1.0, -1.0, 0.5, 0.25))


def test_commensurate_bounds_and_count():
    # z^2 - 3z + 2 = (z - 1)(z - 2): roots s = z^2 in {1, 4} at q = 1/2
    p = CharParams(1.0, 2.0, 2.0, 0.5, 0.5)
    b = unstable_root_bounds(p)
    # at q1 = q2 the general bound has gamma = 1, D = delta^(-1/2), p = 1 and
    # bounds z^2 = (a11 + a22) z - delta by the triangle inequality
    assert b.p == 1.0 and b.gamma_const == 1.0
    assert b.d_const == pytest.approx(2.0**-0.5, rel=1e-15)
    norm1, delta = 3.0, 2.0
    assert b.l == pytest.approx(((math.sqrt(norm1**2 + 4.0 * delta) - norm1) / 2.0) ** 2, rel=1e-14)
    assert b.L == pytest.approx((norm1 + math.sqrt(delta)) ** 2, rel=1e-14)
    rep = count_unstable_roots(p)
    assert rep.n_unstable == 2
    roots = polish_unstable_roots(p, expected=2)
    assert sorted(abs(r) for r in roots) == pytest.approx([1.0, 4.0], rel=1e-10)
    for r in roots:
        assert b.l <= abs(r) <= b.L


def test_equal_order_bounds_contain_roots():
    # at q1 = q2 = q, Delta is z^2 - (a11 + a22) z + delta in z = s^q, and a
    # root s = z^(1/q) is unstable for |Arg z| <= q pi/2; [l, L] must hold
    # every such |s| and lie strictly inside the earlier closed form
    # (z-bounds delta/B and B, B = ||a||_1 + sqrt(delta) + 1)
    rng = np.random.default_rng(3)
    checked = unstable = 0
    for _ in range(3000):
        q = rng.uniform(0.02, 1.0)
        a11, a22 = rng.uniform(-5.0, 5.0, size=2) * 10.0 ** rng.uniform(-6.0, 6.0, size=2)
        delta = 10.0 ** rng.uniform(-8.0, 8.0)
        try:
            b = unstable_root_bounds(CharParams(a11, a22, delta, q, q))
        except AnnulusOutOfRange:
            continue
        checked += 1
        log_l, log_L = math.log(b.l), math.log(b.L)
        log_big = math.log(abs(a11) + abs(a22) + math.sqrt(delta) + 1.0)
        assert (math.log(delta) - log_big) / q < log_l <= log_L < log_big / q, (a11, a22, delta, q)
        trace = a11 + a22
        root = cmath.sqrt(trace * trace - 4.0 * delta)
        # the larger root, then the other as delta / z1, without cancellation
        z1 = 0.5 * (trace + root if abs(trace + root) >= abs(trace - root) else trace - root)
        for z in (z1, delta / z1):
            if abs(cmath.phase(z)) <= q * math.pi / 2.0:
                unstable += 1
                log_s = math.log(abs(z)) / q
                assert log_l + math.log1p(-1e-12) <= log_s <= log_L, (a11, a22, delta, q, z)
    assert checked >= 2000 and unstable >= 1000


def test_count_reference_cases():
    rep_u = count_unstable_roots(REF_P_UNSTABLE)
    assert rep_u.n_unstable == 2
    rep_s = count_unstable_roots(REF_P_STABLE)
    assert rep_s.n_unstable == 0
    rep_a = count_unstable_roots(CharParams(-1.0, -1.0, 1.0, 0.5, 0.25))
    assert rep_a.n_unstable == 0
    for rep in (rep_u, rep_s, rep_a):
        assert abs(rep.winding_turns - rep.n_unstable) <= 1e-6
        assert rep.bounds.l <= rep.bounds.L
    # 33 samples per edge and no bisection anywhere
    got = [(r.n_unstable, r.contour_samples, r.refinement_depth) for r in (rep_u, rep_s, rep_a)]
    assert got == [(2, 132, 0), (0, 132, 0), (0, 132, 0)]


@pytest.mark.parametrize("p", [
    # l = 1e-331.6: the powers in u overflow on the way
    CharParams(-5.2759, 2.4339, 1.2994e-3, 0.010882, 0.55290),
    # l = 1e-303.6, below a real root at 2.27e-304
    CharParams(-11.640755224148691, 33.9244766331865, 0.010662504021753762,
               0.011535429321214173, 0.513678314337231),
])
def test_bounds_out_of_double_range(p):
    for f in (unstable_root_bounds, count_unstable_roots):
        with pytest.raises(AnnulusOutOfRange):
            f(p)


def test_bounds_with_d_const_past_double_range():
    # D = delta^(-50) overflows, yet u stays tiny and the annulus is ordinary
    p = CharParams(1e-8, 1e-8, 1e-7, 0.01, 1.0)
    b = unstable_root_bounds(p)
    assert b.d_const == math.inf
    assert 0.0 < b.l <= b.L < 1.0
    assert count_unstable_roots(p).n_unstable == 0
    s = SystemSpec(p.a11, 1.0, p.a11 * p.a22 - p.delta, p.a22, p.q1, p.q2)
    assert classify(s).kind == VerdictKind.StableForOrders


@pytest.mark.parametrize("p, n, kind", [
    (CharParams(8.92834118192419, -17.015811483806015, 0.02077113118824527,
                0.017264614514767507, 0.18764018043319272), 2, VerdictKind.UnstableForOrders),
    (CharParams(0.3052908996735084, -11.695613768263255, 0.0020455070760073035,
                0.015299110903106011, 0.24549091881981236), 0, VerdictKind.StableForOrders),
])
def test_count_wide_annulus(p, n, kind):
    # L/l overflows a double here; edges linear in log s never form that ratio
    b = unstable_root_bounds(p)
    assert b.L / b.l == math.inf
    assert count_unstable_roots(p).n_unstable == n
    s = SystemSpec(p.a11, 1.0, p.a11 * p.a22 - p.delta, p.a22, p.q1, p.q2)
    assert classify(s).kind == kind


def test_count_detects_root_on_contour():
    # classical center s^2 + delta with delta = 1e-7: the roots +-i*sqrt(1e-7)
    # sit on the axis edge, and the phase jump of pi across them outlasts
    # every bisection of the step that holds them
    with pytest.raises(ContourThroughRoot):
        count_unstable_roots(CharParams(0.0, 0.0, 1e-7, 1.0, 1.0))


def test_count_rejects_on_curve_input():
    # pure imaginary characteristic roots sit exactly on the contour's axis
    # segment; the counter must refuse rather than return a bogus integer
    c = math.sqrt(2.0)
    with pytest.raises(ContourThroughRoot):
        count_unstable_roots(CharParams(c, c, 4.0, 0.5, 0.5))


def test_count_parity_without_real_roots():
    # complex roots come in conjugate pairs, so the count less the positive
    # real roots is even and nonnegative
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(100):
        delta = rng.uniform(0.1, 6.0)
        q1, q2 = rng.uniform(0.1, 1.0, size=2)
        a11, a22 = rng.uniform(-4.0, 4.0, size=2)
        p = CharParams(a11, a22, delta, q1, q2)
        try:
            rep = count_unstable_roots(p)
        except (ContourThroughRoot, RefinementLimit):
            continue
        n_real = len(positive_real_roots(p))
        assert n_real <= rep.n_unstable
        assert (rep.n_unstable - n_real) % 2 == 0
        checked += 1
    assert checked > 90


def test_count_locally_constant():
    rng = np.random.default_rng(11)
    n = 0
    while n < 20:
        delta = rng.uniform(0.3, 5.0)
        q1, q2 = rng.uniform(0.15, 1.0, size=2)
        omega = rng.uniform(-1.0, 1.0)
        pt = curve_point(CurveParams(delta, q1, q2), omega)
        off = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 1.0)
        a11, a22 = pt.a11, pt.a22 + off
        n += 1
        base = count_unstable_roots(CharParams(a11, a22, delta, q1, q2)).n_unstable
        for da, db, dd in ((1e-8, 0.0, 0.0), (0.0, -1e-8, 0.0), (0.0, 0.0, 1e-8)):
            got = count_unstable_roots(CharParams(a11 + da, a22 + db, delta + dd, q1, q2)).n_unstable
            assert got == base


def test_count_step_across_curve():
    rng = np.random.default_rng(4)
    for _ in range(15):
        delta = rng.uniform(0.1, 5.0)
        q1, q2 = rng.uniform(0.1, 1.0, size=2)
        omega = rng.uniform(-1.0, 1.0)
        pt = curve_point(CurveParams(delta, q1, q2), omega)
        below = CharParams(pt.a11, pt.a22 - 1e-2, delta, q1, q2)
        above = CharParams(pt.a11, pt.a22 + 1e-2, delta, q1, q2)
        assert count_unstable_roots(below).n_unstable == 0
        assert count_unstable_roots(above).n_unstable == 2


def test_positive_real_root_detection():
    with pytest.raises(DeltaNotPositive):
        positive_real_roots(CharParams(0.3, -0.2, -1.0, 0.5, 0.7))
    roots = positive_real_roots(CharParams(3.0, 3.0, 4.0, 0.7, 0.9))  # Delta(1) = -1
    assert len(roots) == 2 and roots[0] < 1.0 < roots[1]
    assert positive_real_roots(CharParams(-1.0, -1.0, 1.0, 0.5, 0.25)) == []
    assert positive_real_roots(CharParams(-1.0, -1.0, 1.0, 0.9, 0.35)) == []


def test_positive_real_roots_close_pair_far_out():
    # a time-scaled system whose two real roots, 17x apart, fall in one step
    # of a 200-point log grid over its 550-decade annulus; the values are
    # mpmath roots at 50 digits
    p = CharParams(-1739897757.7319639, 3.1103385705443225, 11585010600.538202,
                   0.77078803447456, 0.03217496083944806)
    assert positive_real_roots(p) == pytest.approx([8.3952328447975e13, 1.4632885944889578e15], rel=1e-10)


def test_positive_real_roots_complete_on_dense_grid():
    # oracle: Delta on 2000 log-spaced points of the counted annulus, in
    # numpy, must change sign exactly at the returned roots
    rng = np.random.default_rng(41)
    nroots = 0
    for _ in range(200):
        a11, a22 = rng.uniform(-20.0, 20.0, size=2)
        delta = 10.0 ** rng.uniform(-3.0, 3.0)
        q1, q2 = rng.uniform(0.01, 1.0, size=2)
        c = 10.0 ** rng.uniform(-6.0, 6.0)
        p = CharParams(a11 * c**q1, a22 * c**q2, delta * c ** (q1 + q2), q1, q2)
        b = unstable_root_bounds(p)
        roots = positive_real_roots(p)
        nroots += len(roots)

        def delta_and_majorant(t):
            terms = (t ** (p.q1 + p.q2), -p.a11 * t**p.q2, -p.a22 * t**p.q1, p.delta)
            return sum(terms), sum(np.abs(term) for term in terms)

        t = np.exp(np.linspace(math.log(b.l * (1 - 1e-3)), math.log(b.L * (1 + 1e-3)), 2000))
        assert roots == sorted(roots)
        assert all(t[0] < r < t[-1] for r in roots)
        for r in roots:
            d, m = delta_and_majorant(r)
            assert abs(d) <= 1e-10 * m
        d, m = delta_and_majorant(t)
        # Delta(0+) = delta > 0, and each simple root flips the sign
        want = np.where(np.searchsorted(roots, t) % 2 == 0, 1.0, -1.0)
        decided = np.abs(d) > 1e-10 * m
        assert np.array_equal(np.sign(d[decided]), want[decided])
    assert nroots >= 100


def test_terms_past_double_range():
    # L = 1e200 at orders (1, 1): the s^2 term reaches 1e400 on the outer arc
    p = CharParams(1e200, 0.0, 1.0, 1.0, 1.0)
    assert unstable_root_bounds(p).L == pytest.approx(1e200)
    for f in (count_unstable_roots, polish_unstable_roots, positive_real_roots):
        with pytest.raises(AnnulusOutOfRange):
            f(p)


def test_positive_real_roots_reference_values():
    roots = positive_real_roots(REF_P_UNSTABLE)
    assert len(roots) == 2
    assert roots == sorted(roots)
    expect = sorted([0.0221182 ** 4, 0.304593 ** 4])
    for got, want in zip(roots, expect):
        assert got == pytest.approx(want, abs=1e-6)
        assert abs(delta_eval(REF_P_UNSTABLE, got)) <= 1e-10


def _exact_positive_real_roots(n, k1, k2, p):
    # the positive real roots s = z^n of Delta at 40 digits: with q1 = k1/n
    # and q2 = k2/n, Delta is z^(k1+k2) - a11 z^k2 - a22 z^k1 + delta in
    # z = s^(1/n), whose coefficients run from z^(k1+k2) down, so z^k2's sits
    # at index k1; its positive real companion eigenvalues are refined by mpmath
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        coeffs = [mp.mpf(0)] * (k1 + k2 + 1)
        coeffs[0] += 1
        coeffs[k1] -= p.a11
        coeffs[k2] -= p.a22
        coeffs[-1] += p.delta
        zs = np.roots([float(c) for c in coeffs])
        return sorted(
            mp.findroot(lambda z: mp.polyval(coeffs, z), mp.mpf(z.real)) ** n
            for z in zs if z.real > 0.0 and abs(z.imag) <= 1e-6 * abs(z)
        )


def _assert_tight_roots_in_bounds(n, k1, k2, p, rel):
    # every 40-digit positive real root and every located one lies in
    # [l, L], and each located root matches its 40-digit root to rel
    b = unstable_root_bounds(p)
    exact = _exact_positive_real_roots(n, k1, k2, p)
    located = positive_real_roots(p)
    assert len(located) == len(exact), (p, located, exact)
    for r, e in zip(located, exact):
        assert b.l <= e <= b.L and b.l <= r <= b.L, (p, b, r, e)
        assert abs(r - e) <= rel * e, (p, r, e)
    return len(exact)


# systems whose smallest root attains l to rounding: q2 = 1/n and a small
# a22, so a11 s^q2 ~ delta nearly fixes the root; the first is the
# crosscheck workload's seed-2249 system
@pytest.mark.parametrize("n, k1, k2, p", [
    (17, 16, 1, SystemSpec(3.6709120869636536, 1.0, -0.49966399453722665,
                           -0.04155485890805721, 16 / 17, 1 / 17).char_params()),
    (20, 19, 1, CharParams(2.1431029914124506, 0.0005050689758849523, 0.010013587656161808,
                           19 / 20, 1 / 20)),
    (16, 15, 1, CharParams(4.503865708306627, 0.014503386163825434, 0.3869110031101625,
                           15 / 16, 1 / 16)),
])
def test_tight_bounds_contain_roots(n, k1, k2, p):
    assert _assert_tight_roots_in_bounds(n, k1, k2, p, rel=1e-14) == 2


def test_tight_bounds_contain_roots_random():
    # the family of the systems above: a11 ~ U(0.5, 5), a22 = +-10^U(-4, 0),
    # q1 = k1/n with n - 3 <= k1 <= n, q2 in {1/n, 2/n}, delta ~ U(0.01, 10)
    rng = np.random.default_rng(23)
    rooted = 0
    for _ in range(400):
        n = int(rng.integers(2, 21))
        k1, k2 = int(rng.integers(max(1, n - 3), n + 1)), int(rng.integers(1, 3))
        a11, a22 = rng.uniform(0.5, 5.0), float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-4.0, 0.0)
        p = CharParams(a11, a22, rng.uniform(0.01, 10.0), k1 / n, k2 / n)
        rooted += _assert_tight_roots_in_bounds(n, k1, k2, p, rel=1e-13) > 0
    assert rooted >= 50


def test_polish_reference_roots():
    roots = polish_unstable_roots(REF_P_UNSTABLE, expected=2)
    assert len(roots) == 2
    assert all(r.imag == 0 for r in roots)
    b = unstable_root_bounds(REF_P_UNSTABLE)
    for r in roots:
        assert b.l <= abs(r) <= b.L


def test_polish_containment_random():
    rng = np.random.default_rng(7)
    ndraw = 0
    nroots = 0
    while ndraw < 60:
        delta = rng.uniform(0.1, 8.0)
        q1, q2 = rng.uniform(0.1, 1.0, size=2)
        if rng.uniform() < 0.7:
            omega = rng.uniform(-1.0, 1.0)
            pt = curve_point(CurveParams(delta, q1, q2), omega)
            a11, a22 = pt.a11, pt.a22 + rng.uniform(0.05, 3.0)
        else:
            a11, a22 = rng.uniform(-5.0, 5.0, size=2)
        p = CharParams(a11, a22, delta, q1, q2)
        try:
            rep = count_unstable_roots(p)
        except (ContourThroughRoot, RefinementLimit):
            continue
        ndraw += 1
        roots = polish_unstable_roots(p, expected=rep.n_unstable)
        assert len(roots) == rep.n_unstable
        nroots += len(roots)
        for r in roots:
            assert rep.bounds.l * (1 - 1e-9) <= abs(r) <= rep.bounds.L * (1 + 1e-9)
            scale = 1.0 + delta + abs(r) ** (q1 + q2) + abs(a11) * abs(r) ** q2 + abs(a22) * abs(r) ** q1
            assert abs(delta_eval(p, r)) <= 1e-8 * scale
    assert nroots >= 40


def _companion_roots(s: SystemSpec, n: int) -> tuple[list, float]:
    # for q = (k1/n, k2/n) the unstable roots are lambda^n for the companion
    # eigenvalues lambda with |arg lambda| < pi/(2n); also returns the least
    # angle between an eigenvalue and that sector's edge
    lam = np.linalg.eigvals(commensurate_reduce(s, (n, n)).matrix)
    gap = np.abs(np.abs(np.angle(lam)) - math.pi / (2 * n))
    return list(lam[np.abs(np.angle(lam)) < math.pi / (2 * n)] ** n), float(gap.min())


def _draw_rational(rng) -> tuple[float, float, float, int, int, int]:
    n = int(rng.integers(1, 9))
    k1, k2 = (int(k) for k in rng.integers(1, n + 1, size=2))
    delta = rng.uniform(0.2, 6.0)
    a11, a22 = rng.uniform(-4.0, 4.0, size=2)
    return a11, a22, delta, k1, k2, n


def _assert_same_roots(got: list, want: list) -> None:
    assert len(got) == len(want)
    for r in got:
        j = int(np.argmin([abs(r - w) for w in want]))
        assert abs(r - want.pop(j)) <= 1e-6 * abs(r)


def test_polish_matches_companion_eigenvalues():
    # independent oracle: the companion eigenvalues, on rational orders
    rng = np.random.default_rng(29)
    nsys = nroots = 0
    while nsys < 40:
        a11, a22, delta, k1, k2, n = _draw_rational(rng)
        s = SystemSpec(a11, 1.0, a11 * a22 - delta, a22, k1 / n, k2 / n)
        want, gap = _companion_roots(s, n)
        if gap < 1e-6:
            continue  # a root on the imaginary axis is not counted
        nsys += 1
        got = polish_unstable_roots(s.char_params())
        _assert_same_roots(got, want)
        nroots += len(got)
    assert nroots >= 20
    # just above Gamma, a22 = phi(a11) + eps*(1 + |phi|), the pair lies
    # within about eps of the imaginary axis
    for eps in (1e-4, 1e-7):
        rng = np.random.default_rng(31)
        npair = 0
        while npair < 20:
            a11, _, delta, k1, k2, n = _draw_rational(rng)
            on_curve = phi(CurveParams(delta, k1 / n, k2 / n), a11)
            a22 = on_curve + eps * (1.0 + abs(on_curve))
            s = SystemSpec(a11, 1.0, a11 * a22 - delta, a22, k1 / n, k2 / n)
            want, gap = _companion_roots(s, n)
            try:
                count = count_unstable_roots(s.char_params()).n_unstable
            except (ContourThroughRoot, RefinementLimit):
                continue
            if gap < 1e-12:
                continue  # the sector test cannot tell the side
            got = polish_unstable_roots(s.char_params(), count)
            _assert_same_roots(got, want)
            npair += any(r.imag for r in got)


@pytest.mark.parametrize(
    "d_phi, d_w", [(1e-3, 0.0), (0.0, 0.5), (0.0, -1.0)], ids=["phi", "w_star", "w_star_far"]
)
def test_polish_does_not_trust_the_curve(monkeypatch, d_phi, d_w):
    # a start off Gamma, from a crossing solver that is wrong on purpose, may
    # cost the locator its root (RefinementLimit) but must never make it
    # return another one: the residual, the quadrant and the count certify
    # what it returns, the curve only where it starts. From the farthest
    # start, Newton outside 0 < Im w <= pi/2 finds roots on other sheets
    crossing = roots_module._crossing

    def off_curve(cp, a11):
        w, val, terms = crossing(cp, a11)
        return w + d_w, val + d_phi * (1.0 + abs(val)), terms

    monkeypatch.setattr(roots_module, "_crossing", off_curve)
    rng = np.random.default_rng(29)
    npair = located = 0
    while npair < 80:
        a11, a22, delta, k1, k2, n = _draw_rational(rng)
        s = SystemSpec(a11, 1.0, a11 * a22 - delta, a22, k1 / n, k2 / n)
        want, gap = _companion_roots(s, n)
        if gap < 1e-6 or not any(r.imag for r in want):
            continue
        npair += 1
        try:
            got = polish_unstable_roots(s.char_params())
        except RefinementLimit:
            continue
        _assert_same_roots(got, want)
        located += 1
    assert located > 0


def test_polish_rejects_wrong_count():
    # the last system's real roots 1.3098 and 52.03 are both of its count; a
    # count of 4 must not pass a point 1e-13 above 1.3098 off as a pair
    close = CharParams(
        14.283758392789025, -14.034385290441369, 0.0002533337808550725, 0.557225375281134, 0.8065024657089899
    )
    others = (CharParams(0.3, 0.3, 1.0, 1.0, 1.0), CharParams(2.0, 1.0, 3.0, 0.3, 0.7))
    for p in (REF_P_UNSTABLE, *others, close):
        n = count_unstable_roots(p).n_unstable
        assert len(polish_unstable_roots(p, n)) == n
        with pytest.raises(RefinementLimit):
            polish_unstable_roots(p, n + 2)


def test_companion_reference_matrix():
    s = SystemSpec(**REF_A, q1=0.25, q2=0.5)
    cs = commensurate_reduce(s, (4, 2))
    assert cs.base_order == 0.25
    expect = np.array([
        [0.00001, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [-0.0022, 0.1, 0.0],
    ])
    assert np.array_equal(cs.matrix, expect)
    eigs = np.sort(np.linalg.eigvals(cs.matrix).real)
    assert eigs == pytest.approx(sorted(REF_EIGS), abs=1e-5)
    assert not matignon_stable(cs)


def test_companion_stable_direction():
    s = SystemSpec(**REF_A, q1=0.5, q2=0.25)
    cs = commensurate_reduce(s, (2, 4))
    assert cs.base_order == 0.25
    assert cs.matrix.shape == (3, 3)
    assert matignon_stable(cs)


def test_companion_classical_identity():
    s = SystemSpec(-1.0, 2.0, -2.0, -1.0, 1.0, 1.0)
    cs = commensurate_reduce(s, (1, 1))
    assert cs.base_order == 1.0
    assert np.array_equal(cs.matrix, np.array([[-1.0, 2.0], [-2.0, -1.0]]))
    assert matignon_stable(cs)  # eigenvalues -1 +/- 2i, Re < 0
    cs2 = commensurate_reduce(SystemSpec(1.0, 0.0, 0.0, -3.0, 1.0, 1.0), (1, 1))
    assert not matignon_stable(cs2)


def test_companion_rejects_bad_denominators():
    s = SystemSpec(1.0, 1.0, -1.0, 1.0, 0.37, 0.5)
    with pytest.raises(NotRational):
        commensurate_reduce(s, (8, 2))  # 0.37 is not k/8
    s = SystemSpec(1.0, 1.0, -1.0, 1.0, 1.0 / 100.0, 0.5)
    with pytest.raises(NotRational):
        commensurate_reduce(s, (100, 2))  # lcm exceeds the size cap


def test_companion_matches_argument_principle():
    rng = np.random.default_rng(13)
    n = 0
    while n < 40:
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        k1 = int(rng.integers(1, n1 + 1))
        k2 = int(rng.integers(1, n2 + 1))
        delta = rng.uniform(0.2, 5.0)
        a11, a22 = rng.uniform(-3.0, 3.0, size=2)
        s = SystemSpec(a11, 1.0, a11 * a22 - delta, a22, k1 / n1, k2 / n2)
        v = classify(s)
        if v.kind in (VerdictKind.StableForOrders, VerdictKind.UnstableForOrders) and abs(v.margin) <= 1e-6:
            continue  # Matignon's strict sector test is not sharp on the curve
        n += 1
        try:
            rep = count_unstable_roots(s.char_params())
        except (ContourThroughRoot, RefinementLimit):
            n -= 1
            continue
        cs = commensurate_reduce(s, (n1, n2))
        assert matignon_stable(cs) == (rep.n_unstable == 0)


def test_time_scaling_invariance():
    # (a11, a22, delta) -> (a11*c^q1, a22*c^q2, delta*c^(q1+q2)) multiplies
    # Delta by c^(q1+q2) and maps every root s to c*s, so the class, the count
    # and the polished roots over c must not change at any scale; every draw
    # is checked until 100 unstable systems have been
    rng = np.random.default_rng(5)
    unstable = 0
    while unstable < 100:
        a11, a22 = (float(a) for a in rng.uniform(-5.0, 5.0, 2))
        delta = float(rng.uniform(0.1, 10.0))
        q1, q2 = (float(q) for q in rng.uniform(0.05, 1.0, 2))
        verdict = classify(SystemSpec(a11, 1.0, a11 * a22 - delta, a22, q1, q2))
        n = count_unstable_roots(CharParams(a11, a22, delta, q1, q2)).n_unstable
        roots = np.array(polish_unstable_roots(CharParams(a11, a22, delta, q1, q2), n))
        unstable += n > 0
        for c in (1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e12):
            b11, b22, bd = a11 * c**q1, a22 * c**q2, delta * c ** (q1 + q2)
            where = (a11, a22, delta, q1, q2, c)
            v = classify(SystemSpec(b11, 1.0, b11 * b22 - bd, b22, q1, q2))
            assert (v.is_stable, v.is_unstable) == (verdict.is_stable, verdict.is_unstable), where
            p = CharParams(b11, b22, bd, q1, q2)
            assert count_unstable_roots(p).n_unstable == n, where
            got = np.array(polish_unstable_roots(p, n)) / c
            assert np.all(np.abs(got - roots) <= 1e-8 * np.abs(roots)), where
