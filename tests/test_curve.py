"""Tests for the critical curve: phi, w*, sample_curve, and the paper's parametrization."""

import math

import numpy as np
import pytest

from fracstab import (
    CharParams,
    CurveParams,
    VerdictKind,
    classify_order_independent,
    delta_eval,
    phi,
    phi_terms,
    sample_curve,
    solve_omega_star,
)
from fracstab.classify import _classify_params
from fracstab.curve import phi_orders
from paper_gamma import curve_point, h_func, rho, u_max

REF_DELTA = 0.002201


def test_curve_params_validation():
    with pytest.raises(ValueError):
        CurveParams(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        CurveParams(-1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        CurveParams(1.0, 0.5, 1.5)


def test_rho_closed_forms():
    assert rho(1, 1 / 3, 2 / 3) == pytest.approx(1.0, rel=1e-12)
    assert rho(2, 1 / 3, 2 / 3) == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert rho(2, 0.5, 0.25) == pytest.approx(-1.0, rel=1e-12)
    # sign of rho matches sign of q2 - q1
    rng = np.random.default_rng(10)
    for _ in range(100):
        q1, q2 = rng.uniform(0.05, 1.0, size=2)
        if abs(q1 - q2) <= 1e-8:
            continue
        assert math.copysign(1.0, rho(1, q1, q2)) == math.copysign(1.0, q2 - q1)


def test_h_closed_forms():
    assert h_func(0.0, 1 / 3, 2 / 3) == pytest.approx(math.sqrt(3.0) - 1.0, rel=1e-12)
    # scaling by delta^(q1/(q1+q2)) must reproduce a known a11 on the curve
    v = h_func(0.818108, 0.5, 0.25)
    assert v == pytest.approx(0.00001 * REF_DELTA ** (-2.0 / 3.0), rel=1e-3)


def test_h_monotone_direction():
    # strictly increasing in w for q1 < q2, decreasing for q1 > q2
    grid = np.linspace(-3.0, 3.0, 200)
    inc = np.array([h_func(w, 0.3, 0.8) for w in grid])
    dec = np.array([h_func(w, 0.8, 0.3) for w in grid])
    assert np.all(np.diff(inc) > 0)
    assert np.all(np.diff(dec) < 0)


def test_h_swap_symmetry():
    # h(-omega, q1, q2) = h(omega, q2, q1)
    rng = np.random.default_rng(11)
    for _ in range(300):
        q1, q2 = rng.uniform(0.05, 1.0, size=2)
        if abs(q1 - q2) <= 1e-8:
            continue
        w = rng.uniform(-3.0, 3.0)
        a = h_func(-w, q1, q2)
        b = h_func(w, q2, q1)
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_curve_point_symmetric_incommensurate():
    pt = curve_point(CurveParams(1.0, 1 / 3, 2 / 3), 0.0)
    assert pt.a11 == pytest.approx(math.sqrt(3.0) - 1.0, rel=1e-12)
    assert pt.a22 == pytest.approx(math.sqrt(3.0) - 1.0, rel=1e-12)


def test_curve_point_reference_values():
    pt = curve_point(CurveParams(REF_DELTA, 0.5, 0.25), 0.818108)
    assert pt.a11 == pytest.approx(0.00001, abs=1e-8)
    assert pt.a22 == pytest.approx(0.208493, abs=1e-5)


def test_solve_omega_star_reference():
    cp = CurveParams(REF_DELTA, 0.5, 0.25)
    assert solve_omega_star(cp, 0.00001) == pytest.approx(0.818108, abs=1e-5)


def test_solve_omega_star_symmetric_points():
    assert solve_omega_star(CurveParams(1.0, 1 / 3, 2 / 3), math.sqrt(3.0) - 1.0) == pytest.approx(0.0, abs=1e-12)
    # w* = 0 at equal orders
    assert solve_omega_star(CurveParams(4.0, 0.5, 0.5), math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-12)


def test_solve_omega_star_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(100):
        delta = rng.uniform(0.05, 8.0)
        q1, q2 = rng.uniform(0.05, 1.0, size=2)
        w_true = rng.uniform(-2.0, 2.0)
        cp = CurveParams(delta, q1, q2)
        a11 = curve_point(cp, w_true).a11
        w = solve_omega_star(cp, a11)
        a11_back = curve_point(cp, w).a11
        assert abs(a11_back - a11) <= 1e-9 * (1.0 + abs(a11))


def test_phi_reference_values():
    assert phi(CurveParams(REF_DELTA, 0.5, 0.25), 0.00001) == pytest.approx(0.208493, abs=1e-5)
    assert phi(CurveParams(REF_DELTA, 0.25, 0.5), 0.00001) == pytest.approx(0.0271274, abs=1e-6)
    # commensurate line: phi(a11) = 2 sqrt(delta) cos(q pi/2) - a11
    assert phi(CurveParams(4.0, 0.5, 0.5), 0.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_phi_decreasing_and_concave():
    rng = np.random.default_rng(13)
    for _ in range(10):
        delta = rng.uniform(0.1, 6.0)
        q1, q2 = rng.uniform(0.1, 1.0, size=2)
        cp = CurveParams(delta, q1, q2)
        lo = curve_point(cp, -1.5)
        hi = curve_point(cp, 1.5)
        a_grid = np.linspace(min(lo.a11, hi.a11), max(lo.a11, hi.a11), 30)
        vals = np.array([phi(cp, a) for a in a_grid])
        assert np.all(np.diff(vals) < 0), "phi must be decreasing in a11"
        second = np.diff(np.diff(vals) / np.diff(a_grid)) / (a_grid[2:] - a_grid[:-2])
        assert np.all(second <= 1e-9), "phi must be concave"


def test_phi_continuous_across_commensurate_switch():
    # phi approaches the equal-order line as the order gap closes
    v_comm = phi(CurveParams(2.0, 0.6, 0.6), 0.4)
    v_near = phi(CurveParams(2.0, 0.6, 0.6 + 2e-8), 0.4)
    assert v_near == pytest.approx(v_comm, rel=1e-5)


def test_sample_curve_validation():
    cp = CurveParams(4.0, 0.6, 0.8)
    for a11_min, a11_max, n in ((1.0, 1.0, 5), (1.0, -1.0, 5), (math.nan, 1.0, 5), (-1.0, 1.0, 1)):
        with pytest.raises(ValueError):
            sample_curve(cp, a11_min, a11_max, n)


def test_sample_curve_monotone():
    # w* runs with a11 for q1 < q2, as h runs with w; phi decreases
    rows = sample_curve(CurveParams(4.0, 0.6, 0.8), -3.0, 3.0, 7)
    assert rows.shape == (7, 3)
    assert np.all(np.diff(rows[:, 1]) > 0)
    assert np.all(np.diff(rows[:, 0]) > 0)
    assert np.all(np.diff(rows[:, 2]) < 0)


def test_sample_curve_commensurate_collinear():
    rows = sample_curve(CurveParams(1.0, 0.2, 0.2), -2.0, 2.0, 5)
    assert rows.shape == (5, 3)
    line = 2.0 * math.cos(0.1 * math.pi)
    for w, a11, a22 in rows:
        assert w == 0.0
        assert a11 + a22 == pytest.approx(line, abs=1e-12)


def test_sample_curve_small_q2_endpoint_quadrants():
    # strongly asymmetric orders: both tails of the paper's window w in
    # [-5, 5] leave through the first quadrant; over the a11 it spans, the
    # rows run from w* = 5 down to w* = -5 (q1 > q2: h decreases in w)
    cp = CurveParams(4.0, 0.6, 0.02)
    lo, hi = curve_point(cp, 5.0), curve_point(cp, -5.0)
    rows = sample_curve(cp, lo.a11, hi.a11, 101)
    assert rows.shape == (101, 3)
    first, last = rows[0], rows[-1]
    assert first[1] > 0 and first[2] > 0
    assert last[1] > 0 and last[2] > 0
    assert first[0] == pytest.approx(5.0, rel=1e-9) and last[0] == pytest.approx(-5.0, rel=1e-9)
    assert np.all(np.diff(rows[:, 0]) < 0)


def test_curve_points_avoid_closed_regions():
    rng = np.random.default_rng(14)
    for _ in range(25):
        delta = rng.uniform(0.1, 6.0)
        q1, q2 = rng.uniform(0.1, 1.0, size=2)
        for _, a11, a22 in sample_curve(CurveParams(delta, q1, q2), -2.5, 2.5, 40):
            assert classify_order_independent(a11, a22, delta) is None


@pytest.mark.parametrize("delta, q1, q2, a11_min, a11_max, n", [
    (REF_DELTA, 0.5, 0.25, -0.06, 0.06, 601),  # the README example
    (4.0, 1.0, 1.0, -3.0, 3.0, 61),
    (2.5, 0.45, 0.95, -2.0, 2.0, 200),
])
def test_sample_curve_rows_on_gamma(delta, q1, q2, a11_min, a11_max, n):
    # every row is, bit for bit, a point classify puts on Gamma
    cp = CurveParams(delta, q1, q2)
    rows = sample_curve(cp, a11_min, a11_max, n)
    assert rows.shape == (n, 3)
    for w, a11, a22 in rows:
        assert a22 == phi(cp, a11)
        assert w == solve_omega_star(cp, a11)
        v = _classify_params(a11, a22, delta, q1, q2)
        assert v.margin == 0.0 and v.kind is VerdictKind.MarginalOnCurve, (a11, a22, v)


def test_sample_curve_continuous_across_former_band_edge():
    # orders 0.9e-8 and 1.1e-8 apart, either side of where the paper's rho_k
    # were once replaced by the equal-order line: phi and w* move by no more
    # than the gap does
    a = sample_curve(CurveParams(4.0, 0.5, 0.5 + 0.9e-8), -1.0, 3.0, 41)
    b = sample_curve(CurveParams(4.0, 0.5, 0.5 + 1.1e-8), -1.0, 3.0, 41)
    assert np.array_equal(a[:, 1], b[:, 1])
    for ra, rb in zip(a, b):
        terms = phi_terms(CurveParams(4.0, 0.5, 0.5 + 0.9e-8), ra[1])[1]
        assert abs(ra[2] - rb[2]) <= 1e-8 * terms, (ra, rb)
    assert np.max(np.abs(np.concatenate((a[:, 0], b[:, 0])))) <= 1e-7


def test_curve_carries_pure_imaginary_root():
    # at an a11 placed by the paper's parametrization, the system on phi
    # admits the root s = i delta^(1/(q1+q2)) e^(w*)
    rng = np.random.default_rng(15)
    for _ in range(25):
        delta = rng.uniform(0.1, 6.0)
        q1, q2 = rng.uniform(0.1, 1.0, size=2)
        cp = CurveParams(delta, q1, q2)
        radius = delta ** (1.0 / (q1 + q2))
        for w in np.linspace(-2.0, 2.0, 15):
            a11 = curve_point(cp, w).a11
            p = CharParams(a11, phi(cp, a11), delta, q1, q2)
            s = 1j * radius * math.exp(solve_omega_star(cp, a11))
            assert abs(delta_eval(p, s)) <= 1e-9 * (1.0 + delta)


def test_u_max_below_one():
    rng = np.random.default_rng(16)
    for _ in range(2000):
        q1 = rng.uniform(0.0, 1.0)
        q2 = rng.uniform(0.0, 1.0)
        if q1 == q2 or min(q1, q2) == 0.0:
            continue
        q1, q2 = min(q1, q2), max(q1, q2)
        assert u_max(q1, q2) < 1.0


def test_u_max_matches_direct_formula():
    # log-space evaluation must agree with the textbook expression where
    # the latter does not overflow
    rng = np.random.default_rng(17)
    for _ in range(200):
        q1 = rng.uniform(0.05, 0.9)
        q2 = rng.uniform(q1 + 0.05, 1.0)
        direct = (
            (math.sin(q2 * math.pi / 2) / q2) ** (q2 / (q2 - q1))
            * (q1 / math.sin(q1 * math.pi / 2)) ** (q1 / (q2 - q1))
            * (q2 - q1) / math.sin((q2 - q1) * math.pi / 2)
        )
        assert u_max(q1, q2) == pytest.approx(direct, rel=1e-12)


def test_phi_orders_past_scalar_overflow():
    # w* = -552 at orders (1, 1/48), where math.exp(-q2*w) is near overflow;
    # the scalar phi and the raster both land on the curve point
    cp = CurveParams(1.0, 1.0, 1.0 / 48)
    pt = curve_point(cp, -552.0)
    got, terms = phi_orders(cp.delta, pt.a11, cp.q1, cp.q2)
    assert got.shape == terms.shape == ()
    assert float(got) == pytest.approx(pt.a22, rel=1e-11)
    assert phi(cp, pt.a11) == pytest.approx(float(got), rel=1e-11)
    big = phi(cp, 1e5)
    assert big == pytest.approx(-3.19057853584458e238, rel=1e-11)
    assert big == pytest.approx(float(phi_orders(cp.delta, 1e5, cp.q1, cp.q2)[0]), rel=1e-11)


def test_phi_past_double_range():
    # phi(1e7) is about -e^(1e4): -inf on both paths, not OverflowError.
    # At orders (0.1, 0.9) and a11 = 1e40 both of phi's terms leave double
    # range together; their difference is -inf too, not inf - inf = NaN
    for cp, a11 in ((CurveParams(1.0, 1.0, 1.0 / 48), 1e7), (CurveParams(1.0, 0.1, 0.9), 1e40)):
        assert phi(cp, a11) == -math.inf
        assert float(phi_orders(cp.delta, a11, cp.q1, cp.q2)[0]) == -math.inf


def test_omega_star_near_band_settles():
    # at orders 5e-6 apart the step rule alone cycles at 1.4e-13 of |w|; the
    # residual's rounding floor ends the iteration. The value is a 50-digit
    # mpmath root of the curve equation.
    cp = CurveParams(88378715.01227283, 0.0129472878796884, 0.012952545371486105)
    w = solve_omega_star(cp, 0.00028074676134855144)
    assert w == pytest.approx(-0.015673094396100526965, rel=1e-12, abs=0.0)


def test_phi_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    half_pi = mp.pi / 2
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 100:
        delta = float(10.0 ** rng.uniform(-3.0, 3.0))
        a11 = float(rng.uniform(-20.0, 20.0))
        q1, q2 = (float(q) for q in rng.uniform(0.01, 1.0, 2))
        if abs(q1 - q2) < 0.05:
            continue
        checked += 1
        cp = CurveParams(delta, q1, q2)
        w, got = solve_omega_star(cp, a11), phi(cp, a11)
        d, x1, x2 = (mp.mpf(v) for v in (delta, q1, q2))
        den = mp.sin((x2 - x1) * half_pi)
        r1, r2 = mp.sin(x1 * half_pi) / den, mp.sin(x2 * half_pi) / den
        s, t = d ** (x1 / (x1 + x2)), d ** (x2 / (x1 + x2))
        w_mp = mp.findroot(lambda v: s * (r2 * mp.exp(x1 * v) - r1 * mp.exp(-x2 * v)) - a11, w)
        terms = (t * r2 * mp.exp(-x1 * w_mp), t * r1 * mp.exp(x2 * w_mp))
        assert abs(w - w_mp) <= 1e-13 * max(1.0, abs(w_mp))
        # phi is a difference of two terms; near phi = 0 no double formula
        # does better than the rounding of the larger one
        assert abs(got - (terms[0] - terms[1])) <= 1e-13 * max(abs(terms[0]), abs(terms[1]))
