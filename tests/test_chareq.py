"""Tests for the characteristic function and its branch conventions."""

import cmath
import math

import numpy as np
import pytest

from fracstab import (
    CharParams,
    SystemSpec,
    delta_eval,
    delta_rounding_bound,
    principal_power,
    term_majorant,
)

# reference 2x2 system reused across the suite; delta = 0.002201
REF_A = dict(a11=0.00001, a12=1.0, a21=-0.0022, a22=0.1)
REF_DELTA = REF_A["a11"] * REF_A["a22"] - REF_A["a12"] * REF_A["a21"]


def test_system_spec_rejects_bad_orders():
    for q1, q2 in [(0.0, 0.5), (0.5, 0.0), (1.2, 0.5), (0.5, -0.1), (math.nan, 0.5)]:
        with pytest.raises(ValueError):
            SystemSpec(1.0, 0.0, 0.0, 1.0, q1, q2)
    SystemSpec(1.0, 0.0, 0.0, 1.0, 1.0, 1.0)  # closed right endpoint is legal


def test_system_spec_delta_exact():
    s = SystemSpec(**REF_A, q1=0.5, q2=0.25)
    assert s.delta() == REF_A["a11"] * REF_A["a22"] - REF_A["a12"] * REF_A["a21"]
    p = s.char_params()
    assert (p.a11, p.a22, p.q1, p.q2) == (REF_A["a11"], REF_A["a22"], 0.5, 0.25)
    assert p.delta == s.delta()


def test_char_params_allows_any_delta_sign():
    CharParams(1.0, 1.0, -3.0, 0.5, 0.5)
    CharParams(1.0, 1.0, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        CharParams(1.0, 1.0, 1.0, 0.0, 0.5)


def test_delta_vanishes_at_one_when_sum_matches():
    # a11 + a22 = delta + 1 forces Delta(1) = 1 - a11 - a22 + delta = 0
    rng = np.random.default_rng(0)
    for _ in range(50):
        delta = rng.uniform(0.1, 5.0)
        a11 = rng.uniform(-3.0, 3.0)
        a22 = delta + 1.0 - a11
        q1, q2 = rng.uniform(0.05, 1.0, size=2)
        p = CharParams(a11, a22, delta, q1, q2)
        assert abs(delta_eval(p, 1.0 + 0.0j)) < 1e-12


def test_classical_center_root():
    p = CharParams(0.0, 0.0, 4.0, 1.0, 1.0)
    assert abs(delta_eval(p, 2j)) < 1e-12


def test_reference_root_residual():
    # s = lambda^4 for the known eigenvalue lambda = 0.304593 of the
    # order-1/4 companion form is a characteristic root
    p = CharParams(REF_A["a11"], REF_A["a22"], REF_DELTA, 0.25, 0.5)
    s = 0.304593 ** 4
    assert abs(delta_eval(p, s)) < 1e-6


def test_delta_at_zero_is_delta():
    for delta in (-1.0, 0.0, 2.5):
        p = CharParams(0.3, -0.7, delta, 0.4, 0.9)
        assert delta_eval(p, 0.0) == delta


def test_principal_power_branch_consistency():
    # |s^q| = |s|^q and Arg(s^q) = q Arg(s) for q in (0, 2]
    rng = np.random.default_rng(1)
    for _ in range(300):
        r = rng.uniform(0.01, 100.0)
        theta = rng.uniform(-math.pi * 0.999, math.pi * 0.999)
        q = rng.uniform(0.01, 2.0)
        s = r * cmath.exp(1j * theta)
        w = principal_power(s, q)
        assert abs(abs(w) - r ** q) <= 1e-12 * r ** q
        # the principal branch wraps the phase back into (-pi, pi]
        d = (cmath.phase(w) - q * theta + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(d) <= 1e-12 * max(1.0, abs(q * theta))


def test_principal_power_on_negative_axis():
    # Arg(-1) = +pi by convention, so (-1)^(1/2) = i, even for -1 - 0j
    assert principal_power(-1.0 + 0.0j, 0.5) == pytest.approx(1j, abs=1e-15)
    assert principal_power(complex(-1.0, -0.0), 0.5) == pytest.approx(1j, abs=1e-15)
    assert principal_power(0.0 + 0.0j, 0.7) == 0.0


def test_imaginary_axis_powers_exact():
    # on Re s = 0 the angles come from 1 - q and 2 - q, not fl(pi/2): i^1 = i
    # and i^2 = -1 exactly, and at q1 = q2 = 1, Delta(i) = delta - 1 - i*a22
    # keeps the sign of a22 = 1e-16 (through fl(pi/2) it read +2.2e-17i)
    assert principal_power(1j, 1.0) == 1j
    assert principal_power(-1j, 2.0) == -1.0
    assert principal_power(-4j, 0.5) == pytest.approx(math.sqrt(2.0) * (1 - 1j), rel=1e-15)
    got = delta_eval(CharParams(0.0, 1e-16, 1.0, 1.0, 1.0), 1j)
    assert got == -1e-16j and got.imag < 0.0


def conjugate_symmetry_check(p: CharParams, s: complex) -> bool:
    """True iff Delta(conj(s)) equals conj(Delta(s)) to Delta's rounding bound.

    Real coefficients and the principal branch commute with conjugation away
    from the branch cut, so this holds for every s with Im s != 0; roots off
    the real axis therefore come in conjugate pairs. The difference is judged
    against delta_rounding_bound(p, s), which scales as Delta does under
    time scaling.
    """
    if complex(s).imag == 0:
        raise ValueError("conjugate_symmetry_check requires Im s != 0")
    d = delta_eval(p, s)
    d_conj = delta_eval(p, complex(s).conjugate())
    return abs(d_conj - d.conjugate()) <= delta_rounding_bound(p, s)


def test_conjugate_symmetry_examples():
    rng = np.random.default_rng(2)
    p = CharParams(0.4, -1.3, 2.2, 0.35, 0.85)
    assert conjugate_symmetry_check(p, 1.0 + 2.0j)
    assert conjugate_symmetry_check(CharParams(1.0, 1.0, 4.0, 0.6, 0.8), 0.3 + 0.7j)
    # near the branch cut on both sides
    assert conjugate_symmetry_check(p, -1.0 + 0.001j)
    assert conjugate_symmetry_check(p, -1.0 - 0.001j)
    for _ in range(200):
        p = CharParams(*rng.uniform(-4.0, 4.0, size=3), *rng.uniform(0.05, 1.0, size=2))
        s = complex(rng.uniform(-10, 10), rng.choice([-1, 1]) * rng.uniform(1e-3, 10))
        assert conjugate_symmetry_check(p, s)


def test_conjugate_symmetry_time_scaled():
    # the check is judged against delta_rounding_bound, which scales as Delta
    # does, so it holds under a time scaling (a11, a22, delta, s) ->
    # (a11*c^q1, a22*c^q2, delta*c^(q1+q2), c*s) for c over 24 decades
    rng = np.random.default_rng(29)
    for _ in range(2000):
        q1, q2 = (float(q) for q in rng.uniform(0.05, 1.0, 2))
        a11, a22, delta = (float(a) for a in rng.uniform(-4.0, 4.0, 3))
        s = complex(rng.uniform(-10, 10), rng.choice([-1, 1]) * rng.uniform(1e-3, 10))
        c = float(10.0 ** rng.uniform(-12.0, 12.0))
        p = CharParams(a11 * c**q1, a22 * c**q2, delta * c ** (q1 + q2), q1, q2)
        assert conjugate_symmetry_check(p, c * s), (p, c * s)


def test_conjugate_symmetry_rejects_real_s():
    p = CharParams(1.0, 1.0, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        conjugate_symmetry_check(p, 3.0 + 0.0j)


def test_commensurate_collapse_to_quadratic():
    # for q1 = q2 = q, Delta(s) = z^2 - (a11 + a22) z + delta with z = s^q
    rng = np.random.default_rng(3)
    for _ in range(200):
        q = rng.uniform(0.05, 1.0)
        a11, a22, delta = rng.uniform(-4.0, 4.0, size=3)
        p = CharParams(a11, a22, delta, q, q)
        s = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if s == 0:
            continue
        z = principal_power(s, q)
        direct = delta_eval(p, s)
        quad = z * z - (a11 + a22) * z + delta
        assert abs(direct - quad) <= 1e-13 * max(1.0, abs(direct))


def test_delta_eval_shares_one_log():
    # one log s for the three powers gives principal_power's values bitwise
    rng = np.random.default_rng(41)
    for _ in range(500):
        q1, q2 = rng.uniform(0.01, 1.0, 2)
        a11, a22, delta = rng.uniform(-5.0, 5.0, 3)
        p = CharParams(float(a11), float(a22), float(delta), float(q1), float(q2))
        s = cmath.rect(10.0 ** rng.uniform(-5.0, 5.0), rng.uniform(-math.pi, math.pi))
        for z in (s, complex(-abs(s), 0.0), complex(-abs(s), -0.0), complex(0.0, abs(s))):
            want = (principal_power(z, p.q1 + p.q2) - p.a11 * principal_power(z, p.q2)
                    - p.a22 * principal_power(z, p.q1) + p.delta)
            assert delta_eval(p, z) == want


def test_delta_rounding_bound_holds():
    # |delta_eval - Delta| <= rho(s) against 50 digits, for |s| over 400
    # decades, on every ray, the branch cut and the axes included, and at
    # points where delta cancels the real part of the other terms
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 1500:
        q1, q2 = (float(q) for q in rng.uniform(0.01, 1.0, 2))
        a11, a22, delta = (float(a) for a in rng.uniform(-5.0, 5.0, 3) * 10.0 ** rng.uniform(-20.0, 20.0, 3))
        r = float(10.0 ** rng.uniform(-200.0, 200.0))
        arg = float(rng.choice([rng.uniform(-math.pi, math.pi), math.pi, 0.5 * math.pi, -0.5 * math.pi, 0.0]))
        s = complex(-r, 0.0) if arg == math.pi else complex(0.0, math.copysign(r, arg)) if abs(arg) == 0.5 * math.pi else cmath.rect(r, arg)
        log_s = mp.log(mp.mpc(s.real, s.imag))
        x1, x2 = mp.mpf(q1), mp.mpf(q2)
        rest = mp.exp((x1 + x2) * log_s) - a11 * mp.exp(x2 * log_s) - a22 * mp.exp(x1 * log_s)
        if checked % 3 == 0:
            delta = float(-rest.real)
        if not math.isfinite(delta):
            continue
        p = CharParams(a11, a22, delta, q1, q2)
        try:
            got, rho = delta_eval(p, s), delta_rounding_bound(p, s)
        except OverflowError:  # terms past double range: never evaluated on a contour
            continue
        err = abs(mp.mpc(got.real, got.imag) - (rest + delta))
        assert err <= rho, (p, s, float(err), rho)
        assert rho <= 1e-11 * term_majorant(p, r)
        checked += 1
