"""Tests of the benchmark's oracles against published and closed-form values.

Run with ``python3 -m pytest benchmark/test_oracles.py``. The reference values
are the paper's: omega* = 0.818108 and phi = 0.208493 for the stable orders
(1/2, 1/4), and the companion eigenvalues -0.326701, 0.0221182, 0.304593 for
the unstable orders (1/4, 1/2).
"""

import math

import numpy as np
import pytest

from oracles import (
    classical_solution,
    critical_point,
    decoupled_solution,
    leading_term,
    region_verdict,
    z_roots,
)

A11, A12, A21, A22 = 0.00001, 1.0, -0.0022, 0.1
DELTA = A11 * A22 - A12 * A21


def test_critical_point_matches_published_reference():
    y, a22 = critical_point(DELTA, 0.5, 0.25, A11)
    omega_star = math.log(y) - math.log(DELTA) / 0.75
    assert omega_star == pytest.approx(0.818108, abs=1e-6)
    assert a22 == pytest.approx(0.208493, abs=1e-6)


def test_critical_point_commensurate_line():
    # q1 = q2 = q: the curve is a22 = 2*sqrt(delta)*cos(q*pi/2) - a11
    for a11, delta, q in [(-1.0, 2.0, 0.3), (0.5, 0.25, 0.9), (3.0, 7.0, 0.5)]:
        _, a22 = critical_point(delta, q, q, a11)
        assert a22 == pytest.approx(2.0 * math.sqrt(delta) * math.cos(q * math.pi / 2.0) - a11)


def test_critical_point_is_an_imaginary_root():
    for a11, delta, q1, q2 in [(-2.0, 3.0, 0.3, 0.8), (1.5, 0.4, 0.9, 0.2)]:
        y, a22 = critical_point(delta, q1, q2, a11)
        s = 1j * y
        value = s ** (q1 + q2) - a11 * s**q2 - a22 * s**q1 + delta
        assert abs(value) < 1e-12 * (1.0 + delta)


def test_z_roots_match_published_companion_eigenvalues():
    # q1 = 1/4, q2 = 1/2: n = 4, z^3 - a11 z^2 - a22 z + delta
    roots = z_roots(A11, A22, DELTA, 1, 2, 4)
    assert roots.count == 2
    published = np.array([0.0221182, 0.304593])
    assert np.sort(roots.unstable.real) == pytest.approx(published**4, rel=1e-5)
    assert np.all(roots.unstable.imag == 0.0)


def test_z_roots_stable_reference_orders():
    # q1 = 1/2, q2 = 1/4: n = 4, z^3 - a11 z - a22 z^2 + delta has no root
    # in the sector |arg z| < pi/8
    roots = z_roots(A11, A22, DELTA, 2, 1, 4)
    assert roots.count == 0
    assert roots.edge_gap > 0.1


def test_z_roots_classical_eigenvalues():
    # q1 = q2 = 1: roots are the eigenvalues of A
    a = np.array([[0.5, 2.0], [-1.0, -3.0]])
    delta = float(np.linalg.det(a))
    roots = z_roots(a[0, 0], a[1, 1], delta, 1, 1, 1)
    eig = np.linalg.eigvals(a)
    assert roots.count == int(np.sum(eig.real > 0))
    assert np.sort(roots.unstable.real) == pytest.approx(np.sort(eig[eig.real > 0].real))


def test_region_verdict_examples():
    assert region_verdict(3.0, 3.0, 2.0) == 0  # a11 + a22 >= delta + 1
    assert region_verdict(0.5, 0.8, 0.3) == 0  # positive product >= delta
    assert region_verdict(-2.0, 0.5, 1.0) == 1  # R_s
    assert region_verdict(A11, A22, DELTA) is None


def test_decoupled_solution_against_series():
    # E_{1/2}(-z) = sum_k (-z)^k / Gamma(k/2 + 1)
    lam = 1.3
    t = np.array([0.0, 0.01, 0.3, 1.0])
    z = lam * np.sqrt(t)
    series = np.array([sum((-zi) ** k / math.gamma(k / 2 + 1) for k in range(80)) for zi in z])
    assert decoupled_solution(lam, 2.0, t) == pytest.approx(2.0 * series, rel=1e-12)


def test_classical_solution_rotation():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t = np.linspace(0.0, 6.0, 7)
    x = classical_solution(a, np.array([1.0, 0.0]), t)
    assert x[:, 0] == pytest.approx(np.cos(t), abs=1e-13)
    assert x[:, 1] == pytest.approx(-np.sin(t), abs=1e-13)


def test_leading_term_matches_decoupled_asymptotics():
    # erfcx(x) ~ 1/(sqrt(pi) x): the leading term of the decoupled q = 1/2 case
    lam, t = 0.7, 1e8
    a = np.diag([-lam, -lam])
    lead = leading_term(a, np.array([1.0, -2.0]), 0.5, 0.5, t)
    exact = decoupled_solution(lam, np.array([1.0, -2.0]), np.array([t, t]))
    assert lead == pytest.approx(exact, rel=1e-7)
