"""The vectorized "%.17g" kernel against the % operator, and the CSVs it writes."""

import io
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import fracstab
from fracstab import CurveParams, SystemSpec, _g17, cli, sample_curve


def percent_rows(data):
    """The text the % operator writes: "%.17g" fields joined by "," and "\\n"."""
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    return row * len(data) % tuple(data.ravel().tolist())


def assert_parity(data):
    got, want = _g17.format_rows(data), percent_rows(data)
    if got != want:
        for g, w in zip(got.splitlines(), want.splitlines()):
            assert g == w
    assert got == want


def is_exact(values):
    """Which values the kernel formats itself, not by "%.17g" % v."""
    return _g17._decimal17(np.abs(np.asarray(values, dtype=float)))[2]


def test_random_bit_patterns():
    # 1,000,000 patterns: both signs, every exponent, subnormals, inf and NaN payloads
    rng = np.random.default_rng(1)
    for _ in range(25):
        assert_parity(rng.integers(0, 2**64, size=(10000, 4), dtype=np.uint64).view(np.float64))


def edge_values():
    values = []
    for k in range(-324, 309):
        p = float(f"1e{k}")
        values += [p, *np.nextafter(p, [0.0, np.inf]), *np.nextafter(np.nextafter(p, [0.0, np.inf]), [0.0, np.inf])]
    values += list(np.ldexp(1.0, np.arange(-1074, 1024)))
    k = np.arange(20001)
    values += list(k * 2.5) + list(k * 0.01)
    values += [0.0, math.inf, math.nan, 5e-324, 1e-310]
    values = np.array(values)
    return np.concatenate([values, -values])


def test_edge_values():
    values = edge_values()
    assert len(values) > 45000
    assert_parity(values.reshape(-1, 2))


def test_exact_ties_take_the_fallback():
    # 18 significant digits ending in 5: "%.17g" rounds them half to even
    rng = np.random.default_rng(7)
    ties = np.concatenate([
        [123456789012.015625, 1e15 + 0.25, 2.0**51 - 0.25, 2.0**-25, 3 * 2.0**-25],
        rng.integers(10**15, 2**51, 500) + rng.choice([0.25, 0.75], 500),
    ])
    for t in ties:
        digits = Decimal(t).normalize().as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert not is_exact(ties).any()
    values = np.stack([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)], axis=1)
    assert_parity(np.concatenate([values, -values]))
    assert "%.17g" % 123456789012.015625 == "123456789012.01562"


def test_three_digit_exponents():
    rng = np.random.default_rng(11)
    big = 10.0 ** rng.uniform(100, 308.25, 20000)
    small = 10.0 ** rng.uniform(-307.6, -100, 20000)
    values = np.concatenate([big, small, [1e100, 1e-100, 9.999999999999999e99, 1.7976931348623157e308,
                                          2.2250738585072014e-308]])
    values = np.concatenate([values, -values])
    assert is_exact(values).all()
    assert_parity(values[: len(values) // 4 * 4].reshape(-1, 4))


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025])
@pytest.mark.parametrize("cols", [1, 3, 4])
def test_writer_rows_and_columns(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    data = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 20, size=(rows, cols))
    data[::7, 0] = 0.0
    fh = io.StringIO()
    cli._write_float_csv(fh, "h\n", data)
    assert fh.getvalue() == "h\n" + (percent_rows(data) if rows else "")


def test_tables_and_exponent_estimate():
    # the bounds the module docstring relies on, checked exactly
    th, thh, thl, tl, g, least = _g17._pow10()
    for i, k in enumerate(range(-_g17._K, _g17._K + 1)):
        exact = Fraction(10) ** k / Fraction(2) ** int(g[i])
        assert 1 <= exact < 2 and 1 <= th[i] <= 2
        assert abs(Fraction(th[i]) + Fraction(tl[i]) - exact) <= Fraction(2) ** -106
        assert Fraction(thh[i]) + Fraction(thl[i]) == Fraction(th[i])
        if -307 <= k <= 308:
            assert Fraction(np.nextafter(least[i], 0.0)) < Fraction(10) ** k <= Fraction(least[i])
    # 10^E0 <= 2^m < 10^(E0 + 1) for E0 = (m * 78913) >> 18 and every binary exponent m
    for m in range(-1075, 1024):
        e0 = (m * 78913) >> 18
        assert Fraction(10) ** e0 <= Fraction(2) ** m < Fraction(10) ** (e0 + 1)


def reference_run():
    spec = SystemSpec(0.00001, 1.0, -0.0022, 0.1, 0.5, 0.25)
    traj = fracstab.integrate(spec, (1.0, 1.0), 5e4, 2.5)
    return np.column_stack((traj.times, traj.states, traj.norms()))


def test_reference_run_takes_no_fallback():
    # the performance contract: every value of the 20001-row reference run,
    # t = 0 included, is formatted by the array passes
    data = reference_run()
    assert data.shape == (20001, 4)
    assert np.flatnonzero(~is_exact(data.ravel())).tolist() == []


def csv_fields(path):
    lines = path.read_text().splitlines()
    return [s for line in lines[1:] for s in line.split(",")]


@pytest.mark.parametrize(
    "spec, x0, t_end, h, reached",
    [
        # grows by 26/24 a step until it overflows, past 1e299
        (SystemSpec(50.0, 0.0, 0.0, 50.0, 1.0, 1.0), (1.0, -0.0), 1e4, 1.0,
         lambda fields, v: np.abs(v).max() > 1e299),
        # -0.0, 1e-300-scale and subnormal states
        (SystemSpec(-1.0, 0.0, 1e-10, -1.0, 0.5, 0.5), (1e-300, -0.0), 5.0, 0.01,
         lambda fields, v: "-0" in fields and np.count_nonzero((v != 0) & (np.abs(v) < 2.2e-308)) >= 500),
    ],
)
def test_simulate_csv_fields_round_trip(tmp_path, capsys, spec, x0, t_end, h, reached):
    out_path = tmp_path / "traj.csv"
    cli.main(["simulate", "--a11", repr(spec.a11), "--a12", repr(spec.a12), "--a21", repr(spec.a21),
              "--a22", repr(spec.a22), "--q1", repr(spec.q1), "--q2", repr(spec.q2),
              f"--x0={x0[0]!r}", f"--y0={x0[1]!r}", "--t-end", repr(t_end), "--h", repr(h),
              "--out", str(out_path)])
    capsys.readouterr()
    fields = csv_fields(out_path)
    assert fields and all("%.17g" % float(s) == s for s in fields)
    assert reached(fields, np.array(fields, dtype=float))


def test_curve_csv_fields_round_trip(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    cli.main(["curve", "--delta", "4", "--q1", "0.5", "--q2", "0.5", "--a11-min=-3",
              "--a11-max", "3", "--n", "1500", "--out", str(out_path)])
    capsys.readouterr()
    fields = csv_fields(out_path)
    assert len(fields) == 3 * 1500
    assert all("%.17g" % float(s) == s for s in fields)
    rows = sample_curve(CurveParams(4.0, 0.5, 0.5), -3.0, 3.0, 1500)
    assert [float(s) for s in fields] == rows.ravel().tolist()
