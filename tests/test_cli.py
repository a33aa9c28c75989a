"""End-to-end tests for the command-line interface."""

import errno
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import fracstab
from fracstab import CurveParams, SystemSpec, classify, cli, curve, qscan_verdicts, sample_curve
from fracstab.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_MARGINAL,
    EXIT_STABLE,
    EXIT_UNSTABLE,
    EXIT_USAGE,
    VERDICT_EXIT_CODES,
    _fmt,
    main,
)
from paper_gamma import curve_point

REF = ["--a11", "0.00001", "--a12", "1", "--a21", "-0.0022", "--a22", "0.1"]
SQRT2 = repr(math.sqrt(2.0))


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_record(line):
    return dict(tok.split("=", 1) for tok in line.split())


def test_classify_stable_reference(capsys):
    code, out, _ = run_cli(capsys, "classify", *REF, "--q1", "0.5", "--q2", "0.25")
    assert code == EXIT_STABLE == 0
    rec = parse_record(out.strip().splitlines()[-1])
    assert rec["kind"] == "StableForOrders"
    assert rec["reason"] == "BelowGamma"
    assert float(rec["phi_value"]) == pytest.approx(0.208493, abs=1e-5)
    assert float(rec["decay_exponent"]) == 0.25
    assert float(rec["margin"]) < 0


def test_classify_unstable_reference(capsys):
    code, out, _ = run_cli(capsys, "classify", *REF, "--q1", "0.25", "--q2", "0.5")
    assert code == EXIT_UNSTABLE == 1
    rec = parse_record(out.strip().splitlines()[-1])
    assert rec["kind"] == "UnstableForOrders"
    assert float(rec["phi_value"]) == pytest.approx(0.0271274, abs=1e-6)


def test_classify_all_orders_stable(capsys):
    code, out, _ = run_cli(capsys, "classify", "--a11", -1, "--a12", 0, "--a21", 0,
                        "--a22", -1, "--q1", "0.9", "--q2", "0.1")
    assert code == EXIT_STABLE
    assert parse_record(out.strip().splitlines()[-1])["kind"] == "StableAllOrders"


def test_classify_json_record(capsys):
    code, out, _ = run_cli(capsys, "classify", *REF, "--q1", "0.5", "--q2", "0.25", "--json")
    assert code == EXIT_STABLE
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["kind"] == "StableForOrders"
    assert rec["decay_exponent"] == 0.25
    v = classify(SystemSpec(0.00001, 1.0, -0.0022, 0.1, 0.5, 0.25))
    assert rec["margin"] == v.margin
    assert rec["phi_value"] == v.phi_value
    assert rec["tie_band"] == v.tie_band > 0.0


def test_exit_code_table(capsys):
    cases = [
        (EXIT_STABLE, ["classify", *REF, "--q1", "0.5", "--q2", "0.25"]),
        (EXIT_STABLE, ["classify", "--a11", -1, "--a12", 0, "--a21", 0, "--a22", -1,
                       "--q1", "0.9", "--q2", "0.1"]),
        (EXIT_UNSTABLE, ["classify", *REF, "--q1", "0.25", "--q2", "0.5"]),
        (EXIT_UNSTABLE, ["classify", "--a11", 3, "--a12", 1, "--a21", 5, "--a22", 3,
                         "--q1", "0.5", "--q2", "0.5"]),
        (EXIT_UNSTABLE, ["classify", "--a11", 0, "--a12", 1, "--a21", 1, "--a22", 0,
                         "--q1", "0.5", "--q2", "0.5"]),
        # w* = -552 at orders (1, 1/48), where exp(-q2*w) nears overflow
        (EXIT_UNSTABLE, ["classify", "--a11", "1e5", "--a12", 1, "--a21=-10000000001",
                         "--a22=-1e5", "--q1", 1, "--q2", "0.02083333333333333"]),
        # phi(1e7) leaves double range: -inf, so the margin is +inf
        (EXIT_UNSTABLE, ["classify", "--a11", "1e7", "--a12", 1, "--a21=-100000000000001",
                         "--a22=-1e7", "--q1", 1, "--q2", "0.020833333333333332"]),
        # L/l overflows a double: the annulus spans 321 decades
        (EXIT_UNSTABLE, ["roots", "--a11", "8.92834118192419", "--a22=-17.015811483806015",
                         "--delta", "0.02077113118824527", "--q1", "0.017264614514767507",
                         "--q2", "0.18764018043319272"]),
        # the root annulus leaves [1e-300, 1e300]: l = 1e-331.6, then 1e-303.6
        (EXIT_MARGINAL, ["roots", "--a11=-5.2759", "--a22", "2.4339", "--delta", "1.2994e-3",
                         "--q1", "0.010882", "--q2", "0.55290"]),
        (EXIT_MARGINAL, ["roots", "--a11=-11.640755224148691", "--a22", "33.9244766331865",
                         "--delta", "0.010662504021753762", "--q1", "0.011535429321214173",
                         "--q2", "0.513678314337231"]),
        # L = 1e200 at orders (1, 1): s^2 leaves double range on the outer arc
        (EXIT_MARGINAL, ["roots", "--a11", "1e200", "--a22", 0, "--delta", 1,
                         "--q1", 1, "--q2", 1]),
        # (0.5, 0.5, 0.5) at orders (0.8, 0.4), time-scaled by c = 1e-10: every term
        # of Delta is far below 1, and the count is still 2
        (EXIT_UNSTABLE, ["roots", "--a11", "4.999999999999995e-09", "--a22", "4.9999999999999975e-05",
                         "--delta", "4.99999999999998e-13", "--q1", "0.8", "--q2", "0.4"]),
        # a time-scaled system whose unscaled margin is -2.51: its margin is
        # far below 1e-10 and far outside the tie band, which scales with it
        (EXIT_STABLE, ["classify", "--a11=-2.2814654987813964e-10", "--a12", 1,
                       "--a21=-5.966823883541333e-21", "--a22", "2.171967454510328e-11",
                       "--q1", "0.8768645755138017", "--q2", "0.9328890998522735"]),
        # Delta = s^2 - 1e-16*s + 1 has the roots 5e-17 +- i; phi = 2*cos(pi/2) - a11 is 0
        (EXIT_UNSTABLE, ["classify", "--a11", 0, "--a12", 1, "--a21=-1", "--a22", "1e-16",
                         "--q1", 1, "--q2", 1]),
        # orders 5e-9 apart, a22 1.3e-10 above Gamma
        (EXIT_UNSTABLE, ["classify", "--a11", "0.7", "--a12", 1, "--a21=-1.0900000046789828",
                         "--a22", "1.2999999933157391", "--q1", "0.5", "--q2", "0.500000005"]),
        (EXIT_MARGINAL, ["classify", "--a11", SQRT2, "--a12", 1, "--a21", -2,
                         "--a22", SQRT2, "--q1", "0.5", "--q2", "0.5"]),
        (EXIT_MARGINAL, ["classify", "--a11", 1, "--a12", 1, "--a21", 1, "--a22", 1,
                         "--q1", "0.5", "--q2", "0.5"]),
        (EXIT_USAGE, ["classify", "--a12", 1, "--a21", 1, "--a22", 1,
                      "--q1", "0.5", "--q2", "0.5"]),
        (EXIT_USAGE, ["classify", *REF, "--q1", "1.5", "--q2", "0.5"]),
        (EXIT_USAGE, ["classify", *REF, "--q1", "abc", "--q2", "0.5"]),
        (EXIT_USAGE, ["no-such-command"]),
        # a non-finite number given to qscan, also where R_u/R_s would settle
        # the raster, is a usage error as in classify and roots; a det of
        # finite entries that overflows to NaN is a data error, as in classify
        (EXIT_USAGE, ["qscan", "--a11", 0, "--a22", "inf", "--delta", 1, "--grid", 2]),
        (EXIT_USAGE, ["qscan", "--a11", "-inf", "--a22", -1, "--delta", 1, "--grid", 2]),
        (EXIT_USAGE, ["qscan", "--a11", -1, "--a22", -2, "--delta", "inf", "--grid", 2]),
        (EXIT_USAGE, ["qscan", "--a11", "0.5", "--a22", "0.3", "--delta", "inf", "--grid", 2]),
        (EXIT_USAGE, ["qscan", "--a11", -1, "--a22", -2, "--a12", "nan", "--a21", 1, "--grid", 2]),
        (EXIT_DATA, ["qscan", "--a11", "1e200", "--a22=-1e200", "--a12", "1e200", "--a21=-1e200",
                     "--grid", 2]),
        # negative values in exponent notation are values after a space too
        (EXIT_STABLE, ["simulate", "--a11", -1, "--a12", "-1.2e-05", "--a21", 0, "--a22", -1,
                       "--q1", "0.5", "--q2", "0.5", "--x0", 1, "--y0", 1,
                       "--t-end", 1, "--h", "0.01"]),
        (EXIT_STABLE, ["classify", "--a11", 1, "--a12", 1, "--a21", "-1E3", "--a22", "-.5e-3",
                       "--q1", "0.5", "--q2", "0.5"]),
        (EXIT_UNSTABLE, ["roots", "--a11", "0.00001", "--a22", "0.1", "--a12", 1,
                         "--a21", "-2.2e-3", "--q1", "0.25", "--q2", "0.5"]),
        # stable systems (StableAllOrders) on which an explicit step at this h
        # overflows: a small order, and stiff entries
        (EXIT_STABLE, ["simulate", "--a11=-3.350777864736043", "--a12", 1,
                       "--a21=-4.399660179488513", "--a22=-0.38042090466135825",
                       "--q1", "0.09090909090909091", "--q2", "0.7272727272727273",
                       "--x0", 1, "--y0", 1, "--t-end", 100, "--h", "0.01"]),
        (EXIT_STABLE, ["simulate", "--a11=-100", "--a12", 0, "--a21", 0, "--a22=-100",
                       "--q1", "0.9", "--q2", "0.6", "--x0", 1, "--y0", 1,
                       "--t-end", 100, "--h", "0.01"]),
        # I - Wc A is singular at h = 1: the implicit step has no solution
        (EXIT_MARGINAL, ["simulate", "--a11", 2, "--a12", 0, "--a21", 0, "--a22", 2,
                         "--q1", 1, "--q2", 1, "--x0", 1, "--y0", 1, "--t-end", 10, "--h", 1]),
    ]
    for want, args in cases:
        code, _, _ = run_cli(capsys, *args)
        assert code == want, args
    assert set(VERDICT_EXIT_CODES.values()) == {EXIT_STABLE, EXIT_UNSTABLE, EXIT_MARGINAL}


def test_classify_overflowed_delta_exit(capsys):
    # delta = 1e400 - 1e400 is NaN: a data error, not a verdict
    code, _, err = run_cli(capsys, "classify", "--a11", "1e200", "--a12", "1e200", "--a21", "1e200",
                           "--a22", "1e200", "--q1", "0.5", "--q2", "0.5")
    assert code == EXIT_DATA == 65
    assert "delta > 0" in err


def test_classify_marginal_record(capsys):
    code, out, _ = run_cli(capsys, "classify", "--a11", SQRT2, "--a12", 1, "--a21", -2,
                        "--a22", SQRT2, "--q1", "0.5", "--q2", "0.5")
    assert code == EXIT_MARGINAL
    rec = parse_record(out.strip().splitlines()[-1])
    assert rec["kind"] == "MarginalOnCurve"
    assert rec["reason"] == "OnGamma"


def test_curve_csv_monotone(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "curve", "--delta", 4, "--q1", "0.6", "--q2", "0.8",
                      "--a11-min", -3, "--a11-max", 3, "--n", 601, "--out", out_path)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "omega,a11,a22"
    assert len(lines) == 602
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    a11s = [r[1] for r in rows]
    assert all(b > a for a, b in zip(a11s, a11s[1:]))
    a22s = [r[2] for r in rows]
    assert all(b < a for a, b in zip(a22s, a22s[1:]))
    # 17 significant digits round-trip the library values exactly, and the
    # paper's parametrization at w* gives the same point
    cp = CurveParams(4.0, 0.6, 0.8)
    for w, a11, a22 in rows[::100]:
        assert w == curve.solve_omega_star(cp, a11) and a22 == curve.phi(cp, a11)
        pt = curve_point(cp, w)
        assert pt.a11 == pytest.approx(a11, rel=1e-12, abs=1e-12)
        assert pt.a22 == pytest.approx(a22, rel=1e-12, abs=1e-12)


def test_curve_csv_commensurate_line(tmp_path, capsys):
    out_path = tmp_path / "line.csv"
    code, _, _ = run_cli(capsys, "curve", "--delta", 4, "--q1", "0.5", "--q2", "0.5",
                      "--a11-min", -2, "--a11-max", 2, "--n", 101, "--out", out_path)
    assert code == 0
    line = 2.0 * math.sqrt(4.0) * math.cos(math.pi / 4)
    for ln in out_path.read_text().strip().splitlines()[1:]:
        _, a11, a22 = (float(v) for v in ln.split(","))
        assert a11 + a22 == pytest.approx(line, abs=1e-12)
    # at q1 = q2 = 1 the line is a11 + a22 = 0 in every row, exactly
    code, _, _ = run_cli(capsys, "curve", "--delta", 4, "--q1", 1, "--q2", 1,
                      "--a11-min", -2, "--a11-max", 2, "--n", 101, "--out", out_path)
    assert code == 0
    rows = out_path.read_text().strip().splitlines()[1:]
    assert len(rows) == 101
    for ln in rows:
        _, a11, a22 = (float(v) for v in ln.split(","))
        assert a11 + a22 == 0.0


def test_curve_csv_reference_interpolation(tmp_path, capsys):
    out_path = tmp_path / "ref.csv"
    code, _, _ = run_cli(capsys, "curve", "--delta", "0.002201", "--q1", "0.5", "--q2", "0.25",
                      "--a11-min", "-0.001", "--a11-max", "0.001", "--n", 401, "--out", out_path)
    assert code == 0
    rows = [[float(v) for v in ln.split(",")]
            for ln in out_path.read_text().strip().splitlines()[1:]]
    hit = None
    for (w0, x0, y0), (w1, x1, y1) in zip(rows, rows[1:]):
        if (x0 - 1e-5) * (x1 - 1e-5) <= 0.0:
            t = (1e-5 - x0) / (x1 - x0)
            hit = y0 + t * (y1 - y0), w0 + t * (w1 - w0)
            break
    assert hit is not None
    assert hit[0] == pytest.approx(0.208493, abs=1e-5)
    assert hit[1] == pytest.approx(0.818108, abs=1e-5)


def test_curve_manifest(tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    code, _, _ = run_cli(capsys, "curve", "--delta", 1, "--q1", "0.3", "--q2", "0.7",
                      "--a11-min", -1, "--a11-max", 1, "--n", 11, "--out", out_path)
    assert code == 0
    man = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert man["command"] == "curve"
    assert man["tool_version"] == fracstab.__version__
    assert str(out_path) in man["outputs"]
    assert man["inputs"]["delta"] == 1.0
    assert man["inputs"]["a11_min"] == -1.0 and man["inputs"]["a11_max"] == 1.0
    assert man["timestamp"]


def test_curve_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "curve", "--delta", 2.5, "--q1", "0.45", "--q2", "0.95",
                          "--a11-min", -2, "--a11-max", 2, "--n", 200, "--out", path)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("delta, q1, q2, a11_min, a11_max, n", [
    (2.5, 0.45, 0.95, -2.0, 2.0, 200),
    (4.0, 0.5, 0.5, -3.0, 3.0, 1500),  # more rows than one write chunk
    (0.002201, 0.5, 0.25, 0.6, 1.0, 2),
])
def test_curve_csv_bytes(tmp_path, capsys, delta, q1, q2, a11_min, a11_max, n):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "curve", "--delta", repr(delta), "--q1", repr(q1),
                         "--q2", repr(q2), f"--a11-min={a11_min!r}",
                         f"--a11-max={a11_max!r}", "--n", n, "--out", out_path)
    assert code == EXIT_STABLE
    rows = sample_curve(CurveParams(delta, q1, q2), a11_min, a11_max, n)
    lines = ["omega,a11,a22\n"]
    for w, a11, a22 in rows:
        lines.append(f"{_fmt(w)},{_fmt(a11)},{_fmt(a22)}\n")
    assert out_path.read_bytes() == "".join(lines).encode()


def test_curve_unwritable_out(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "curve", "--delta", 1, "--q1", "0.3", "--q2", "0.7",
                      "--a11-min", -1, "--a11-max", 1, "--n", 11,
                      "--out", tmp_path / "missing-dir" / "c.csv")
    assert code == EXIT_DATA == 65


def test_qscan_reference_raster(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "qscan", *REF, "--grid", 64, "--out", out_path)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "q1,q2,stable"
    assert len(lines) == 64 * 64 + 1
    cells = {}
    prev = None
    for ln in lines[1:]:
        q1s, q2s, flag = ln.split(",")
        q1, q2 = float(q1s), float(q2s)
        cells[(q1, q2)] = int(flag)
        if prev is not None:
            assert (q1, q2) > prev  # row-major by q1 then q2
        prev = (q1, q2)
    assert cells[(0.5, 0.25)] == 1
    assert cells[(0.25, 0.5)] == 0
    assert set(cells.values()) <= {0, 1, 2}


def test_qscan_uniform_fill(capsys):
    code, out, _ = run_cli(capsys, "qscan", "--a11", -1, "--a22", -1, "--delta", 1, "--grid", 8)
    assert code == 0
    rows = [ln for ln in out.strip().splitlines() if ln.count(",") == 2 and not ln.startswith("q1")]
    assert len(rows) == 64
    assert all(ln.rsplit(",", 1)[1] == "1" for ln in rows)
    code, out, _ = run_cli(capsys, "qscan", "--a11", 3, "--a22", 3, "--delta", 4, "--grid", 8)
    assert code == 0
    rows = [ln for ln in out.strip().splitlines() if ln.count(",") == 2 and not ln.startswith("q1")]
    assert all(ln.rsplit(",", 1)[1] == "0" for ln in rows)


def test_qscan_marginal_cell(capsys):
    c = math.sqrt(4.0) * math.cos(math.pi / 4)
    code, out, _ = run_cli(capsys, "qscan", "--a11", repr(c), "--a22", repr(c),
                        "--delta", 4, "--grid", 2)
    assert code == 0
    rows = {}
    for ln in out.strip().splitlines():
        parts = ln.split(",")
        if len(parts) == 3 and not ln.startswith("q1"):
            rows[(float(parts[0]), float(parts[1]))] = int(parts[2])
    assert rows[(0.5, 0.5)] == 2


def per_cell_csv(a11, a22, delta, n):
    """The qscan CSV as a writer independent of the CLI's makes it from qscan_verdicts."""
    grid = qscan_verdicts(a11, a22, delta, n)
    return "q1,q2,stable\n" + "".join(
        f"{j / n:.17g},{k / n:.17g},{grid[j - 1, k - 1]}\n" for j in range(1, n + 1) for k in range(1, n + 1)
    )


REF_QSCAN = (0.00001, 0.1, 0.00001 * 0.1 - 1.0 * -0.0022)


def test_qscan_csv_bytes_out(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "qscan", *REF, "--grid", 64, "--out", out_path)
    assert code == 0
    assert out_path.read_bytes() == per_cell_csv(*REF_QSCAN, 64).encode()


def test_qscan_csv_bytes_stdout(capsys):
    # 7 is not dyadic, so the q strings carry all 17 digits
    code, out, _ = run_cli(capsys, "qscan", *REF, "--grid", 7)
    assert code == 0
    body = per_cell_csv(*REF_QSCAN, 7)
    assert "0.14285714285714285," in body
    assert out.startswith(body)
    assert out[len(body):].count("\n") == 1  # the record line alone follows


# the CI band-edge system: its cell (0.5, 0.25) lies 0.98 of the tie band from Gamma
BAND_EDGE = (2.22482911498453, 1.0, -1.407622671639134, 1.566515638408386)
REF_A = (0.00001, 1.0, -0.0022, 0.1)


@pytest.mark.parametrize(
    "a,g",
    [(REF_A, 2), (REF_A, 7), (REF_A, 32), (REF_A, 48), (BAND_EDGE, 4)],
    ids=["ref-2", "ref-7", "ref-32", "ref-48", "band_edge-4"],
)
def test_qscan_bytes_pinned(tmp_path, capsys, a, g):
    # the --out file and the stdout body are the bytes an independent
    # writer makes from qscan_verdicts, and the record counts its codes
    a11, a12, a21, a22 = a
    args = [f"--{name}={value!r}" for name, value in zip(("a11", "a12", "a21", "a22"), a)]
    delta = a11 * a22 - a12 * a21
    grid, body = qscan_verdicts(a11, a22, delta, g), per_cell_csv(a11, a22, delta, g)
    out_path = tmp_path / "scan.csv"
    code, out_record, _ = run_cli(capsys, "qscan", *args, "--grid", g, "--out", out_path)
    assert code == 0
    assert out_path.read_bytes() == body.encode()
    code, out, _ = run_cli(capsys, "qscan", *args, "--grid", g)
    assert code == 0
    assert out[: len(body)] == body
    counts = {key: int(np.count_nonzero(grid == v)) for key, v in (("stable", 1), ("unstable", 0), ("marginal", 2))}
    assert 0 < counts["stable"] < g * g
    for record in (parse_record(out[len(body):]), parse_record(out_record)):
        assert {key: int(record[key]) for key in counts} == counts
        assert int(record["cells"]) == g * g
    assert (counts["marginal"] > 0) == (a is BAND_EDGE)


def test_qscan_bracket_failure_exit(monkeypatch, capsys):
    monkeypatch.setattr(curve, "_NEWTON_MAX", 0)
    code, _, err = run_cli(capsys, "qscan", "--a11", -1e6, "--a22", 2, "--delta", 1, "--grid", 4)
    assert code == EXIT_INTERNAL == 70
    assert "internal error" in err


def test_roots_reference(capsys):
    code, out, _ = run_cli(capsys, "roots", *REF, "--q1", "0.25", "--q2", "0.5", "--json")
    assert code == EXIT_UNSTABLE
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["n_unstable"] == 2
    assert abs(rec["winding_turns"] - 2.0) <= 1e-6
    assert 0 < rec["l"] <= rec["L"]

    code, out, _ = run_cli(capsys, "roots", "--a11", -1, "--a22", -1, "--delta", 1,
                        "--q1", "0.5", "--q2", "0.25")
    assert code == EXIT_STABLE
    assert parse_record(out.strip().splitlines()[-1])["n_unstable"] == "0"


def test_roots_negative_delta_routes_to_classify(capsys):
    code, _, err = run_cli(capsys, "roots", "--a11", 1, "--a22", 1, "--delta", -1,
                           "--q1", "0.5", "--q2", "0.25")
    assert code == EXIT_DATA
    assert "classify" in err


def test_roots_on_curve_exit_codes(capsys):
    # a root on the contour cannot be counted, a data condition (2): here
    # the phase jump across the root at +-i*sqrt(1e-7) outlasts bisection
    code, _, _ = run_cli(capsys, "roots", "--a11", 0, "--a22", 0, "--delta", "1e-7",
                      "--q1", 1, "--q2", 1)
    assert code == EXIT_MARGINAL
    # an on-curve system has its roots +-4i on the imaginary axis, which is
    # the contour's axis edge: "cannot decide" (2), not an internal failure
    code, _, _ = run_cli(capsys, "roots", "--a11", SQRT2, "--a22", SQRT2, "--delta", 4,
                      "--q1", "0.5", "--q2", "0.5")
    assert code == EXIT_MARGINAL


def test_simulate_decoupled(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "simulate", "--a11", -1, "--a12", 0, "--a21", 0, "--a22", -1,
                        "--q1", "0.5", "--q2", "0.5", "--x0", 1, "--y0", 1,
                        "--t-end", 50, "--h", "0.01", "--out", out_path, "--json")
    assert code == EXIT_STABLE
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["decaying"] is True
    assert rec["slope"] == pytest.approx(-0.5, rel=0.20)
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,norm"
    assert len(lines) == 5002
    t, x, y, n = (float(v) for v in lines[-1].split(","))
    assert t == pytest.approx(50.0, abs=1e-9)
    assert n == pytest.approx(math.hypot(x, y), rel=1e-15)
    assert (tmp_path / "traj.csv.manifest.json").exists()


def test_simulate_growth_flagged(capsys):
    code, out, _ = run_cli(capsys, "simulate", *REF, "--q1", "0.25", "--q2", "0.5",
                        "--x0", 1, "--y0", 1, "--t-end", 50, "--h", "0.05", "--json")
    assert code == EXIT_UNSTABLE
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["decaying"] is False
    assert rec["final_norm"] > 1.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 9: at h = 0.1 the implicit step damps the unstable pair "
    "0.0215 +- 5.378i, so the run decays and simulate exits 0",
)
def test_simulate_unresolved_step_exits_2(capsys):
    # classify: UnstableForOrders (margin 0.0133); the scheme's discrete
    # modes are all stable at h = 0.1 and 0.085, and two grow from h = 0.07
    code, _, _ = run_cli(capsys, "simulate", "--a11=-3.2615849226852767", "--a12", "1",
                         "--a21=-17.538250233798767", "--a22", "3.0460836760664165",
                         "--q1", "1", "--q2", "0.625", "--x0", "1", "--y0", "1",
                         "--t-end", "1861", "--h", "0.1")
    assert code == EXIT_MARGINAL


@pytest.mark.xfail(
    strict=True,
    reason="the reference stable system is still inside its growing transient "
    "at t = 200, so the decay record cannot be produced on this horizon",
)
def test_simulate_reference_short_horizon(capsys):
    code, out, _ = run_cli(capsys, "simulate", *REF, "--q1", "0.5", "--q2", "0.25",
                        "--x0", 1, "--y0", 1, "--t-end", 200, "--h", "5e-3", "--json")
    assert code == EXIT_STABLE
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["slope"] == pytest.approx(-0.25, rel=0.30)


@pytest.mark.parametrize(
    "spec, x0, t_end, h",
    [
        # the stable reference run, 20001 rows
        (SystemSpec(0.00001, 1.0, -0.0022, 0.1, 0.5, 0.25), (1.0, 1.0), 5e4, 2.5),
        # each step multiplies the states by -26/24: 301 rows up to 2.7e10
        (SystemSpec(50.0, 0.0, 0.0, 50.0, 1.0, 1.0), (1.0, 1.0), 300.0, 1.0),
        # -0.0, 1e-300-scale and subnormal states
        (SystemSpec(-1.0, 0.0, 1e-10, -1.0, 0.5, 0.5), (1e-300, -0.0), 5.0, 0.01),
    ],
)
def test_simulate_csv_bytes(tmp_path, capsys, spec, x0, t_end, h):
    out_path = tmp_path / "traj.csv"
    run_cli(capsys, "simulate", "--a11", repr(spec.a11), "--a12", repr(spec.a12),
            "--a21", repr(spec.a21), "--a22", repr(spec.a22), "--q1", repr(spec.q1),
            "--q2", repr(spec.q2), f"--x0={x0[0]!r}", f"--y0={x0[1]!r}",
            "--t-end", repr(t_end), "--h", repr(h), "--out", out_path)
    traj = fracstab.integrate(spec, x0, t_end, h)
    norms = traj.norms()
    lines = ["t,x,y,norm\n"]
    for i in range(len(traj.times)):
        lines.append(f"{_fmt(traj.times[i])},{_fmt(traj.states[i, 0])},"
                     f"{_fmt(traj.states[i, 1])},{_fmt(norms[i])}\n")
    assert out_path.read_bytes() == "".join(lines).encode()


def test_simulate_step_cap_usage(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--a11", -1, "--a12", 0, "--a21", 0, "--a22", -1,
                      "--q1", "0.5", "--q2", "0.5", "--x0", 1, "--y0", 1,
                      "--t-end", 1000, "--h", "1e-4")
    assert code == EXIT_USAGE


def test_cli_classify_matches_library(capsys):
    rng = np.random.default_rng(30)
    n = 0
    while n < 200:
        a11, a12, a21, a22 = (float(v) for v in rng.uniform(-3.0, 3.0, size=4))
        q1, q2 = (float(v) for v in rng.uniform(0.05, 1.0, size=2))
        s = SystemSpec(a11, a12, a21, a22, q1, q2)
        if s.delta() == 0.0:
            continue
        n += 1
        v = classify(s)
        # --flag=value survives exponent-form negatives like -4.6e-05
        code, out, _ = run_cli(capsys, "classify", f"--a11={a11!r}", f"--a12={a12!r}",
                               f"--a21={a21!r}", f"--a22={a22!r}",
                               f"--q1={q1!r}", f"--q2={q2!r}", "--json")
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["kind"] == v.kind.value
        assert rec["reason"] == v.reason.value
        assert rec["margin"] == v.margin
        assert rec["phi_value"] == v.phi_value
        assert rec["decay_exponent"] == v.decay_exponent
        assert code == VERDICT_EXIT_CODES[v.kind]


@pytest.mark.parametrize("value", ["-1.2e-05", "-1E3", "-.5e-3", "-inf"])
def test_negative_value_space_form_matches_equals_form(capsys, value):
    flags = ["--a11", -1, "--a21", 0, "--a22", -1, "--q1", "0.5", "--q2", "0.5",
             "--x0", 1, "--y0", 1, "--t-end", 1, "--h", "0.01", "--json"]
    spaced = run_cli(capsys, "simulate", *flags, "--a12", value)
    joined = run_cli(capsys, "simulate", *flags, f"--a12={value}")
    assert spaced == joined
    if value == "-inf":
        assert spaced[0] == EXIT_USAGE
        assert "finite" in spaced[2]
    else:
        assert json.loads(spaced[1])["overflowed"] is False


def test_python_m_fracstab():
    env = dict(os.environ, PYTHONPATH=str(Path(fracstab.__file__).resolve().parents[1]))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "fracstab", *args], env=env,
                              capture_output=True, text=True, timeout=120, check=False)

    done = run("classify", *REF, "--q1", "0.5", "--q2", "0.25")
    assert done.returncode == EXIT_STABLE, done.stderr
    assert parse_record(done.stdout.strip())["kind"] == "StableForOrders"
    done = run("classify", *REF, "--q1", "0.5", "--q2", "0.25", "--no-such-flag")
    assert done.returncode == EXIT_USAGE
    assert "--no-such-flag" in done.stderr


def run_collect(capsys, tmp_path, args):
    """run_cli, plus every file the call wrote under tmp_path, which is then
    emptied; a manifest is kept without its timestamp."""
    code, out, err = run_cli(capsys, *args)
    files = {}
    for path in sorted(tmp_path.iterdir()):
        if path.name.endswith(".manifest.json"):
            man = json.loads(path.read_text())
            assert man.pop("timestamp")
            files[path.name] = man
        else:
            files[path.name] = path.read_bytes()
        path.unlink()
    return code, out, err, files


def check_against_fresh(capsys, monkeypatch, tmp_path, calls):
    """Run the calls in order through main's one parser, then each on its own
    through a freshly built parser; the results must agree call by call."""
    shared = [run_collect(capsys, tmp_path, args) for args in calls]
    for args, got in zip(calls, shared):
        with monkeypatch.context() as m:
            m.setattr(cli, "_PARSER", cli._build_parser())
            assert run_collect(capsys, tmp_path, args) == got, args
    return shared


def test_parser_reuse_qscan_delta_not_carried(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "scan.csv"
    first, second = check_against_fresh(capsys, monkeypatch, tmp_path, [
        ["qscan", "--a11", "0.00001", "--a22", "0.1", "--delta", 4, "--grid", 5, "--out", out_path],
        ["qscan", *REF, "--grid", 5, "--out", out_path],
    ])
    assert first[0] == second[0] == EXIT_STABLE
    assert first[3]["scan.csv.manifest.json"]["inputs"]["delta"] == 4.0
    inputs = second[3]["scan.csv.manifest.json"]["inputs"]
    assert inputs["delta"] is None
    assert (inputs["a12"], inputs["a21"]) == (1.0, -0.0022)
    assert second[3]["scan.csv"] == per_cell_csv(*REF_QSCAN, 5).encode()
    assert first[3]["scan.csv"] != second[3]["scan.csv"]


def test_parser_reuse_simulate_out_not_carried(tmp_path, capsys, monkeypatch):
    flags = ["simulate", "--a11", -1, "--a12", 0, "--a21", 0, "--a22", -1, "--q1", "0.5",
             "--q2", "0.5", "--x0", 1, "--y0", 1, "--t-end", 2, "--h", "0.01", "--json"]
    first, second = check_against_fresh(capsys, monkeypatch, tmp_path, [
        [*flags, "--out", tmp_path / "traj.csv"],
        flags,
    ])
    assert sorted(first[3]) == ["traj.csv", "traj.csv.manifest.json"]
    assert json.loads(first[1])["out"] == str(tmp_path / "traj.csv")
    assert second[3] == {}
    assert json.loads(second[1])["out"] is None


def test_parser_reuse_after_usage_error(tmp_path, capsys, monkeypatch):
    valid = ["classify", *REF, "--q1", "0.5", "--q2", "0.25"]
    before, bad, after = check_against_fresh(capsys, monkeypatch, tmp_path, [
        valid,
        ["classify", *REF, "--q1", "0.5"],
        valid,
    ])
    assert bad[0] == EXIT_USAGE
    assert "--q2" in bad[2]
    assert before == after
    assert before[0] == EXIT_STABLE


def test_parser_reuse_json_not_carried(tmp_path, capsys, monkeypatch):
    args = ["roots", *REF, "--q1", "0.25", "--q2", "0.5"]
    as_json, plain = check_against_fresh(capsys, monkeypatch, tmp_path, [[*args, "--json"], args])
    assert json.loads(as_json[1])["n_unstable"] == 2
    assert parse_record(plain[1].strip())["n_unstable"] == "2"


def test_main_does_not_rebuild_parser(monkeypatch, capsys):
    def no_rebuild():
        raise AssertionError("the parser is rebuilt")

    monkeypatch.setattr(cli, "_build_parser", no_rebuild)
    code, out, _ = run_cli(capsys, "classify", *REF, "--q1", "0.5", "--q2", "0.25")
    assert code == EXIT_STABLE
    assert parse_record(out.strip())["kind"] == "StableForOrders"
    code, _, _ = run_cli(capsys, "qscan", *REF, "--grid", 4)
    assert code == EXIT_STABLE


OUT_COMMANDS = {
    "qscan": ["qscan", *REF, "--grid", 6],
    "simulate": ["simulate", "--a11", -1, "--a12", 0, "--a21", 0, "--a22", -1, "--q1", "0.5",
                 "--q2", "0.5", "--x0", 1, "--y0", 1, "--t-end", 1, "--h", "0.01"],
    "curve": ["curve", "--delta", 2.5, "--q1", "0.45", "--q2", "0.95",
              "--a11-min", -2, "--a11-max", 2, "--n", 50],
}


@pytest.mark.parametrize("args", OUT_COMMANDS.values(), ids=OUT_COMMANDS)
def test_out_longer_file_cut_to_new_bytes(tmp_path, capsys, args):
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    fresh.mkdir()
    stale.mkdir()
    old = b"9,9,9\n" * 20000
    (stale / "o.csv").write_bytes(old)
    (stale / "o.csv.manifest.json").write_bytes(old)
    manifests = []
    for where in (fresh, stale):
        code, _, _ = run_cli(capsys, *args, "--out", where / "o.csv")
        assert code == EXIT_STABLE
        text = (where / "o.csv.manifest.json").read_text()
        assert text == json.dumps(json.loads(text)) + "\n"
        man = json.loads(text)
        assert man.pop("outputs") == [str(where / "o.csv")] == [man["inputs"].pop("out")]
        assert man.pop("timestamp")
        manifests.append(man)
    new = (stale / "o.csv").read_bytes()
    assert len(new) < len(old)
    assert new == (fresh / "o.csv").read_bytes()
    assert manifests[0] == manifests[1]


def test_out_symlink_written_through(tmp_path, capsys):
    target = tmp_path / "target.csv"
    target.write_bytes(b"stale\n" * 1000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "qscan", *REF, "--grid", 5, "--out", link)
    assert code == EXIT_STABLE
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    assert target.read_bytes() == per_cell_csv(*REF_QSCAN, 5).encode()


def test_overwrite_cut_when_body_raises(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("0123456789")
    with pytest.raises(RuntimeError, match="mid-write"):
        with cli._overwrite(str(path)) as fh:
            fh.write("ab")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"ab"


def test_overwrite_cut_when_flush_fails(tmp_path):
    # a file size limit lets the first 1000 bytes reach the file and fails the rest
    path = tmp_path / "f.txt"
    path.write_bytes(b"o" * 5000)
    script = f"""
import resource, signal
from fracstab import cli
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1000, resource.RLIM_INFINITY))
try:
    with cli._overwrite({str(path)!r}) as fh:
        fh.write("n" * 3000)
except OSError as exc:
    print(exc.errno)
"""
    src = str(Path(fracstab.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == errno.EFBIG
    assert path.read_bytes() == b"n" * 1000


def test_out_fifo_receives_csv(tmp_path, capsys):
    fifo = tmp_path / "scan.fifo"
    os.mkfifo(fifo)
    received = []

    def drain():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    code, _, err = run_cli(capsys, "qscan", *REF, "--grid", 7, "--out", fifo)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == EXIT_STABLE, err
    assert received == [per_cell_csv(*REF_QSCAN, 7).encode()]
    assert json.loads((tmp_path / "scan.fifo.manifest.json").read_text())["command"] == "qscan"
