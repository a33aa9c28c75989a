"""The benchmark's workloads: seeded inputs, one operation each, and its checks.

A workload is one round: a list of operations drawn from the seed. A run
repeats whole rounds. Every operation carries a check that compares the
program's output with an oracle from ``oracles``, never with a stored copy
of an earlier output.

* ``crosscheck`` decides one system with every instrument of the library.
* ``qscan`` rasters the (q1, q2) grid through ``fracstab.cli.main``.
* ``trajectory`` integrates one trajectory through ``fracstab.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# the paper's reference system; orders (1/2, 1/4) are stable, (1/4, 1/2) not
REF_A = (0.00001, 1.0, -0.0022, 0.1)
REF_DELTA = REF_A[0] * REF_A[3] - REF_A[1] * REF_A[2]

# Systems with a principal root closer than this to the imaginary axis, as
# an angle in the s-plane, sit too near the critical curve for any instrument
# to decide; they are left out when the inputs are drawn.
EDGE_GAP = 1e-3

CROSSCHECK_SYSTEMS = 1024
ROOT_REL_TOL = 1e-6
PHI_TOL = 1e-10

# A round: the reference system and 71 order-dependent systems (curve
# rasters), every third of those on the fine grid, and 24 systems in R_u or
# R_s (region rasters). Region rasters are cheap and fine curve rasters dear;
# about as many of one as of the other keep the round's median latency in the
# middle of the coarse curve rasters, where it moves least with machine load.
QSCAN_GRID, QSCAN_FINE_GRID = 32, 48
QSCAN_CURVE = 71
QSCAN_REGION = 24
QSCAN_CELLS_CHECKED = 32

SHORT_H = 0.01
# per kind; the median run of a round is a 2000-step one
SHORT_STEPS = (1500, 2000, 2500, 2000, 1500, 2000, 2500, 2000, 2000)
LONG_STEPS = 12000
LONG_KIND_STEPS = 10000  # runs of at least this many steps are "long"
REF_T_END, REF_H = 5e4, 2.5
GROWTH_T_END, GROWTH_H = 500.0, 0.1
# Tolerances measured for the method at h = 0.01: the decoupled error peaks at
# the first steps and grows with lam*sqrt(h), hence lam <= 0.8.
DECOUPLED_REL_TOL = 1e-3
CLASSICAL_ABS_TOL = 3e-5
REF_SLOPE, REF_SLOPE_REL_TOL = -0.25, 0.30
REF_LEADING_REL_TOL = 0.15

WORKLOADS = ("crosscheck", "qscan", "trajectory")


class OpFailed(Exception):
    """The program did not complete the operation."""


@dataclass
class Op:
    """One operation: run() is timed, check(result) lists what is wrong."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]


def build(name: str, seed: int, fs, cli, tmp: Path) -> list[Op]:
    """One round of workload `name` drawn from `seed`.

    fs is the fracstab package and cli its cli module; operations look the
    program's functions up on them at call time, so a tracer that rebinds
    them sees every call.
    """
    rng = np.random.default_rng(seed)
    if name == "crosscheck":
        return _crosscheck(rng, fs)
    if name == "qscan":
        return _qscan(rng, cli, tmp / "qscan.csv")
    return _trajectory(rng, fs, cli, tmp / "trajectory.csv")


# (s, a, m) of Joe and Kuo's Sobol direction numbers (new-joe-kuo-6.21201),
# dimensions 2 to 6; dimension 1 is the van der Corput sequence
_JOE_KUO = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)), (3, 2, (1, 1, 1)), (4, 1, (1, 1, 3, 3)))
_SOBOL_BITS = 32


def _sobol(rng, n: int, dims: int) -> np.ndarray:
    """n points of a Sobol sequence in [0, 1)^dims with a random digital shift.

    The polishing cost of a system has a heavy tail set by a few systems
    (small orders with unstable roots); a low-discrepancy sample keeps their
    share of a round nearly the same from seed to seed. Measured on rounds of
    1024 systems: the spread of a round's Delta evaluations between seeds is
    about 2% against about 8% for a Latin hypercube.
    """
    bits = _SOBOL_BITS
    table = [[1 << (bits - 1 - k) for k in range(bits)]]
    for s, a, m in _JOE_KUO[: dims - 1]:
        v = [m[k] << (bits - 1 - k) for k in range(s)]
        for k in range(s, bits):
            x = v[k - s] ^ (v[k - s] >> s)
            for j in range(1, s):
                if (a >> (s - 1 - j)) & 1:
                    x ^= v[k - j]
            v.append(x)
        table.append(v)
    directions = np.array(table, dtype=np.uint64).T  # (bit, dim)
    points = np.empty((n, dims), dtype=np.uint64)
    x = np.zeros(dims, dtype=np.uint64)
    for i in range(n):
        points[i] = x
        x = x ^ directions[(~i & (i + 1)).bit_length() - 1]  # Gray-code order
    shift = rng.integers(0, 1 << bits, size=dims, dtype=np.uint64)
    return (points ^ shift) / float(1 << bits)


def _run_cli(cli, argv: list, ok_codes: tuple) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc not in ok_codes:
        raise OpFailed(f"fracstab {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return rc, out.getvalue()


# ---------------------------------------------------------------- crosscheck


def _crosscheck(rng, fs) -> list[Op]:
    a11, a12, a21, a22 = REF_A
    drawn = [(a11, a12, a21, a22, 2, 1, 4), (a11, a12, a21, a22, 1, 2, 4)]
    for u in _sobol(rng, CROSSCHECK_SYSTEMS, 6):
        n = 2 + int(u[3] * 19)
        k1, k2 = 1 + int(u[4] * n), 1 + int(u[5] * n)
        a11, a22, delta = -5.0 + 10.0 * float(u[0]), -5.0 + 10.0 * float(u[1]), 10.0 * (1.0 - float(u[2]))
        drawn.append((a11, 1.0, a11 * a22 - delta, a22, k1, k2, n))
    ops = []
    for a11, a12, a21, a22, k1, k2, n in drawn:
        spec = fs.SystemSpec(a11, a12, a21, a22, k1 / n, k2 / n)
        zr = oracles.z_roots(a11, a22, spec.delta(), k1, k2, n)
        if zr.edge_gap >= EDGE_GAP:
            ops.append(_crosscheck_op(fs, spec, n, zr))
    return ops


def _crosscheck_op(fs, spec, n: int, zr: oracles.ZRoots) -> Op:
    params = spec.char_params()
    phi = None
    if oracles.region_verdict(spec.a11, spec.a22, params.delta) is None:
        phi = oracles.critical_point(params.delta, spec.q1, spec.q2, spec.a11)[1]

    def run():
        try:
            verdict = fs.classify(spec)
            report = fs.count_unstable_roots(params)
            roots = fs.polish_unstable_roots(params, report.n_unstable)
            companion_stable = fs.matignon_stable(fs.commensurate_reduce(spec, (n, n)))
        except fs.FracstabError as exc:
            raise OpFailed(f"{type(exc).__name__}: {exc}") from exc
        return verdict, report, roots, companion_stable

    def check(result) -> list:
        verdict, report, roots, companion_stable = result
        want = zr.count
        where = f"{spec}"
        problems = []
        if report.n_unstable != want:
            problems.append(f"winding count {report.n_unstable} != z-root count {want}: {where}")
        if verdict.is_stable != (want == 0) or verdict.is_unstable != (want > 0):
            problems.append(f"classify {verdict.kind.value} vs z-root count {want}: {where}")
        if companion_stable != (want == 0):
            problems.append(f"matignon_stable {companion_stable} vs z-root count {want}: {where}")
        if (verdict.phi_value is None) != (phi is None) or (
            phi is not None and abs(verdict.phi_value - phi) > PHI_TOL * (1.0 + abs(phi))
        ):
            problems.append(f"classify phi {verdict.phi_value} vs imaginary-root condition {phi}: {where}")
        lo, hi = report.bounds.l, report.bounds.L
        if not all(lo <= abs(s) <= hi for s in zr.unstable):
            problems.append(f"z-roots {zr.unstable} outside [l, L] = [{lo}, {hi}]: {where}")
        got = np.array(roots, dtype=complex)
        if len(got) != want:
            problems.append(f"{len(got)} polished roots for {want} z-roots: {where}")
            return problems
        if not np.all((lo <= np.abs(got)) & (np.abs(got) <= hi)):
            problems.append(f"polished roots {got} outside [l, L] = [{lo}, {hi}]: {where}")
        if not np.array_equal(np.sort_complex(got), np.sort_complex(got.conj())):
            problems.append(f"polished roots {got} not closed under conjugation: {where}")
        remaining = list(got)
        for s in zr.unstable:
            j = min(range(len(remaining)), key=lambda i: abs(remaining[i] - s))
            if abs(remaining.pop(j) - s) > ROOT_REL_TOL * abs(s):
                problems.append(f"no polished root within {ROOT_REL_TOL:g} of z-root {s}: {where}")
        return problems

    return Op("unstable" if zr.count else "stable", run, check)


# --------------------------------------------------------------------- qscan


def _qscan(rng, cli, path: Path) -> list[Op]:
    curve, region = [], []
    while len(curve) < QSCAN_CURVE or len(region) < QSCAN_REGION:
        a11, a22 = rng.uniform(-5.0, 5.0, size=2)
        delta = 10.0 * (1.0 - rng.random())
        uniform = oracles.region_verdict(a11, a22, delta)
        group, size = (curve, QSCAN_CURVE) if uniform is None else (region, QSCAN_REGION)
        if len(group) < size:
            fine = uniform is None and len(group) % 3 == 2
            group.append((float(a11), float(a22), float(delta), uniform, QSCAN_FINE_GRID if fine else QSCAN_GRID))
    # spread the region rasters evenly through the round
    order = sorted(
        [((i + 0.5) / len(curve), s) for i, s in enumerate(curve)]
        + [((i + 0.5) / len(region), s) for i, s in enumerate(region)],
        key=lambda item: item[0],
    )
    a11, a12, a21, a22 = REF_A
    ref_flags = ["--a11", repr(a11), "--a12", repr(a12), "--a21", repr(a21), "--a22", repr(a22)]
    ops = [_qscan_op(rng, cli, path, ref_flags, a11, a22, REF_DELTA, None, QSCAN_GRID)]
    for _, (a11, a22, delta, uniform, g) in order:
        flags = ["--a11", repr(a11), "--a22", repr(a22), "--delta", repr(delta)]
        ops.append(_qscan_op(rng, cli, path, flags, a11, a22, delta, uniform, g))
    return ops


def _qscan_op(rng, cli, path: Path, flags: list, a11, a22, delta, uniform, g: int) -> Op:
    argv = ["qscan", *flags, "--grid", str(g), "--out", str(path), "--json"]
    checked = []
    for cell in rng.choice(g * g, size=QSCAN_CELLS_CHECKED, replace=False):
        j, k = divmod(int(cell), g)
        f1, f2 = Fraction(j + 1, g), Fraction(k + 1, g)
        n = math.lcm(f1.denominator, f2.denominator)
        zr = oracles.z_roots(a11, a22, delta, int(f1 * n), int(f2 * n), n)
        if zr.edge_gap >= EDGE_GAP:
            checked.append((j, k, 0 if zr.count else 1))

    def run():
        return _run_cli(cli, argv, (0,))

    def check(result) -> list:
        _, stdout = result
        where = " ".join(flags)
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "q1,q2,stable" or len(lines) != g * g + 1:
            return [f"qscan CSV has header {lines[0]!r} and {len(lines) - 1} rows: {where}"]
        problems = []
        states = np.empty((g, g), dtype=int)
        for idx, line in enumerate(lines[1:]):
            j, k = divmod(idx, g)
            q1_text, q2_text, state = line.split(",")
            q1, q2 = float(q1_text), float(q2_text)
            if (q1, q2) != ((j + 1) / g, (k + 1) / g) or (format(q1, ".17g"), format(q2, ".17g")) != (q1_text, q2_text):
                problems.append(f"qscan row {idx} reads {line!r}: {where}")
            states[j, k] = int(state)
        record = json.loads(stdout.splitlines()[-1])
        counts = {key: int(np.count_nonzero(states == v)) for key, v in (("stable", 1), ("unstable", 0), ("marginal", 2))}
        if record["cells"] != g * g or sum(counts.values()) != g * g or any(record[key] != v for key, v in counts.items()):
            problems.append(f"qscan record {record} vs CSV counts {counts}: {where}")
        if uniform is not None and not np.all(states == uniform):
            problems.append(f"region raster not uniformly {uniform}: {where}")
        for j, k, want in checked:
            if states[j, k] != want:
                problems.append(f"cell ({j + 1}/{g}, {k + 1}/{g}) reads {states[j, k]}, z-roots say {want}: {where}")
        return problems

    return Op("curve" if uniform is None else "region", run, check)


# ---------------------------------------------------------------- trajectory


def _trajectory(rng, fs, cli, path: Path) -> list[Op]:
    a11, a12, a21, a22 = REF_A
    ref_stable = fs.SystemSpec(a11, a12, a21, a22, 0.5, 0.25)
    ref_growing = fs.SystemSpec(a11, a12, a21, a22, 0.25, 0.5)
    ops = [
        _simulate_op(cli, path, ref_stable, (1.0, 1.0), REF_T_END, REF_H, _reference_tail(fs, ref_stable)),
        _simulate_op(cli, path, ref_growing, (1.0, 1.0), GROWTH_T_END, GROWTH_H, _growth(fs, ref_growing)),
    ]
    for steps in SHORT_STEPS:
        ops.append(_decoupled_op(rng, fs, cli, path, steps))
        ops.append(_classical_op(rng, fs, cli, path, steps))
    ops.append(_decoupled_op(rng, fs, cli, path, LONG_STEPS))
    return ops


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def _decoupled_op(rng, fs, cli, path, steps: int) -> Op:
    lam = rng.uniform(0.2, 0.8, size=2)
    x0 = (_signed(rng, 0.5, 2.0), _signed(rng, 0.5, 2.0))
    spec = fs.SystemSpec(-float(lam[0]), 0.0, 0.0, -float(lam[1]), 0.5, 0.5)

    def against_erfcx(t, xy, rc, record) -> list:
        exact = oracles.decoupled_solution(lam, np.array(x0), t[:, None])
        err = float(np.max(np.abs(xy - exact) / np.abs(exact)))
        return [] if err <= DECOUPLED_REL_TOL else [f"relative error {err:.3g} against erfcx"]

    return _simulate_op(cli, path, spec, x0, steps * SHORT_H, SHORT_H, against_erfcx)


def _classical_op(rng, fs, cli, path, steps: int) -> Op:
    while True:
        a = np.array([[rng.uniform(-1.5, -0.2), rng.uniform(-1.0, 1.0)],
                      [rng.uniform(-1.0, 1.0), rng.uniform(-1.5, -0.2)]])
        if np.linalg.det(a) > 0.0:
            break
    x0 = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
    spec = fs.SystemSpec(*(float(v) for v in a.ravel()), 1.0, 1.0)

    def against_expm(t, xy, rc, record) -> list:
        rows = np.r_[np.arange(0, len(t), 10), len(t) - 1]
        exact = oracles.classical_solution(a, np.array(x0), t[rows])
        err = float(np.max(np.abs(xy[rows] - exact)))
        return [] if err <= CLASSICAL_ABS_TOL else [f"absolute error {err:.3g} against expm"]

    return _simulate_op(cli, path, spec, x0, steps * SHORT_H, SHORT_H, against_expm)


def _reference_tail(fs, spec):
    """The stable reference run: tail slope and the large-t leading term."""
    zr = oracles.z_roots(spec.a11, spec.a22, spec.delta(), 2, 1, 4)
    verdict = fs.classify(spec)
    a = np.array([[spec.a11, spec.a12], [spec.a21, spec.a22]])

    def check(t, xy, rc, record) -> list:
        problems = []
        if zr.count or not verdict.is_stable:
            problems.append(f"reference orders (1/2, 1/4): z-roots {zr.count}, classify {verdict.kind.value}")
        norms = np.hypot(xy[:, 0], xy[:, 1])
        tail = t >= 0.5 * t[-1]
        slope = float(np.polyfit(np.log(t[tail]), np.log(norms[tail]), 1)[0])
        if abs(slope - REF_SLOPE) > REF_SLOPE_REL_TOL * abs(REF_SLOPE):
            problems.append(f"reference tail slope {slope:.4f}")
        for i in np.flatnonzero(t >= REF_T_END):
            lead = oracles.leading_term(a, np.array([1.0, 1.0]), spec.q1, spec.q2, t[i])
            rel = float(np.linalg.norm(xy[i] - lead) / np.linalg.norm(lead))
            if rel > REF_LEADING_REL_TOL:
                problems.append(f"reference state at t = {t[i]:g} is {rel:.3f} from the leading term")
        return problems

    return check


def _growth(fs, spec):
    """The unstable reference run must exit 1 and grow or overflow."""
    zr = oracles.z_roots(spec.a11, spec.a22, spec.delta(), 1, 2, 4)
    verdict = fs.classify(spec)

    def check(t, xy, rc, record) -> list:
        problems = []
        if not zr.count or not verdict.is_unstable:
            problems.append(f"reference orders (1/4, 1/2): z-roots {zr.count}, classify {verdict.kind.value}")
        norms = np.hypot(xy[:, 0], xy[:, 1])
        if rc != 1 or not (record["overflowed"] or norms[-1] > norms[0]):
            problems.append(f"unstable reference run: exit {rc}, record {record}")
        return problems

    return check


def _simulate_op(cli, path: Path, spec, x0, t_end: float, h: float, oracle_check) -> Op:
    argv = [
        "simulate",
        "--a11", repr(spec.a11), "--a12", repr(spec.a12),
        "--a21", repr(spec.a21), "--a22", repr(spec.a22),
        "--q1", repr(spec.q1), "--q2", repr(spec.q2),
        "--x0", repr(x0[0]), "--y0", repr(x0[1]),
        "--t-end", repr(t_end), "--h", repr(h),
        "--out", str(path), "--json",
    ]
    steps = round(t_end / h)

    def run():
        return _run_cli(cli, argv, (0, 1))

    def check(result) -> list:
        rc, stdout = result
        where = " ".join(argv[1:17])
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header != "t,x,y,norm":
            return [f"simulate CSV header {header!r}: {where}"]
        t, xy, norm = data[:, 0], data[:, 1:3], data[:, 3]
        record = json.loads(stdout.splitlines()[-1])
        problems = []
        if not np.allclose(t, h * np.arange(len(t)), rtol=1e-12, atol=0.0):
            problems.append(f"simulate times are not k*h: {where}")
        if not np.allclose(norm, np.hypot(xy[:, 0], xy[:, 1]), rtol=1e-12, atol=0.0):
            problems.append(f"simulate norm column is not |(x, y)|: {where}")
        if record["overflowed"] != (len(t) <= steps):
            problems.append(f"overflow flag {record['overflowed']} with {len(t)} rows for {steps} steps: {where}")
        decaying = not record["overflowed"] and norm[-1] < norm[0]
        if rc != (0 if decaying else 1) or record["decaying"] != decaying:
            problems.append(f"exit {rc} and record {record} for norms {norm[0]:g} -> {norm[-1]:g}: {where}")
        return problems + [f"{p}: {where}" for p in oracle_check(t, xy, rc, record)]

    return Op("long" if steps >= LONG_KIND_STEPS else "short", run, check)
