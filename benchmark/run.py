#!/usr/bin/env python3
"""Benchmark of the fracstab stability engine.

    python3 benchmark/run.py --workload crosscheck --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the package is imported from ./src, not
from an installed copy. Each workload runs as a closed loop in this one
process: a single caller starts the next operation when the previous one has
finished, and repeats whole rounds of the seeded operations until --seconds
have passed. Every output is checked against the oracles in oracles.py.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run instead (see tracing.py and README.md). The same object, with the
machine and library versions, is written to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 7
# setup_s: a fresh interpreter imports the package and its CLI and runs one
# small operation, the classification of the paper's reference system
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import fracstab, fracstab.cli
sys.exit(fracstab.cli.main(["classify", "--a11", "0.00001", "--a12", "1", "--a21", "-0.0022",
                            "--a22", "0.1", "--q1", "0.5", "--q2", "0.25"]))
"""

# In a traced run the per-layer metrics of the layers the chosen workload does
# not call come from this many leading operations of the workload that does.
COMPLEMENT_OPS = {"crosscheck": 128, "qscan": 16, "trajectory": 5}


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60, check=False,
        )
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up run exited {done.returncode}: {done.stderr.decode().strip()}")
    return statistics.median(times)


class Loop:
    """Closed-loop runner: one operation at a time, each timed and checked."""

    def __init__(self, workload: str, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.rounds = 0

    def step(self, op) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(self.workload, op.kind)
        t0 = time.perf_counter()
        try:
            result = op.run()
        except workloads.OpFailed as exc:
            self.latencies.append(time.perf_counter() - t0)
            self.failures.append(str(exc))
            return
        self.latencies.append(time.perf_counter() - t0)
        self.problems.extend(op.check(result))

    def run(self, ops, seconds: float = 0.0, rounds: int | None = None) -> "Loop":
        """Whole rounds until `rounds` are done or, without it, `seconds` pass."""
        start = time.perf_counter()
        while True:
            for op in ops:
                self.step(op)
            self.rounds += 1
            if self.rounds == rounds or (rounds is None and time.perf_counter() - start >= seconds):
                return self

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def end_to_end(args, fs, cli, tmp: Path) -> tuple[list[Loop], dict]:
    setup_s = measure_setup()
    ops = workloads.build(args.workload, args.seed, fs, cli, tmp)
    loop = Loop(args.workload).run(ops, seconds=args.seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(loop.latencies) / loop.busy, "ops/s"),
        "op_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return [loop], metrics


def traced(args, fs, cli, tmp: Path) -> tuple[list[Loop], dict]:
    """Whole rounds of the workload with each operation run untraced and then
    traced, back to back, so that the overhead compares the two under the same
    load on the machine; then the other workloads' leading operations, traced,
    for the layers they call."""
    tracer = tracing.Tracer()
    ops = workloads.build(args.workload, args.seed, fs, cli, tmp)
    plain, traced_loop = Loop(args.workload), Loop(args.workload, tracer)
    start = time.perf_counter()
    while plain.rounds == 0 or time.perf_counter() - start < args.seconds:
        for op in ops:
            plain.step(op)
            with tracer.installed():
                traced_loop.step(op)
        plain.rounds = traced_loop.rounds = plain.rounds + 1
    tracer.rounds[args.workload] = plain.rounds
    loops = [plain, traced_loop]
    with tracer.installed():
        for other in workloads.WORKLOADS:
            if other != args.workload:
                sample = workloads.build(other, args.seed, fs, cli, tmp)[: COMPLEMENT_OPS[other]]
                loops.append(Loop(other, tracer).run(sample, rounds=1))
                tracer.rounds[other] = 1
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_pct"] = (100.0 * (traced_loop.busy / plain.busy - 1.0), "%")
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", {"workload": args.workload, "seed": args.seed})
    return loops, metrics


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fracstab" / "__init__.py").is_file():
        print(f"run.py: no package sources at {SRC / 'fracstab'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fracstab
    import fracstab.cli

    if Path(fracstab.__file__).resolve().parent != (SRC / "fracstab").resolve():
        print(f"run.py: imported fracstab from {fracstab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        measure = traced if args.trace else end_to_end
        loops, metrics = measure(args, fracstab, fracstab.cli, Path(tmp))
    problems = [p for loop in loops for p in loop.problems]
    failures = [f for loop in loops for f in loop.failures]
    for line in (failures + problems)[:20]:
        print(f"run.py: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(loop.latencies) for loop in loops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  rounds=[loop.rounds for loop in loops], environment=environment(),
                  latencies_s=[loop.latencies for loop in loops])
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
