"""Spans around the calls into fracstab's layer functions, and the per-layer
metrics derived from them.

The tracer wraps a fixed set of public functions of each package module by
rebinding every name that refers to them inside the package, so calls from
one layer into another are seen as well as the benchmark's own calls. The
program itself is not changed. Spans are kept in memory and written out
once, when the run ends.

Two hot leaf functions, ``delta_eval`` and ``phi``, run tens of thousands of
times per operation; for them the tracer keeps a call count and total time
per workload instead of one span per call.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# module -> public functions timed as spans
SPAN_FUNCTIONS = {
    "classify": ("classify", "qscan_verdicts"),
    "roots": (
        "unstable_root_bounds",
        "count_unstable_roots",
        "polish_unstable_roots",
        "positive_real_roots",
        "commensurate_reduce",
        "matignon_stable",
    ),
    "simulate": ("integrate", "estimate_decay"),
    "cli": ("main",),
}
# module -> public functions timed as per-workload call counters
COUNTED_FUNCTIONS = {"chareq": ("delta_eval",), "curve": ("phi",)}

# what a span keeps of a function's result
_RESULT_ATTRS = {
    "count_unstable_roots": lambda report: report.contour_samples,
    "polish_unstable_roots": len,
    "qscan_verdicts": np.size,
}


class Tracer:
    """In-memory spans: [name, parent span, op, start ns, end ns, attr]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: list[tuple[str, str]] = []  # (workload, op kind) per op
        self.counters: dict[tuple[str, str], list[int]] = {}  # -> [calls, ns]
        self.rounds: dict[str, int] = {}  # whole passes over each workload's ops
        self._stack: list[int] = []
        self._workload = ""

    def begin_op(self, workload: str, kind: str) -> None:
        self._workload = workload
        self.ops.append((workload, kind))

    def _span_wrapper(self, name, fn):
        spans, stack, ops = self.spans, self._stack, self.ops
        attr_of = _RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, len(ops) - 1, perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter_ns()
                stack.pop()
            if attr_of is not None:
                rec[5] = attr_of(result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                c = counters.setdefault((self._workload, name), [0, 0])
                c[0] += 1
                c[1] += perf_counter_ns() - t0

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind the traced functions in every fracstab module, then restore."""
        modules = [m for n, m in sys.modules.items() if n == "fracstab" or n.startswith("fracstab.")]
        saved = []
        for table, make in ((SPAN_FUNCTIONS, self._span_wrapper), (COUNTED_FUNCTIONS, self._counter_wrapper)):
            for mod_name, names in table.items():
                home = sys.modules[f"fracstab.{mod_name}"]
                for name in names:
                    fn = getattr(home, name)
                    wrapper = make(name, fn)
                    for mod in modules:
                        if mod.__dict__.get(name) is fn:
                            saved.append((mod, name, fn))
                            setattr(mod, name, wrapper)
        try:
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def write(self, path, meta: dict) -> None:
        doc = {
            "meta": meta,
            "ops": self.ops,
            "span_fields": ["name", "parent", "op", "start_ns", "end_ns", "attr"],
            "spans": self.spans,
            "counters": [[w, n, c, ns] for (w, n), (c, ns) in self.counters.items()],
            "rounds": self.rounds,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics, each taken on the workload whose operations call it.

    Returns {metric name: (value, unit)}.
    """
    spans, ops = tracer.spans, tracer.ops
    child_ns: dict[int, int] = {}
    for rec in spans:
        if rec[1] >= 0:
            child_ns[rec[1]] = child_ns.get(rec[1], 0) + rec[4] - rec[3]

    def select(name, workload, kinds=None):
        return [
            (i, rec)
            for i, rec in enumerate(spans)
            if rec[0] == name and ops[rec[2]][0] == workload and (kinds is None or ops[rec[2]][1] in kinds)
        ]

    def durations(name, workload, kinds=None):
        return np.array([(rec[4] - rec[3]) * 1e-9 for _, rec in select(name, workload, kinds)])

    def per_call(workload, name):
        calls, ns = tracer.counters[(workload, name)]
        return ns * 1e-3 / calls

    def self_ms(workload):
        return float(np.mean([(rec[4] - rec[3] - child_ns.get(i, 0)) * 1e-6 for i, rec in select("main", workload)]))

    def per_cell_us(kind):
        rasters = select("qscan_verdicts", "qscan", {kind})
        return sum(rec[4] - rec[3] for _, rec in rasters) * 1e-3 / sum(rec[5] for _, rec in rasters)

    count = durations("count_unstable_roots", "crosscheck")
    polish = durations("polish_unstable_roots", "crosscheck", {"unstable"})
    companion = durations("commensurate_reduce", "crosscheck") + durations("matignon_stable", "crosscheck")
    systems = select("count_unstable_roots", "crosscheck")
    located = sum(rec[5] for _, rec in select("polish_unstable_roots", "crosscheck"))
    return {
        "chareq.delta_eval_us": (per_call("crosscheck", "delta_eval"), "us"),
        "curve.phi_us": (per_call("qscan", "phi"), "us"),
        "classify.classify_us": (float(durations("classify", "crosscheck").mean() * 1e6), "us"),
        "classify.qscan_verdicts_curve_us_per_cell": (per_cell_us("curve"), "us"),
        "classify.qscan_verdicts_region_us_per_cell": (per_cell_us("region"), "us"),
        "roots.unstable_root_bounds_us": (float(durations("unstable_root_bounds", "crosscheck").mean() * 1e6), "us"),
        "roots.count_unstable_roots_p50_ms": (float(np.percentile(count, 50) * 1e3), "ms"),
        "roots.count_unstable_roots_p90_ms": (float(np.percentile(count, 90) * 1e3), "ms"),
        "roots.contour_samples_per_system": (sum(rec[5] for _, rec in systems) / len(systems), "count"),
        "roots.polish_unstable_roots_p50_ms": (float(np.percentile(polish, 50) * 1e3), "ms"),
        "roots.polish_unstable_roots_p90_ms": (float(np.percentile(polish, 90) * 1e3), "ms"),
        "roots.positive_real_roots_ms": (float(durations("positive_real_roots", "crosscheck").mean() * 1e3), "ms"),
        "roots.roots_located": (located / tracer.rounds["crosscheck"], "count"),
        "roots.companion_us": (float(companion.mean() * 1e6), "us"),
        "simulate.integrate_short_ms": (float(durations("integrate", "trajectory", {"short"}).mean() * 1e3), "ms"),
        "simulate.integrate_long_s": (float(durations("integrate", "trajectory", {"long"}).mean()), "s"),
        "simulate.estimate_decay_ms": (float(durations("estimate_decay", "trajectory").mean() * 1e3), "ms"),
        "cli.qscan_self_ms": (self_ms("qscan"), "ms"),
        "cli.simulate_self_ms": (self_ms("trajectory"), "ms"),
    }
