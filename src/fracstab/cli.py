"""Command-line front end: classify, curve, qscan, roots, simulate.

Every command prints one structured record to stdout (mirrored as single-line
JSON with --json); the data-producing commands write CSV with 17 significant
digits (full double round-trip) plus a run manifest JSON next to each output
file. Exit codes: 0 stable/success, 1 unstable, 2 marginal/unclassified,
64 usage, 65 data error, 70 internal.

The float CSVs (curve, simulate --out) hold each value as "%.17g" % v, byte
for byte. _g17.format_rows writes them in a few array passes per chunk of
rows; only a value within 2^-40 of a rounding tie of its 17th digit, a
subnormal, inf or nan is formatted by "%.17g" % v on its own.

Output files (the CSV and its manifest) are overwritten in place: an
existing file is opened without truncation, written from the start and then
cut to the bytes written. There is no temp file, rename or fsync. On ext4, a
file truncated to zero on open and refilled makes close() pay for block
allocation and writeback, which costs more than a small qscan raster's
arithmetic; writing in place does not. It also keeps a symlinked path a
symlink, and FIFOs and devices are not truncated, as with a plain open. The
cut runs when the command returns or raises, Ctrl-C included. A run killed
by a signal Python does not turn into an exception (SIGTERM, SIGKILL) or by
a crash skips it, and may leave the new bytes followed by the tail of the
old file; the CSV is written before its manifest, so the manifest is then
the old one. Trust an output only when the command exited normally.

The argument parser is built once, when this module is imported; ``main``
only parses and dispatches, so in-process callers do not pay for building it
on every call. ``python -m fracstab`` runs ``main``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from ._g17 import format_rows
from .chareq import CharParams, SystemSpec
from .classify import _CODES, classify, qscan_verdicts
from .curve import CurveParams, sample_curve
from .errors import (
    AnnulusOutOfRange,
    BracketFailure,
    ContourThroughRoot,
    DeltaNotPositive,
    DeltaZeroUnclassified,
    NotDecaying,
    RefinementLimit,
    SingularStep,
    StepCap,
)
from .roots import count_unstable_roots
from .simulate import estimate_decay, integrate

__all__ = ["main", "RunManifest", "VERDICT_EXIT_CODES", "EXIT_USAGE", "EXIT_DATA", "EXIT_INTERNAL"]

EXIT_STABLE = 0
EXIT_UNSTABLE = 1
EXIT_MARGINAL = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

# rows per write of a float CSV; format_rows holds about 1 MB per chunk
_CSV_CHUNK = 1024

# each verdict kind exits by its raster code: 0 unstable, 1 stable, 2 marginal
VERDICT_EXIT_CODES = {
    kind: (EXIT_UNSTABLE, EXIT_STABLE, EXIT_MARGINAL)[code] for kind, code in _CODES.items()
}


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to each emitted data file."""

    command: str
    inputs: dict
    outputs: list
    tool_version: str
    timestamp: str


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def _overwrite(path: str):
    """Text file at path for writing, overwritten in place and cut to length.

    Opened without O_TRUNC; on exit, also when the body raises, a regular
    file is truncated to what was written. FIFOs and devices are left as a
    plain open leaves them.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                try:
                    fh.flush()
                finally:
                    # cut at the bytes that reached the file, also when the flush failed
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _write_float_csv(fh, header: str, data: np.ndarray) -> None:
    """The header line, then one row per row of data, each value as _fmt.

    format_rows writes the bytes of "%.17g" % x, which is _fmt(x), from a
    few array passes per chunk; chunks bound its temporaries.
    """
    fh.write(header)
    for k in range(0, len(data), _CSV_CHUNK):
        fh.write(format_rows(data[k : k + _CSV_CHUNK]))


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _print_record(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_json_ready(record)))
        return
    parts = []
    for key, value in record.items():
        if value is None:
            continue
        if isinstance(value, float):
            parts.append(f"{key}={_fmt(value)}")
        else:
            parts.append(f"{key}={value}")
    print(" ".join(parts))


def _write_manifest(out_path: str, command: str, args: argparse.Namespace) -> None:
    skip = {"func", "command", "json"}
    inputs = {
        k: _json_ready(v)
        for k, v in vars(args).items()
        if k not in skip and not callable(v)
    }
    manifest = RunManifest(
        command=command,
        inputs=inputs,
        outputs=[out_path],
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    with _overwrite(out_path + ".manifest.json") as fh:
        fh.write(json.dumps(vars(manifest)) + "\n")


def _err(message: str) -> None:
    print(f"fracstab: {message}", file=sys.stderr)


# a negative number in decimal, exponent, inf or nan form: -2, -.5e-3, -1E3, -inf
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only plain decimals like -0.5 as negative numbers, so
        # "--a12 -1.2e-05" would lose its value to a presumed flag
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits with 2 on bad flags; the documented usage code is 64
    def error(self, message):
        self.print_usage(sys.stderr)
        _err(f"error: {message}")
        raise SystemExit(EXIT_USAGE)


def _resolve_delta(args) -> float:
    """--delta wins; otherwise derive det(A) from the full matrix."""
    if getattr(args, "delta", None) is not None:
        return args.delta
    if args.a12 is None or args.a21 is None:
        raise ValueError("provide either --delta or both --a12 and --a21")
    return args.a11 * args.a22 - args.a12 * args.a21


def _cmd_classify(args) -> int:
    spec = SystemSpec(args.a11, args.a12, args.a21, args.a22, args.q1, args.q2)
    verdict = classify(spec)
    record = {
        "kind": verdict.kind.value,
        "reason": verdict.reason.value,
        "margin": verdict.margin,
        "decay_exponent": verdict.decay_exponent,
        "phi_value": verdict.phi_value,
        "tie_band": verdict.tie_band,
        "delta": spec.delta(),
    }
    _print_record(record, args.json)
    return VERDICT_EXIT_CODES[verdict.kind]


def _cmd_curve(args) -> int:
    cp = CurveParams(args.delta, args.q1, args.q2)
    data = sample_curve(cp, args.a11_min, args.a11_max, args.n)
    with _overwrite(args.out) as fh:
        _write_float_csv(fh, "omega,a11,a22\n", data)
    _write_manifest(args.out, "curve", args)
    _print_record({"rows": len(data), "out": args.out}, args.json)
    return EXIT_STABLE


def _cmd_qscan(args) -> int:
    delta = _resolve_delta(args)
    grid = qscan_verdicts(args.a11, args.a22, delta, args.grid)
    n = args.grid
    qs = [_fmt(j / n) for j in range(1, n + 1)]
    # one "%d" slot per cell, rows joined once, filled by one % over the raster
    template = "".join([q1 + "," + (",%d\n" + q1 + ",").join(qs) + ",%d\n" for q1 in qs])
    body = "q1,q2,stable\n" + template % tuple(grid.ravel().tolist())
    if args.out:
        with _overwrite(args.out) as fh:
            fh.write(body)
        _write_manifest(args.out, "qscan", args)
    else:
        sys.stdout.write(body)
    record = {
        "cells": int(n * n),
        "stable": int((grid == 1).sum()),
        "unstable": int((grid == 0).sum()),
        "marginal": int((grid == 2).sum()),
        "out": args.out,
    }
    _print_record(record, args.json)
    return EXIT_STABLE


def _cmd_roots(args) -> int:
    delta = _resolve_delta(args)
    params = CharParams(args.a11, args.a22, delta, args.q1, args.q2)
    try:
        report = count_unstable_roots(params)
    except DeltaNotPositive as exc:
        _err(f"data error: {exc}; delta <= 0 systems are classified directly, "
             "see 'fracstab classify'")
        return EXIT_DATA
    record = {
        "n_unstable": report.n_unstable,
        "winding_turns": report.winding_turns,
        "l": report.bounds.l,
        "L": report.bounds.L,
        "contour_samples": report.contour_samples,
        "refinement_depth": report.refinement_depth,
    }
    _print_record(record, args.json)
    return EXIT_STABLE if report.n_unstable == 0 else EXIT_UNSTABLE


def _cmd_simulate(args) -> int:
    spec = SystemSpec(args.a11, args.a12, args.a21, args.a22, args.q1, args.q2)
    traj = integrate(spec, (args.x0, args.y0), args.t_end, args.h)
    norms = traj.norms()
    if args.out:
        data = np.column_stack((traj.times, traj.states, norms))
        with _overwrite(args.out) as fh:
            _write_float_csv(fh, "t,x,y,norm\n", data)
        _write_manifest(args.out, "simulate", args)
    try:
        est = estimate_decay(traj)
    except NotDecaying as exc:
        record = {
            "decaying": False,
            "overflowed": traj.overflowed,
            "final_norm": float(norms[-1]),
            "detail": str(exc),
            "out": args.out,
        }
        _print_record(record, args.json)
        return EXIT_UNSTABLE
    record = {
        "decaying": True,
        "slope": est.slope,
        "r_squared": est.r_squared,
        "overflowed": traj.overflowed,
        "out": args.out,
    }
    _print_record(record, args.json)
    return EXIT_STABLE


def _add_matrix_flags(p: argparse.ArgumentParser, full: bool) -> None:
    p.add_argument("--a11", type=float, required=True)
    p.add_argument("--a22", type=float, required=True)
    if full:
        p.add_argument("--a12", type=float, required=True)
        p.add_argument("--a21", type=float, required=True)
    else:
        p.add_argument("--a12", type=float, default=None)
        p.add_argument("--a21", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)


def _add_order_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q1", type=float, required=True)
    p.add_argument("--q2", type=float, required=True)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="mirror the record as single-line JSON")

    parser = _Parser(prog="fracstab",
                     description="Stability engine for 2D multi-order fractional systems")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("classify", parents=[common],
                       help="decide stability of a system")
    _add_matrix_flags(p, full=True)
    _add_order_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("curve", parents=[common],
                       help="sample the critical curve to CSV")
    p.add_argument("--delta", type=float, required=True)
    _add_order_flags(p)
    p.add_argument("--a11-min", type=float, required=True)
    p.add_argument("--a11-max", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("qscan", parents=[common],
                       help="stability raster over order pairs (q1, q2)")
    _add_matrix_flags(p, full=False)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_qscan)

    p = sub.add_parser("roots", parents=[common],
                       help="count closed-right-half-plane characteristic roots")
    _add_matrix_flags(p, full=False)
    _add_order_flags(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate the IVP and estimate the decay slope")
    _add_matrix_flags(p, full=True)
    _add_order_flags(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    return parser


# parse_args starts from a fresh Namespace on every call, so one parser serves
# any number of calls
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DeltaNotPositive as exc:
        _err(f"data error: {exc}")
        return EXIT_DATA
    except (DeltaZeroUnclassified, ContourThroughRoot, AnnulusOutOfRange, SingularStep) as exc:
        _err(f"unclassified: {exc}")
        return EXIT_MARGINAL
    except StepCap as exc:
        _err(f"usage error: {exc}")
        return EXIT_USAGE
    except ValueError as exc:
        _err(f"usage error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        _err(f"data error: {exc}")
        return EXIT_DATA
    except (BracketFailure, RefinementLimit) as exc:
        _err(f"internal error: {exc}")
        return EXIT_INTERNAL
    except Exception as exc:  # last-resort guard so scripts see a stable code
        _err(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
