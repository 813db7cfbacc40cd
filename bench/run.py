#!/usr/bin/env python3
"""One benchmark for both paths.  See ``bench/README.md``.

The driver's form — one workload, one pass, result on the last line::

    python3 bench/run.py --workload serve_open --seed 3 --seconds 10 --trace 0

A full pass by hand — every workload in a process of its own, a table
of every metric with its unit, and a report file::

    python3 bench/run.py [--seed 7] [--traced] [--quick] [--out FILE]

``--trace 1`` runs only the traced pass (per-layer metrics, span file
``bench/out/trace-<workload>.jsonl``); ``--traced`` runs the untraced
pass and then the traced one.  ``--quick`` cuts every workload to a
fifth of its length (a 40 s smoke pass); its numbers are marked
non-comparable.

Exit code: 0 when every output check passed, 1 when one failed or an
open-loop run saturated, 2 when the program under test is not there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="PREPARE reproduction benchmark (bench/README.md)")
    parser.add_argument("--workload", default=None,
                        help="run this workload alone (default: all seven)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass only, per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="untraced pass, then the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="fifth-length smoke pass, non-comparable")
    parser.add_argument("--out", type=Path, default=None,
                        help="report file (default bench/out/report.json)")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# One workload, one pass, in this process
# ----------------------------------------------------------------------
def run_one(name: str, seed: int, seconds: float, traced: bool
            ) -> Tuple[Dict, Dict]:
    """Returns ``(result, detail)``: the contract's result object and
    what else the run recorded (host calibration, digest, notes)."""
    from bench import spec

    # Importing the program is part of what a user waits for, so it is
    # timed and charged to set-up; the host calibration is not.
    clock = time.perf_counter()
    path = importlib.import_module(
        "bench.campaign" if name in spec.OFFLINE else "bench.serving")
    import_seconds = time.perf_counter() - clock
    from bench import host
    from bench.trace import SpanLog

    info = host.host_info()
    calibration = host.calibrate()
    spans = SpanLog(name, enabled=traced)
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if traced:
            outcome = path.run_traced(name, seed, seconds, work, spans)
        else:
            started = time.perf_counter() - import_seconds
            outcome = path.run(name, seed, seconds, started, work, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = host.calibrate()

    if traced:
        units = spec.PER_LAYER_UNITS
        values = dict.fromkeys(units, 0.0)
        values.update(outcome["metrics"])
        values.update({
            "host.nproc": info["nproc"],
            "host.load1": info["load1"],
            "host.calib_drift_share": max(
                abs(after[k] / calibration[k] - 1.0) for k in calibration),
            **{f"host.{k}": 0.5 * (calibration[k] + after[k])
               for k in calibration},
        })
        spans.dump(OUT / f"trace-{name}.jsonl")
    else:
        units = spec.END_TO_END_UNITS
        values = outcome["metrics"]
    if set(values) != set(units):
        raise AssertionError(
            f"{name}: metrics {sorted(set(values) ^ set(units))} do not "
            f"match bench/spec.py")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds,
        "traced": traced, "host": info,
        "calibration_before": calibration, "calibration_after": after,
        "digest": outcome.get("digest"), "notes": outcome.get("notes", {}),
    }
    return result, detail


def _single(args: argparse.Namespace, seconds: float) -> int:
    from bench.loadgen import Saturated
    from bench.servers import ServerError

    passes = [True] if args.trace else [False, True] if args.traced \
        else [False]
    status = 0
    for traced in passes:
        try:
            result, detail = run_one(args.workload, args.seed, seconds,
                                     traced)
        except Saturated as exc:
            print(f"saturated: {exc}", file=sys.stderr)
            return 1
        except ServerError as exc:
            print(f"server failure: {exc}", file=sys.stderr)
            return 1
        print("detail: " + json.dumps(detail, sort_keys=True))
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


# ----------------------------------------------------------------------
# Every workload, each in a process of its own
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: float, trace: int
           ) -> Tuple[int, Optional[Dict], Optional[Dict]]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", name, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = detail = None
    if done.returncode in (0, 1) and lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
        if lines and lines[-1].startswith("detail: "):
            detail = json.loads(lines.pop()[len("detail: "):])
    for line in lines:
        print("    " + line)
    return done.returncode, result, detail


def _print_metrics(metrics: Dict[str, Dict]) -> None:
    for key, entry in metrics.items():
        print(f"    {key:<44} {entry['value']:>14.4f} {entry['unit']}")


def _full(args: argparse.Namespace, seconds: float) -> int:
    from bench import spec

    report: Dict[str, object] = {
        "seed": args.seed, "seconds": seconds,
        "comparable": not args.quick, "workloads": {},
    }
    status = 0
    for name in spec.WORKLOAD_NAMES:
        entry: Dict[str, object] = {}
        for trace in ((0, 1) if args.traced else (0,)):
            label = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {name}: {label}", flush=True)
            code, result, detail = _child(name, args.seed, seconds, trace)
            if result is None:
                print(f"    FAILED with exit code {code}")
                status = 1
                continue
            _print_metrics(result["metrics"])
            print(f"    attempted {result['attempted']}  failed "
                  f"{result['failed']}  failed_share "
                  f"{result['failed'] / result['attempted']:.6f}"
                  + (f"  digest {detail['digest'][:16]}"
                     if detail and detail.get("digest") else ""))
            if code or not result["correct"]:
                status = 1
            entry["per_layer" if trace else "end_to_end"] = result
            entry["traced_detail" if trace else "detail"] = detail
        report["workloads"][name] = entry
    out = args.out or OUT / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report: {out}"
          + ("  (--quick: numbers are not comparable)" if args.quick else ""))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is not at {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from bench import spec

    if args.workload is not None and args.workload not in spec.WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; pick from "
              f"{spec.WORKLOAD_NAMES}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (
        spec.RUN_SECONDS / 5 if args.quick else float(spec.RUN_SECONDS))
    if seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload is not None:
        return _single(args, seconds)
    return _full(args, seconds)


if __name__ == "__main__":
    raise SystemExit(main())
