#!/usr/bin/env python
"""End-to-end benchmark of one campaign cell (full control loop).

Where ``perf_prediction.py`` times the per-tick model math in
isolation, this benchmark runs a complete experiment — simulator,
50-VM fleet application, monitor, fault injections and the PREPARE
controller — exactly as the campaign engine would run it, and times
the whole cell.  What the loop *decides* on such cells is pinned
separately, by ``tests/core/test_golden_decisions.py``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_campaign.py          # full
    PYTHONPATH=src python benchmarks/perf_campaign.py --quick  # CI smoke

Compare snapshots with ``scripts/bench_compare.py``; see
``docs/performance.md`` for how to read ``BENCH_campaign.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import format_results, time_call, write_results
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults.base import FaultKind

#: The reference campaign cell: 50 identical worker VMs, a memory leak
#: injected three times over an hour of simulated time.
CELLS = {
    "cell50": dict(app="fleet50", duration=3600.0, injection_count=3),
    "cell50_smoke": dict(app="fleet50", duration=900.0, injection_count=1),
}

#: Median wall-clock of the full ``cell50`` cell measured at the commit
#: immediately before the hot-path overhaul (same host class as CI).
#: Recorded in the snapshot so the end-to-end speedup of the overhaul
#: stays visible; refresh it with ``--reference-s`` when re-baselining
#: on different hardware.
PRE_OVERHAUL_CELL50_S = 12.15

DEFAULT_SEED = 7
DEFAULT_REPEATS = 3


def _cell_config(name: str, seed: int) -> ExperimentConfig:
    spec = CELLS[name]
    return ExperimentConfig(
        app=spec["app"],
        fault=FaultKind.MEMORY_LEAK,
        scheme="prepare",
        seed=seed,
        duration=spec["duration"],
        injection_count=spec["injection_count"],
    )


def run(
    cells=("cell50_smoke", "cell50"),
    seed: int = DEFAULT_SEED,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, Dict[str, float]]:
    """Time every cell end to end (one un-timed warm-up run each)."""
    return {
        f"{cell}/batched": time_call(
            lambda cell=cell: run_experiment(_cell_config(cell, seed)),
            repeats=repeats,
        )
        for cell in cells
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke cell only, one repeat (CI)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_campaign.json",
        help="result file to write (default: BENCH_campaign.json)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--reference-s", type=float, default=PRE_OVERHAUL_CELL50_S,
        help="pre-overhaul cell50 median on this host, seconds "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail unless cell50's end-to-end speedup over "
             "--reference-s reaches this factor (0 disables; "
             "meaningless in --quick mode)",
    )
    args = parser.parse_args(argv)

    cells = ("cell50_smoke",) if args.quick else ("cell50_smoke", "cell50")
    if args.repeats is None:
        repeats = 1 if args.quick else DEFAULT_REPEATS
    elif args.repeats < 1:
        parser.error("--repeats must be >= 1")
    else:
        repeats = args.repeats

    results = run(cells=cells, seed=args.seed, repeats=repeats)

    end_to_end: Optional[float] = None
    if "cell50" in cells and args.reference_s > 0:
        end_to_end = args.reference_s / results["cell50/batched"]["median_s"]

    meta = {
        "benchmark": "perf_campaign",
        "cells": {name: CELLS[name] for name in cells},
        "fault": "memory_leak",
        "scheme": "prepare",
        "seed": args.seed,
        "repeats": repeats,
        "quick": bool(args.quick),
        "pre_overhaul_cell50_s": args.reference_s,
        "speedup_vs_pre_overhaul": end_to_end,
    }
    write_results(args.output, results, meta)
    print(format_results({"results": results}))
    if end_to_end is not None:
        print(
            f"\ncell50: {end_to_end:.2f}x vs pre-overhaul baseline "
            f"({args.reference_s:.2f} s)"
        )
    print(f"\nwrote {args.output}")

    if args.min_speedup > 0:
        if end_to_end is None:
            print(
                "error: --min-speedup needs the full cell50 run "
                "(drop --quick) and a positive --reference-s",
                file=sys.stderr,
            )
            return 1
        if end_to_end < args.min_speedup:
            print(
                f"error: cell50 end-to-end speedup {end_to_end:.2f}x "
                f"is below the required {args.min_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
