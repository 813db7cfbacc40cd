#!/usr/bin/env python
"""Microbenchmark of the per-tick prediction data path.

Times the unit of work PREPARE's scalability argument rests on — per
VM, every sampling tick: propagate 13 two-dependent Markov chains over
a multi-step look-ahead window and classify the predicted state with
TAN — plus model (re)training, for several fleet sizes.  Each timed
path also runs through the preserved pre-vectorization reference
implementation, so the emitted ``BENCH_prediction.json`` records the
speedup of the vectorized engine (see ``docs/performance.md``).

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_prediction.py
    PYTHONPATH=src python benchmarks/perf_prediction.py --quick  # CI smoke

Compare two snapshots with ``scripts/bench_compare.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.bench import format_results, time_call, write_results
from repro.core.predictor import AnomalyPredictor

#: The paper's per-VM model shape: 13 monitored attributes, 8 bins,
#: 2-dependent chains (Sec. II-B).
N_ATTRS = 13
N_BINS = 8
TRAIN_SAMPLES = 300

DEFAULT_FLEETS = (5, 20, 50)
DEFAULT_STEPS = 8
DEFAULT_REPEATS = 5


def _make_fleet(n_vms: int, rng: np.random.Generator) -> List[AnomalyPredictor]:
    attrs = [f"a{i}" for i in range(N_ATTRS)]
    fleet = []
    for _ in range(n_vms):
        values = rng.normal(50.0, 10.0, (TRAIN_SAMPLES, N_ATTRS))
        values += np.linspace(0, 5, TRAIN_SAMPLES)[:, None]
        labels = (rng.random(TRAIN_SAMPLES) < 0.2).astype(int)
        predictor = AnomalyPredictor(attrs, n_bins=N_BINS, markov="2dep")
        predictor.train(values, labels)
        fleet.append(predictor)
    return fleet


def run(
    fleets=DEFAULT_FLEETS,
    steps: int = DEFAULT_STEPS,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 11,
) -> Dict[str, Dict[str, float]]:
    rng = np.random.default_rng(seed)
    results: Dict[str, Dict[str, float]] = {}
    for n_vms in fleets:
        fleet = _make_fleet(n_vms, rng)
        histories = [
            rng.normal(50.0, 10.0, (2, N_ATTRS)) for _ in range(n_vms)
        ]
        key = f"fleet{n_vms}"

        train_values = rng.normal(50.0, 10.0, (TRAIN_SAMPLES, N_ATTRS))
        train_labels = (rng.random(TRAIN_SAMPLES) < 0.2).astype(int)

        def train_one(p=fleet[0], v=train_values, y=train_labels):
            p.train(v, y)

        def predict_tick():
            for predictor, history in zip(fleet, histories):
                predictor.predict(history, steps=steps)

        def predict_tick_reference():
            # The full pre-vectorization path: per-call matrix rebuild,
            # per-state Python propagation, scalar classifier loops.
            for predictor, history in zip(fleet, histories):
                predictor.predict_reference(history, steps=steps)

        binned = [
            p.discretizer.transform(h)[-1] for p, h in zip(fleet, histories)
        ]

        def classify_tick():
            for predictor, bins in zip(fleet, binned):
                predictor.classifier.log_odds(bins)

        def classify_tick_reference():
            for predictor, bins in zip(fleet, binned):
                predictor.classifier.log_odds_reference(bins)

        results[f"{key}/train"] = time_call(train_one, repeats=repeats)
        results[f"{key}/predict"] = time_call(predict_tick, repeats=repeats)
        results[f"{key}/predict_reference"] = time_call(
            predict_tick_reference, repeats=repeats
        )
        results[f"{key}/classify"] = time_call(classify_tick, repeats=repeats)
        results[f"{key}/classify_reference"] = time_call(
            classify_tick_reference, repeats=repeats
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small fleet / few repeats (CI smoke run)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_prediction.json",
        help="result file to write (default: BENCH_prediction.json)",
    )
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--min-classify-speedup", type=float, default=1.0,
        help="fail unless the largest fleet's classify speedup over the "
             "reference implementation reaches this factor "
             "(default %(default)s; 0 disables)",
    )
    args = parser.parse_args(argv)

    fleets = (5,) if args.quick else DEFAULT_FLEETS
    if args.repeats is None:
        repeats = 2 if args.quick else DEFAULT_REPEATS
    elif args.repeats < 1:
        parser.error("--repeats must be >= 1")
    else:
        repeats = args.repeats
    results = run(
        fleets=fleets, steps=args.steps, repeats=repeats, seed=args.seed
    )

    speedups = {}
    for n_vms in fleets:
        key = f"fleet{n_vms}"
        ref = results[f"{key}/predict_reference"]["median_s"]
        vec = results[f"{key}/predict"]["median_s"]
        cref = results[f"{key}/classify_reference"]["median_s"]
        cvec = results[f"{key}/classify"]["median_s"]
        speedups[key] = {
            "predict": ref / vec if vec else float("inf"),
            "classify": cref / cvec if cvec else float("inf"),
        }

    meta = {
        "benchmark": "perf_prediction",
        "n_attrs": N_ATTRS,
        "n_bins": N_BINS,
        "markov": "2dep",
        "steps": args.steps,
        "fleets": list(fleets),
        "repeats": repeats,
        "seed": args.seed,
        "quick": bool(args.quick),
        "train_samples": TRAIN_SAMPLES,
        "speedup_vs_reference": speedups,
    }
    write_results(args.output, results, meta)
    print(format_results({"results": results}))
    print()
    for key, s in speedups.items():
        print(
            f"{key}: predict {s['predict']:.1f}x, "
            f"classify {s['classify']:.1f}x vs reference"
        )
    print(f"\nwrote {args.output}")

    # The gate targets the campaign-scale fleet; quick runs (fleet5
    # only, single repeats) are too noisy to assert speedups on.
    if args.min_classify_speedup > 0 and "fleet50" in speedups:
        gate = speedups["fleet50"]["classify"]
        if gate < args.min_classify_speedup:
            print(
                f"error: fleet50 classify speedup {gate:.2f}x is "
                f"below the required {args.min_classify_speedup:.2f}x "
                "— the batch TAN scorer must never lose to the scalar "
                "reference",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
