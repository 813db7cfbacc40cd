#!/usr/bin/env python
"""Benchmark of the online serving layer (see ``docs/serving.md``).

Two levels are measured, and every timed path is first checked for
**equal alert decisions** against one-sample-at-a-time
:meth:`AnomalyPredictor.predict` calls — throughput that changed the
answers would be meaningless:

* ``engine/*`` — :class:`~repro.serve.service.FleetScorer` scoring a
  mixed-VM batch in one stacked call vs. the same samples scored
  sequentially (the paper's one-predictor-per-tick baseline);
* ``service/*`` — the full asyncio stack: a
  :class:`~repro.serve.service.PredictionService` on a unix socket
  driven by the replay harness, reporting sustained score replies per
  second and client-observed tail latencies;
* ``fabric/*`` — the sharded serving fabric: a router consistent-
  hashing VMs across worker *processes* (with per-shard WAL
  journaling on the hot path), driven by the same replay harness with
  batch framing.  Scoring parallelism across workers must buy real
  throughput over the single-process service.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_serving.py
    PYTHONPATH=src python benchmarks/perf_serving.py --quick  # CI smoke

Compare two snapshots with ``scripts/bench_compare.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.bench import format_results, time_call, write_results
from repro.core.predictor import AnomalyPredictor
from repro.serve.replay import replay_dataset
from repro.serve.service import FleetScorer, PredictionService, ServiceConfig

N_ATTRS = 13
N_BINS = 8
TRAIN_SAMPLES = 300

DEFAULT_FLEETS = (10, 50)
DEFAULT_STEPS = 4
DEFAULT_REPEATS = 5
DEFAULT_REPLAY_ROWS = 60


def _make_fleet(
    n_vms: int, rng: np.random.Generator
) -> Tuple[Dict[str, AnomalyPredictor], Dict[str, np.ndarray]]:
    attrs = [f"a{i}" for i in range(N_ATTRS)]
    predictors: Dict[str, AnomalyPredictor] = {}
    traces: Dict[str, np.ndarray] = {}
    for i in range(n_vms):
        values = rng.normal(50.0, 10.0, (TRAIN_SAMPLES, N_ATTRS))
        values += np.linspace(0, 5, TRAIN_SAMPLES)[:, None]
        labels = (rng.random(TRAIN_SAMPLES) < 0.2).astype(int)
        vm = f"vm{i:03d}"
        predictors[vm] = AnomalyPredictor(
            attrs, n_bins=N_BINS, markov="2dep"
        ).train(values, labels)
        traces[vm] = values
    return predictors, traces


def _make_batch(
    predictors: Dict[str, AnomalyPredictor],
    traces: Dict[str, np.ndarray],
    steps: int,
) -> List[Tuple[str, np.ndarray, int]]:
    return [
        (vm, traces[vm][10 + i:10 + i + predictors[vm].history_needed], steps)
        for i, vm in enumerate(sorted(predictors))
    ]


def run_engine(
    fleets=DEFAULT_FLEETS,
    steps: int = DEFAULT_STEPS,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 11,
) -> Dict[str, Dict[str, float]]:
    """Batched FleetScorer vs. sequential predict, equal decisions."""
    rng = np.random.default_rng(seed)
    results: Dict[str, Dict[str, float]] = {}
    for n_vms in fleets:
        predictors, traces = _make_fleet(n_vms, rng)
        scorer = FleetScorer(predictors)
        batch = _make_batch(predictors, traces, steps)
        key = f"engine{n_vms}"

        batched = scorer.score(batch)
        single = [predictors[vm].predict(rec, st) for vm, rec, st in batch]
        for b, s in zip(batched, single):
            if (b.abnormal, b.score, b.bins, b.strengths) != (
                s.abnormal, s.score, s.bins, s.strengths
            ):
                raise AssertionError(
                    "batched scorer diverged from single-sample scoring"
                )

        def score_batched(scorer=scorer, batch=batch):
            scorer.score(batch)

        def score_single(predictors=predictors, batch=batch):
            for vm, recent, st in batch:
                predictors[vm].predict(recent, st)

        score_batched()  # fill the horizon-table rows before timing
        results[f"{key}/batched"] = time_call(score_batched, repeats=repeats)
        results[f"{key}/single"] = time_call(score_single, repeats=repeats)
    return results


async def _run_service_once(
    predictors: Dict[str, AnomalyPredictor],
    traces: Dict[str, np.ndarray],
    steps: int,
    batch_window: float,
) -> Dict[str, float]:
    service = PredictionService(
        predictors, ServiceConfig(steps=steps, batch_window=batch_window)
    )
    with tempfile.TemporaryDirectory() as tmp:
        sock = str(Path(tmp) / "serve.sock")
        await service.start(path=sock)
        try:
            report = await replay_dataset(
                traces, path=sock, steps=steps, predictors=predictors
            )
        finally:
            await service.stop()
    if not report.parity_ok or report.errors:
        raise AssertionError(
            f"service replay lost parity: {report.to_dict()}"
        )
    return {
        "median_s": report.wall_seconds,
        "min_s": report.wall_seconds,
        "throughput_per_s": report.throughput,
        "scores": float(report.scores),
        "p50_ms": report.p50_ms,
        "p95_ms": report.p95_ms,
        "p99_ms": report.p99_ms,
    }


def run_service(
    n_vms: int,
    steps: int = DEFAULT_STEPS,
    replay_rows: int = DEFAULT_REPLAY_ROWS,
    seed: int = 11,
    batch_window: float = 0.002,
) -> Dict[str, Dict[str, float]]:
    """End-to-end replay against a live service on a unix socket."""
    rng = np.random.default_rng(seed + 1)
    predictors, traces = _make_fleet(n_vms, rng)
    traces = {vm: v[:replay_rows] for vm, v in traces.items()}
    entry = asyncio.run(
        _run_service_once(predictors, traces, steps, batch_window)
    )
    return {f"service{n_vms}/replay": entry}


async def _run_fabric_once(
    predictors: Dict[str, AnomalyPredictor],
    traces: Dict[str, np.ndarray],
    steps: int,
    n_workers: int,
    repeat: int,
    frame: int,
) -> Dict[str, float]:
    from repro.serve.fabric import FabricConfig, ServingFabric
    from repro.serve.registry import ModelRegistry

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        registry = ModelRegistry(root / "registry")
        info = registry.save("bench", predictors)
        registry.promote("bench", info.version)
        fabric = ServingFabric(
            registry, root / "fabric",
            FabricConfig(model_name="bench", n_workers=n_workers,
                         steps=steps),
        )
        sock = str(root / "fabric.sock")
        await fabric.start(path=sock)
        try:
            report = await replay_dataset(
                traces, path=sock, steps=steps, predictors=predictors,
                repeat=repeat, frame=frame, max_inflight=4096,
            )
        finally:
            await fabric.stop()
    if (not report.parity_ok or report.errors or report.sheds
            or report.timeouts):
        raise AssertionError(
            f"fabric replay lost parity or samples: {report.to_dict()}"
        )
    return {
        "median_s": report.wall_seconds,
        "min_s": report.wall_seconds,
        "throughput_per_s": report.throughput,
        "scores": float(report.scores),
        "p50_ms": report.p50_ms,
        "p95_ms": report.p95_ms,
        "p99_ms": report.p99_ms,
    }


def run_fabric(
    n_vms: int,
    steps: int = DEFAULT_STEPS,
    replay_rows: int = DEFAULT_REPLAY_ROWS,
    seed: int = 11,
    n_workers: int = 4,
    repeat: int = 8,
    frame: int = 256,
) -> Dict[str, Dict[str, float]]:
    """Replay against the sharded fabric (same fleet as ``service``)."""
    rng = np.random.default_rng(seed + 1)
    predictors, traces = _make_fleet(n_vms, rng)
    traces = {vm: v[:replay_rows] for vm, v in traces.items()}
    entry = asyncio.run(_run_fabric_once(
        predictors, traces, steps, n_workers, repeat, frame
    ))
    return {f"fabric{n_vms}x{n_workers}/replay": entry}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small fleet / few repeats (CI smoke run)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_serving.json",
        help="result file to write (default: BENCH_serving.json)",
    )
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--fabric-workers", type=int, default=4,
        help="worker processes for the fabric tier (default %(default)s)",
    )
    args = parser.parse_args(argv)

    fleets = (10,) if args.quick else DEFAULT_FLEETS
    if args.repeats is None:
        repeats = 2 if args.quick else DEFAULT_REPEATS
    elif args.repeats < 1:
        parser.error("--repeats must be >= 1")
    else:
        repeats = args.repeats
    replay_rows = 20 if args.quick else DEFAULT_REPLAY_ROWS

    results = run_engine(
        fleets=fleets, steps=args.steps, repeats=repeats, seed=args.seed
    )
    service_vms = fleets[-1]
    results.update(run_service(
        service_vms, steps=args.steps, replay_rows=replay_rows,
        seed=args.seed,
    ))
    # Fabric worker counts: the requested fleet plus (when the host
    # has fewer cores than that) a core-matched run — on a small CI
    # box the requested fan-out oversubscribes the cores and the
    # core-matched number is the honest capacity figure.
    worker_counts = [args.fabric_workers]
    core_matched = max(2, min(args.fabric_workers, os.cpu_count() or 2))
    if core_matched != args.fabric_workers:
        worker_counts.append(core_matched)
    for n_workers in worker_counts:
        results.update(run_fabric(
            service_vms, steps=args.steps, replay_rows=replay_rows,
            seed=args.seed, n_workers=n_workers,
            repeat=2 if args.quick else 8,
        ))

    speedups = {}
    for n_vms in fleets:
        key = f"engine{n_vms}"
        single = results[f"{key}/single"]["median_s"]
        batched = results[f"{key}/batched"]["median_s"]
        speedups[key] = single / batched if batched else float("inf")

    service_key = f"service{service_vms}/replay"
    fabric_keys = [
        f"fabric{service_vms}x{n}/replay" for n in worker_counts
    ]
    fabric_key = max(
        fabric_keys, key=lambda k: results[k]["throughput_per_s"]
    )
    fabric_speedup = (
        results[fabric_key]["throughput_per_s"]
        / results[service_key]["throughput_per_s"]
        if results[service_key]["throughput_per_s"] else float("inf")
    )
    meta = {
        "benchmark": "perf_serving",
        # Replay/fabric throughput is core-bound: the fabric fans
        # scoring out across worker *processes*, so its speedup over
        # the single service is capped by the cores available to host
        # client + router + workers at once.
        "host_cpus": os.cpu_count(),
        "n_attrs": N_ATTRS,
        "n_bins": N_BINS,
        "markov": "2dep",
        "steps": args.steps,
        "fleets": list(fleets),
        "repeats": repeats,
        "seed": args.seed,
        "quick": bool(args.quick),
        "train_samples": TRAIN_SAMPLES,
        "replay_rows": replay_rows,
        "decisions_equal": True,  # asserted above, run fails otherwise
        "batched_speedup_vs_single": speedups,
        "service_throughput_per_s": results[service_key][
            "throughput_per_s"
        ],
        "fabric_workers": worker_counts,
        "fabric_best_key": fabric_key,
        "fabric_throughput_per_s": results[fabric_key][
            "throughput_per_s"
        ],
        "fabric_speedup_vs_service": fabric_speedup,
    }
    write_results(args.output, results, meta)
    print(format_results({"results": results}))
    print()
    for key, s in speedups.items():
        print(f"{key}: batched {s:.1f}x vs single-sample")
    svc = results[service_key]
    print(
        f"service{service_vms}: {svc['throughput_per_s']:.0f} scores/s, "
        f"p50 {svc['p50_ms']:.1f} ms, p99 {svc['p99_ms']:.1f} ms"
    )
    for key in fabric_keys:
        fab = results[key]
        ratio = (
            fab["throughput_per_s"]
            / results[service_key]["throughput_per_s"]
            if results[service_key]["throughput_per_s"] else float("inf")
        )
        print(
            f"{key.split('/')[0]}: "
            f"{fab['throughput_per_s']:.0f} scores/s "
            f"({ratio:.1f}x vs single service), "
            f"p50 {fab['p50_ms']:.1f} ms, p99 {fab['p99_ms']:.1f} ms"
        )
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
