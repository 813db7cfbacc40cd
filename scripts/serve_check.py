#!/usr/bin/env python
"""End-to-end smoke check of the online serving layer (CI gate).

Exercises the full snapshot → serve → replay loop on a real collected
trace:

1. collect a short RUBiS/cpu-hog trace and train per-VM predictors;
2. save them to a :class:`~repro.serve.registry.ModelRegistry`, load
   them back, and assert the restored pipelines re-serialize to the
   **byte-identical** canonical snapshot (restore is exact, not just
   approximately equal);
3. start a :class:`~repro.serve.service.PredictionService` on a unix
   socket and replay at least 1000 samples through it;
4. assert zero protocol errors, zero sheds, **100% alert parity** with
   the offline controller, and a clean drain (no samples left queued).

Exits non-zero with a message on the first failure.

Usage::

    PYTHONPATH=src python scripts/serve_check.py
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.faults.base import FaultKind
from repro.experiments.accuracy import _train_per_vm, collect_trace
from repro.serve.registry import SCHEMA_VERSION, ModelRegistry, canonical_json
from repro.serve.replay import iter_samples, replay_dataset
from repro.serve.service import PredictionService, ServiceConfig

MIN_SAMPLES = 1000


def fail(message: str) -> None:
    raise SystemExit(f"FAIL: {message}")


async def check(registry_root: Path, duration: float, steps: int) -> None:
    dataset = collect_trace(
        "rubis", FaultKind.CPU_HOG, seed=3, duration=duration
    )
    predictors = _train_per_vm(dataset, "2dep", "tan", 8)
    if not predictors:
        fail("trace produced no trainable per-VM predictors")
    print(f"trained {len(predictors)} per-VM predictors "
          f"({len(dataset.attributes)} attributes each)")

    registry = ModelRegistry(registry_root)
    saved = registry.save(
        "serve-check", predictors, created_at="2026-01-01T00:00:00+00:00"
    )
    restored = registry.load("serve-check")
    original_doc = (saved.path / "snapshot.json").read_text(encoding="utf-8")
    restored_doc = canonical_json({
        "schema": SCHEMA_VERSION,
        "name": saved.name,
        "version": saved.version,
        "created_at": saved.created_at,
        "vms": {vm: restored[vm].to_dict() for vm in sorted(restored)},
    })
    if restored_doc != original_doc:
        fail("restored predictors do not re-serialize to the saved "
             "snapshot bytes")
    print(f"snapshot {saved.name}/{saved.version_label} round-trips "
          f"byte-identically (sha256 {saved.sha256[:12]})")

    traces = {vm: dataset.per_vm_values[vm] for vm in restored}
    per_pass = len(iter_samples(traces))
    repeat = max(1, -(-MIN_SAMPLES // per_pass))  # ceil division
    service = PredictionService(restored, ServiceConfig(steps=steps))
    with tempfile.TemporaryDirectory() as tmp:
        sock = str(Path(tmp) / "serve.sock")
        await service.start(path=sock)
        try:
            report = await replay_dataset(
                traces, path=sock, steps=steps, repeat=repeat,
                predictors=restored,
            )
        finally:
            await service.stop()

    if report.sent < MIN_SAMPLES:
        fail(f"replayed only {report.sent} samples (need {MIN_SAMPLES})")
    if report.errors:
        fail(f"{report.errors} protocol errors during replay")
    if report.sheds:
        fail(f"{report.sheds} samples were shed during replay")
    if report.scores + report.warmups != report.sent:
        fail(f"replies do not account for every sample "
             f"({report.scores} scores + {report.warmups} warmups "
             f"!= {report.sent} sent)")
    if report.parity_checked != report.scores:
        fail(f"only {report.parity_checked}/{report.scores} score "
             f"replies were parity-checked")
    if not report.parity_ok:
        fail(f"{report.parity_mismatches}/{report.parity_checked} score "
             f"replies disagree with the offline controller")
    pending = service.stats()["pending"]
    if pending:
        fail(f"{pending} samples still queued after drain")

    print(
        f"OK: {report.sent} samples replayed through the service "
        f"({report.scores} scored, {report.warmups} warmup), "
        f"{report.parity_checked}/{report.parity_checked} alert parity, "
        f"{report.throughput:.0f} scores/s, p99 {report.p99_ms:.1f} ms, "
        f"clean drain"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration", type=float, default=1500.0,
        help="simulated trace duration in seconds (default %(default)s)",
    )
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument(
        "--registry", type=Path, default=None,
        help="registry directory (default: a temporary directory)",
    )
    args = parser.parse_args(argv)
    if args.registry is not None:
        asyncio.run(check(args.registry, args.duration, args.steps))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            asyncio.run(check(Path(tmp) / "registry", args.duration,
                              args.steps))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
