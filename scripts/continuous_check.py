#!/usr/bin/env python
"""End-to-end smoke check of the continuous-learning loop (CI gate).

Exercises the champion/challenger lifecycle on real collected traces:

1. collect a baseline trace, train a champion fleet, save it to a
   :class:`~repro.serve.registry.ModelRegistry` and promote it;
2. stream the baseline trace through a
   :class:`~repro.serve.service.PredictionService` while feeding a
   :class:`~repro.serve.lifecycle.LifecycleManager`, and assert drift
   does **not** fire on the distribution the champion was trained on;
3. inject drift (a shifted regime trace) and assert the detector
   fires; train a challenger on the drifted regime and shadow-score
   it — one extra FleetScorer pass per micro-batch, decisions logged
   but never served;
4. assert shadow agreement clears the promotion gate, auto-promote,
   and check the registry's champion pointer moved;
5. roll back and assert the restored champion is **bitwise identical**
   to the pre-promotion snapshot (same canonical bytes, same serving
   decisions).

Exits non-zero with a message on the first failure.

Usage::

    PYTHONPATH=src python scripts/continuous_check.py
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
from repro.serve.lifecycle import LifecycleConfig, LifecycleManager
from repro.serve.protocol import encode_message
from repro.serve.registry import SCHEMA_VERSION, ModelRegistry, canonical_json
from repro.serve.service import PredictionService, ServiceConfig

MODEL_NAME = "continuous-check"
MIN_SHADOW = 50


def fail(message: str) -> None:
    raise SystemExit(f"FAIL: {message}")


def snapshot_bytes(registry: ModelRegistry, version: int) -> str:
    info = registry.info(MODEL_NAME, version)
    return (info.path / "snapshot.json").read_text(encoding="utf-8")


async def stream(service, manager, sock, traces, observe=True):
    """Stream per-VM rows through the service, feeding the manager."""
    reader, writer = await asyncio.open_unix_connection(sock)
    drift_hits = 0
    n_rows = min(len(v) for v in traces.values())
    try:
        for i in range(n_rows):
            for vm, values in traces.items():
                row = [float(x) for x in values[i]]
                writer.write(encode_message({
                    "op": "sample", "vm": vm, "values": row,
                }))
                await writer.drain()
                await reader.readline()
                if observe and manager.observe(vm, row):
                    drift_hits += 1
        await service.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return drift_hits


async def check(registry_root: Path, duration: float) -> None:
    baseline = collect_trace(
        "rubis", FaultKind.CPU_HOG, seed=3, duration=duration
    )
    champion = _train_per_vm(baseline, "2dep", "tan", 8)
    if not champion:
        fail("baseline trace produced no trainable predictors")
    vms = sorted(champion)
    print(f"trained champion fleet over {len(vms)} VM(s)")

    registry = ModelRegistry(registry_root)
    champ_info = registry.save(
        MODEL_NAME, champion, created_at="2026-01-01T00:00:00+00:00"
    )
    registry.promote(MODEL_NAME, champ_info.version)
    champ_doc = snapshot_bytes(registry, champ_info.version)

    # Drift injection: the same workload shifted to a new operating
    # point.  The challenger retrains on an independent trace of the
    # same scenario — a genuinely different model that must still
    # agree with the champion on the (mostly normal) shadow window.
    shift_traces = {
        vm: baseline.per_vm_values[vm] * 1.6 + 3.0 for vm in vms
    }
    drifted = collect_trace(
        "rubis", FaultKind.CPU_HOG, seed=4, duration=duration
    )
    challenger = _train_per_vm(drifted, "2dep", "tan", 8)
    if not challenger:
        fail("drifted trace produced no trainable predictors")

    service = PredictionService(champion, ServiceConfig())
    service.champion_version = champ_info.version
    manager = LifecycleManager(
        service, registry, MODEL_NAME,
        trainer=lambda windows: challenger,
        config=LifecycleConfig(
            min_shadow_samples=MIN_SHADOW, min_agreement=0.8,
            # The 4.5 default is tuned for the controller's workload-
            # change vote; the short serving windows here need more
            # headroom above the noise floor of a live trace.
            drift_threshold=8.0,
        ),
    )

    with tempfile.TemporaryDirectory() as tmp:
        sock = str(Path(tmp) / "serve.sock")
        await service.start(path=sock)
        try:
            stable = {vm: baseline.per_vm_values[vm][:60] for vm in vms}
            hits = await stream(service, manager, sock, stable)
            if hits:
                fail(f"drift fired {hits}x on the training distribution")
            print("no drift on the champion's own distribution")

            hits = await stream(
                service, manager, sock,
                {vm: shift_traces[vm][:60] for vm in vms},
            )
            if not hits:
                fail("injected regime shift did not trigger drift")
            print(f"drift detected "
                  f"(fraction={manager.detector.last_fraction:.2f})")

            chall_version = manager.train_challenger()
            if chall_version is None:
                fail("challenger training produced no fleet")
            print(f"challenger trained and installed as "
                  f"v{chall_version:04d} (shadow scoring)")

            await stream(
                service, manager, sock,
                {vm: baseline.per_vm_values[vm][60:180] for vm in vms},
                observe=False,
            )
            stats = service.shadow_stats()
            if stats["scored"] < MIN_SHADOW:
                fail(f"challenger shadow-scored only {stats['scored']} "
                     f"samples (need {MIN_SHADOW})")
            print(f"shadow window: {stats['scored']} scored, "
                  f"agreement {stats['agreement']:.2f}")

            if not manager.maybe_promote():
                fail(f"challenger failed the promotion gate "
                     f"(agreement {stats['agreement']:.2f})")
            active = registry.active_info(MODEL_NAME)
            if active is None or active.version != chall_version:
                fail("registry champion pointer did not move on promotion")
            if service.champion_version != chall_version:
                fail("service is not serving the promoted challenger")
            print(f"challenger auto-promoted to champion "
                  f"(v{chall_version:04d})")

            manager.rollback()
            active = registry.active_info(MODEL_NAME)
            if active is None or active.version != champ_info.version:
                fail("rollback did not restore the champion pointer")
            if service.champion_version != champ_info.version:
                fail("rollback did not restore the serving champion")
            restored = registry.load_active(MODEL_NAME)
            restored_doc = canonical_json({
                "schema": SCHEMA_VERSION,
                "name": champ_info.name,
                "version": champ_info.version,
                "created_at": champ_info.created_at,
                "vms": {
                    vm: restored[vm].to_dict() for vm in sorted(restored)
                },
            })
            if restored_doc != champ_doc:
                fail("rolled-back champion is not bitwise identical to "
                     "the original snapshot")
            print("rollback restored the bitwise-identical champion")
        finally:
            await service.stop()

    print(
        f"OK: drift -> challenger v{chall_version:04d} -> shadow "
        f"({stats['scored']} scored, agreement {stats['agreement']:.2f}) "
        f"-> promote -> rollback, champion bytes intact"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration", type=float, default=1500.0,
        help="simulated trace duration in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--registry", type=Path, default=None,
        help="registry directory (default: a temporary directory)",
    )
    args = parser.parse_args(argv)
    if args.registry is not None:
        asyncio.run(check(args.registry, args.duration))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            asyncio.run(check(Path(tmp) / "registry", args.duration))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
