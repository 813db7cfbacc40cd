"""Per-layer probes: each layer's public functions, timed from outside.

A probe calls into one module (``repro.serve.protocol``,
``repro.core.fleet``, ``repro.serve.journal``, ...) on inputs taken
from the workload being traced and reports cost per call.  They answer
"which layer got cheaper" when an end-to-end metric moves; they are not
gated.  Each probe is wrapped in a span named after the layer.
"""

from __future__ import annotations

import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from bench.servers import MODEL_NAME, wait_for_pong
from bench.synth import STEPS, Fleet, Stream
from bench.trace import SpanLog

from repro.core.fleet import FleetScorer
from repro.core.predictor import AnomalyPredictor
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import build_testbed
from repro.serve.fabric import shard_ring
from repro.serve.journal import ShardJournal
from repro.serve.protocol import decode_line, encode_message
from repro.serve.registry import ModelRegistry
from repro.serve.supervisor import WorkerHandle, WorkerSpec
from repro.sim.engine import Simulator
from repro.sim.monitor import ATTRIBUTES

__all__ = ["campaign_probes", "fleet_items", "fleet_probe",
           "journal_open_probe", "journal_probe", "predictor_probe",
           "protocol_probe", "registry_probe", "score_replies",
           "shard_ring_probe", "supervisor_probe"]


def _per_call_us(fn: Callable[[], object], calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return 1e6 * (time.perf_counter() - start) / calls


def _best(fn: Callable[[], float], repeats: int = 3) -> float:
    return min(fn() for _ in range(repeats))


# ----------------------------------------------------------------------
# Serving layers
# ----------------------------------------------------------------------
def protocol_probe(stream: Stream, replies: Sequence[Dict],
                   spans: SpanLog) -> Dict[str, float]:
    """``decode_line`` on the workload's request lines and one 64-sample
    frame, ``encode_message`` on replies a server actually sent."""
    lines = stream.lines(0, 1000)
    frame = stream.frame(0, 64, 0)
    replies = list(replies[:1000])
    with spans.span("serve.protocol"):
        def decode_all() -> float:
            start = time.perf_counter()
            for line in lines:
                decode_line(line)
            return 1e6 * (time.perf_counter() - start) / len(lines)

        def encode_all() -> float:
            start = time.perf_counter()
            for reply in replies:
                encode_message(reply)
            return 1e6 * (time.perf_counter() - start) / len(replies)

        return {
            "protocol.decode_sample_us": _best(decode_all),
            "protocol.decode_batch_us_per_sample": _best(
                lambda: _per_call_us(lambda: decode_line(frame), 20) / 64),
            "protocol.encode_reply_us": _best(encode_all),
            "protocol.request_bytes_per_sample": (
                sum(map(len, lines)) / len(lines)),
            "protocol.reply_bytes_per_sample": (
                sum(len(encode_message(r)) for r in replies) / len(replies)),
        }


def fleet_probe(predictors: Dict[str, AnomalyPredictor],
                items: List[Tuple[str, np.ndarray, int]],
                spans: SpanLog) -> Dict[str, float]:
    """Build a :class:`FleetScorer`, then score batches of 1, 8 and 64
    drawn round-robin from ``items``."""
    with spans.span("core.fleet"):
        start = time.perf_counter()
        scorer = FleetScorer(predictors)
        build_ms = 1e3 * (time.perf_counter() - start)
        out = {"fleet.build_ms": build_ms}
        for size in (1, 8, 64):
            batches = [
                [items[(b * size + k) % len(items)] for k in range(size)]
                for b in range(max(4, 256 // size))]
            scorer.score(batches[0])  # fills the horizon-operator cache

            def once() -> float:
                start = time.perf_counter()
                for batch in batches:
                    scorer.score(batch)
                return (1e6 * (time.perf_counter() - start)
                        / (len(batches) * size))

            out[f"fleet.score_us_per_sample.b{size}"] = _best(once)
        return out


def fleet_items(fleet: Fleet) -> List[Tuple[str, np.ndarray, int]]:
    """One ``(vm, recent rows, steps)`` scorer item per VM."""
    return [
        (vm, fleet.rows[vm][:fleet.predictors[vm].history_needed], STEPS)
        for vm in fleet.vms]


def predictor_probe(values: np.ndarray, labels: np.ndarray,
                    attributes: Sequence[str], spans: SpanLog
                    ) -> Dict[str, float]:
    """Train one VM's model on its own window, then predict from it."""
    with spans.span("core.predictor"):
        def train() -> float:
            start = time.perf_counter()
            AnomalyPredictor(attributes).train(values, labels)
            return 1e3 * (time.perf_counter() - start)

        train_ms = _best(train)
        predictor = AnomalyPredictor(attributes).train(values, labels)
        recent = values[-predictor.history_needed:]
        predictor.predict(recent, STEPS)
        return {
            "predictor.train_ms_per_vm": train_ms,
            "predictor.predict_us": _best(lambda: _per_call_us(
                lambda: predictor.predict(recent, STEPS), 200)),
        }


def registry_probe(fleet: Fleet, root: Path, spans: SpanLog
                   ) -> Dict[str, float]:
    registry = ModelRegistry(root)
    with spans.span("serve.registry"):
        start = time.perf_counter()
        info = registry.save("probe", fleet.predictors)
        save_ms = 1e3 * (time.perf_counter() - start)
        start = time.perf_counter()
        registry.load("probe", info.version)
        load_ms = 1e3 * (time.perf_counter() - start)
    return {
        "registry.save_ms": save_ms,
        "registry.load_ms": load_ms,
        "registry.snapshot_bytes": float(
            (info.path / "snapshot.json").stat().st_size),
    }


def _history_needed(stream: Stream) -> Dict[str, int]:
    return {vm: stream.fleet.predictors[vm].history_needed
            for vm in stream.vms}


def _reopen_us_per_record(path: Path, need: Dict[str, int]) -> float:
    journal = ShardJournal(path, need, compact_factor=0)
    start = time.perf_counter()
    replayed = journal.open()
    elapsed = time.perf_counter() - start
    journal.close()
    return 1e6 * elapsed / max(replayed, 1)


def journal_probe(stream: Stream, path: Path, spans: SpanLog
                  ) -> Dict[str, float]:
    """Append the workload's samples to a fresh :class:`ShardJournal`
    (auto-compaction off so appends are timed alone), reopen what is on
    disk, then compact it."""
    need = _history_needed(stream)
    samples = [(stream.sample_at(k)[0], stream.values_at(k))
               for k in range(2000)]
    with spans.span("serve.journal"):
        journal = ShardJournal(path, need, compact_factor=0)
        journal.open()
        start = time.perf_counter()
        for vm, values in samples:
            journal.append(vm, values)
        append_us = 1e6 * (time.perf_counter() - start) / len(samples)
        size = path.stat().st_size
        journal.close()
        open_us = _best(lambda: _reopen_us_per_record(path, need))
        journal.open()
        start = time.perf_counter()
        journal.compact()
        compact_ms = 1e3 * (time.perf_counter() - start)
        journal.close()
    return {
        "journal.append_us": append_us,
        "journal.compact_ms": compact_ms,
        "journal.open_us_per_record": open_us,
        "journal.bytes_per_record": size / len(samples),
    }


def journal_open_probe(stream: Stream, path: Path, spans: SpanLog
                       ) -> Dict[str, float]:
    """Reopen a WAL a fabric left behind — what a cold start reads."""
    need = _history_needed(stream)
    records = sum(1 for _ in path.open("rb"))
    with spans.span("serve.journal.open"):
        return {
            "journal.open_us_per_record": _best(
                lambda: _reopen_us_per_record(path, need)),
            "journal.bytes_per_record":
                path.stat().st_size / max(records, 1),
        }


def shard_ring_probe(vms: List[str], workers: int, spans: SpanLog
                     ) -> Dict[str, float]:
    with spans.span("serve.fabric.shard_ring"):
        return {"fabric.shard_ring_ms": _best(
            lambda: _per_call_us(lambda: shard_ring(vms, workers), 3) / 1e3)}


async def supervisor_probe(registry_root: str, socket_path: str,
                           vms: Sequence[str], spans: SpanLog
                           ) -> Dict[str, float]:
    """``WorkerHandle(spec).start()`` to the worker's first ``pong``."""
    spec = WorkerSpec(
        shard_index=0, socket_path=socket_path,
        registry_root=registry_root, model_name=MODEL_NAME, version=1,
        vms=tuple(vms))
    handle = WorkerHandle(spec)
    with spans.span("serve.supervisor.worker_ready"):
        start = time.perf_counter()
        handle.start()
        try:
            await wait_for_pong(socket_path, lambda: handle.exitcode)
            ready = time.perf_counter() - start
        finally:
            handle.terminate()
            # The spawn context started a resource-tracker process on
            # this process's behalf; end it with the probe rather than
            # at interpreter exit, so nothing outlives the run.
            stop = getattr(resource_tracker._resource_tracker, "_stop", None)
            if stop is not None:
                stop()
    return {"supervisor.worker_ready_s": ready}


# ----------------------------------------------------------------------
# Campaign layers
# ----------------------------------------------------------------------
def campaign_probes(app: str, seed: int, result: ExperimentResult,
                    with_models: bool, spans: SpanLog) -> Dict[str, float]:
    """Simulator, monitor and testbed costs on the inputs of the cell
    that just ran — and, where the cell's scheme runs the models, the
    predictor's and fleet scorer's on its samples."""
    out: Dict[str, float] = {}
    with spans.span("experiments.build_testbed"):
        start = time.perf_counter()
        testbed = build_testbed(app, seed=seed)
        out["experiments.build_testbed_ms"] = (
            1e3 * (time.perf_counter() - start))

    with spans.span("sim.engine"):
        def noop_events() -> float:
            sim = Simulator()
            sim.every(1.0, lambda now: None)
            start = time.perf_counter()
            sim.run_until(20_000.0)
            return 1e6 * (time.perf_counter() - start) / 20_000
        out["sim.engine.noop_event_us"] = _best(noop_events)

    with spans.span("sim.monitor"):
        vms = list(testbed.app.vms)

        def sample_all() -> float:
            rounds = max(1, 2000 // len(vms))
            start = time.perf_counter()
            for _ in range(rounds):
                for vm in vms:
                    testbed.monitor.sample_vm(vm, 0.0)
            return 1e6 * (time.perf_counter() - start) / (rounds * len(vms))
        out["sim.monitor.sample_vm_us"] = _best(sample_all)

    labels = np.asarray(result.sample_labels, dtype=int)
    if with_models and 0 < labels.sum() < labels.size:
        windows = {
            vm: np.array([s.vector() for s in trace])
            for vm, trace in list(result.samples.items())[:16]}
        first = next(iter(windows))
        out.update(predictor_probe(windows[first], labels, ATTRIBUTES, spans))
        predictors = {
            vm: AnomalyPredictor(ATTRIBUTES).train(values, labels)
            for vm, values in windows.items()}
        items = [
            (vm, values[-predictors[vm].history_needed:], STEPS)
            for vm, values in windows.items()]
        out.update(fleet_probe(predictors, items, spans))
    return out


def score_replies(replies: Sequence[Dict]) -> List[Dict]:
    """The ``score`` replies among what a server sent, for the encode
    probe."""
    return [r for r in replies if r and r.get("kind") == "score"]
