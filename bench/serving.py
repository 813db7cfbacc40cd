"""The online path: ``repro serve`` and ``repro fabric`` under load.

Set-up for every workload here: synthesise and train the fleet for the
seed, build the parity oracle, save the fleet to a model registry,
launch the server through the shipped CLI and wait for its first
``pong``, warm it with a second of traffic, ``reset`` its histories.
The measured stream then starts from an empty history, so the first
sample of each VM is answered ``warmup`` and every later one ``score``
— and every reply is compared with the oracle.

Failed = shed + error + unanswered + parity mismatch.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench import layers
from bench.loadgen import (
    ClosedLoopResult, OpenLoopResult, closed_loop, latency_summary,
    open_loop, schedule)
from bench.servers import MODEL_NAME, Server, ServerError
from bench.stats import median, percentile, tail_quantile
from bench.synth import Fleet, Stream, build_fleet, reply_matches
from bench.trace import SpanLog

from repro.obs import Observability
from repro.serve.registry import ModelRegistry
from repro.serve.service import PredictionService

__all__ = ["run", "run_traced"]

#: Offered rate of the open-loop workloads: a 5 000-VM fleet at the
#: paper's 5 s sampling interval, as Poisson arrivals (independent VMs
#: do not take turns).  Half the issue's 2000/s: at that rate the
#: 2-worker fabric keeps 1.2 of this host's 2 cores busy and its p95
#: swung by 0.3 of its median from run to run; at 1000/s by 0.13.
RATE = 1000.0
#: Warm-up traffic before the measured stream: a tenth of the measured
#: length, at most this.
WARMUP_SECONDS = 1.0
FRAME_SAMPLES = 64
WORKERS = 2
#: Samples streamed into the run-dir before the restarts.  A shard WAL
#: compacts after 8 x (2 rows x ~50 VMs) records, so both have by then.
POPULATE_SAMPLES = 4096
#: Samples streamed after each cold start (0.4 s at RATE; four per VM).
RESTART_SAMPLES = 400


class _Bench:
    """Set-up shared by the serving workloads."""

    def __init__(self, seed: int, seconds: float, work: Path,
                 spans: SpanLog) -> None:
        self.seed = seed
        self.work = work
        self.spans = spans
        self.warmup = min(WARMUP_SECONDS, seconds / 10.0)
        self.servers: List[Server] = []
        with spans.span("setup.synthesise_and_train"):
            self.fleet: Fleet = build_fleet(seed)
        with spans.span("setup.oracle"):
            self.fleet.build_oracle()
        vms = self.fleet.vms
        self.stream = Stream(self.fleet)
        # The closed loop's two connections: VMs split by index parity,
        # so each VM's samples stay on one connection.
        self.halves = [Stream(self.fleet, vms[0::2]),
                       Stream(self.fleet, vms[1::2])]
        with spans.span("setup.registry_save"):
            self.registry = work / "registry"
            ModelRegistry(self.registry).save(MODEL_NAME,
                                              self.fleet.predictors)

    def due(self, n: int) -> List[float]:
        """When the ``n`` requests of an open-loop stream are due."""
        return schedule(n, RATE, random.Random(self.seed))

    async def launch(self, kind: str) -> Server:
        server = Server(kind, self.registry, self.work, WORKERS)
        self.servers.append(server)
        with self.spans.span(f"setup.launch.{kind}"):
            await server.start()
        return server

    async def warm_open(self, server: Server) -> None:
        with self.spans.span("setup.warmup"):
            n = int(self.warmup * RATE)
            await open_loop(server.socket, self.stream.lines(0, n),
                            self.due(n))
            await server.control("reset")

    async def warm_closed(self, server: Server) -> None:
        with self.spans.span("setup.warmup"):
            await closed_loop(server.socket,
                              [half.frame for half in self.halves],
                              FRAME_SAMPLES, self.warmup)
            await server.control("reset")

    def kill_all(self) -> None:
        """End every server still running.  By now its replies are in
        hand, so nothing is gained by the 2 s a fabric takes to drain."""
        for server in self.servers:
            server.kill()

    def logs(self) -> str:
        return "\n".join(server.log() for server in self.servers)

    # ------------------------------------------------------------------
    def open_failures(self, result: OpenLoopResult, offset: int = 0,
                      all_scores: bool = False) -> int:
        failed = 0
        for i, reply in enumerate(result.replies):
            expected = self.stream.expected(offset + i)
            if all_scores and expected["kind"] != "score":
                failed += 1
            elif not reply_matches(expected, reply):
                failed += 1
        return failed

    def closed_failures(self, result: ClosedLoopResult,
                        streams: Optional[Sequence[Stream]] = None) -> int:
        """Mismatches of a closed-loop run whose connection ``c`` sent
        ``streams[c]`` (default: the two parity halves)."""
        streams = streams or self.halves
        failed = 0
        for frame in result.frames:
            replies = frame.reply.get("replies") or []
            half = streams[frame.connection]
            for k in range(frame.count):
                reply = replies[k] if k < len(replies) else None
                failed += not reply_matches(
                    half.expected(frame.start + k), reply)
        return failed


async def _open(kind: str, bench: _Bench, seconds: float, started: float
                ) -> Dict:
    server = await bench.launch(kind)
    await bench.warm_open(server)
    lines = bench.stream.lines(0, int(seconds * RATE))
    setup_s = time.perf_counter() - started
    cpu = sum(server.cpu())
    with bench.spans.span("open_loop", rate=RATE):
        result = await open_loop(server.socket, lines, bench.due(len(lines)))
    cpu = sum(server.cpu()) - cpu
    rss = server.peak_rss_mb()
    result.check_not_saturated()
    summary = latency_summary(result)
    return {
        "attempted": result.sent,
        "failed": bench.open_failures(result),
        "metrics": {
            "setup_s": setup_s,
            "samples_per_s": result.answered / result.wall,
            "cpu_us_per_sample": 1e6 * cpu / result.answered,
            "latency_p50_ms": summary["p50_ms"],
            "latency_tail_ms": summary["p95_ms"],
            "peak_rss_mb": rss,
        },
        "notes": {"late_p99_ms": summary["late_p99_ms"]},
    }


async def _batch_closed(bench: _Bench, seconds: float, started: float
                        ) -> Dict:
    server = await bench.launch("fabric")
    await bench.warm_closed(server)
    setup_s = time.perf_counter() - started
    cpu = sum(server.cpu())
    with bench.spans.span("closed_loop", connections=2):
        result = await closed_loop(
            server.socket, [half.frame for half in bench.halves],
            FRAME_SAMPLES, seconds)
    cpu = sum(server.cpu()) - cpu
    rss = server.peak_rss_mb()
    trips = result.round_trips()
    return {
        "attempted": result.samples,
        "failed": bench.closed_failures(result),
        "metrics": {
            "setup_s": setup_s,
            "samples_per_s": result.samples_per_s(),
            "cpu_us_per_sample": 1e6 * cpu / result.samples,
            "latency_p50_ms": 1e3 * median(trips),
            "latency_tail_ms": 1e3 * percentile(
                trips, tail_quantile(len(trips))),
            "peak_rss_mb": rss,
        },
        "notes": {"frames": len(trips)},
    }


async def _populate(bench: _Bench) -> int:
    """Fill a fabric run-dir and stop the fabric cleanly.  Returns the
    stream position the restarts continue from."""
    server = await bench.launch("fabric")
    with bench.spans.span("setup.populate", samples=POPULATE_SAMPLES):
        # Closed loop: a cold fabric takes the frames at its own pace.
        result = await closed_loop(
            server.socket, [bench.stream.frame], FRAME_SAMPLES,
            seconds=60.0, max_samples=POPULATE_SAMPLES)
        stats = await server.control("stats")
    server.stop()
    if (result.samples != POPULATE_SAMPLES
            or bench.closed_failures(result, [bench.stream])):
        raise ServerError("populating the run-dir lost parity")
    for shard in stats["shards"]:
        if shard["n_vms"] and shard["journal"]["compactions"] < 1:
            raise ServerError(
                f"shard {shard['index']} WAL never compacted while "
                f"populating: {shard['journal']}")
    return POPULATE_SAMPLES


async def _restart(bench: _Bench, seconds: float, started: float) -> Dict:
    position = await _populate(bench)
    setup_s = time.perf_counter() - started
    ready: List[float] = []
    cycle: List[float] = []
    cpu: List[float] = []
    rss: List[float] = []
    total: List[float] = []
    attempted = failed = 0
    budget = time.perf_counter() + seconds
    while not ready or time.perf_counter() + 0.5 * median(total) < budget:
        cycle_start = time.perf_counter()
        server = Server("fabric", bench.registry, bench.work, WORKERS)
        bench.servers.append(server)
        with bench.spans.span("restart.launch_to_pong"):
            ready.append(await server.start())
        lines = bench.stream.lines(position, RESTART_SAMPLES)
        with bench.spans.span("restart.stream"):
            result = await open_loop(server.socket, lines, bench.due(len(lines)))
        cycle.append(time.perf_counter() - server.launched_at)
        cpu.append(sum(server.cpu()))
        rss.append(server.peak_rss_mb())
        # The stream is answered and the fabric idle: every sample is
        # in the WAL (appends are flushed to the OS as they happen), so
        # the next cold start finds the same files whether this one is
        # drained or killed.  Killing takes 10 ms, draining 2 s — a
        # fifth of the run's window.
        server.kill()
        attempted += result.sent
        failed += bench.open_failures(result, position, all_scores=True)
        position += RESTART_SAMPLES
        total.append(time.perf_counter() - cycle_start)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": setup_s,
            "samples_per_s": RESTART_SAMPLES / median(cycle),
            "cpu_us_per_sample": 1e6 * median(cpu) / RESTART_SAMPLES,
            "latency_p50_ms": 1e3 * median(ready),
            "latency_tail_ms": 1e3 * percentile(
                ready, tail_quantile(len(ready))),
            "peak_rss_mb": max(rss),
        },
        "notes": {"restarts": len(ready), "ready_s": ready},
    }


def run(name: str, seed: int, seconds: float, started: float, work: Path,
        spans: SpanLog) -> Dict:
    """One untraced serving workload; end-to-end metrics."""
    bench = _Bench(seed, seconds, work, spans)

    async def main() -> Dict:
        if name == "serve_open":
            return await _open("serve", bench, seconds, started)
        if name == "fabric_open":
            return await _open("fabric", bench, seconds, started)
        if name == "fabric_batch_closed":
            return await _batch_closed(bench, seconds, started)
        return await _restart(bench, seconds, started)

    return _guarded(bench, main)


def _guarded(bench: _Bench, main) -> Dict:
    try:
        return asyncio.run(main())
    except BaseException:
        print(bench.logs(), flush=True)
        raise
    finally:
        bench.kill_all()


# ----------------------------------------------------------------------
# Traced passes
# ----------------------------------------------------------------------
class _StatsPoller:
    """Polls the ``stats`` op at 10 Hz on a connection of its own."""

    def __init__(self, server: Server) -> None:
        self.server = server
        self.seen: List[Dict] = []
        self._task: Optional[asyncio.Task] = None

    async def __aenter__(self) -> "_StatsPoller":
        self._task = asyncio.create_task(self._poll())
        return self

    async def __aexit__(self, *exc) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self.seen.append(await self.server.control("stats"))

    async def _poll(self) -> None:
        reader, writer = await asyncio.open_unix_connection(
            self.server.socket, limit=1 << 20)
        try:
            while True:
                writer.write(b'{"op": "stats"}\n')
                await writer.drain()
                self.seen.append(json.loads(await reader.readline()))
                await asyncio.sleep(0.1)
        finally:
            writer.close()

    # -- summaries ------------------------------------------------------
    def service(self) -> Dict[str, float]:
        return {
            "service.pending_max": max(s["pending"] for s in self.seen),
            "service.sheds": self.seen[-1]["sheds"] - self.seen[0]["sheds"],
        }

    def fabric(self) -> Dict[str, float]:
        first, last = self.seen[0]["shards"], self.seen[-1]["shards"]
        routed = [b["journal"]["appended"] - a["journal"]["appended"]
                  for a, b in zip(first, last)]
        mean = sum(routed) / len(routed)
        return {
            "fabric.outq_max": max(
                sh["outq"] for s in self.seen for sh in s["shards"]),
            "fabric.inflight_max": max(
                sh["inflight"] for s in self.seen for sh in s["shards"]),
            "fabric.shard_skew": max(routed) / mean - 1.0 if mean else 0.0,
            "journal.compactions": sum(
                b["journal"]["compactions"] - a["journal"]["compactions"]
                for a, b in zip(first, last)),
            "supervisor.restarts": sum(sh["restarts"] for sh in last),
        }


def _loadgen_metrics(result: OpenLoopResult) -> Dict[str, float]:
    summary = latency_summary(result)
    backlog = result.backlog()
    return {
        "loadgen.late_p99_ms": summary["late_p99_ms"],
        "loadgen.latency_p99_ms": summary["p99_ms"],
        "loadgen.latency_max_ms": summary["max_ms"],
        "loadgen.sent": result.sent,
        "loadgen.answered": result.answered,
        "loadgen.backlog_growth": backlog[-1] - backlog[0],
    }


def _cpu_split(server: Server, before: Tuple[float, float], samples: int
               ) -> Dict[str, float]:
    own, children = server.cpu()
    return {
        "fabric.router_cpu_us_per_sample":
            1e6 * (own - before[0]) / samples,
        "fabric.worker_cpu_us_per_sample":
            1e6 * (children - before[1]) / samples,
    }


async def _in_process_service(bench: _Bench, lines: Sequence[bytes]
                              ) -> Dict[str, float]:
    """The same lines through a ``PredictionService(obs=...)`` in this
    process, read back through the instruments it already has."""
    obs = Observability()
    service = PredictionService(bench.fleet.predictors, obs=obs)
    path = str(bench.work / "inproc.sock")
    await service.start(path=path)
    try:
        with bench.spans.span("serve.service.in_process") as parent:
            started = time.perf_counter()
            await open_loop(path, lines, bench.due(len(lines)))
            wall = time.perf_counter() - started
        # Let the service see the generator hang up before it stops.
        await asyncio.sleep(0.05)
    finally:
        await service.stop()
    flushes = obs.tracer.spans("serve.flush")
    for sp in flushes:
        bench.spans.add(sp.name, sp.wall_start, sp.wall_end, parent,
                        batch=sp.attributes.get("batch"))
    latency = obs.metrics.get("serve_score_seconds")
    n_flushes = obs.metrics.get("serve_batch_size").count()
    return {
        "service.batch_size_mean": latency.count() / n_flushes,
        "service.enqueue_to_reply_p50_ms": 1e3 * latency.percentile(50.0),
        "service.enqueue_to_reply_p95_ms": 1e3 * latency.percentile(95.0),
        "service.flush_busy_share":
            sum(sp.wall_duration for sp in flushes) / wall,
    }


def _score_us_at(batch_size: float, probe: Dict[str, float]) -> float:
    """Scorer cost per sample at ``batch_size``, interpolated between
    the probed sizes on a log scale."""
    points = [(1, probe["fleet.score_us_per_sample.b1"]),
              (8, probe["fleet.score_us_per_sample.b8"]),
              (64, probe["fleet.score_us_per_sample.b64"])]
    size = min(max(batch_size, 1.0), 64.0)
    for (lo, y_lo), (hi, y_hi) in zip(points, points[1:]):
        if size <= hi:
            t = (math.log(size) - math.log(lo)) / (math.log(hi)
                                                   - math.log(lo))
            return y_lo + t * (y_hi - y_lo)
    return points[-1][1]


async def _trace_serve_open(bench: _Bench, seconds: float) -> Dict:
    server = await bench.launch("serve")
    await bench.warm_open(server)
    lines = bench.stream.lines(0, int(0.5 * seconds * RATE))
    cpu = sum(server.cpu())
    async with _StatsPoller(server) as poller:
        with bench.spans.span("open_loop", rate=RATE):
            result = await open_loop(server.socket, lines, bench.due(len(lines)))
    cpu = sum(server.cpu()) - cpu
    server.kill()
    result.check_not_saturated()
    metrics = _loadgen_metrics(result)
    metrics.update(poller.service())
    metrics.update(await _in_process_service(bench, lines))
    protocol = layers.protocol_probe(
        bench.stream, layers.score_replies(result.replies), bench.spans)
    fleet = layers.fleet_probe(bench.fleet.predictors,
                               layers.fleet_items(bench.fleet), bench.spans)
    metrics.update(protocol)
    metrics.update(fleet)
    attributed = (protocol["protocol.decode_sample_us"]
                  + _score_us_at(metrics["service.batch_size_mean"], fleet)
                  + protocol["protocol.encode_reply_us"])
    metrics["service.unattributed_us_per_sample"] = (
        1e6 * cpu / result.answered - attributed)
    metrics.update(layers.registry_probe(
        bench.fleet, bench.work / "probe-registry", bench.spans))
    vm = bench.fleet.vms[0]
    metrics.update(layers.predictor_probe(
        *bench.fleet.training[vm], bench.fleet.predictors[vm].attributes,
        bench.spans))
    return {"attempted": result.sent,
            "failed": bench.open_failures(result), "metrics": metrics}


async def _trace_fabric_open(bench: _Bench, seconds: float) -> Dict:
    fabric = await bench.launch("fabric")
    await bench.warm_open(fabric)
    lines = bench.stream.lines(0, int(0.5 * seconds * RATE))
    before = fabric.cpu()
    async with _StatsPoller(fabric) as poller:
        with bench.spans.span("open_loop.fabric", rate=RATE):
            through_fabric = await open_loop(fabric.socket, lines, bench.due(len(lines)))
    metrics = _cpu_split(fabric, before, through_fabric.answered)
    fabric.kill()
    through_fabric.check_not_saturated()

    serve = await bench.launch("serve")
    await bench.warm_open(serve)
    # Polled like the fabric leg, so the two differ only in the server.
    async with _StatsPoller(serve):
        with bench.spans.span("open_loop.serve", rate=RATE):
            direct = await open_loop(serve.socket, lines, bench.due(len(lines)))
    serve.kill()
    direct.check_not_saturated()

    a, b = latency_summary(through_fabric), latency_summary(direct)
    metrics["fabric.hop_tax_p50_ms"] = a["p50_ms"] - b["p50_ms"]
    metrics["fabric.hop_tax_p95_ms"] = a["p95_ms"] - b["p95_ms"]
    metrics.update(_loadgen_metrics(through_fabric))
    metrics.update(poller.fabric())
    metrics.update(layers.protocol_probe(
        bench.stream, layers.score_replies(through_fabric.replies),
        bench.spans))
    metrics.update(layers.journal_probe(
        bench.stream, bench.work / "probe.wal", bench.spans))
    metrics.update(layers.shard_ring_probe(
        bench.fleet.vms, WORKERS, bench.spans))
    metrics.update(await layers.supervisor_probe(
        str(bench.registry), str(bench.work / "probe-worker.sock"),
        bench.fleet.vms[0::2], bench.spans))
    failed = (bench.open_failures(through_fabric)
              + bench.open_failures(direct))
    return {"attempted": through_fabric.sent + direct.sent,
            "failed": failed, "metrics": metrics}


async def _trace_batch_closed(bench: _Bench, seconds: float) -> Dict:
    frames = [half.frame for half in bench.halves]
    fabric = await bench.launch("fabric")
    await bench.warm_closed(fabric)
    before = fabric.cpu()
    async with _StatsPoller(fabric) as poller:
        with bench.spans.span("closed_loop.fabric"):
            through_fabric = await closed_loop(
                fabric.socket, frames, FRAME_SAMPLES, 0.5 * seconds)
    metrics = _cpu_split(fabric, before, through_fabric.samples)
    fabric.kill()

    serve = await bench.launch("serve")
    await bench.warm_closed(serve)
    with bench.spans.span("closed_loop.serve"):
        direct = await closed_loop(
            serve.socket, frames, FRAME_SAMPLES, 0.5 * seconds)
    serve.kill()

    metrics["service.closed_scores_per_s"] = direct.samples_per_s()
    metrics["fabric.vs_service_throughput"] = (
        through_fabric.samples_per_s() / direct.samples_per_s())
    metrics.update(poller.fabric())
    metrics.update(layers.fleet_probe(
        bench.fleet.predictors, layers.fleet_items(bench.fleet),
        bench.spans))
    replies = [r for f in through_fabric.frames[:16]
               for r in f.reply.get("replies", ())]
    metrics.update(layers.protocol_probe(
        bench.stream, layers.score_replies(replies), bench.spans))
    metrics.update(layers.journal_probe(
        bench.stream, bench.work / "probe.wal", bench.spans))
    failed = (bench.closed_failures(through_fabric)
              + bench.closed_failures(direct))
    return {"attempted": through_fabric.samples + direct.samples,
            "failed": failed, "metrics": metrics}


async def _trace_restart(bench: _Bench, seconds: float) -> Dict:
    result = await _restart(bench, seconds, time.perf_counter())
    # The WAL a restart has to read: reopen a copy of shard 0's.
    wal = bench.work / "fabric-run" / "shard-0.wal"
    copy = bench.work / "probe-open.wal"
    shutil.copyfile(wal, copy)
    metrics = layers.journal_open_probe(bench.stream, copy, bench.spans)
    metrics.update(layers.registry_probe(
        bench.fleet, bench.work / "probe-registry", bench.spans))
    metrics.update(await layers.supervisor_probe(
        str(bench.registry), str(bench.work / "probe-worker.sock"),
        bench.fleet.vms[0::2], bench.spans))
    metrics["loadgen.sent"] = metrics["loadgen.answered"] = float(
        result["attempted"])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def run_traced(name: str, seed: int, seconds: float, work: Path,
               spans: SpanLog) -> Dict:
    """One traced serving workload; per-layer metrics."""
    bench = _Bench(seed, seconds, work, spans)
    tracer = {
        "serve_open": _trace_serve_open,
        "fabric_open": _trace_fabric_open,
        "fabric_batch_closed": _trace_batch_closed,
        "fabric_restart": _trace_restart,
    }[name]
    return _guarded(bench, lambda: tracer(bench, seconds))
