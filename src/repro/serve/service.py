"""Streaming prediction service with a micro-batching dispatcher.

The server speaks the :mod:`repro.serve.protocol` newline-JSON
protocol over TCP or a unix socket.  Each arriving sample appends to
its VM's trailing history (so history order is arrival order, exactly
like the offline controller) and is queued for scoring; a single
dispatcher task coalesces everything queued within one
``batch_window`` into a :class:`FleetScorer` call that propagates all
pending VMs' chains as **one** stacked-tensor contraction — the PR-1
vectorized engine applied across the fleet instead of per VM.  The
window gathers single ``sample`` lines; a ``batch`` line brings its
samples at once, so they are flushed as soon as the line is enqueued.  The
scorer itself lives in :mod:`repro.core.fleet`, shared with the
offline controller's fleet-batched tick.

Scoring a sample batched is bitwise-identical to scoring it alone:
the stacked operator's einsum reductions are independent along the
attribute axis, and :class:`FleetScorer` is the one scoring path —
:meth:`AnomalyPredictor.predict` answers through a one-VM scorer.
``serve_check.py`` and the replay harness assert alert parity against
the offline controller end to end.

Overload is explicit, never silent: when the pending queue is full
the service immediately answers ``shed`` (the sample still extends
the VM's history — it was observed; only its scoring is skipped), and
``drain`` acts as a barrier that flushes every queued sample before
replying.

Three ops exist for the sharded serving fabric
(:mod:`repro.serve.fabric`): ``observe`` extends a VM's history
without scoring, ``reset`` clears every trailing history (the fabric
resets a worker before rehydrating it from the shard WAL so a
recovered worker scores bitwise-identically), and ``batch`` processes
many samples from one wire line, amortizing per-line framing cost.

Hostile input is bounded: lines longer than
:attr:`ServiceConfig.max_line_bytes` get a typed error and the
connection is closed (the stream cannot be resynced), NUL bytes and
malformed frames get typed errors, and a connection idle longer than
:attr:`ServiceConfig.read_timeout` is closed instead of pinning a
reader task forever (half-open connection defense).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.core.fleet import FleetScorer
from repro.core.predictor import AnomalyPredictor
from repro.obs import NULL_OBS, Observability
from repro.serve.alarms import AlarmManager
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    _BatchReply,
    check_steps,
    decode_line,
    encode_message,
)

__all__ = ["FleetScorer", "PredictionService", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the streaming service."""

    #: default look-ahead steps for ``sample`` ops without ``steps``
    steps: int = 4
    #: seconds the dispatcher waits after the first queued sample
    #: before flushing, to let a batch accumulate
    batch_window: float = 0.002
    #: flush at most this many samples per scorer call
    max_batch: int = 128
    #: queued samples beyond this are answered with ``shed``
    max_pending: int = 1024
    #: abnormal scores at or above this probability raise a
    #: ``critical`` alarm instead of a ``warning`` (alarms wired only)
    alarm_critical_probability: float = 0.95
    #: longest accepted request line; longer lines get a typed error
    #: reply and the connection is closed
    max_line_bytes: int = 1 << 20
    #: seconds a connection may sit idle before it is closed as
    #: half-open (0 disables the timeout)
    read_timeout: float = 900.0

    def __post_init__(self) -> None:
        check_steps(self.steps)


@dataclass
class _Pending:
    """One queued sample awaiting the dispatcher."""

    vm: str
    recent: np.ndarray
    steps: int
    msg_id: object
    writer: asyncio.StreamWriter
    lock: asyncio.Lock
    batch: Optional[_BatchReply] = None
    slot: int = 0
    enqueued_at: float = field(default_factory=time.perf_counter)


class PredictionService:
    """Asyncio newline-JSON scoring server over a trained fleet."""

    def __init__(
        self,
        predictors: Dict[str, AnomalyPredictor],
        config: Optional[ServiceConfig] = None,
        obs: Optional[Observability] = None,
        alarms: Optional[AlarmManager] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.scorer = FleetScorer(predictors)
        self.obs = obs if obs is not None else NULL_OBS
        # Optional operator alarms: None (the default) leaves every
        # reply and decision byte-identical to an alarm-free service —
        # the only hook is a guarded raise after a score is abnormal.
        self.alarms = alarms
        self._last_seen: Dict[str, float] = {}
        self._histories: Dict[str, Deque[List[float]]] = {
            vm: deque(maxlen=p.history_needed)
            for vm, p in self.scorer.predictors.items()
        }
        self._pending: Deque[_Pending] = deque()
        self._wake = asyncio.Event()
        #: the dispatcher's accumulation wait, and whether a ``batch``
        #: line has asked to skip it
        self._window: Optional[asyncio.Future] = None
        self._flush_now = False
        self._busy = False
        self._n_samples = 0
        self._n_scores = 0
        self._n_sheds = 0
        self._n_observed = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        m = self.obs.metrics
        self._m_samples = m.counter(
            "serve_samples_total", "Sample requests received")
        self._m_observed = m.counter(
            "serve_observed_total",
            "Observe requests (history extended without scoring)")
        self._m_replies = m.counter(
            "serve_replies_total", "Replies sent by kind",
            labelnames=("kind",))
        self._m_alerts = m.counter(
            "serve_alerts_total", "Score replies flagged abnormal")
        self._m_depth = m.gauge(
            "serve_queue_depth", "Samples queued for the dispatcher")
        self._m_batch = m.histogram(
            "serve_batch_size", "Samples per dispatcher flush",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256))
        self._m_latency = m.histogram(
            "serve_score_seconds", "Enqueue-to-reply latency per sample")
        #: registry version of the serving fleet (None when unknown);
        #: ``repro serve`` sets it and ``/models`` reports it
        self.champion_version: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        path: Optional[str] = None,
    ) -> None:
        """Listen on ``host:port`` (TCP) or ``path`` (unix socket)."""
        if self._server is not None:
            raise RuntimeError("service is already started")
        if (path is None) == (host is None):
            raise ValueError("pass either host+port or a unix-socket path")
        if path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=path,
                limit=self.config.max_line_bytes)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port,
                limit=self.config.max_line_bytes)
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop accepting, drain queued samples, then shut down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.drain()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None

    async def drain(self) -> None:
        """Wait until every queued sample has been scored and replied."""
        while self._pending or self._busy:
            await asyncio.sleep(0.001)

    def stats(self) -> Dict:
        return {
            "version": PROTOCOL_VERSION,
            "n_vms": self.scorer.n_vms,
            "pending": len(self._pending),
            "stacked": self.scorer.stacked,
            "samples": self._n_samples,
            "scores": self._n_scores,
            "sheds": self._n_sheds,
            "observed": self._n_observed,
        }

    def reset_histories(self) -> int:
        """Clear every VM's trailing history (fabric rehydration)."""
        self._histories = {
            vm: deque(maxlen=p.history_needed)
            for vm, p in self.scorer.predictors.items()
        }
        self._last_seen.clear()
        return len(self._histories)

    def fleet_status(self) -> List[Dict]:
        """Per-VM health rows for the operator API's fleet view.

        ``warm`` says whether the VM's trailing history is full enough
        to score; ``staleness_seconds`` is the time since its last
        sample (None before the first one arrives).
        """
        now = time.monotonic()
        rows: List[Dict] = []
        for vm in sorted(self.scorer.predictors):
            predictor = self.scorer.predictors[vm]
            history = self._histories.get(vm, ())
            last = self._last_seen.get(vm)
            rows.append({
                "vm": vm,
                "have": len(history),
                "need": predictor.history_needed,
                "warm": len(history) >= predictor.history_needed,
                "staleness_seconds": (
                    None if last is None else max(0.0, now - last)
                ),
            })
        return rows

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        lock = asyncio.Lock()
        timeout = self.config.read_timeout
        # Half-open protection without a wait_for (= Task + timer) per
        # line: one idle watchdog per connection closes the transport
        # when nothing arrives inside the window, which unblocks the
        # plain readline below with EOF / a reset.
        last_seen = time.monotonic()
        watchdog: Optional[asyncio.Task] = None
        if timeout > 0:
            async def _idle_watch() -> None:
                while True:
                    remaining = last_seen + timeout - time.monotonic()
                    if remaining <= 0:
                        writer.close()
                        return
                    await asyncio.sleep(remaining + 0.005)
            watchdog = asyncio.create_task(_idle_watch())
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the reader limit; the stream cannot
                    # be resynced safely, so error out and close.
                    await self._reply(writer, lock, {
                        "ok": False, "kind": "error",
                        "error": (f"line exceeds "
                                  f"{self.config.max_line_bytes} bytes")})
                    break
                if not line:
                    break
                last_seen = time.monotonic()
                if not line.strip():
                    continue
                try:
                    message = decode_line(line)
                except ProtocolError as exc:
                    await self._reply(writer, lock, {
                        "ok": False, "kind": "error", "error": str(exc)})
                    continue
                await self._handle_message(message, writer, lock)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            if watchdog is not None:
                watchdog.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_message(
        self,
        message: Dict,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        op = message["op"]
        msg_id = message.get("id")
        if op == "ping":
            reply = {"ok": True, "kind": "pong",
                     "version": PROTOCOL_VERSION}
        elif op == "stats":
            reply = {"ok": True, "kind": "stats", **self.stats()}
        elif op == "drain":
            await self.drain()
            reply = {"ok": True, "kind": "drained", "pending": 0}
        elif op == "reset":
            reply = {"ok": True, "kind": "reset",
                     "n_vms": self.reset_histories()}
        elif op == "batch":
            batch = _BatchReply(writer, lock, msg_id,
                                len(message["samples"]))
            for slot, sample in enumerate(message["samples"]):
                await self._handle_sample(
                    sample, writer, lock, batch=batch, slot=slot)
            if self._pending:
                # The line is all that is coming: flush without waiting
                # out the window.
                self._flush_now = True
                self._end_window()
            return
        else:  # sample / observe
            await self._handle_sample(message, writer, lock)
            return
        if msg_id is not None:
            reply["id"] = msg_id
        await self._reply(writer, lock, reply)

    async def _handle_sample(
        self,
        message: Dict,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        batch: Optional[_BatchReply] = None,
        slot: int = 0,
    ) -> None:
        observe = message["op"] == "observe"
        if observe:
            self._m_observed.inc()
            self._n_observed += 1
        else:
            self._m_samples.inc()
            self._n_samples += 1
        vm = message["vm"]
        msg_id = message.get("id")
        predictor = self.scorer.predictors.get(vm)
        if predictor is None:
            await self._deliver(writer, lock, batch, slot, {
                "ok": False, "kind": "error", "id": msg_id, "vm": vm,
                "error": f"unknown vm {vm!r}"})
            return
        values = message["values"]
        if len(values) != len(predictor.attributes):
            await self._deliver(writer, lock, batch, slot, {
                "ok": False, "kind": "error", "id": msg_id, "vm": vm,
                "error": (f"expected {len(predictor.attributes)} values, "
                          f"got {len(values)}")})
            return
        history = self._histories[vm]
        history.append(values)
        self._last_seen[vm] = time.monotonic()
        if observe:
            await self._deliver(writer, lock, batch, slot, {
                "ok": True, "kind": "observed", "id": msg_id, "vm": vm,
                "have": len(history)})
            return
        if len(history) < predictor.history_needed:
            await self._deliver(writer, lock, batch, slot, {
                "ok": True, "kind": "warmup", "id": msg_id, "vm": vm,
                "have": len(history), "need": predictor.history_needed})
            return
        if len(self._pending) >= self.config.max_pending:
            await self._deliver(writer, lock, batch, slot, {
                "ok": False, "kind": "shed", "id": msg_id, "vm": vm,
                "reason": f"queue full ({self.config.max_pending} pending)"})
            self._n_sheds += 1
            return
        self._pending.append(_Pending(
            vm=vm,
            recent=np.asarray(history, dtype=float),
            steps=int(message.get("steps") or self.config.steps),
            msg_id=msg_id,
            writer=writer,
            lock=lock,
            batch=batch,
            slot=slot,
        ))
        self._m_depth.set(len(self._pending))
        self._wake.set()

    async def _deliver(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        batch: Optional[_BatchReply],
        slot: int,
        message: Dict,
    ) -> None:
        """Send a per-sample reply directly, or into its batch slot."""
        if batch is None:
            await self._reply(writer, lock, message)
            return
        combined = batch.set(slot, message)
        if combined is not None:
            await self._reply(batch.writer, batch.lock, combined)

    async def _reply(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        message: Dict,
    ) -> None:
        async with lock:
            try:
                writer.write(encode_message(message))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return
        self._m_replies.inc(kind=message.get("kind", "error"))

    # ------------------------------------------------------------------
    # Micro-batching dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            if not self._pending:
                continue
            # Let single samples accumulate across connections, then
            # flush; a batch line that has been enqueued ends the wait.
            if len(self._pending) < self.config.max_batch and not (
                self._flush_now
            ):
                self._window = loop.create_future()
                timer = loop.call_later(
                    self.config.batch_window, self._end_window)
                try:
                    await self._window
                finally:
                    timer.cancel()
                    self._window = None
            while self._pending:
                batch = [
                    self._pending.popleft()
                    for _ in range(
                        min(len(self._pending), self.config.max_batch)
                    )
                ]
                self._m_depth.set(len(self._pending))
                await self._flush(batch)
            self._flush_now = False

    def _end_window(self) -> None:
        if self._window is not None and not self._window.done():
            self._window.set_result(None)

    async def _flush(self, batch: List[_Pending]) -> None:
        self._busy = True
        try:
            self._m_batch.observe(len(batch))
            with self.obs.span("serve.flush", batch=len(batch)):
                try:
                    results = self.scorer.score(
                        [(p.vm, p.recent, p.steps) for p in batch]
                    )
                except Exception as exc:  # pragma: no cover - defensive
                    for p in batch:
                        await self._deliver(p.writer, p.lock, p.batch, p.slot, {
                            "ok": False, "kind": "error", "id": p.msg_id,
                            "vm": p.vm, "error": f"scoring failed: {exc}"})
                    return
            now = time.perf_counter()
            self._n_scores += len(batch)
            for p, r in zip(batch, results):
                self._m_latency.observe(now - p.enqueued_at)
                if r.abnormal:
                    self._m_alerts.inc()
                    if self.alarms is not None:
                        severity = (
                            "critical" if r.probability
                            >= self.config.alarm_critical_probability
                            else "warning"
                        )
                        self.alarms.raise_alarm(
                            p.vm, "anomaly", severity=severity,
                            message=f"abnormal score for {p.vm}",
                            probability=float(r.probability),
                            score=float(r.score),
                        )
                await self._deliver(p.writer, p.lock, p.batch, p.slot, {
                    "ok": True,
                    "kind": "score",
                    "id": p.msg_id,
                    "vm": p.vm,
                    "abnormal": bool(r.abnormal),
                    "probability": r.probability,
                    "score": r.score,
                    "steps": r.steps,
                })
        finally:
            self._busy = False
