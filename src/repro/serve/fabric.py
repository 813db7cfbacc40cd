"""Fault-tolerant sharded serving fabric: router, failover, rollover.

Topology::

    clients ──► ServingFabric (router, one asyncio process)
                  │  consistent-hash ring: vm → shard
                  │  per-shard WAL (journal.py) written BEFORE forwarding
                  ├── unix socket ──► worker 0  (PredictionService, shard 0)
                  ├── unix socket ──► worker 1  (PredictionService, shard 1)
                  └── unix socket ──► worker N  (spawn-context processes)

The router speaks the same newline-JSON protocol as a single
:class:`~repro.serve.service.PredictionService`, so every existing
client (``serve_check``, the replay harness, the operator API) works
against a fabric unchanged.  A client frame — one ``sample`` line, or
a ``batch`` line of up to :data:`MAX_BATCH_SAMPLES` — is routed in one
pass:

1. every sample is validated locally (unknown VM / wrong arity get
   the *same* typed error a single service sends) and grouped by its
   VM's shard; the counters move once per frame,
2. each shard's group is appended to that shard's WAL in one write and
   one flush — the journal's in-memory tails hold exactly
   ``history_needed`` trailing samples per VM, which is all a
   restarted worker needs to score **bitwise-identically**,
3. the group joins the shard's send queue, whose sender forwards
   everything queued as one ``batch`` line; a worker flushes a
   ``batch`` line as soon as it is enqueued, without waiting out its
   micro-batch window.

The hop to a worker is compact JSON spliced from the journal's
records: the WAL write of step 2 hands back each sample's
``{"vm":...,"values":[...]`` text, and the sender only appends
``"op"`` (and ``"steps"``) and joins the samples into one line, so a
sample's values are encoded once in the router.  Key order and
spacing on the hop are not a contract: the worker parses and
validates every line with :func:`~repro.serve.protocol.decode_line`.

**Failover.**  When a worker dies or hangs (heartbeat deadline,
bounded pending lag, process exit), the router sheds its shard
explicitly — in-flight and queued samples get ``shed`` replies with
their original ids, new samples are journaled then shed — and a
``critical`` per-shard alarm is raised.  The supervisor restarts the
worker with exponential backoff; the fresh process is rehydrated from
the WAL (``reset`` + ``observe`` of the retained tails) before the
shard resumes, so post-recovery scores equal an uninterrupted run's.
The alarm auto-resolves on recovery.

**Zero-downtime rollover.**  :meth:`ServingFabric.rollover` blue/green
swaps each shard behind a drain barrier: the green worker (new
registry version) starts first, the shard is paused for one event-loop
tick to snapshot its tails, the blue worker drains, green hydrates
from the snapshot, connections swap, and the paused samples flush to
green in order.  The registry's champion pointer moves only after
*every* shard swapped — a crash mid-rollover leaves the pointer
intact — and the displaced blue workers stay alive as standbys so
:meth:`ServingFabric.rollback` is instant.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.obs import NULL_OBS, Observability
from repro.serve.alarms import AlarmManager
from repro.serve.journal import ShardJournal, iter_wal_records
from repro.serve.protocol import (
    MAX_BATCH_SAMPLES,
    PROTOCOL_VERSION,
    ProtocolError,
    _BatchReply,
    check_steps,
    decode_line,
    encode_message,
)
from repro.serve.registry import ModelRegistry
from repro.serve.supervisor import (
    SupervisorConfig,
    WorkerHandle,
    WorkerSpec,
    WorkerSupervisor,
)

__all__ = ["FabricConfig", "FabricError", "ServingFabric", "shard_ring"]


class FabricError(RuntimeError):
    """The fabric could not start, route, or roll over."""


@dataclass(frozen=True)
class FabricConfig:
    """Tunables of the sharded serving fabric."""

    #: registry snapshot name the workers serve
    model_name: str = "fleet"
    #: concrete version; None → champion pointer (falling back to the
    #: latest stored version)
    version: Optional[int] = None
    #: worker processes (= shards)
    n_workers: int = 3
    #: default look-ahead steps (forwarded to workers)
    steps: int = 4
    #: worker micro-batch window / sizes (see ServiceConfig)
    batch_window: float = 0.002
    max_batch: int = 128
    max_pending: int = 1024
    #: samples coalesced into one upstream ``batch`` line
    forward_batch: int = MAX_BATCH_SAMPLES
    #: client-facing line/idle bounds (same semantics as ServiceConfig)
    max_line_bytes: int = 1 << 20
    read_timeout: float = 900.0
    #: seconds to wait for a spawned worker to accept + pong
    ready_timeout: float = 30.0
    #: deadline for control ops (drain/reset/hydration) per shard
    control_timeout: float = 60.0
    #: virtual nodes per shard on the consistent-hash ring
    ring_replicas: int = 64
    #: WAL auto-compaction factor (see ShardJournal)
    compact_factor: int = 8
    #: supervision policy
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)

    def __post_init__(self) -> None:
        check_steps(self.steps)


def shard_ring(
    vms: List[str], n_shards: int, replicas: int = 64
) -> Dict[str, int]:
    """Consistent-hash assignment of VMs to shards.

    Each shard contributes ``replicas`` virtual points on a ring keyed
    by SHA-256; a VM maps to the first point at or after its own hash.
    Deterministic across runs and processes (no PYTHONHASHSEED
    dependence), and adding/removing one shard only remaps the VMs
    whose arc it owned.
    """
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    points: List[Tuple[int, int]] = []
    for shard in range(n_shards):
        for replica in range(replicas):
            digest = hashlib.sha256(
                f"shard-{shard}:{replica}".encode()).hexdigest()
            points.append((int(digest[:16], 16), shard))
    points.sort()
    keys = [p[0] for p in points]
    out: Dict[str, int] = {}
    for vm in vms:
        h = int(hashlib.sha256(vm.encode("utf-8")).hexdigest()[:16], 16)
        idx = bisect_right(keys, h) % len(points)
        out[vm] = points[idx][1]
    return out


@dataclass(frozen=True)
class _VMMeta:
    """What the router needs to validate + journal one VM locally."""

    n_attrs: int
    history_needed: int


@dataclass
class _Entry:
    """One sample en route to (or shed from) a shard worker."""

    op: str  # "sample" | "observe"
    vm: str
    values: List[float]
    steps: Optional[int]
    orig_id: object
    writer: asyncio.StreamWriter
    lock: asyncio.Lock
    batch: Optional[_BatchReply] = None
    slot: int = 0
    #: the journal's record text, ``{"vm":...,"values":[...]``
    record: str = ""


def _hop_sample(record: str, op: str, steps: Optional[int]) -> str:
    """One sample's hop object spliced from its journal record, left
    open (no closing brace) so a lone sample can take an ``id``."""
    if steps is None:
        return f'{record},"op":"{op}"'
    return f'{record},"op":"{op}","steps":{steps}'


def _batch_line(iid: int, samples: Sequence[str]) -> bytes:
    """One upstream ``batch`` line over open :func:`_hop_sample`
    objects."""
    return (f'{{"op":"batch","id":{iid},"samples":['
            + "},".join(samples) + "}]}\n").encode("utf-8")


def _hop_line(iid: int, samples: Sequence[str]) -> bytes:
    """The upstream line for queued samples: a lone sample goes as
    itself, so it still gathers inside the worker's window; more go
    as one ``batch``."""
    if len(samples) == 1:
        return f'{samples[0]},"id":{iid}}}\n'.encode("utf-8")
    return _batch_line(iid, samples)


# Shard states.  PAUSED only happens inside a rollover window: the
# sender keeps flushing pre-pause samples to blue while new arrivals
# buffer for green.
_STARTING = "starting"
_UP = "up"
_PAUSED = "paused"
_DOWN = "down"


class _Shard:
    """Router-side state of one worker shard."""

    def __init__(
        self, index: int, vms: FrozenSet[str], journal: ShardJournal
    ) -> None:
        self.index = index
        self.vms = vms
        self.journal = journal
        self.version: Optional[int] = None
        self.state = _STARTING
        self.handle: Optional[WorkerHandle] = None
        self.spec: Optional[WorkerSpec] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        #: bumped on every connection swap; sender/reader tasks carry
        #: the epoch they were started for and exit when it moves on,
        #: so a deliberate swap never masquerades as a crash
        self.epoch = 0
        self.outq: Deque[_Entry] = deque()
        self.inflight: Dict[int, Dict] = {}
        self.send_wake = asyncio.Event()
        self.pause_buffer: List[_Entry] = []
        self.tasks: List[asyncio.Task] = []
        #: displaced blue worker kept alive for instant rollback:
        #: (handle, spec, version)
        self.standby: Optional[Tuple[WorkerHandle, WorkerSpec, int]] = None
        self.restarts = 0


class ServingFabric:
    """Front-end router + supervised worker fleet over one registry."""

    def __init__(
        self,
        registry: ModelRegistry,
        run_dir: Path | str,
        config: Optional[FabricConfig] = None,
        obs: Optional[Observability] = None,
        alarms: Optional[AlarmManager] = None,
    ) -> None:
        self.registry = registry
        self.run_dir = Path(run_dir)
        self.config = config or FabricConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.alarms = alarms
        self.shards: List[_Shard] = []
        self.supervisor: Optional[WorkerSupervisor] = None
        self._meta: Dict[str, _VMMeta] = {}
        self._shard_of: Dict[str, int] = {}
        self._version: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._next_iid = 0
        self._n_samples = 0
        self._n_observed = 0
        self._n_sheds = 0
        m = self.obs.metrics
        self._m_samples = m.counter(
            "fabric_samples_total", "Samples routed through the fabric")
        self._m_observed = m.counter(
            "fabric_observed_total", "Observe requests routed")
        self._m_sheds = m.counter(
            "fabric_sheds_total", "Samples shed by the router",
            labelnames=("reason",))
        self._m_shard_up = m.gauge(
            "fabric_shard_up", "Shard serving state (1 up / 0 down)",
            labelnames=("shard",))
        self._m_restarts = m.counter(
            "fabric_worker_restarts_total", "Worker restarts by shard",
            labelnames=("shard",))
        self._m_forward = m.histogram(
            "fabric_forward_batch", "Samples per upstream batch line",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))
        self._m_rollovers = m.counter(
            "fabric_rollovers_total", "Completed blue/green rollovers")
        self._m_rollbacks = m.counter(
            "fabric_rollbacks_total", "Rollbacks to the standby version")

    @property
    def version(self) -> Optional[int]:
        """Model version currently served (None before :meth:`start`)."""
        return self._version

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        path: Optional[str] = None,
    ) -> None:
        """Spawn the workers, rehydrate from any existing WALs, then
        start accepting clients on ``host:port`` or ``path``."""
        if self._server is not None:
            raise RuntimeError("fabric is already started")
        if (path is None) == (host is None):
            raise ValueError("pass either host+port or a unix-socket path")
        cfg = self.config
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._version = self._resolve_version(cfg.version)
        # The router restores no model: it needs each VM's attribute
        # count and history length; each worker restores its own shard.
        described = self.registry.describe(cfg.model_name, self._version)
        self._meta = {vm: _VMMeta(*meta) for vm, meta in described.items()}
        self._shard_of = shard_ring(
            sorted(self._meta), cfg.n_workers, cfg.ring_replicas)
        retained = self._reshard_wals()
        for i in range(cfg.n_workers):
            vms = frozenset(
                vm for vm, s in self._shard_of.items() if s == i)
            journal = ShardJournal(
                self.run_dir / f"shard-{i}.wal",
                {vm: self._meta[vm].history_needed for vm in vms}
                or {"__empty__": 1},
                compact_factor=cfg.compact_factor,
            )
            journal.open()
            journal.extend([(vm, values) for vm in sorted(vms)
                            for values in retained.get(vm, ())])
            if retained:
                journal.compact()  # fsync the re-sharded history
            self.shards.append(_Shard(i, vms, journal))
        for bak in self.run_dir.glob("shard-*.wal.bak"):
            bak.unlink()
        # Bring the fleet up concurrently: process spawn + module import
        # dominates, so N workers cost ~one worker's startup wall-clock.
        await asyncio.gather(*(
            self._bring_up(shard, self._version) for shard in self.shards
        ))
        self.supervisor = WorkerSupervisor(
            n_shards=len(self.shards),
            health=self._shard_health,
            restart=self._restart_shard,
            config=cfg.supervisor,
            on_flapping=self._on_flapping,
        )
        self.supervisor.start()
        if path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=path, limit=cfg.max_line_bytes)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=host, port=port,
                limit=cfg.max_line_bytes)

    async def stop(self) -> None:
        """Drain every live shard, then shut the fleet down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.supervisor is not None:
            await self.supervisor.stop()
            self.supervisor = None
        for shard in self.shards:
            if shard.state in (_UP, _PAUSED):
                try:
                    await self._drain_shard(shard)
                except (FabricError, asyncio.TimeoutError):
                    pass
            shard.state = _DOWN
            shard.send_wake.set()
            self._close_writer(shard.writer)
            for task in shard.tasks:
                task.cancel()
            for task in shard.tasks:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            shard.tasks = []
            if shard.handle is not None:
                shard.handle.terminate()
            if shard.standby is not None:
                shard.standby[0].terminate()
                shard.standby = None
            shard.journal.close()
        self.shards = []

    def _reshard_wals(self) -> Dict[str, Deque[List[float]]]:
        """Collect per-VM trailing history from any previous run's WALs.

        A VM's shard assignment depends on the worker count, so a
        restart with a different ``n_workers`` must redistribute WAL
        history to each VM's *new* owner — per-VM sample order is all
        that matters for trailing histories, and each VM lives in
        exactly one source file.  Crash-safe: the old WALs are renamed
        to ``.bak`` before the re-sharded files are written (and
        fsynced), so a crash mid-reshard leaves the ``.bak`` set as
        the single source of truth; leftover ``.bak`` files mean any
        plain ``.wal`` files are partial output and are discarded.
        """
        baks = sorted(self.run_dir.glob("shard-*.wal.bak"))
        wals = sorted(self.run_dir.glob("shard-*.wal"))
        if baks:
            for partial in wals:
                partial.unlink()
            sources = baks
        else:
            sources = []
            for wal in wals:
                bak = wal.with_suffix(wal.suffix + ".bak")
                wal.rename(bak)
                sources.append(bak)
        retained: Dict[str, Deque[List[float]]] = {}
        for source in sources:
            for vm, values in iter_wal_records(source):
                meta = self._meta.get(vm)
                if meta is None:
                    continue  # VM no longer in the serving snapshot
                tail = retained.get(vm)
                if tail is None:
                    tail = retained[vm] = deque(
                        maxlen=meta.history_needed)
                tail.append(values)
        return retained

    # ------------------------------------------------------------------
    # Worker bring-up / restart
    # ------------------------------------------------------------------
    def _resolve_version(self, version: Optional[int]) -> int:
        if version is not None:
            return version
        active = self.registry.active_version(self.config.model_name)
        if active is not None:
            return active
        versions = self.registry.versions(self.config.model_name)
        if not versions:
            raise FabricError(
                f"registry has no snapshot named "
                f"{self.config.model_name!r}")
        return versions[-1]

    def _make_spec(
        self, shard: _Shard, version: int, tag: str = ""
    ) -> WorkerSpec:
        cfg = self.config
        return WorkerSpec(
            shard_index=shard.index,
            socket_path=str(
                self.run_dir / f"worker-{shard.index}{tag}.sock"),
            registry_root=str(self.registry.root),
            model_name=cfg.model_name,
            version=version,
            vms=tuple(sorted(shard.vms)),
            steps=cfg.steps,
            batch_window=cfg.batch_window,
            max_batch=cfg.max_batch,
            max_pending=cfg.max_pending,
            max_line_bytes=cfg.max_line_bytes,
        )

    async def _spawn_worker(
        self, shard: _Shard, version: int, tag: str = ""
    ) -> Tuple[WorkerHandle, WorkerSpec,
               asyncio.StreamReader, asyncio.StreamWriter]:
        """Start one worker process and wait until it pongs."""
        spec = self._make_spec(shard, version, tag)
        sock = Path(spec.socket_path)
        if sock.exists():
            sock.unlink()
        handle = WorkerHandle(spec)
        handle.start()
        deadline = time.monotonic() + self.config.ready_timeout
        ping = encode_message({"op": "ping", "id": 0})
        while True:
            if handle.exitcode is not None:
                raise FabricError(
                    f"shard {shard.index} worker exited during startup "
                    f"(exit code {handle.exitcode})")
            try:
                reader, writer = await asyncio.open_unix_connection(
                    spec.socket_path, limit=self.config.max_line_bytes)
                pong = await self._request_direct(
                    reader, writer, ping, timeout=5.0)
                if pong.get("kind") == "pong":
                    return handle, spec, reader, writer
                self._close_writer(writer)
            except (FileNotFoundError, ConnectionError, OSError,
                    asyncio.TimeoutError):
                pass
            if time.monotonic() > deadline:
                handle.kill()
                raise FabricError(
                    f"shard {shard.index} worker not ready within "
                    f"{self.config.ready_timeout}s")
            # The start waits, on average, half a poll interval past the
            # worker's readiness, so poll often.
            await asyncio.sleep(0.01)

    async def _bring_up(self, shard: _Shard, version: int) -> None:
        """Spawn + hydrate + attach one shard worker (initial start and
        supervisor restarts share this path)."""
        if not shard.vms:
            # With fewer VMs than shards the ring leaves some shards
            # empty: nothing routes here, so no process is spawned —
            # the shard is a permanently-healthy placeholder.
            shard.version = version
            shard.state = _UP
            self._m_shard_up.set(1, shard=str(shard.index))
            return
        handle, spec, reader, writer = await self._spawn_worker(
            shard, version)
        await self._hydrate(reader, writer,
                            shard.journal.hydration_records())
        shard.handle, shard.spec = handle, spec
        shard.reader, shard.writer = reader, writer
        shard.version = version
        shard.epoch += 1
        shard.state = _UP
        self._start_shard_tasks(shard)
        self._m_shard_up.set(1, shard=str(shard.index))

    async def _restart_shard(self, index: int) -> bool:
        """Supervisor restart callback: kill, respawn, rehydrate."""
        shard = self.shards[index]
        if shard.state != _DOWN:
            await self._mark_down(shard, "supervisor-initiated restart")
        if shard.handle is not None:
            shard.handle.kill()
        try:
            await self._bring_up(shard, shard.version or self._version)
        except (FabricError, OSError, asyncio.TimeoutError):
            return False
        shard.restarts += 1
        self._m_restarts.inc(shard=str(shard.index))
        if self.alarms is not None:
            self.alarms.resolve_key(
                f"shard-{shard.index}", "worker_down",
                reason="worker recovered")
        return True

    async def _hydrate(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        records: List[str],
    ) -> None:
        """``reset`` then ``observe`` the WAL tails (the journal's
        records, in replay order) on a fresh worker — after this its
        trailing histories are bitwise-identical to an uninterrupted
        worker's."""
        timeout = self.config.control_timeout
        reply = await self._request_direct(
            reader, writer, encode_message({"op": "reset", "id": 0}),
            timeout)
        if reply.get("kind") != "reset":
            raise FabricError(f"hydration reset failed: {reply}")
        for start in range(0, len(records), MAX_BATCH_SAMPLES):
            chunk = records[start:start + MAX_BATCH_SAMPLES]
            reply = await self._request_direct(reader, writer, _batch_line(
                0, [_hop_sample(record, "observe", None)
                    for record in chunk]), timeout)
            if reply.get("kind") != "batch":
                raise FabricError(f"hydration observe failed: {reply}")

    @staticmethod
    async def _request_direct(
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: bytes,
        timeout: float,
    ) -> Dict:
        """One request/reply on a connection with no tasks attached."""
        writer.write(request)
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        if not line:
            raise ConnectionResetError("worker closed the connection")
        return json.loads(line)

    @staticmethod
    def _close_writer(writer: Optional[asyncio.StreamWriter]) -> None:
        if writer is not None:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop shutdown
                pass

    # ------------------------------------------------------------------
    # Shard forwarding
    # ------------------------------------------------------------------
    def _start_shard_tasks(self, shard: _Shard) -> None:
        shard.tasks = [
            t for t in shard.tasks if not t.done()
        ]
        shard.tasks.append(
            asyncio.create_task(self._sender(shard, shard.epoch)))
        shard.tasks.append(
            asyncio.create_task(self._shard_reader(shard, shard.epoch)))

    def _alloc_iid(self) -> int:
        self._next_iid += 1
        return self._next_iid

    async def _sender(self, shard: _Shard, epoch: int) -> None:
        """Coalesce queued entries into upstream batch lines."""
        cfg = self.config
        while shard.epoch == epoch and shard.state in (_UP, _PAUSED):
            await shard.send_wake.wait()
            shard.send_wake.clear()
            while (
                shard.outq
                and shard.epoch == epoch
                and shard.state in (_UP, _PAUSED)
            ):
                n = min(len(shard.outq), cfg.forward_batch,
                        MAX_BATCH_SAMPLES)
                entries = [shard.outq.popleft() for _ in range(n)]
                iid = self._alloc_iid()
                shard.inflight[iid] = {"entries": entries}
                line = _hop_line(iid, [
                    _hop_sample(e.record, e.op, e.steps) for e in entries])
                self._m_forward.observe(n)
                try:
                    shard.writer.write(line)
                    await shard.writer.drain()
                except (ConnectionResetError, BrokenPipeError,
                        AttributeError):
                    if shard.epoch == epoch:
                        await self._mark_down(shard, "worker write failed")
                    return

    async def _shard_reader(self, shard: _Shard, epoch: int) -> None:
        """Match worker replies to in-flight entries / control futures."""
        reader = shard.reader
        try:
            while shard.epoch == epoch:
                line = await reader.readline()
                if not line:
                    raise ConnectionResetError("worker EOF")
                if shard.epoch != epoch:
                    break  # connection was swapped under us (rollover)
                reply = json.loads(line)
                await self._dispatch_reply(shard, reply)
        except (ConnectionResetError, BrokenPipeError, OSError,
                json.JSONDecodeError):
            if shard.epoch == epoch and shard.state != _DOWN:
                await self._mark_down(shard, "worker connection lost")

    async def _dispatch_reply(self, shard: _Shard, reply: Dict) -> None:
        flight = shard.inflight.pop(reply.get("id"), None)
        if flight is None:
            return  # stale reply from before a failover
        future = flight.get("future")
        if future is not None:
            if not future.done():
                future.set_result(reply)
            return
        entries = flight["entries"]
        if reply.get("kind") == "batch":
            for entry, r in zip(entries, reply.get("replies") or ()):
                r["id"] = entry.orig_id
                await self._deliver(entry, r)
        else:
            reply["id"] = entries[0].orig_id
            await self._deliver(entries[0], reply)

    async def _control(
        self, shard: _Shard, op: str, timeout: Optional[float] = None
    ) -> Dict:
        """Send one control op to a shard worker and await its reply."""
        if shard.writer is None or shard.state == _DOWN:
            raise FabricError(f"shard {shard.index} is down")
        iid = self._alloc_iid()
        future = asyncio.get_running_loop().create_future()
        shard.inflight[iid] = {"future": future}
        try:
            shard.writer.write(encode_message({"op": op, "id": iid}))
            await shard.writer.drain()
            return await asyncio.wait_for(
                future, timeout or self.config.control_timeout)
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise FabricError(
                f"shard {shard.index} control {op!r} failed: {exc}"
            ) from None
        finally:
            shard.inflight.pop(iid, None)

    async def _mark_down(self, shard: _Shard, reason: str) -> None:
        """Transition a shard to DOWN: shed everything, raise the alarm."""
        if shard.state == _DOWN:
            return
        shard.state = _DOWN
        shard.send_wake.set()  # unblock the sender so it can exit
        self._close_writer(shard.writer)
        shard.writer = None
        shard.reader = None
        self._m_shard_up.set(0, shard=str(shard.index))
        entries: List[_Entry] = []
        for flight in shard.inflight.values():
            future = flight.get("future")
            if future is not None:
                if not future.done():
                    future.set_exception(FabricError(reason))
            else:
                entries.extend(flight["entries"])
        shard.inflight.clear()
        entries.extend(shard.outq)
        shard.outq.clear()
        entries.extend(shard.pause_buffer)
        shard.pause_buffer.clear()
        for entry in entries:
            await self._shed_entry(shard, entry, reason)
        if self.alarms is not None:
            self.alarms.raise_alarm(
                f"shard-{shard.index}", "worker_down",
                severity="critical",
                message=f"shard {shard.index} worker down: {reason}",
                n_vms=len(shard.vms),
            )

    async def _shed_entry(
        self, shard: _Shard, entry: _Entry, reason: str
    ) -> None:
        """Reply for a sample that cannot reach its worker.

        ``observe`` entries synthesize the worker's exact ``observed``
        reply — the journal tail *is* the history, so ``have`` matches
        what a live worker would have said.  ``sample`` entries get an
        explicit ``shed`` (the sample is journaled: history extends,
        only its scoring is skipped, same rule as a single service
        under overload).
        """
        if entry.op == "observe":
            tail_len = shard.journal.tail_len(entry.vm)
            await self._deliver(entry, {
                "ok": True, "kind": "observed", "id": entry.orig_id,
                "vm": entry.vm, "have": tail_len})
            return
        self._n_sheds += 1
        self._m_sheds.inc(reason="shard_down")
        await self._deliver(entry, {
            "ok": False, "kind": "shed", "id": entry.orig_id,
            "vm": entry.vm,
            "reason": f"shard {shard.index} down: {reason}"})

    async def _deliver(self, entry: _Entry, reply: Dict) -> None:
        if entry.batch is None:
            await self._client_reply(entry.writer, entry.lock, reply)
            return
        combined = entry.batch.set(entry.slot, reply)
        if combined is not None:
            await self._client_reply(
                entry.batch.writer, entry.batch.lock, combined)

    # ------------------------------------------------------------------
    # Health + supervision hooks
    # ------------------------------------------------------------------
    async def _shard_health(self, index: int) -> Optional[str]:
        shard = self.shards[index]
        if not shard.vms:
            return None  # empty placeholder shard: nothing to monitor
        if shard.state == _PAUSED:
            return None  # a rollover owns this shard right now
        if shard.state in (_DOWN, _STARTING):
            return "worker down"
        if shard.handle is None or shard.handle.exitcode is not None:
            return "process exited"
        cfg = self.config.supervisor
        try:
            stats = await self._control(
                shard, "stats", timeout=cfg.heartbeat_timeout)
        except (FabricError, asyncio.TimeoutError):
            return "heartbeat deadline missed"
        lagging = stats.get("pending", 0) >= cfg.max_pending_lag
        if self.supervisor.note_lag(index, lagging):
            return (f"pending lag bound exceeded "
                    f"({stats.get('pending')} queued)")
        return None

    def _on_flapping(self, index: int, crashes: int) -> None:
        if self.alarms is not None:
            self.alarms.raise_alarm(
                f"shard-{index}", "worker_flapping", severity="critical",
                message=(f"shard {index} worker crashed {crashes} times "
                         f"inside one escalation window"),
                crashes=crashes,
            )

    # ------------------------------------------------------------------
    # Client-facing protocol
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        lock = asyncio.Lock()
        timeout = self.config.read_timeout
        # Same idle-watchdog shape as PredictionService: one timer per
        # connection instead of a wait_for Task per line keeps the
        # router's read loop allocation-free on the hot path.
        last_seen = time.monotonic()
        watchdog: Optional[asyncio.Task] = None
        if timeout > 0:
            async def _idle_watch() -> None:
                while True:
                    remaining = last_seen + timeout - time.monotonic()
                    if remaining <= 0:
                        self._close_writer(writer)
                        return
                    await asyncio.sleep(remaining + 0.005)
            watchdog = asyncio.create_task(_idle_watch())
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._client_reply(writer, lock, {
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
                    await self._client_reply(writer, lock, {
                        "ok": False, "kind": "error", "error": str(exc)})
                    continue
                await self._handle_client_message(message, writer, lock)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            if watchdog is not None:
                watchdog.cancel()
            self._close_writer(writer)
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_client_message(
        self,
        message: Dict,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        op = message["op"]
        msg_id = message.get("id")
        if op == "ping":
            reply = {"ok": True, "kind": "pong",
                     "version": PROTOCOL_VERSION, "fabric": True}
        elif op == "stats":
            reply = {"ok": True, "kind": "stats", **self.stats()}
        elif op == "drain":
            try:
                await self.drain()
                reply = {"ok": True, "kind": "drained", "pending": 0}
            except FabricError as exc:
                reply = {"ok": False, "kind": "error", "error": str(exc)}
        elif op == "reset":
            try:
                reply = {"ok": True, "kind": "reset",
                         "n_vms": await self._reset_all()}
            except FabricError as exc:
                reply = {"ok": False, "kind": "error", "error": str(exc)}
        elif op == "batch":
            samples = message["samples"]
            await self._route_frame(samples, writer, lock, _BatchReply(
                writer, lock, msg_id, len(samples)))
            return
        else:  # sample / observe: a frame of one, replied on its own
            await self._route_frame((message,), writer, lock, None)
            return
        if msg_id is not None:
            reply["id"] = msg_id
        await self._client_reply(writer, lock, reply)

    async def _route_frame(
        self,
        samples: Sequence[Dict],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        batch: Optional[_BatchReply],
    ) -> None:
        """Route one client frame in a single pass.

        Every sample is checked against its VM (unknown VM and wrong
        arity get the typed error a single service sends) and grouped
        by shard; each shard then journals its group with one WAL write
        and queues it as one block.  Nothing awaits between a shard's
        journal write and its queueing, so a rollover's pause sees a
        frame either wholly before or wholly after it.
        """
        groups: Dict[int, List[_Entry]] = {}
        errors: List[Tuple[_Entry, Dict]] = []
        n_routed = n_observed = 0
        meta_of, shard_of = self._meta, self._shard_of
        for slot, message in enumerate(samples):
            vm = message["vm"]
            values = message["values"]
            msg_id = message.get("id")
            entry = _Entry(
                op=message["op"], vm=vm, values=values,
                steps=message.get("steps"), orig_id=msg_id,
                writer=writer, lock=lock, batch=batch, slot=slot,
            )
            meta = meta_of.get(vm)
            if meta is None:
                errors.append((entry, {
                    "ok": False, "kind": "error", "id": msg_id, "vm": vm,
                    "error": f"unknown vm {vm!r}"}))
            elif len(values) != meta.n_attrs:
                errors.append((entry, {
                    "ok": False, "kind": "error", "id": msg_id, "vm": vm,
                    "error": (f"expected {meta.n_attrs} values, "
                              f"got {len(values)}")}))
            else:
                n_routed += 1
                if entry.op == "observe":
                    n_observed += 1
                groups.setdefault(shard_of[vm], []).append(entry)
        if n_observed:
            self._m_observed.inc(n_observed)
            self._n_observed += n_observed
        if n_routed > n_observed:
            self._m_samples.inc(n_routed - n_observed)
            self._n_samples += n_routed - n_observed
        shed: List[Tuple[_Shard, _Entry]] = []
        for index, entries in groups.items():
            shard = self.shards[index]
            # WAL first: even if the shard is down or we crash before
            # the forward, the samples are part of history on recovery.
            records = shard.journal.extend(
                [(e.vm, e.values) for e in entries])
            for entry, record in zip(entries, records):
                entry.record = record
            if shard.state == _UP:
                shard.outq.extend(entries)
                shard.send_wake.set()
            elif shard.state == _PAUSED:
                shard.pause_buffer.extend(entries)
            else:
                shed.extend((shard, e) for e in entries)
        for entry, reply in errors:
            await self._deliver(entry, reply)
        for shard, entry in shed:
            await self._shed_entry(shard, entry, "worker down")

    async def _client_reply(
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

    # ------------------------------------------------------------------
    # Fabric-wide control
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Barrier: every routed sample is scored and replied."""
        for shard in self.shards:
            if shard.state in (_UP, _PAUSED):
                await self._drain_shard(shard)

    async def _drain_shard(self, shard: _Shard) -> None:
        """Flush the outbound queue, then run the worker's own drain."""
        if not shard.vms:
            return                       # empty placeholder shard
        deadline = time.monotonic() + self.config.control_timeout
        while shard.outq or any(
            "entries" in f for f in shard.inflight.values()
        ):
            if shard.state == _DOWN:
                return  # everything was shed; nothing left to drain
            if time.monotonic() > deadline:
                raise FabricError(
                    f"shard {shard.index} drain timed out")
            shard.send_wake.set()
            await asyncio.sleep(0.001)
        if shard.state == _DOWN:
            return
        await self._control(shard, "drain")

    async def _reset_all(self) -> int:
        n = 0
        for shard in self.shards:
            if shard.vms and shard.state in (_UP, _PAUSED):
                reply = await self._control(shard, "reset")
                n += int(reply.get("n_vms") or 0)
            else:
                n += len(shard.vms)
            shard.journal.reset_tails()
        return n

    def stats(self) -> Dict:
        return {
            "version": PROTOCOL_VERSION,
            "fabric": True,
            "model": self.config.model_name,
            "model_version": self._version,
            "n_vms": len(self._meta),
            "n_workers": len(self.shards),
            "samples": self._n_samples,
            "observed": self._n_observed,
            "sheds": self._n_sheds,
            "shards": [
                {
                    "index": shard.index,
                    "state": shard.state,
                    "version": shard.version,
                    "n_vms": len(shard.vms),
                    "restarts": shard.restarts,
                    "outq": len(shard.outq),
                    "inflight": len(shard.inflight),
                    "standby": shard.standby is not None,
                    "journal": shard.journal.stats(),
                }
                for shard in self.shards
            ],
        }

    # ------------------------------------------------------------------
    # Blue/green rollover
    # ------------------------------------------------------------------
    async def rollover(self, version: Optional[int] = None) -> Dict:
        """Swap every shard to ``version`` with zero dropped samples.

        Per shard: the green worker starts *first*; the shard pauses
        for one event-loop tick to snapshot its WAL tails (arrivals
        after the pause are journaled and buffered); blue drains behind
        the barrier; green hydrates from the snapshot; connections
        swap; the buffer flushes to green in order.  The champion
        pointer is promoted only after **all** shards swapped — a crash
        mid-rollover leaves it intact — and the blue workers stay
        alive as standbys for :meth:`rollback`.
        """
        cfg = self.config
        if version is None:
            versions = self.registry.versions(cfg.model_name)
            version = versions[-1] if versions else None
        if version is None or version == self._version:
            raise FabricError(
                f"nothing to roll over to (serving v{self._version})")
        info = self.registry.info(cfg.model_name, version)
        missing = set(self._meta) - set(info.vms)
        if missing:
            raise FabricError(
                f"snapshot v{version} lacks VMs {sorted(missing)[:5]}")
        for shard in self.shards:
            if shard.state != _UP:
                raise FabricError(
                    f"shard {shard.index} is {shard.state}; rollover "
                    f"needs a fully-up fabric")
        self._discard_standbys()
        swapped: List[_Shard] = []
        try:
            for shard in self.shards:
                await self._rollover_shard(shard, version)
                swapped.append(shard)
        except Exception:
            for shard in reversed(swapped):
                try:
                    await self._rollback_shard(shard)
                except (FabricError, OSError):  # pragma: no cover
                    await self._mark_down(shard, "rollback failed")
            raise
        old = self._version
        self._version = version
        # Pointer moves last: kill-during-rollover leaves it intact.
        self.registry.promote(cfg.model_name, version)
        self._m_rollovers.inc()
        return {"from": old, "to": version,
                "shards": len(self.shards)}

    async def rollback(self) -> Dict:
        """Instantly restore the standby (pre-rollover) version."""
        if not any(s.standby is not None for s in self.shards):
            raise FabricError("no standby workers to roll back to")
        for shard in self.shards:
            if shard.standby is not None:
                await self._rollback_shard(shard)
        new = self._version
        self._version = next(
            s.version for s in self.shards
            if s.vms and s.version is not None)
        for shard in self.shards:
            if not shard.vms:            # keep placeholders in sync
                shard.version = self._version
        active = self.registry.active_info(self.config.model_name)
        if active is not None and active.version == new:
            self.registry.rollback(self.config.model_name)
        self._m_rollbacks.inc()
        return {"from": new, "to": self._version}

    def _discard_standbys(self) -> None:
        for shard in self.shards:
            if shard.standby is not None:
                shard.standby[0].terminate()
                shard.standby = None

    async def _rollover_shard(self, shard: _Shard, version: int) -> None:
        if not shard.vms:
            shard.version = version      # empty shard: nothing to swap
            return
        handle, spec, g_reader, g_writer = await self._spawn_worker(
            shard, version, tag=f"-v{version}")
        try:
            # Pause + snapshot happen in one synchronous step: every
            # sample journaled before this line is in the snapshot and
            # will be scored by blue; everything after buffers for
            # green.  No sample is in both, none is in neither.
            shard.state = _PAUSED
            snapshot = shard.journal.hydration_records()
            await self._drain_shard(shard)
            await self._hydrate(g_reader, g_writer, snapshot)
        except Exception:
            handle.kill()
            self._close_writer(g_writer)
            shard.state = _UP
            shard.outq.extend(shard.pause_buffer)
            shard.pause_buffer.clear()
            shard.send_wake.set()
            raise
        self._swap_connection(
            shard, handle, spec, g_reader, g_writer, version,
            keep_standby=True)

    async def _rollback_shard(self, shard: _Shard) -> None:
        standby = shard.standby
        if standby is None:
            raise FabricError(f"shard {shard.index} has no standby")
        b_handle, b_spec, b_version = standby
        if b_handle.exitcode is not None:
            # Standby died while idle: spawn the old version fresh.
            b_handle, b_spec, b_reader, b_writer = (
                await self._spawn_worker(shard, b_version, tag="-rb"))
        else:
            b_reader, b_writer = await asyncio.open_unix_connection(
                b_spec.socket_path, limit=self.config.max_line_bytes)
        shard.state = _PAUSED
        snapshot = shard.journal.hydration_records()
        try:
            await self._drain_shard(shard)
            # The standby's histories are stale (it missed everything
            # since the swap) — rehydrate from the current tails, the
            # same path crash recovery uses.
            await self._hydrate(b_reader, b_writer, snapshot)
        except Exception:
            self._close_writer(b_writer)
            shard.state = _UP
            shard.outq.extend(shard.pause_buffer)
            shard.pause_buffer.clear()
            shard.send_wake.set()
            raise
        green_handle = shard.handle
        self._swap_connection(
            shard, b_handle, b_spec, b_reader, b_writer, b_version,
            keep_standby=False)
        if green_handle is not None:
            green_handle.terminate()

    def _swap_connection(
        self,
        shard: _Shard,
        handle: WorkerHandle,
        spec: WorkerSpec,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        version: int,
        keep_standby: bool,
    ) -> None:
        """Atomically point the shard at a new hydrated worker."""
        old = (shard.handle, shard.spec, shard.version)
        self._close_writer(shard.writer)
        shard.handle, shard.spec = handle, spec
        shard.reader, shard.writer = reader, writer
        shard.version = version
        shard.epoch += 1  # retires the old sender/reader tasks
        shard.send_wake.set()
        if keep_standby and old[0] is not None:
            shard.standby = (old[0], old[1], old[2])
        else:
            shard.standby = None
        shard.state = _UP
        shard.outq.extend(shard.pause_buffer)
        shard.pause_buffer.clear()
        self._start_shard_tasks(shard)
