"""Worker processes + supervision policy for the serving fabric.

A fabric worker is one OS process running today's
:class:`~repro.serve.service.PredictionService` over its *shard* of
registry pipelines, listening on a private unix socket the router
connects to.  Workers are started with the ``spawn`` context (same
safety rationale as ``experiments/pool.py``: no inherited locks or
event loops from a threaded parent) through the module-level
:func:`worker_main`, with a picklable :class:`WorkerSpec` as the sole
argument.  Workers are **stateless**: everything a restarted worker
needs to score bitwise-identically lives in the router's shard WAL
(:mod:`repro.serve.journal`) and is replayed via ``reset`` +
``observe``.

:class:`WorkerSupervisor` holds the *policy* half of supervision: it
periodically asks the fabric for each shard's health (process alive +
heartbeat ping under a deadline + bounded pending lag), and on failure
schedules a restart through the fabric's callback with exponential
backoff reusing :class:`~repro.core.resilience.RetryPolicy` semantics
(seeded jitter, bounded delay).  Two crashes inside one
``escalation_window`` raise a ``critical`` *flapping* alarm on top of
the per-shard ``worker_down`` alarm; both resolve automatically once
the shard is healthy again.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Awaitable, Callable, Dict, List, Optional, Tuple,
)

from repro.core.resilience import RetryPolicy

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SupervisorConfig",
    "WorkerHandle",
    "WorkerSpec",
    "WorkerSupervisor",
    "worker_main",
]


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs, picklable for ``spawn``."""

    shard_index: int
    socket_path: str
    registry_root: str
    model_name: str
    #: concrete snapshot version — resolved by the fabric *before*
    #: spawning, so restarts keep serving the same model even while a
    #: rollover is moving the champion pointer
    version: int
    vms: Tuple[str, ...]
    steps: int = 4
    batch_window: float = 0.002
    max_batch: int = 128
    max_pending: int = 1024
    max_line_bytes: int = 1 << 20


def worker_main(spec: WorkerSpec) -> None:
    """Spawn entry point: serve one shard until SIGTERM/SIGINT."""
    asyncio.run(_worker_serve(spec))


async def _worker_serve(spec: WorkerSpec) -> None:
    # Imports here keep the spawn-side import cost off the router path.
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import PredictionService, ServiceConfig

    # Restores only this shard's VMs; a VM the snapshot lacks raises
    # RegistryError naming it.
    shard = ModelRegistry(spec.registry_root).load(
        spec.model_name, spec.version, vms=spec.vms)
    service = PredictionService(shard, ServiceConfig(
        steps=spec.steps,
        batch_window=spec.batch_window,
        max_batch=spec.max_batch,
        max_pending=spec.max_pending,
        max_line_bytes=spec.max_line_bytes,
        # The only client is the router, over a private unix socket;
        # an idle link is normal, not a half-open attack.
        read_timeout=0.0,
    ))
    await service.start(path=spec.socket_path)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    # ``daemon=True`` only reaps workers on a clean router exit.  When
    # the router dies any other way (SIGKILL included), the kernel
    # closes its end of the pipe this process was spawned through, and
    # the parent sentinel becomes readable.
    parent = multiprocessing.parent_process()
    if parent is not None:
        def _parent_gone() -> None:
            loop.remove_reader(parent.sentinel)
            stop.set()

        loop.add_reader(parent.sentinel, _parent_gone)
    await stop.wait()
    # Graceful: stop accepting, flush every queued micro-batch, exit.
    await service.stop()


class WorkerHandle:
    """One spawned worker process (thin lifecycle wrapper)."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        ctx = multiprocessing.get_context("spawn")
        self.process = ctx.Process(
            target=worker_main, args=(spec,), daemon=True,
            name=f"fabric-worker-{spec.shard_index}",
        )

    def start(self) -> None:
        self.process.start()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode

    def terminate(self, grace: float = 5.0) -> None:
        """SIGTERM (graceful drain), escalating to SIGKILL after grace."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(grace)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(1.0)

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
            self.process.join(1.0)


# ----------------------------------------------------------------------
# Supervision policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the fabric's worker supervision."""

    #: seconds between health checks per shard
    heartbeat_interval: float = 0.5
    #: heartbeat ping must answer within this deadline
    heartbeat_timeout: float = 2.0
    #: a worker whose pending queue sits at or above this for
    #: ``lag_strikes`` consecutive checks is declared hung.  The
    #: default sits above the service's own ``max_pending`` shed bound
    #: (a full-but-shedding queue is overload, not a hang — the
    #: heartbeat deadline catches truly wedged event loops); lower it
    #: below ``max_pending`` to also restart persistently saturated
    #: workers.
    max_pending_lag: int = 4096
    lag_strikes: int = 3
    #: restart backoff (RetryPolicy semantics: bounded exponential
    #: with seeded jitter; ``max_attempts`` is ignored here — the
    #: supervisor never gives up, the cap is the delay ceiling)
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        base_delay=0.2, multiplier=2.0, max_delay=5.0, jitter=0.25))
    #: two crashes inside this window escalate to a flapping alarm
    escalation_window: float = 30.0
    #: a shard healthy for this long gets its backoff attempt reset
    stable_after: float = 10.0
    #: jitter RNG seed (restart cadence stays reproducible)
    seed: int = 0


class WorkerSupervisor:
    """Monitors shard health and drives backoff-paced restarts.

    The fabric supplies two async callbacks so the supervisor stays
    mechanism-free:

    ``health(shard_index) -> Optional[str]``
        None when healthy; otherwise a human-readable reason
        (``"process exited"``, ``"heartbeat timeout"``, ...).  Shards
        mid-rollover report healthy — the rollover owns them.
    ``restart(shard_index) -> bool``
        Kill whatever is left, spawn a fresh worker, rehydrate it
        from the WAL, resume routing.  False/raise → the supervisor
        backs off and tries again.
    """

    def __init__(
        self,
        n_shards: int,
        health: Callable[[int], Awaitable[Optional[str]]],
        restart: Callable[[int], Awaitable[bool]],
        config: Optional[SupervisorConfig] = None,
        on_flapping: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.n_shards = n_shards
        self._health = health
        self._restart = restart
        self._on_flapping = on_flapping
        #: jitter RNG, seeded from ``config.seed`` at the first restart
        #: (numpy stays out of the router's start-up path)
        self._rng: Optional[np.random.Generator] = None
        self._tasks: List[asyncio.Task] = []
        self._attempts: Dict[int, int] = {i: 0 for i in range(n_shards)}
        self._lag_strikes: Dict[int, int] = {i: 0 for i in range(n_shards)}
        self._crash_times: Dict[int, List[float]] = {
            i: [] for i in range(n_shards)}
        self._healthy_since: Dict[int, Optional[float]] = {
            i: None for i in range(n_shards)}
        self.restarts: Dict[int, int] = {i: 0 for i in range(n_shards)}
        self.flapping: Dict[int, bool] = {i: False for i in range(n_shards)}

    def start(self) -> None:
        if self._tasks:
            raise RuntimeError("supervisor is already running")
        self._tasks = [
            asyncio.create_task(self._monitor(i))
            for i in range(self.n_shards)
        ]

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []

    def note_lag(self, shard_index: int, lagging: bool) -> bool:
        """Record one bounded-lag observation; True once struck out."""
        if lagging:
            self._lag_strikes[shard_index] += 1
        else:
            self._lag_strikes[shard_index] = 0
        return self._lag_strikes[shard_index] >= self.config.lag_strikes

    def is_flapping(self, shard_index: int) -> bool:
        """Two or more crashes inside the escalation window?"""
        now = time.monotonic()
        window = self.config.escalation_window
        times = [
            t for t in self._crash_times[shard_index] if now - t <= window
        ]
        self._crash_times[shard_index] = times
        return len(times) >= 2

    async def _monitor(self, shard_index: int) -> None:
        cfg = self.config
        while True:
            await asyncio.sleep(cfg.heartbeat_interval)
            try:
                reason = await self._health(shard_index)
            except Exception as exc:  # pragma: no cover - defensive
                reason = f"health check failed: {exc}"
            if reason is None:
                since = self._healthy_since[shard_index]
                now = time.monotonic()
                if since is None:
                    self._healthy_since[shard_index] = now
                elif now - since >= cfg.stable_after:
                    self._attempts[shard_index] = 0
                    self.flapping[shard_index] = False
                continue
            self._healthy_since[shard_index] = None
            await self._recover(shard_index, reason)

    async def _recover(self, shard_index: int, reason: str) -> None:
        cfg = self.config
        self._crash_times[shard_index].append(time.monotonic())
        if self.is_flapping(shard_index):
            self.flapping[shard_index] = True
            if self._on_flapping is not None:
                self._on_flapping(
                    shard_index, len(self._crash_times[shard_index]))
        self._attempts[shard_index] += 1
        attempt = self._attempts[shard_index]
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(cfg.seed)
        delay = cfg.retry.delay(attempt, self._rng)
        await asyncio.sleep(delay)
        try:
            ok = await self._restart(shard_index)
        except Exception:  # pragma: no cover - defensive
            ok = False
        if ok:
            self.restarts[shard_index] += 1
            self._healthy_since[shard_index] = time.monotonic()
            self._lag_strikes[shard_index] = 0
