"""Unit tests for the fabric's restart policy (no worker processes)."""

import asyncio

import numpy as np
import pytest

from repro.core.resilience import RetryPolicy
from repro.serve import supervisor as supervisor_module
from repro.serve.supervisor import SupervisorConfig, WorkerSupervisor

RETRY = RetryPolicy(base_delay=0.2, multiplier=2.0, max_delay=5.0,
                    jitter=0.25)


def restart_delays(monkeypatch, seed, n):
    """Delays the supervisor waits before ``n`` failing restarts."""
    delays = []

    async def no_wait(delay):
        delays.append(delay)

    async def health(shard):
        return None

    async def restart(shard):
        return False

    monkeypatch.setattr(supervisor_module.asyncio, "sleep", no_wait)
    sup = WorkerSupervisor(
        1, health, restart, SupervisorConfig(retry=RETRY, seed=seed))

    async def crash_n_times():
        for _ in range(n):
            await sup._recover(0, "process exited")

    asyncio.run(crash_n_times())
    return delays


@pytest.mark.parametrize("seed", [0, 7])
def test_jittered_delays_follow_the_seeded_stream(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    expected = [RETRY.delay(k, rng) for k in range(1, 6)]
    assert restart_delays(monkeypatch, seed, 5) == expected
    assert len(set(expected)) == 5      # the jitter really draws

