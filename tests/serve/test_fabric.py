"""Integration tests for the sharded serving fabric.

Real worker processes (spawn context), real unix sockets, real
SIGKILLs.  The fleet is kept tiny so each fabric start costs roughly
one Python import, and several assertions share one running fabric.
"""

import asyncio
import json
import os
import signal
import time
from collections import deque

import numpy as np
import pytest

from repro.core.predictor import AnomalyPredictor
from repro.core.resilience import RetryPolicy
from repro.serve.alarms import AlarmManager
from repro.serve.fabric import (
    FabricConfig,
    FabricError,
    ServingFabric,
    shard_ring,
)
from repro.serve.protocol import encode_message
from repro.serve.registry import (
    ModelRegistry,
    RegistryError,
    SnapshotIntegrityError,
)
from repro.serve.supervisor import SupervisorConfig, WorkerSpec, worker_main

N_ATTRS = 5
N_VMS = 4
STEPS = 4

FAST_SUPERVISOR = SupervisorConfig(
    heartbeat_interval=0.1,
    heartbeat_timeout=2.0,
    retry=RetryPolicy(
        base_delay=0.1, multiplier=1.5, max_delay=0.5, jitter=0.0),
    escalation_window=60.0,
    stable_after=0.5,
)


def train_predictor(seed=0):
    rng = np.random.default_rng(seed)
    predictor = AnomalyPredictor(
        [f"m{i}" for i in range(N_ATTRS)], n_bins=5, markov="2dep",
        classifier="tan",
    )
    values = np.cumsum(rng.normal(size=(200, N_ATTRS)), axis=0)
    labels = (rng.random(200) < 0.3).astype(int)
    return predictor.train(values, labels), values


def make_fleet(seed0):
    predictors, traces = {}, {}
    for i in range(N_VMS):
        p, v = train_predictor(seed=seed0 + i)
        predictors[f"vm{i}"] = p
        traces[f"vm{i}"] = v
    return predictors, traces


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Registry with v1 (champion) and v2 (rollover target)."""
    root = tmp_path_factory.mktemp("fabric")
    registry = ModelRegistry(root / "models")
    v1_predictors, traces = make_fleet(seed0=40)
    v2_predictors, _ = make_fleet(seed0=140)
    info1 = registry.save("fleet", v1_predictors)
    registry.save("fleet", v2_predictors)
    registry.promote("fleet", info1.version)
    return {
        "registry": registry,
        "v1": v1_predictors,
        "v2": v2_predictors,
        "traces": traces,
    }


def fabric_config(n_workers=2, **overrides):
    base = dict(
        model_name="fleet",
        n_workers=n_workers,
        steps=STEPS,
        batch_window=0.001,
        ready_timeout=120.0,
        supervisor=FAST_SUPERVISOR,
    )
    base.update(overrides)
    return FabricConfig(**base)


class ExpectedTracker:
    """Replicates the service's history rule over everything *sent*.

    Shed samples still extend history (observed, only scoring
    skipped), so the tracker appends every sample and computes what an
    uninterrupted single-process service would have answered.
    """

    def __init__(self, predictors):
        self.histories = {
            vm: deque(maxlen=p.history_needed)
            for vm, p in predictors.items()
        }

    def feed(self, predictors, vm, values):
        history = self.histories[vm]
        history.append(list(values))
        p = predictors[vm]
        if len(history) < p.history_needed:
            return None
        return p.predict(np.asarray(history, dtype=float), STEPS)


class _Client:
    def __init__(self, path):
        self.path = str(path)

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_unix_connection(
            self.path)
        return self

    async def __aexit__(self, *exc):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def request(self, message, timeout=30.0):
        self.writer.write(encode_message(message))
        await self.writer.drain()
        return json.loads(await asyncio.wait_for(
            self.reader.readline(), timeout))


async def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.05)


def alarm_by_kind(alarms, kind):
    matches = [a for a in alarms.alarms() if a.kind == kind]
    return matches[-1] if matches else None


class TestShardRing:
    def test_deterministic_and_in_range(self):
        vms = [f"vm{i}" for i in range(50)]
        a = shard_ring(vms, 4)
        assert a == shard_ring(vms, 4)
        assert set(a.values()) <= set(range(4))
        assert len(set(a.values())) > 1  # spreads across shards

    def test_adding_a_shard_remaps_a_minority(self):
        vms = [f"vm{i}" for i in range(200)]
        before = shard_ring(vms, 4)
        after = shard_ring(vms, 5)
        moved = sum(1 for vm in vms if before[vm] != after[vm])
        assert 0 < moved < len(vms) / 2

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="at least one"):
            shard_ring(["a"], 0)


class TestColdStart:
    """The router reads per-VM metadata and restores no model; each
    worker restores only its shard."""

    def test_router_makes_no_from_dict_call(
        self, fleet, tmp_path, monkeypatch
    ):
        registry = fleet["registry"]
        traces = fleet["traces"]
        calls = []
        restore = AnomalyPredictor.from_dict.__func__

        def counting(cls, payload):
            calls.append(payload)
            return restore(cls, payload)

        monkeypatch.setattr(
            AnomalyPredictor, "from_dict", classmethod(counting))
        sock = tmp_path / "fabric.sock"

        async def main():
            fabric = ServingFabric(
                registry, tmp_path / "run", fabric_config(n_workers=1))
            await fabric.start(path=str(sock))
            try:
                assert calls == []
                assert {
                    vm: (meta.n_attrs, meta.history_needed)
                    for vm, meta in fabric._meta.items()
                } == registry.describe("fleet", fabric.version)
                async with _Client(sock) as client:
                    for t in range(3):
                        reply = await client.request({
                            "op": "sample", "vm": "vm0",
                            "values": traces["vm0"][t].tolist()})
                    assert reply["kind"] == "score"
            finally:
                await fabric.stop()

        asyncio.run(main())
        assert calls == []

    def test_corrupt_snapshot_is_refused_before_any_worker(self, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        predictors, _ = make_fleet(seed0=40)
        info = registry.save("fleet", predictors)
        snap = info.path / "snapshot.json"
        document = snap.read_text(encoding="utf-8")
        at = document.index('"data":"') + len('"data":"')
        flipped = "B" if document[at] == "A" else "A"
        snap.write_text(document[:at] + flipped + document[at + 1:],
                        encoding="utf-8")
        fabric = ServingFabric(
            registry, tmp_path / "run", fabric_config(n_workers=2))
        with pytest.raises(SnapshotIntegrityError):
            asyncio.run(fabric.start(path=str(tmp_path / "fabric.sock")))
        assert fabric.shards == []

    def test_worker_naming_an_absent_vm_fails_startup(self, fleet, tmp_path):
        registry = fleet["registry"]
        sock = tmp_path / "worker.sock"
        spec = WorkerSpec(
            shard_index=0, socket_path=str(sock),
            registry_root=str(registry.root), model_name="fleet",
            version=registry.versions("fleet")[0], vms=("vm0", "ghost"))
        with pytest.raises(RegistryError, match="ghost"):
            worker_main(spec)
        assert not sock.exists()


class TestFabricFailover:
    def test_parity_failover_recovery_and_wal_restart(
        self, fleet, tmp_path
    ):
        registry = fleet["registry"]
        predictors = fleet["v1"]
        traces = fleet["traces"]
        alarms = AlarmManager()
        run_dir = tmp_path / "run"
        sock = tmp_path / "fabric.sock"
        tracker = ExpectedTracker(predictors)
        sent = []  # (vm, values) in send order, replies alongside

        def check(reply, vm, values):
            """Compare one fabric reply against the single-service rule."""
            want = tracker.feed(predictors, vm, values)
            if reply["kind"] == "shed":
                return "shed"  # scoring skipped, history still extended
            if want is None:
                assert reply["kind"] == "warmup"
                return "warmup"
            assert reply["kind"] == "score", reply
            assert reply["vm"] == vm
            assert reply["score"] == want.score
            assert reply["probability"] == want.probability
            assert reply["abnormal"] == bool(want.abnormal)
            return "score"

        async def drive(client, t_range, only_vms=None):
            kinds = []
            for t in t_range:
                for vm in sorted(traces):
                    if only_vms is not None and vm not in only_vms:
                        continue
                    values = traces[vm][t].tolist()
                    reply = await client.request({
                        "op": "sample", "vm": vm, "id": len(sent),
                        "values": values})
                    sent.append((vm, values))
                    kinds.append(check(reply, vm, values))
            return kinds

        async def main():
            fabric = ServingFabric(
                registry, run_dir, fabric_config(n_workers=2),
                alarms=alarms)
            await fabric.start(path=str(sock))
            try:
                assert len(fabric.shards) == 2
                assert all(s.state == "up" for s in fabric.shards)
                async with _Client(sock) as client:
                    pong = await client.request({"op": "ping", "id": 1})
                    assert pong["kind"] == "pong" and pong["fabric"]
                    assert pong["id"] == 1

                    # Phase 1: clean run scores bitwise like one service.
                    kinds = await drive(client, range(6))
                    assert "shed" not in kinds
                    assert kinds.count("score") > 0

                    # A batch round-trips through shard regrouping too.
                    samples = [
                        {"op": "sample", "vm": vm,
                         "values": traces[vm][6].tolist()}
                        for vm in sorted(traces)
                    ]
                    breply = await client.request({
                        "op": "batch", "id": 7, "samples": samples})
                    assert breply["kind"] == "batch"
                    assert breply["id"] == 7
                    for s, r in zip(samples, breply["replies"]):
                        sent.append((s["vm"], s["values"]))
                        check(r, s["vm"], s["values"])

                    # Phase 2: SIGKILL one worker mid-stream.
                    victim = fabric.shards[0]
                    victim_vms = set(victim.vms)
                    os.kill(victim.handle.process.pid, signal.SIGKILL)
                    await wait_for(
                        lambda: victim.state == "down"
                        or victim.restarts > 0,
                        timeout=10.0, what="shard down")
                    stats = await client.request({"op": "stats"})
                    assert stats["fabric"] is True

                    if victim.state == "down":
                        down_kinds = await drive(
                            client, range(7, 9), only_vms=victim_vms)
                        # While down: explicit sheds, never hangs.
                        assert set(down_kinds) <= {"shed", "score"}
                        alarm = alarm_by_kind(alarms, "worker_down")
                        assert alarm is not None
                        assert alarm.severity == "critical"
                    # Healthy shard keeps scoring throughout.
                    other_vms = set(traces) - victim_vms
                    ok_kinds = await drive(
                        client, range(7, 9), only_vms=other_vms)
                    assert "shed" not in ok_kinds

                    # Phase 3: supervisor restarts + rehydrates; the
                    # alarm auto-resolves and decisions are bitwise
                    # back in sync (shed samples extended history via
                    # the WAL).
                    await wait_for(
                        lambda: victim.state == "up"
                        and victim.restarts >= 1,
                        timeout=60.0, what="shard recovery")
                    alarm = alarm_by_kind(alarms, "worker_down")
                    assert alarm is not None and alarm.state == "resolved"
                    kinds = await drive(client, range(9, 13))
                    assert "shed" not in kinds
                    assert kinds.count("score") == len(kinds)

                    # Drain barrier still answers across the fabric.
                    drained = await client.request({"op": "drain"})
                    assert drained["kind"] == "drained"
                stats = fabric.stats()
                assert stats["fabric"] is True
                assert stats["shards"][0]["restarts"] >= 1
            finally:
                await fabric.stop()

            # Phase 4: a brand-new fabric over the same run_dir replays
            # the WALs — no warmup, and scores continue bitwise from
            # the accumulated history.
            fabric2 = ServingFabric(
                registry, run_dir, fabric_config(n_workers=3))
            await fabric2.start(path=str(sock))
            try:
                async with _Client(sock) as client:
                    kinds = await drive(client, range(13, 15))
                    assert kinds.count("score") == len(kinds)
            finally:
                await fabric2.stop()

        asyncio.run(main())


class TestFabricRollover:
    def test_rollover_rollback_and_crash_mid_rollover(
        self, fleet, tmp_path
    ):
        registry = fleet["registry"]
        traces = fleet["traces"]
        trackers = {
            1: ExpectedTracker(fleet["v1"]),
            2: ExpectedTracker(fleet["v2"]),
        }
        fleets = {1: fleet["v1"], 2: fleet["v2"]}
        sock = tmp_path / "fabric.sock"

        async def drive(client, t_range, serving):
            """Drive samples; both trackers feed (shared history rule),
            replies must match the *serving* version's decisions."""
            n_scores = 0
            for t in t_range:
                for vm in sorted(traces):
                    values = traces[vm][t].tolist()
                    reply = await client.request({
                        "op": "sample", "vm": vm, "values": values})
                    wants = {
                        v: trackers[v].feed(fleets[v], vm, values)
                        for v in trackers
                    }
                    want = wants[serving]
                    if want is None:
                        assert reply["kind"] == "warmup"
                        continue
                    assert reply["kind"] == "score", reply
                    assert reply["score"] == want.score
                    assert reply["abnormal"] == bool(want.abnormal)
                    n_scores += 1
            return n_scores

        async def main():
            fabric = ServingFabric(
                registry, tmp_path / "run",
                fabric_config(n_workers=2))
            await fabric.start(path=str(sock))
            try:
                assert fabric._version == 1  # champion pointer
                async with _Client(sock) as client:
                    await drive(client, range(4), serving=1)

                    # Blue/green rollover to v2: zero dropped samples,
                    # pointer promoted only after every shard swapped.
                    result = await fabric.rollover(2)
                    assert result == {"from": 1, "to": 2, "shards": 2}
                    assert registry.active_version("fleet") == 2
                    assert all(
                        s.version == 2 and s.standby is not None
                        for s in fabric.shards)
                    assert await drive(client, range(4, 7), serving=2) > 0

                    # Instant rollback to the standby blue workers,
                    # rehydrated from the WAL so history continuity
                    # holds across the v2 window.
                    result = await fabric.rollback()
                    assert result == {"from": 2, "to": 1}
                    assert registry.active_version("fleet") == 1
                    assert await drive(client, range(7, 10), serving=1) > 0

                    # Crash mid-rollover: second shard's green worker
                    # dies during hydration.  The champion pointer must
                    # stay on v1, every shard must come back serving
                    # v1, and traffic must keep scoring.
                    original = fabric._hydrate
                    calls = {"n": 0}

                    async def sabotaged(reader, writer, samples):
                        calls["n"] += 1
                        if calls["n"] == 2:
                            raise FabricError(
                                "injected worker crash during rollover")
                        return await original(reader, writer, samples)

                    fabric._hydrate = sabotaged
                    with pytest.raises(FabricError):
                        await fabric.rollover(2)
                    fabric._hydrate = original

                    assert registry.active_version("fleet") == 1
                    assert fabric._version == 1
                    assert all(
                        s.state == "up" and s.version == 1
                        for s in fabric.shards)
                    assert await drive(
                        client, range(10, 12), serving=1) > 0

                    # Rolling over to the already-served version is an
                    # explicit error, not a silent no-op.
                    with pytest.raises(FabricError, match="nothing"):
                        await fabric.rollover(1)
            finally:
                await fabric.stop()

        asyncio.run(main())


class TestSupervisorEdgeCases:
    def test_crash_during_drain_and_flapping_escalation(
        self, fleet, tmp_path
    ):
        registry = fleet["registry"]
        traces = fleet["traces"]
        alarms = AlarmManager()
        sock = tmp_path / "fabric.sock"

        async def main():
            # One worker, wide micro-batch window: queued samples give
            # the drain barrier something to actually wait on.
            fabric = ServingFabric(
                registry, tmp_path / "run",
                fabric_config(n_workers=1, batch_window=0.2),
                alarms=alarms)
            await fabric.start(path=str(sock))
            try:
                shard = fabric.shards[0]
                async with _Client(sock) as client:
                    # Warm every VM so later samples queue for scoring.
                    for t in range(3):
                        for vm in sorted(traces):
                            await client.request({
                                "op": "sample", "vm": vm,
                                "values": traces[vm][t].tolist()})

                    # Crash during the drain barrier: burst + drain,
                    # then SIGKILL while the batch sits in the window.
                    n_burst = 0
                    for vm in sorted(traces):
                        client.writer.write(encode_message({
                            "op": "sample", "vm": vm, "id": n_burst,
                            "values": traces[vm][3].tolist()}))
                        n_burst += 1
                    client.writer.write(encode_message({"op": "drain"}))
                    await client.writer.drain()
                    os.kill(shard.handle.process.pid, signal.SIGKILL)

                    replies = []
                    for _ in range(n_burst + 1):
                        replies.append(json.loads(await asyncio.wait_for(
                            client.reader.readline(), timeout=30.0)))
                    kinds = [r["kind"] for r in replies]
                    # The barrier answered instead of hanging, and every
                    # burst sample got an explicit reply (scored before
                    # the kill landed, or shed by failover).  Shed
                    # replies from failover may interleave around the
                    # barrier's own reply.
                    barrier = [k for k in kinds if k in ("drained", "error")]
                    assert len(barrier) == 1
                    samples_k = [k for k in kinds
                                 if k not in ("drained", "error")]
                    assert set(samples_k) <= {"score", "shed"}

                    await wait_for(
                        lambda: shard.state == "up"
                        and shard.restarts >= 1,
                        timeout=60.0, what="first recovery")

                    # Second crash inside the escalation window →
                    # critical flapping alarm on top of worker_down.
                    os.kill(shard.handle.process.pid, signal.SIGKILL)
                    await wait_for(
                        lambda: alarm_by_kind(
                            alarms, "worker_flapping") is not None,
                        timeout=60.0, what="flapping alarm")
                    flapping = alarm_by_kind(alarms, "worker_flapping")
                    assert flapping.severity == "critical"
                    assert fabric.supervisor.flapping[0] is True

                    await wait_for(
                        lambda: shard.state == "up"
                        and shard.restarts >= 2,
                        timeout=60.0, what="second recovery")
                    # Post-recovery the shard scores again.
                    reply = await client.request({
                        "op": "sample", "vm": "vm0",
                        "values": traces["vm0"][4].tolist()})
                    assert reply["kind"] == "score"
            finally:
                await fabric.stop()

        asyncio.run(main())
