"""The load generators against stub servers with known behaviour."""

import asyncio
import json

import pytest

from bench.loadgen import (
    Saturated, closed_loop, latency_summary, open_loop, schedule)
from bench.stats import median
from bench.synth import Stream, build_fleet


class StubServer:
    """Newline-JSON echo: answers every ``sample`` with its id, every
    ``batch`` with one reply per sample.  ``stall_at``/``stall`` make
    it stop reading for a while when a given id arrives; ``mute_after``
    makes it stop replying for good."""

    def __init__(self, path, stall_at=None, stall=0.0, mute_after=None):
        self.path = str(path)
        self.stall_at, self.stall, self.mute_after = stall_at, stall, mute_after
        self.received = []  # (connection, vm, values) in arrival order
        self._connections = 0
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_unix_server(
            self._handle, path=self.path, limit=1 << 22)
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        connection = self._connections
        self._connections += 1
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                message = json.loads(raw)
                if message["op"] == "batch":
                    for sample in message["samples"]:
                        self.received.append(
                            (connection, sample["vm"], sample["values"]))
                    reply = {"id": message["id"], "kind": "batch", "replies": [
                        {"kind": "score", "vm": s["vm"]}
                        for s in message["samples"]]}
                else:
                    self.received.append(
                        (connection, message["vm"], message["values"]))
                    if message["id"] == self.stall_at:
                        await asyncio.sleep(self.stall)
                    if (self.mute_after is not None
                            and message["id"] >= self.mute_after):
                        continue
                    reply = {"id": message["id"], "kind": "score"}
                writer.write((json.dumps(reply) + "\n").encode())
                await writer.drain()
        finally:
            writer.close()


@pytest.fixture(scope="module")
def stream():
    return Stream(build_fleet(seed=2, n_vms=4))


def test_stall_is_charged_to_every_sample_due_during_it(tmp_path, stream):
    rate, stall = 500.0, 0.2

    async def scenario():
        async with StubServer(tmp_path / "s.sock", stall_at=100, stall=stall):
            return await open_loop(
                str(tmp_path / "s.sock"), stream.lines(0, 400), schedule(400, rate))

    result = asyncio.run(scenario())
    assert result.answered == result.sent == 400
    latency = result.latency
    # Before the stall the echo is immediate.
    assert median(latency[:90]) < 0.02
    # The stall began when sample 100 arrived; a sample due d seconds
    # later waited about stall - d.  A closed loop (or a clock started
    # at send time) would have seen ONE slow request here.
    assert latency[100] >= stall * 0.9
    due_during_stall = range(100, 100 + int(rate * stall) - 5)
    slow = [i for i in due_during_stall if latency[i] > 0.02]
    assert len(slow) >= 0.8 * len(due_during_stall)
    assert latency[100 + int(rate * stall * 0.5)] == pytest.approx(
        stall * 0.5, abs=0.06)
    # And the server catches up afterwards.
    assert median(latency[300:]) < 0.02
    result.check_not_saturated()
    summary = latency_summary(result)
    assert summary["max_ms"] >= 1e3 * stall * 0.9


def test_latency_counts_from_due_even_when_the_send_was_late(
        tmp_path, stream):
    async def scenario():
        async with StubServer(tmp_path / "s.sock"):
            return await open_loop(
                str(tmp_path / "s.sock"), stream.lines(0, 200), schedule(200, 2000.0))

    result = asyncio.run(scenario())
    for late, latency in zip(result.late, result.latency):
        assert late >= 0.0
        assert latency >= late  # reply cannot precede the write


def test_saturated_when_the_server_stops_replying(tmp_path, stream):
    async def scenario():
        async with StubServer(tmp_path / "s.sock", mute_after=150):
            return await open_loop(
                str(tmp_path / "s.sock"), stream.lines(0, 300),
                schedule(300, 1000.0), grace=0.3)

    result = asyncio.run(scenario())
    assert result.answered == 150
    with pytest.raises(Saturated, match="150 of 300"):
        result.check_not_saturated()


class SlowServer(StubServer):
    """Answers one request every ``service_time`` seconds, whatever the
    arrival rate: offered more than that, its queue only grows."""

    def __init__(self, path, service_time):
        super().__init__(path)
        self.service_time = service_time

    async def _handle(self, reader, writer):
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                await asyncio.sleep(self.service_time)
                reply = {"id": json.loads(raw)["id"], "kind": "score"}
                writer.write((json.dumps(reply) + "\n").encode())
                await writer.drain()
        finally:
            writer.close()


def test_saturated_when_the_backlog_keeps_growing(tmp_path, stream):
    async def scenario():
        # 250/s offered to a server good for ~170/s.
        async with SlowServer(tmp_path / "s.sock", service_time=0.005):
            return await open_loop(
                str(tmp_path / "s.sock"), stream.lines(0, 500),
                schedule(500, 250.0), segment_seconds=0.25, grace=5.0)

    result = asyncio.run(scenario())
    assert result.answered == 500
    backlog = result.backlog()
    assert backlog[-1] > backlog[0] + 20
    with pytest.raises(Saturated, match="median latency grew"):
        result.check_not_saturated()


def test_one_slow_segment_is_not_saturation(tmp_path, stream):
    async def scenario():
        # A 0.3 s stall inside the last of eight segments.
        async with StubServer(tmp_path / "s.sock", stall_at=1800, stall=0.3):
            return await open_loop(
                str(tmp_path / "s.sock"), stream.lines(0, 2000),
                schedule(2000, 1000.0), segment_seconds=0.25)

    result = asyncio.run(scenario())
    assert result.answered == 2000
    result.check_not_saturated()


def test_backlog_counts_due_but_unanswered(tmp_path, stream):
    async def scenario():
        async with StubServer(tmp_path / "s.sock", stall_at=240, stall=0.2):
            return await open_loop(
                str(tmp_path / "s.sock"), stream.lines(0, 1000),
                schedule(1000, 1000.0), segment_seconds=0.25)

    backlog = asyncio.run(scenario()).backlog()
    assert len(backlog) == 4
    assert backlog[0] >= 5          # segment 0 ends inside the stall
    assert backlog[-1] <= 2         # drained by the end


def test_closed_loop_keeps_per_vm_order_across_two_connections(tmp_path):
    fleet = build_fleet(seed=2, n_vms=6)
    halves = [Stream(fleet, fleet.vms[0::2]), Stream(fleet, fleet.vms[1::2])]

    async def scenario():
        async with StubServer(tmp_path / "s.sock") as server:
            result = await closed_loop(
                str(tmp_path / "s.sock"), [h.frame for h in halves], 8, 0.3)
            return result, server.received

    result, received = asyncio.run(scenario())
    assert {f.connection for f in result.frames} == {0, 1}
    assert result.samples == 8 * len(result.frames) == len(received)
    per_vm = {}
    connection_of = {}
    for connection, vm, values in received:
        per_vm.setdefault(vm, []).append(values)
        assert connection_of.setdefault(vm, connection) == connection
    for vm, seen in per_vm.items():
        rows = fleet.rows[vm]
        assert seen == [rows[j % len(rows)].tolist() for j in range(len(seen))]
    # One frame outstanding per connection: a frame is only sent after
    # the previous one on that connection was answered.
    for c in (0, 1):
        frames = [f for f in result.frames if f.connection == c]
        for a, b in zip(frames, frames[1:]):
            assert b.sent_at >= a.replied_at
            assert b.start == a.start + a.count
    assert result.samples_per_s(0.1) > 0


def test_schedule_is_even_or_seeded_poisson():
    import random

    assert schedule(4, 2.0) == [0.0, 0.5, 1.0, 1.5]
    a = schedule(5000, 1000.0, random.Random(3))
    assert a == schedule(5000, 1000.0, random.Random(3))
    assert a != schedule(5000, 1000.0, random.Random(4))
    assert a[0] == 0.0 and a == sorted(a)
    assert a[-1] == pytest.approx(5.0, rel=0.1)   # mean rate holds
    gaps = [y - x for x, y in zip(a, a[1:])]
    assert max(gaps) > 4 * (sum(gaps) / len(gaps))  # bursts and lulls


def test_a_short_remainder_joins_the_last_whole_segment():
    from bench.loadgen import OpenLoopResult

    due = [i / 100.0 for i in range(1007)]          # 10.07 s
    result = OpenLoopResult(due, 1.0, [0.0] * 1007, [0.001] * 1007,
                            [{}] * 1007, 10.07)
    segments = result.segments()
    assert sorted(set(segments)) == list(range(10))
    assert segments.count(9) == 107
