"""Open- and closed-loop load generators over the newline-JSON protocol.

**Open loop**: sample ``i`` is *due* at a scheduled instant whatever the
server does, and its latency runs from that due instant to its reply.  A server that stalls for 200 ms therefore
charges the stall to every sample that was due during it, not only to
the one request a waiting client would have had in flight — the
queueing a fleet of independent VMs actually experiences.  How late
the generator itself ran is reported beside the latencies.

**Closed loop**: each connection keeps exactly one ``batch`` frame
outstanding, so the server sets the pace and the result is a
throughput.

Both run in the caller's process on at most ``nproc`` connections and
keep every reply for the parity check.
"""

from __future__ import annotations

import asyncio
import json
import random
import select
import socket
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from bench.stats import median, percentile, segment_medians

__all__ = ["Saturated", "OpenLoopResult", "ClosedLoopResult", "Frame",
           "schedule", "open_loop", "closed_loop", "request",
           "latency_summary"]

_READ_LIMIT = 1 << 20


class Saturated(RuntimeError):
    """The server could not keep up with the offered rate."""


@dataclass
class OpenLoopResult:
    #: seconds after the start at which each request was due
    due: Sequence[float]
    segment_seconds: float
    #: seconds after the due instant at which each line was written
    late: List[float]
    #: seconds from due to reply; ``None`` where no reply came
    latency: List[Optional[float]]
    replies: List[Optional[Dict]]
    #: first due instant → last reply, seconds
    wall: float

    @property
    def sent(self) -> int:
        return len(self.late)

    @property
    def answered(self) -> int:
        return sum(1 for value in self.latency if value is not None)

    def segment_of(self, i: int) -> int:
        """Requests are grouped by due instant into whole segments; a
        short remainder at the end joins the last whole one."""
        whole = max(1, round(self.due[-1] / self.segment_seconds))
        return min(int(self.due[i] / self.segment_seconds), whole - 1)

    def segments(self) -> List[int]:
        return [self.segment_of(i) for i in range(self.sent)]

    def backlog(self) -> List[int]:
        """Requests due but unanswered at the end of each segment."""
        done_at = sorted(due + lat for due, lat in zip(self.due, self.latency)
                         if lat is not None)
        out = []
        for s in range(self.segment_of(self.sent - 1) + 1):
            edge = (s + 1) * self.segment_seconds
            out.append(bisect_right(self.due, edge)
                       - bisect_right(done_at, edge))
        return out

    def check_not_saturated(self) -> None:
        """Raise :class:`Saturated` if replies are missing, or if the
        median latency over the second half of the run is more than
        twice that over the first half.

        A backlog that grows steadily from a baseline ``b`` doubles the
        half-medians once the latency at the end has passed ``5 b``;
        one slow second — which this host produces now and then — moves
        one segment of a half and leaves its median alone.
        """
        if self.answered < self.sent:
            raise Saturated(
                f"{self.sent - self.answered} of {self.sent} requests "
                f"unanswered at the end of the run")
        by_segment: Dict[int, List[float]] = {}
        for i, lat in enumerate(self.latency):
            by_segment.setdefault(self.segment_of(i), []).append(lat)
        medians = [median(by_segment[s]) for s in sorted(by_segment)]
        half = len(medians) // 2
        if half == 0:
            return
        first, last = median(medians[:half]), median(medians[half:])
        if last > 2.0 * first:
            raise Saturated(
                f"median latency grew from {1e3 * first:.2f} ms over the "
                f"first half of the run to {1e3 * last:.2f} ms over the "
                f"second")


def schedule(n: int, rate: float, rng: Optional[random.Random] = None
             ) -> List[float]:
    """Due instants of ``n`` requests at ``rate`` per second: evenly
    spaced, or — given ``rng`` — Poisson arrivals, the superposition of
    many independent senders."""
    if rng is None:
        return [i / rate for i in range(n)]
    out, now = [], 0.0
    for _ in range(n):
        out.append(now)
        now += rng.expovariate(rate)
    return out


async def open_loop(
    path: str,
    lines: Sequence[bytes],
    due: Sequence[float],
    segment_seconds: float = 1.0,
    grace: float = 3.0,
) -> OpenLoopResult:
    """Send ``lines[i]`` (whose ``id`` must be ``i``) ``due[i]`` seconds
    after the start; ``due`` is ascending (see :func:`schedule`).

    Returns once every reply arrived or ``grace`` seconds passed after
    the last line was written.

    Sender and receiver are two threads on one blocking socket, not
    event-loop tasks: the loop's timers wake on millisecond edges, which
    at 0.5 ms between samples sends them in clumps whose phase against
    the server's own 2 ms batch timer is fixed for a whole run and
    moved the median latency by a millisecond between runs.
    ``time.sleep`` wakes within ~0.1 ms of the due instant.
    """
    n = len(lines)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(path)
    late: List[float] = [0.0] * n
    latency: List[Optional[float]] = [None] * n
    replies: List[Optional[Dict]] = [None] * n
    clock = time.perf_counter
    start = clock() + 0.02
    sent_all = threading.Event()

    def send() -> None:
        try:
            i = 0
            while i < n:
                elapsed = clock() - start
                j = i
                while j < n and due[j] <= elapsed:
                    late[j] = elapsed - due[j]
                    j += 1
                if j > i:
                    sock.sendall(b"".join(lines[i:j]))
                    i = j
                else:
                    time.sleep(due[i] - elapsed)
        finally:
            sent_all.set()

    def receive() -> float:
        """Returns the instant of the last reply."""
        answered = 0
        tail = b""
        last_reply = start
        deadline = None
        while answered < n:
            if deadline is None and sent_all.is_set():
                deadline = clock() + grace
            wait = 0.05 if deadline is None else deadline - clock()
            if wait <= 0:
                break
            if not select.select([sock], [], [], min(wait, 0.05))[0]:
                continue
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            now = clock()
            *full, tail = (tail + chunk).split(b"\n")
            for raw in full:
                reply = json.loads(raw)
                i = reply.get("id")
                if isinstance(i, int) and 0 <= i < n and latency[i] is None:
                    latency[i] = now - start - due[i]
                    replies[i] = reply
                    answered += 1
            last_reply = now
        return last_reply

    try:
        _, last_reply = await asyncio.gather(
            asyncio.to_thread(send), asyncio.to_thread(receive))
    finally:
        sock.close()
    return OpenLoopResult(due, segment_seconds, late, latency, replies,
                          last_reply - start)


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


@dataclass
class Frame:
    """One closed-loop ``batch`` round trip."""

    connection: int
    start: int          # stream position of the frame's first sample
    count: int
    sent_at: float      # seconds since the run's start
    replied_at: float
    reply: Dict


@dataclass
class ClosedLoopResult:
    seconds: float
    frames: List[Frame] = field(default_factory=list)

    @property
    def samples(self) -> int:
        return sum(frame.count for frame in self.frames)

    def samples_per_s(self, segment_seconds: float = 1.0) -> float:
        """Median over whole segments of samples answered per second."""
        n_segments = int(self.seconds / segment_seconds)
        if n_segments < 1:
            return self.samples / self.seconds
        counts = [0] * n_segments
        for frame in self.frames:
            s = int(frame.replied_at / segment_seconds)
            if s < n_segments:
                counts[s] += frame.count
        return median(counts) / segment_seconds

    def round_trips(self) -> List[float]:
        return [f.replied_at - f.sent_at for f in self.frames]


async def closed_loop(
    path: str,
    make_frame: Sequence[Callable[[int, int, int], bytes]],
    frame_samples: int,
    seconds: float,
    max_samples: Optional[int] = None,
) -> ClosedLoopResult:
    """One connection per entry of ``make_frame``; each keeps a single
    ``frame_samples``-sample batch outstanding for ``seconds``, or
    until it has sent ``max_samples``.

    ``make_frame[c](start, count, msg_id)`` encodes connection ``c``'s
    next frame (see :meth:`bench.synth.Stream.frame`).
    """
    clock = time.perf_counter
    start = clock()
    result = ClosedLoopResult(seconds)

    async def drive(c: int) -> None:
        reader, writer = await asyncio.open_unix_connection(
            path, limit=1 << 22)
        try:
            position = 0
            while clock() - start < seconds and (
                    max_samples is None or position < max_samples):
                data = make_frame[c](position, frame_samples, position)
                sent_at = clock() - start
                writer.write(data)
                await writer.drain()
                raw = await reader.readline()
                if not raw:
                    raise ConnectionError("server closed the connection")
                result.frames.append(Frame(
                    c, position, frame_samples, sent_at,
                    clock() - start, json.loads(raw)))
                position += frame_samples
        finally:
            await _close(writer)

    await asyncio.gather(*(drive(c) for c in range(len(make_frame))))
    return result


async def request(path: str, message: Dict, timeout: float = 30.0) -> Dict:
    """One control op (``ping``/``stats``/``reset``/``drain``) on a
    fresh connection."""
    reader, writer = await asyncio.open_unix_connection(
        path, limit=_READ_LIMIT)
    try:
        writer.write((json.dumps(message) + "\n").encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.readline(), timeout)
        if not raw:
            raise ConnectionError("server closed the connection")
        return json.loads(raw)
    finally:
        await _close(writer)


def latency_summary(result: OpenLoopResult) -> Dict[str, float]:
    """Segment-median p50/p95 plus whole-run p99 and max, in ms."""
    answered = [(lat, seg) for lat, seg in
                zip(result.latency, result.segments()) if lat is not None]
    values = [lat for lat, _ in answered]
    by_segment = segment_medians(
        values, [seg for _, seg in answered], (0.5, 0.95))
    return {
        "p50_ms": 1e3 * by_segment[0.5],
        "p95_ms": 1e3 * by_segment[0.95],
        "p99_ms": 1e3 * percentile(values, 0.99),
        "max_ms": 1e3 * max(values),
        "late_p99_ms": 1e3 * percentile(result.late, 0.99),
    }
