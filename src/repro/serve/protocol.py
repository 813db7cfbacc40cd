"""Newline-JSON wire protocol for the streaming prediction service.

One JSON object per line, UTF-8, ``\\n``-terminated, in both
directions.  Requests carry an ``op``:

``sample``
    ``{"op": "sample", "vm": "web-0", "values": [...], "id": 7,
    "steps": 4}`` — one metric vector for one VM.  ``id`` (optional)
    is echoed in the reply so clients can correlate out-of-band;
    ``steps`` (optional, at most :data:`MAX_STEPS`) overrides the
    service's look-ahead.
``observe``
    Same shape as ``sample`` but the vector only extends the VM's
    trailing history — it is never scored.  This is how the serving
    fabric rehydrates a restarted worker so it scores
    bitwise-identically to an uninterrupted one.
``batch``
    ``{"op": "batch", "id": 3, "samples": [{...}, ...]}`` — up to
    :data:`MAX_BATCH_SAMPLES` ``sample``/``observe`` bodies processed
    in order and answered as **one** ``batch`` reply whose ``replies``
    array is aligned with ``samples``.  Amortizes per-line framing
    cost; the decisions are identical to sending each sample alone.
``ping`` / ``stats`` / ``drain`` / ``reset``
    Control ops: liveness, service counters, a barrier that flushes
    every queued sample before replying, and a full trailing-history
    reset (used by the fabric before rehydration).  An optional ``id``
    is echoed in the reply.

Replies carry ``ok`` and a ``kind``: ``score`` (the prediction),
``warmup`` (not enough history for this VM yet), ``shed`` (queue full,
sample dropped from scoring), ``observed``, ``batch``, ``pong`` /
``stats`` / ``drained`` / ``reset``, or ``error``.  Replies to
``sample`` ops arrive in arrival order per connection.

Hostile input never crashes the server: lines that are not UTF-8,
contain NUL bytes, exceed the reader's line limit, or fail validation
get a typed ``error`` reply (oversized lines additionally close the
connection, since the rest of the line cannot be safely resynced).
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Union

if TYPE_CHECKING:
    import asyncio

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_BATCH_SAMPLES",
    "MAX_STEPS",
    "ProtocolError",
    "check_steps",
    "decode_line",
    "encode_message",
]

#: Bumped on incompatible wire-format changes.
PROTOCOL_VERSION = 2

#: Requests the service understands.
REQUEST_OPS = frozenset(
    {"sample", "observe", "batch", "ping", "stats", "drain", "reset"}
)

#: Sample ops a ``batch`` request may carry (control ops cannot nest).
BATCHABLE_OPS = frozenset({"sample", "observe"})

#: Hard cap on ``samples`` per ``batch`` request.
MAX_BATCH_SAMPLES = 1024

#: Deepest look-ahead a request or a service default may ask for.  A
#: horizon-table miss runs ``steps`` contractions inside the event
#: loop, so the wire bounds it; the paper's windows are tens of steps.
MAX_STEPS = 256


class ProtocolError(ValueError):
    """A line is not a valid protocol message."""


def encode_message(message: Dict) -> bytes:
    """Serialize one message to a newline-terminated JSON line."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: Union[str, bytes]) -> Dict:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` on malformed JSON, embedded NUL
    bytes, unknown ops, and ``sample``/``observe``/``batch`` requests
    with missing/non-finite fields.
    """
    if isinstance(line, bytes):
        if b"\x00" in line:
            raise ProtocolError("line contains NUL bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"line is not UTF-8: {exc}") from None
    elif "\x00" in line:
        raise ProtocolError("line contains NUL bytes")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"line is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(message).__name__}"
        )
    op = message.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(f"unknown op {op!r} (want one of {sorted(REQUEST_OPS)})")
    if op in BATCHABLE_OPS:
        _validate_sample(message)
    elif op == "batch":
        _validate_batch(message)
    return message


def check_steps(steps: object) -> None:
    """Raise :class:`ProtocolError` unless ``steps`` is an integer in
    ``[1, MAX_STEPS]`` (requests and service defaults alike)."""
    if isinstance(steps, bool) or not isinstance(steps, int) or not (
        1 <= steps <= MAX_STEPS
    ):
        raise ProtocolError(
            f"'steps' must be an integer in [1, {MAX_STEPS}], got {steps!r}"
        )


def _validate_sample(message: Dict) -> None:
    vm = message.get("vm")
    if not isinstance(vm, str) or not vm:
        raise ProtocolError("sample needs a non-empty string 'vm'")
    if "\x00" in vm:
        raise ProtocolError("'vm' contains NUL bytes")
    values = message.get("values")
    if not isinstance(values, list) or not values:
        raise ProtocolError("sample needs a non-empty 'values' array")
    floats: List[float] = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ProtocolError(f"sample value {v!r} is not a number")
        f = float(v)
        if not math.isfinite(f):
            raise ProtocolError(f"sample value {v!r} is not finite")
        floats.append(f)
    message["values"] = floats
    if message.get("steps") is not None:
        check_steps(message["steps"])


def _validate_batch(message: Dict) -> None:
    samples = message.get("samples")
    if not isinstance(samples, list) or not samples:
        raise ProtocolError("batch needs a non-empty 'samples' array")
    if len(samples) > MAX_BATCH_SAMPLES:
        raise ProtocolError(
            f"batch carries {len(samples)} samples "
            f"(max {MAX_BATCH_SAMPLES})"
        )
    for i, sample in enumerate(samples):
        if not isinstance(sample, dict):
            raise ProtocolError(f"batch sample {i} is not an object")
        op = sample.get("op", "sample")
        if op not in BATCHABLE_OPS:
            raise ProtocolError(
                f"batch sample {i}: op {op!r} cannot be batched"
            )
        sample["op"] = op
        try:
            _validate_sample(sample)
        except ProtocolError as exc:
            raise ProtocolError(f"batch sample {i}: {exc}") from None


class _BatchReply:
    """Collects the per-sample replies of one ``batch`` request.

    Replies land in their sample's slot (so the reply array is aligned
    with the request's ``samples`` array no matter how scoring
    interleaves) and the combined line is written once the last slot
    fills.
    """

    __slots__ = ("writer", "lock", "msg_id", "replies", "remaining")

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        msg_id: object,
        count: int,
    ) -> None:
        self.writer = writer
        self.lock = lock
        self.msg_id = msg_id
        self.replies: List[Optional[Dict]] = [None] * count
        self.remaining = count

    def set(self, slot: int, reply: Dict) -> Optional[Dict]:
        """Fill one slot; returns the combined reply when complete."""
        if self.replies[slot] is None:
            self.remaining -= 1
        self.replies[slot] = reply
        if self.remaining:
            return None
        return {
            "ok": True,
            "kind": "batch",
            "id": self.msg_id,
            "n": len(self.replies),
            "replies": self.replies,
        }
