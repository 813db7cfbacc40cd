"""Append-only per-shard write-ahead log of VM samples.

The serving fabric's router journals every sample for a shard *before*
forwarding it to the shard's worker.  Workers are stateless: when one
crashes, the supervisor restarts it and the router rehydrates the
fresh process from the journal's in-memory tails (``reset`` followed
by ``observe`` per retained sample), so the recovered worker's
trailing histories — and therefore its scores — are bitwise-identical
to an uninterrupted worker's.

Format: one compact JSON object per line,
``{"vm":...,"values":[...]}``, UTF-8, append-only.  Each line is
spliced from the VM's JSON name, encoded once per journal, and the
sample's values text, encoded once per sample; :meth:`ShardJournal.extend`
hands those *records* (a line without its closing ``}``) back so the
router splices the same text into the worker hop.  Replay reads any
JSON object of that shape.  Only the **trailing window** per VM matters (a
VM's deque holds ``history_needed`` samples), so the file is
periodically compacted: the retained tails are rewritten to a temp
file which atomically replaces the log (write + fsync + rename, the
same recipe the model registry uses for ``active.json``).

Crash tolerance mirrors the campaign runner's ``results.jsonl``: a
torn tail — a partial last line from a router killed mid-write — is
detected and dropped on replay instead of poisoning recovery.  Replay
stops at the first undecodable line; everything before it is intact
because lines are only ever appended.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["ShardJournal", "decode_record", "iter_wal_records"]


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _wal_bytes(records: Sequence[str]) -> bytes:
    """WAL lines for records: each record closed with ``}`` + newline."""
    return ("}\n".join(records) + "}\n").encode("utf-8") if records else b""


def decode_record(raw: bytes) -> Optional[Tuple[str, List[float]]]:
    """Decode one WAL line; None for torn/corrupt lines."""
    if not raw.endswith(b"\n"):
        return None
    try:
        record = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    vm = record.get("vm")
    values = record.get("values")
    if not isinstance(vm, str) or not isinstance(values, list):
        return None
    try:
        return vm, [float(v) for v in values]
    except (TypeError, ValueError):
        return None


def iter_wal_records(
    path: os.PathLike,
) -> Iterator[Tuple[str, List[float]]]:
    """Yield ``(vm, values)`` from a WAL file, tolerating a torn tail.

    Iteration stops at the first undecodable line: the file is
    append-only, so nothing after a torn write can be valid.  A
    missing file yields nothing.  The fabric uses this to re-shard WAL
    history when the worker count changes between runs.
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, "rb") as fh:
        for raw in fh:
            record = decode_record(raw)
            if record is None:
                break
            yield record


class ShardJournal:
    """WAL + in-memory trailing tails for one shard's VMs.

    Parameters
    ----------
    path:
        The journal file.  Created (with parents) on :meth:`open`.
    history_needed:
        Per-VM trailing-window lengths — exactly the
        ``predictor.history_needed`` of the shard's pipelines, so the
        retained tails are precisely what a worker needs to score.
    compact_factor:
        Auto-compact once the file holds more than ``compact_factor``
        times the total retained capacity (0 disables auto-compaction).
    """

    def __init__(
        self,
        path: os.PathLike,
        history_needed: Dict[str, int],
        compact_factor: int = 8,
    ) -> None:
        if not history_needed:
            raise ValueError("journal needs at least one VM")
        for vm, need in history_needed.items():
            if need < 1:
                raise ValueError(
                    f"history_needed for VM {vm!r} must be >= 1, got {need}"
                )
        self.path = Path(path)
        self.compact_factor = compact_factor
        self._capacity = sum(history_needed.values())
        self._tails: Dict[str, Deque[List[float]]] = {
            vm: deque(maxlen=need) for vm, need in history_needed.items()
        }
        #: each VM's record prefix, ``{"vm":<JSON name>,"values":``
        self._heads: Dict[str, str] = {
            vm: '{"vm":' + _ENCODER.encode(vm) + ',"values":'
            for vm in history_needed
        }
        self._fh = None
        self._records_on_disk = 0
        self._torn_lines = 0
        self._n_appended = 0
        self._n_compactions = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self) -> int:
        """Replay any existing log into the tails, then open for append.

        Returns the number of records replayed.  A torn tail (partial
        final line) is dropped; replay stops at the first undecodable
        line since every complete record precedes any torn write.
        """
        if self._fh is not None:
            raise RuntimeError("journal is already open")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        replayed = 0
        if self.path.exists():
            for vm, values in self._replay_records():
                tail = self._tails.get(vm)
                if tail is not None:
                    tail.append(values)
                replayed += 1
            self._records_on_disk = replayed
        self._fh = open(self.path, "ab")
        return replayed

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ShardJournal":
        self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, vm: str, values: List[float]) -> None:
        """Journal one sample: the one-record case of :meth:`extend`."""
        self.extend(((vm, values),))

    def extend(
        self, records: Sequence[Tuple[str, List[float]]]
    ) -> List[str]:
        """Journal a frame of samples with one write and one flush.

        Each record's line is the one :meth:`append` writes, so the
        file equals that of per-record appends.  Returns each record's
        text: its line without the closing ``}`` and newline, i.e.
        ``{"vm":...,"values":[...]``, open for more fields.
        Auto-compaction is checked once, after the frame.  An unknown
        VM raises ``KeyError`` before anything is written.
        """
        if self._fh is None:
            raise RuntimeError("journal is not open")
        heads, encode = self._heads, _ENCODER.encode
        frame, texts = [], []
        for vm, values in records:
            head = heads.get(vm)
            if head is None:
                raise KeyError(f"VM {vm!r} is not part of this shard")
            vals = list(map(float, values))
            frame.append((vm, vals))
            texts.append(head + encode(vals))
        if not frame:
            return texts
        self._fh.write(_wal_bytes(texts))
        self._fh.flush()
        tails = self._tails
        for vm, vals in frame:
            tails[vm].append(vals)
        self._records_on_disk += len(frame)
        self._n_appended += len(frame)
        if (
            self.compact_factor > 0
            and self._records_on_disk
            > self.compact_factor * self._capacity
        ):
            self.compact()
        return texts

    def compact(self) -> int:
        """Atomically rewrite the log from the retained tails.

        Returns the number of records in the compacted file.  The temp
        file is fsynced before the rename, so a crash at any point
        leaves either the old log or the complete new one.
        """
        if self._fh is None:
            raise RuntimeError("journal is not open")
        self._fh.close()
        self._fh = None
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        records = self.hydration_records()
        kept = len(records)
        with open(tmp, "wb") as out:
            out.write(_wal_bytes(records))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab")
        self._records_on_disk = kept
        self._n_compactions += 1
        return kept

    def reset_tails(self) -> int:
        """Drop every retained sample and compact the log to empty.

        Mirrors the service's ``reset`` op at the fabric level: after
        this, rehydration observes nothing.  Returns the number of VMs.
        """
        for tail in self._tails.values():
            tail.clear()
        if self._fh is not None:
            self.compact()
        return len(self._tails)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def tails(self) -> Dict[str, List[List[float]]]:
        """Snapshot of every VM's retained trailing samples (oldest
        first) — exactly what a worker must ``observe`` after ``reset``
        to score bitwise-identically."""
        return {vm: [list(v) for v in tail]
                for vm, tail in self._tails.items()}

    def tail_len(self, vm: str) -> int:
        """Retained samples for one VM (0 for unknown VMs)."""
        tail = self._tails.get(vm)
        return 0 if tail is None else len(tail)

    def hydration_samples(self) -> List[Tuple[str, List[float]]]:
        """Flat ``(vm, values)`` list in replay order for rehydration."""
        out: List[Tuple[str, List[float]]] = []
        for vm in sorted(self._tails):
            for values in self._tails[vm]:
                out.append((vm, list(values)))
        return out

    def hydration_records(self) -> List[str]:
        """:meth:`hydration_samples` as records, the text
        :meth:`extend` returns: what compaction writes and a restarted
        worker observes."""
        heads, encode = self._heads, _ENCODER.encode
        return [heads[vm] + encode(values)
                for vm, values in self.hydration_samples()]

    def stats(self) -> Dict[str, int]:
        return {
            "records_on_disk": self._records_on_disk,
            "appended": self._n_appended,
            "compactions": self._n_compactions,
            "torn_lines": self._torn_lines,
            "vms": len(self._tails),
            "retained": sum(len(t) for t in self._tails.values()),
        }

    def _replay_records(self) -> Iterator[Tuple[str, List[float]]]:
        with open(self.path, "rb") as fh:
            for raw in fh:
                record = decode_record(raw)
                if record is None:
                    # Torn tail: a router killed mid-append leaves one
                    # partial last line.  Nothing after it can be
                    # valid (the file is append-only), so stop here.
                    self._torn_lines += 1
                    break
                yield record
