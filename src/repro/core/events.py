"""Structured event log for the PREPARE controller.

Operating a black-box prevention loop demands observability: when a
run misbehaves, the question is always "what did the controller think
it was doing, and when?".  The controller appends one typed record per
noteworthy step — training, raw/confirmed alerts, suppression windows,
actions, validation outcomes — into a bounded, queryable log.

The log is pure data (no callbacks): tests assert on it, the CLI can
dump it, and it costs a few dict appends per round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["ControllerEvent", "EventLog"]

#: Known event kinds (free-form strings are allowed; these are the
#: ones the controller emits).
KINDS = (
    "model_trained",
    "model_train_failed",
    "model_retired",
    "raw_alert",
    "alert_confirmed",
    "suppressed",
    "diagnosis",
    "action",
    "validation",
)


@dataclass(frozen=True)
class ControllerEvent:
    """One timestamped controller decision."""

    timestamp: float
    kind: str
    vm: Optional[str] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        vm = f" vm={self.vm}" if self.vm else ""
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.timestamp:9.1f}s] {self.kind}{vm} {extras}".rstrip()

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (one JSONL record per event)."""
        return {
            "timestamp": self.timestamp,
            "kind": self.kind,
            "vm": self.vm,
            "detail": dict(self.detail),
        }


class EventLog:
    """Bounded append-only event log with simple queries."""

    def __init__(self, max_events: int = 10_000) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = max_events
        self._events: List[ControllerEvent] = []
        #: Count of events dropped after hitting the bound.
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ControllerEvent]:
        return iter(self._events)

    def emit(
        self,
        timestamp: float,
        kind: str,
        vm: Optional[str] = None,
        **detail: object,
    ) -> None:
        """Append one event (oldest events are dropped at the bound)."""
        self._events.append(
            ControllerEvent(timestamp=timestamp, kind=kind, vm=vm,
                            detail=dict(detail))
        )
        if len(self._events) > self.max_events:
            overflow = len(self._events) - self.max_events
            del self._events[:overflow]
            self.dropped += overflow

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[ControllerEvent]:
        return [e for e in self._events if e.kind == kind]

    def for_vm(self, vm: str) -> List[ControllerEvent]:
        return [e for e in self._events if e.vm == vm]

    def between(self, start: float, end: float) -> List[ControllerEvent]:
        return [e for e in self._events if start <= e.timestamp <= end]

    def counts(self) -> Dict[str, int]:
        """Event count per kind."""
        out: Dict[str, int] = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def to_dicts(self) -> List[Dict[str, object]]:
        """Every event as a JSON-serializable dict, in emit order."""
        return [event.to_dict() for event in self._events]

    def timeline(self, kinds: Optional[Tuple[str, ...]] = None) -> str:
        """Human-readable dump, optionally filtered by kind."""
        lines = [
            str(event) for event in self._events
            if kinds is None or event.kind in kinds
        ]
        return "\n".join(lines)
