"""Span log of a traced run.

Spans are recorded from the benchmark's own files, around the calls
into each layer; spans the program already emits (the controller's
stage tracer, the service's ``serve.flush``) are copied in under the
bench span that caused them.  Everything stays in memory until
:meth:`SpanLog.dump` writes ``bench/out/trace-<workload>.jsonl``, one
span per line: ``id``, ``parent`` (``null`` at the top), ``name``,
``start`` and ``end`` in seconds since the log was created,
``workload``, and free-form ``attrs``.

An untraced run uses a disabled log: :meth:`span` then yields without
recording, so the measured code is the same with tracing off.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

__all__ = ["SpanLog"]


class SpanLog:
    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **attrs: object) -> int:
        """Record a finished span with ``perf_counter`` timestamps."""
        if not self.enabled:
            return -1
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "parent": parent, "name": name,
            "start": start - self.origin, "end": end - self.origin,
            "workload": self.workload, "attrs": attrs,
        })
        return span_id

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[int]:
        """Time a block as a child of the enclosing ``span`` block."""
        if not self.enabled:
            yield -1
            return
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name, "start": time.perf_counter() - self.origin,
            "end": None, "workload": self.workload, "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.origin

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
