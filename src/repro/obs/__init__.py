"""Observability layer: metrics, tracing, and run telemetry.

The seed repo's :class:`~repro.core.events.EventLog` answers "what did
the controller decide?"; this package answers the operational
questions around it — how often, how fast, and at what host cost:

* :mod:`repro.obs.metrics` — counters / gauges / histograms with
  Prometheus-text and JSON export;
* :mod:`repro.obs.tracing` — span tracing (sim + wall clocks) over the
  loop stages and hypervisor verbs;
* :mod:`repro.obs.telemetry` — the per-run summary record, its JSONL
  persistence, and the text renderer behind ``repro telemetry``.

:class:`Observability` bundles one registry and one tracer and is the
single handle threaded through the controller, actuator wiring and
hypervisor.  Instrumentation is **off by default**: components fall
back to :data:`NULL_OBS`, whose metrics and spans are shared no-op
objects, so the hot predict path pays only a no-op call per stage.
``bench/run.py`` reads what enabled telemetry costs as
``trace.overhead_share`` (see ``docs/observability.md``).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.telemetry import (
    RunTelemetry,
    build_run_telemetry,
    read_telemetry_jsonl,
    render_telemetry,
    write_telemetry_jsonl,
)
from repro.obs.tracing import (
    LOOP_STAGES,
    NULL_SPAN,
    SPAN_MIGRATE,
    SPAN_SCALE,
    STAGE_ACTUATE,
    STAGE_CLASSIFY,
    STAGE_DIAGNOSIS,
    STAGE_INGEST,
    STAGE_PREDICT,
    STAGE_RETRAIN,
    STAGE_VALIDATE,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Observability",
    "NullObservability",
    "NULL_OBS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "parse_prometheus_text",
    "Tracer",
    "NullTracer",
    "Span",
    "NULL_SPAN",
    "RunTelemetry",
    "build_run_telemetry",
    "render_telemetry",
    "write_telemetry_jsonl",
    "read_telemetry_jsonl",
    "LOOP_STAGES",
    "STAGE_INGEST",
    "STAGE_PREDICT",
    "STAGE_CLASSIFY",
    "STAGE_DIAGNOSIS",
    "STAGE_ACTUATE",
    "STAGE_VALIDATE",
    "STAGE_RETRAIN",
    "SPAN_SCALE",
    "SPAN_MIGRATE",
]

#: Histogram of host seconds per span, labelled by span name — filled
#: automatically from the tracer's finish hook.
STAGE_SECONDS_METRIC = "prepare_stage_seconds"


class Observability:
    """One metrics registry + one tracer, wired together.

    ``clock`` supplies sim time for spans (pass the simulator's ``now``);
    every finished span also lands in the ``prepare_stage_seconds``
    histogram so latency is visible in both export formats.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = 100_000,
    ) -> None:
        self.metrics = MetricsRegistry()
        self._stage_seconds = self.metrics.histogram(
            STAGE_SECONDS_METRIC,
            "Host seconds spent per control-loop stage",
            labelnames=("stage",),
        )
        self.tracer = Tracer(
            clock=clock, max_spans=max_spans, on_finish=self._observe_span
        )

    def _observe_span(self, span: Span) -> None:
        self._stage_seconds.observe(span.wall_duration, stage=span.name)

    def span(self, name: str, **attributes: object):
        """Shorthand for ``obs.tracer.span(...)``."""
        return self.tracer.span(name, **attributes)


class _NullMetric:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class _NullRegistry:
    """Registry twin that hands out the shared no-op metric."""

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> _NullMetric:
        return _NULL_METRIC

    def get(self, name: str) -> None:
        return None

    def __contains__(self, name: str) -> bool:
        return False

    def __iter__(self) -> Iterator:
        return iter(())

    def render_prometheus(self) -> str:
        return ""

    def to_dict(self) -> dict:
        return {}


class NullObservability:
    """Disabled observability: all instrumentation becomes no-ops."""

    enabled = False

    def __init__(self) -> None:
        self.metrics = _NullRegistry()
        self.tracer = NullTracer()

    def span(self, name: str, **attributes: object):
        return NULL_SPAN


#: Shared disabled instance — the default for every instrumented
#: component, so observability costs nothing unless requested.
NULL_OBS = NullObservability()
