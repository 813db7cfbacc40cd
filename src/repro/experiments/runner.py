"""End-to-end experiment runs (paper Sec. III-B protocol).

One run = one application + one fault type + one management scheme:

* the run lasts 1200–1800 s (default 1500 s);
* the same fault is injected twice for ~300 s each, separated by a
  normal period — the model learns the anomaly during the first
  injection and predicts the second;
* between injections the runner triggers an elastic scale-back to the
  baseline allocation (see
  :meth:`~repro.core.actuation.PreventionActuator.reset_allocations`),
  so both injections start from identical resource conditions;
* each experiment is repeated (the paper uses 5 repetitions) with
  different seeds, reporting mean and standard deviation of the SLO
  violation time.

Setting :attr:`ExperimentConfig.telemetry` runs the same protocol with
the :mod:`repro.obs` observability layer attached: the result then
carries a :class:`~repro.obs.RunTelemetry` summary and the live
:class:`~repro.obs.Observability` bundle (metrics registry + span
trace) for export — the ``repro telemetry`` CLI subcommand is the
one-run face of this flag.  Grids of runs (scenario x scheme x seed
sweeps) are better submitted through the campaign engine
(:mod:`repro.experiments.campaign`), which shards them over a worker
pool and checkpoints per-job results.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.chaos import ChaosEngine, ChaosSpec
from repro.core.actuation import PreventionAction
from repro.core.controller import PrepareConfig
from repro.obs import Observability, RunTelemetry, build_run_telemetry
from repro.faults.base import Fault, FaultKind
from repro.experiments.scenarios import build_testbed, make_fault
from repro.experiments.schemes import deploy_scheme
from repro.sim.monitor import DEFAULT_SAMPLING_INTERVAL, MonitorTrace

__all__ = ["ExperimentConfig", "ExperimentResult", "ReplicateSummary",
           "run_experiment", "run_replicates"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment run."""

    app: str                       # "system-s" or "rubis"
    fault: FaultKind
    scheme: str                    # "prepare" | "reactive" | "none"
    action_mode: str = "scaling"   # "scaling" | "migration" | "auto"
    seed: int = 1
    duration: float = 1500.0
    first_injection_at: float = 350.0
    injection_duration: float = 300.0
    injection_gap: float = 300.0
    injection_count: int = 2
    reset_settle: float = 60.0
    #: Seconds before each injection at which allocations are reset to
    #: baseline, so every injection starts from identical resource
    #: conditions regardless of what earlier (possibly spurious)
    #: prevention actions left behind.
    pre_injection_reset: float = 30.0
    sampling_interval: float = DEFAULT_SAMPLING_INTERVAL
    #: Multiplier on the monitor's measurement-noise standard
    #: deviations (1.0 = calibrated defaults).
    noise_scale: float = 1.0
    #: Probability of an individual VM read failing per monitoring
    #: round (forward-filled as a stale repeat).
    monitor_drop_rate: float = 0.0
    controller: Optional[PrepareConfig] = None
    #: Enable the observability layer (metrics, span tracing, run
    #: telemetry — see :mod:`repro.obs`).  Off by default: the
    #: instrumented components then use shared no-op handles.
    telemetry: bool = False
    #: Override the actuator's allocation growth factor (None keeps the
    #: :class:`~repro.core.actuation.PreventionActuator` default).
    scale_factor: Optional[float] = None
    #: Infrastructure chaos: a :class:`repro.chaos.ChaosSpec` (or the
    #: equivalent mapping, or ``None``).  When any policy is enabled the
    #: run gets a :class:`~repro.chaos.ChaosEngine` injecting faults
    #: and the actuator runs under the spec's resilience policy
    #: (retries + breakers).  ``None``/all-zero rates leave every code
    #: path byte-identical to a chaos-free run.
    chaos: Optional[object] = None

    def injection_windows(self) -> List[Tuple[float, float]]:
        windows = []
        start = self.first_injection_at
        for _ in range(self.injection_count):
            windows.append((start, start + self.injection_duration))
            start += self.injection_duration + self.injection_gap
        return windows


@dataclass
class ExperimentResult:
    """Measurements extracted from one finished run."""

    config: ExperimentConfig
    #: Total SLO violation time over the whole run, seconds (Figs. 6/8).
    violation_time: float
    #: Violation time within each injection window (+post margin).
    per_injection_violation: List[float]
    #: SLO metric trace (timestamps, values) — Figs. 7/9.
    trace_times: List[float]
    trace_values: List[float]
    #: Prevention actions taken.
    actions: List[PreventionAction]
    #: Count of proactive (prediction-triggered) actions.
    proactive_actions: int
    #: What the monitor measured (for trace-driven accuracy work): the
    #: run's trace arrays, and a mapping of VM name to its
    #: :class:`~repro.sim.monitor.MetricSample` list, built on access.
    samples: MonitorTrace
    #: SLO state at each monitoring timestamp (shared across VMs).
    sample_labels: List[int]
    #: Ground-truth injection windows.
    injections: List[Tuple[float, float]]
    slo_metric_name: str
    #: Per-run telemetry summary (populated when ``config.telemetry``).
    telemetry: Optional[RunTelemetry] = None
    #: The live observability bundle behind the summary — exposes the
    #: metrics registry and span trace for export (None when disabled).
    observability: Optional[Observability] = None
    #: Resilience summary (chaos runs only): injected-fault counts plus
    #: retry / breaker / imputation totals.  None on clean runs.
    resilience: Optional[Dict[str, object]] = None

    @property
    def violation_time_second_injection(self) -> float:
        return (
            self.per_injection_violation[-1]
            if self.per_injection_violation else 0.0
        )


@dataclass
class ReplicateSummary:
    """Mean/stddev over repeated runs (the paper's error bars)."""

    config: ExperimentConfig
    violation_times: List[float]
    results: List[ExperimentResult]

    @property
    def mean(self) -> float:
        return float(np.mean(self.violation_times))

    @property
    def std(self) -> float:
        if len(self.violation_times) < 2:
            return 0.0
        return float(np.std(self.violation_times, ddof=1))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute one full run and collect its measurements."""
    windows = config.injection_windows()
    end_of_schedule = windows[-1][1] if windows else 0.0
    if config.duration <= end_of_schedule:
        raise ValueError(
            f"duration {config.duration} does not cover the injection "
            f"schedule ending at {end_of_schedule}"
        )
    testbed = build_testbed(
        config.app,
        seed=config.seed,
        sampling_interval=config.sampling_interval,
        duration_hint=config.duration + 60.0,
        noise_scale=config.noise_scale,
        monitor_drop_rate=config.monitor_drop_rate,
    )
    obs = (
        Observability(clock=lambda: testbed.sim.now)
        if config.telemetry else None
    )
    chaos_spec = ChaosSpec.coerce(config.chaos)
    if chaos_spec is not None and not chaos_spec.enabled:
        chaos_spec = None
    resilience = None
    if chaos_spec is not None:
        # Per-run jitter stream: same chaos spec, different experiment
        # seeds must not share backoff draws.
        base = chaos_spec.resilience
        resilience = dataclasses.replace(
            base, seed=base.seed + 1000003 * config.seed + chaos_spec.seed
        )
    scheme = deploy_scheme(
        testbed, config.scheme, action_mode=config.action_mode,
        config=config.controller, obs=obs, resilience=resilience,
    )
    chaos_engine = None
    if chaos_spec is not None:
        chaos_engine = ChaosEngine(
            chaos_spec, testbed.sim, run_seed=config.seed, obs=obs,
        )
        chaos_engine.attach(testbed.monitor, testbed.cluster)
    if config.scale_factor is not None and scheme.actuator is not None:
        if config.scale_factor <= 1.0:
            raise ValueError(
                f"scale factor must exceed 1.0, got {config.scale_factor}"
            )
        scheme.actuator.scale_factor = config.scale_factor

    fault = make_fault(testbed, config.fault)
    for start, _end in windows:
        testbed.injector.inject(fault, start, config.injection_duration)
    # Elastic scale-back between injections (and after the last one),
    # plus a reset just before each injection so that every injection
    # starts from the same baseline allocation.
    for start, end in windows:
        if config.pre_injection_reset > 0:
            testbed.sim.schedule_at(
                max(0.0, start - config.pre_injection_reset),
                scheme.reset_allocations,
                label="allocation-reset-pre",
            )
        testbed.sim.schedule_at(
            end + config.reset_settle, scheme.reset_allocations,
            label="allocation-reset",
        )

    testbed.app.start()
    testbed.monitor.start(start_at=config.sampling_interval)
    testbed.sim.run_until(config.duration)

    slo = testbed.app.slo
    violation_time = slo.violation_time(0.0, config.duration)
    margin = 60.0
    per_injection = [
        slo.violation_time(start, min(end + margin, config.duration))
        for start, end in windows
    ]
    times, values = slo.metric_trace()
    actions = list(scheme.actuator.actions) if scheme.actuator else []
    proactive = sum(1 for a in actions if a.proactive)
    trace = testbed.monitor.traces
    sample_labels = slo.violated_at_many(trace.times).astype(int).tolist()
    resilience_summary: Optional[Dict[str, object]] = None
    if chaos_engine is not None:
        fault_events = chaos_engine.event_counts()
        resilience_summary = {
            "fault_events": fault_events,
            "fault_events_total": int(sum(fault_events.values())),
        }
        if scheme.actuator is not None:
            resilience_summary.update(scheme.actuator.resilience_stats)
        if scheme.controller is not None:
            resilience_summary.update(scheme.controller.resilience_stats)
    telemetry = None
    if obs is not None:
        telemetry = build_run_telemetry(
            events=scheme.controller.events if scheme.controller else None,
            actions=actions,
            tracer=obs.tracer,
            meta={
                "app": config.app,
                "fault": config.fault.value,
                "scheme": config.scheme,
                "action_mode": config.action_mode,
                "seed": config.seed,
                "duration_s": config.duration,
            },
            injections=windows,
            resilience=resilience_summary,
        )
    return ExperimentResult(
        config=config,
        violation_time=violation_time,
        per_injection_violation=per_injection,
        trace_times=times,
        trace_values=values,
        actions=actions,
        proactive_actions=proactive,
        samples=trace,
        sample_labels=sample_labels,
        injections=windows,
        slo_metric_name=testbed.app.slo_metric_name(),
        telemetry=telemetry,
        observability=obs,
        resilience=resilience_summary,
    )


def run_replicates(config: ExperimentConfig, repeats: int = 5) -> ReplicateSummary:
    """Repeat a run with different seeds (paper: five repetitions)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    results = []
    for i in range(repeats):
        results.append(run_experiment(replace(config, seed=config.seed + 101 * i)))
    return ReplicateSummary(
        config=config,
        violation_times=[r.violation_time for r in results],
        results=results,
    )
