"""The offline path: campaign cells through ``run_experiment``.

One *operation* is a sweep: every cell of the workload run once with
one experiment seed.  The timed sweeps of a run use distinct seeds
derived from ``--seed`` (``1000 * seed + i``), because what a cell
costs depends heavily on its seed — how many VMs get implicated and
retrained differs by up to 60 % — and the median over several seeds is
far steadier than any one of them.  Seed ``i = 0`` runs twice, once as
the untimed warm-up and once timed, and its two decision digests must
be equal: that is the determinism check.

Checked per sweep: a ``prepare`` cell takes at least one prevention
action, a ``none`` cell takes none and does violate its SLO, and on the
paper cells PREPARE's violation time is below the ``none`` baseline of
the same seed.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from bench import host, layers
from bench.stats import median, percentile, tail_quantile
from bench.trace import SpanLog

from repro.experiments.runner import (
    ExperimentConfig, ExperimentResult, run_experiment)
from repro.experiments.scenarios import parse_fleet_size
from repro.faults.base import FaultKind
from repro.obs.tracing import SPAN_SCALE

__all__ = ["WORKLOADS", "run", "run_traced", "decision_digest"]

_SAMPLING = 5.0


@dataclass(frozen=True)
class Cell:
    app: str
    fault: FaultKind
    scheme: str
    duration: float
    injections: int

    def config(self, seed: int, scheme: str = "", telemetry: bool = False
               ) -> ExperimentConfig:
        return ExperimentConfig(
            app=self.app, fault=self.fault, scheme=scheme or self.scheme,
            seed=seed, duration=self.duration,
            injection_count=self.injections, telemetry=telemetry)

    @property
    def n_vms(self) -> int:
        return parse_fleet_size(self.app) or {"rubis": 4, "system-s": 7}[
            self.app]

    @property
    def vm_ticks(self) -> int:
        return int(self.duration / _SAMPLING) * self.n_vms


#: Every cell follows the paper's protocol: 1500 s, two injections.
#: Shorter cells than BENCH_campaign's hour-long one buy more sweeps —
#: hence more seeds — per run, which is what steadies the median.
WORKLOADS: Dict[str, List[Cell]] = {
    "campaign_fleet50": [
        Cell("fleet50", FaultKind.MEMORY_LEAK, "prepare", 1500.0, 2)],
    "sim_fleet200_none": [
        Cell("fleet200", FaultKind.MEMORY_LEAK, "none", 1500.0, 2)],
    "campaign_paper6": [
        Cell(app, fault, "prepare", 1500.0, 2)
        for app in ("rubis", "system-s")
        for fault in (FaultKind.MEMORY_LEAK, FaultKind.CPU_HOG,
                      FaultKind.BOTTLENECK)],
}

#: Stage span names of ``repro.obs.tracing`` → metric stems.
_STAGE_SPANS = {
    "monitor.ingest": "controller.ingest",
    "retrain": "controller.retrain",
    "predict": "controller.predict",
    "classify.reactive": "controller.classify",
    "diagnosis": "controller.diagnosis",
    "actuate": "controller.actuate",
    "validate": "controller.validate",
    SPAN_SCALE: "hypervisor.scale",
}


def decision_digest(results: List[ExperimentResult]) -> str:
    """sha256 over everything the control loop decided in a sweep:
    violation accounting, the action log and the SLO trace."""
    h = hashlib.sha256()
    for r in results:
        h.update(repr((
            r.violation_time,
            tuple(r.per_injection_violation),
            r.proactive_actions,
            tuple((a.timestamp, a.vm, a.verb, str(a.resource), a.metric,
                   a.proactive, a.completed, a.effective)
                  for a in r.actions),
            tuple(r.trace_times),
            tuple(r.trace_values),
        )).encode())
    return h.hexdigest()


def _sweep(cells: List[Cell], seed: int, scheme: str = "",
           telemetry: bool = False
           ) -> Tuple[List[ExperimentResult], float, float]:
    """Run every cell once; returns (results, wall s, CPU s).

    The collector runs first, untimed, so every sweep starts from the
    same heap: a cell allocates ~10^5 sample objects, and whether a
    full collection of the previous sweep's garbage lands inside this
    one is otherwise a coin toss worth a tenth of its wall time.  The
    collector stays on while the sweep runs — its cost is the
    program's.
    """
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    results = [run_experiment(c.config(seed, scheme, telemetry))
               for c in cells]
    return (results, time.perf_counter() - wall,
            time.process_time() - cpu)


def _sane(cells: List[Cell], results: List[ExperimentResult]) -> bool:
    for cell, r in zip(cells, results):
        if not r.violation_time >= 0.0:
            return False
        if cell.scheme == "none":
            if r.actions or r.violation_time <= 0.0:
                return False
        elif not r.actions:
            return False
    return True


def _beats_none(cells: List[Cell], results: List[ExperimentResult],
                seed: int) -> bool:
    baseline, _, _ = _sweep(cells, seed, scheme="none")
    return all(r.violation_time < b.violation_time
               for r, b in zip(results, baseline))


def run(name: str, seed: int, seconds: float, started: float,
        _work: Path, spans: SpanLog) -> Dict:
    """Timed sweeps for ``seconds``; end-to-end metrics."""
    cells = WORKLOADS[name]
    ticks = sum(c.vm_ticks for c in cells)
    check_baseline = name == "campaign_paper6"
    with spans.span("setup.warm_sweep"):
        warm, _, _ = _sweep(cells, 1000 * seed)
        warm_digest = decision_digest(warm)
    setup_s = time.perf_counter() - started

    walls: List[float] = []
    cpus: List[float] = []
    failed = 0
    digests: List[str] = []
    budget = time.perf_counter() + seconds
    i = 0
    # Start another sweep only while at least half of it fits.
    while not walls or time.perf_counter() + 0.5 * median(walls) < budget:
        sub_seed = 1000 * seed + i
        with spans.span("sweep", seed=sub_seed):
            results, wall, cpu = _sweep(cells, sub_seed)
        walls.append(wall)
        cpus.append(cpu)
        digests.append(decision_digest(results))
        ok = _sane(cells, results)
        if i == 0 and digests[0] != warm_digest:
            ok = False
        if ok and check_baseline:
            pause = time.perf_counter()
            ok = _beats_none(cells, results, sub_seed)
            budget += time.perf_counter() - pause
        failed += not ok
        i += 1

    n = len(walls)
    return {
        "attempted": n,
        "failed": failed,
        "digest": digests[0],
        "metrics": {
            "setup_s": setup_s,
            "samples_per_s": ticks / median(walls),
            "cpu_us_per_sample": 1e6 * median(cpus) / ticks,
            "latency_p50_ms": 1e3 * median(walls),
            "latency_tail_ms": 1e3 * percentile(walls, tail_quantile(n)),
            "peak_rss_mb": host.self_peak_rss_mb(),
        },
        "notes": {"sweeps": n, "vm_ticks_per_sweep": ticks,
                  "sweep_wall_s": walls},
    }


def run_traced(name: str, seed: int, seconds: float, _work: Path,
               spans: SpanLog) -> Dict:
    """Per-layer numbers: for as many seeds as fit, one sweep plain,
    one with the program's own telemetry on, one under scheme ``none``;
    then the layer probes on the last sweep's samples."""
    cells = WORKLOADS[name]
    _sweep(cells, 1000 * seed)  # warm, as in the untraced run
    plain_s: List[float] = []
    traced_s: List[float] = []
    none_s: List[float] = []
    stage_ms: Dict[str, List[float]] = {}
    stage_n: Dict[str, List[float]] = {}
    actions: List[float] = []
    proactive: List[float] = []
    violation: List[float] = []
    budget = time.perf_counter() + seconds
    i = 0
    failed = 0
    while not plain_s or (time.perf_counter()
                          + 0.5 * (plain_s[-1] + traced_s[-1] + none_s[-1])
                          < budget):
        sub_seed = 1000 * seed + i
        with spans.span("sweep.plain", seed=sub_seed):
            plain, wall, _ = _sweep(cells, sub_seed)
        plain_s.append(wall)
        with spans.span("sweep.telemetry", seed=sub_seed) as parent:
            traced, wall, _ = _sweep(cells, sub_seed, telemetry=True)
        traced_s.append(wall)
        with spans.span("sweep.none", seed=sub_seed):
            _, wall, _ = _sweep(cells, sub_seed, scheme="none")
        none_s.append(wall)
        failed += decision_digest(plain) != decision_digest(traced)

        totals: Dict[str, float] = dict.fromkeys(_STAGE_SPANS.values(), 0.0)
        counts: Dict[str, float] = dict.fromkeys(_STAGE_SPANS.values(), 0.0)
        for r in traced:
            for sp in r.observability.tracer.finished:
                stem = _STAGE_SPANS.get(sp.name)
                if stem is None:
                    continue
                totals[stem] += 1e3 * sp.wall_duration
                counts[stem] += 1
                spans.add(sp.name, sp.wall_start, sp.wall_end, parent,
                          sim_start=sp.sim_start)
        for stem in totals:
            stage_ms.setdefault(stem, []).append(totals[stem])
            stage_n.setdefault(stem, []).append(counts[stem])
        actions.append(sum(len(r.actions) for r in plain))
        proactive.append(sum(r.proactive_actions for r in plain))
        violation.append(sum(r.violation_time for r in plain))
        i += 1

    metrics: Dict[str, float] = {}
    for stem in stage_ms:
        metrics[f"{stem}.total_ms"] = median(stage_ms[stem])
        if stem != "hypervisor.scale":
            metrics[f"{stem}.count"] = median(stage_n[stem])
    controller_ms = sum(
        median(v) for k, v in stage_ms.items() if k != "hypervisor.scale")
    own = 1e3 * (median(plain_s) - median(none_s))
    metrics["controller.stage_sum_share"] = (
        controller_ms / own if own > 0 and controller_ms else 0.0)
    metrics["trace.overhead_share"] = median(
        [t / p - 1.0 for t, p in zip(traced_s, plain_s)])
    metrics["sim.none_scheme_share"] = median(
        [n / p for n, p in zip(none_s, plain_s)])
    metrics["actuation.actions"] = median(actions)
    metrics["actuation.proactive"] = median(proactive)
    metrics["actuation.slo_violation_s"] = median(violation)
    metrics.update(layers.campaign_probes(
        cells[-1].app, 1000 * seed + i - 1, plain[-1],
        with_models=cells[-1].scheme != "none", spans=spans))
    return {"attempted": i, "failed": failed, "metrics": metrics}
