"""Deterministic infrastructure fault injection.

:class:`ChaosEngine` turns a :class:`~repro.chaos.policies.ChaosSpec`
into live misbehaviour inside one simulated run:

* it intercepts the monitor's block delivery
  (:meth:`~repro.sim.monitor.VMMonitor.set_delivery_interceptor`) to
  drop whole rounds, delay them (FIFO — late but never reordered),
  corrupt individual attributes to NaN, and black out single VMs; it
  degrades a copy of each block, so the monitor's trace keeps what was
  measured;
* it installs a verb-fate oracle on the hypervisor
  (:meth:`~repro.sim.hypervisor.Hypervisor.set_verb_chaos`) so scale
  and migrate calls can be rejected, lose their completion, or finish
  late;
* it periodically flaps host capacity by reserving (then releasing) a
  slice of each host's free resources.

Each concern draws from its own RNG stream spawned from
``(spec.seed, run_seed)``, so fault sequences are reproducible and
changing e.g. the verb-failure rate does not perturb the metric-drop
sequence.  Every injected fault is appended to :attr:`events` and
counted in the ``prepare_chaos_events_total`` metric family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.policies import ChaosSpec
from repro.obs import NULL_OBS
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.monitor import ATTRIBUTES, SampleBlock, VMMonitor
from repro.sim.resources import RESOURCE_EPSILON, ResourceSpec

__all__ = ["ChaosEngine", "ChaosEvent"]


@dataclass(frozen=True)
class ChaosEvent:
    """One injected fault, for the audit log."""

    time: float
    kind: str
    detail: str = ""


class ChaosEngine:
    """Injects the faults a :class:`ChaosSpec` describes into one run."""

    def __init__(
        self,
        spec: ChaosSpec,
        sim: Simulator,
        run_seed: int = 0,
        obs=None,
    ) -> None:
        self.spec = spec
        self._sim = sim
        self.obs = obs if obs is not None else NULL_OBS
        # Independent streams per concern: tweaking one policy's rates
        # never shifts another's fault sequence.
        metric_ss, verb_ss, host_ss = np.random.SeedSequence(
            [int(spec.seed), int(run_seed)]
        ).spawn(3)
        self._metric_rng = np.random.default_rng(metric_ss)
        self._verb_rng = np.random.default_rng(verb_ss)
        self._host_rng = np.random.default_rng(host_ss)
        self.events: List[ChaosEvent] = []
        self._m_events = self.obs.metrics.counter(
            "prepare_chaos_events_total",
            "Infrastructure faults injected by the chaos engine", ("kind",))
        #: Per-VM monitor-blackout end times (sim seconds).
        self._blackout_until: Dict[str, float] = {}
        #: Release time of the most recently delayed round — later
        #: rounds are never delivered before it (FIFO delivery).
        self._last_release = 0.0
        self._flapping: Dict[str, ResourceSpec] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, monitor: Optional[VMMonitor], cluster: Optional[Cluster]) -> None:
        """Install every enabled policy onto the run's components."""
        if monitor is not None and self.spec.metric.enabled:
            monitor.set_delivery_interceptor(self._intercept_block)
        if cluster is not None and self.spec.verbs.enabled:
            cluster.hypervisor.set_verb_chaos(self)
        if cluster is not None and self.spec.hosts.enabled:
            self._hosts = sorted(cluster.hosts, key=lambda h: h.name)
            self._sim.every(
                self.spec.hosts.check_interval,
                self._flap_check,
                label="chaos-host-flap",
            )

    def _note(self, kind: str, detail: str = "") -> None:
        self.events.append(ChaosEvent(time=self._sim.now, kind=kind, detail=detail))
        self._m_events.inc(kind=kind)

    def event_counts(self) -> Dict[str, int]:
        """Injected-fault totals by kind (sorted, JSON-friendly)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    # Metric-stream degradation
    # ------------------------------------------------------------------
    def _intercept_block(
        self,
        block: SampleBlock,
        dispatch: Callable[[SampleBlock], None],
    ) -> None:
        """Degrade one round on its way to the listeners.

        The rolls come in the per-sample order: the round's drop roll,
        then for each present row a blackout roll and a corrupt roll,
        then the round's delay roll.
        """
        policy = self.spec.metric
        now = self._sim.now
        rng = self._metric_rng
        if policy.drop_batch_rate > 0.0 and rng.random() < policy.drop_batch_rate:
            self._note(
                "batch_dropped", f"{int(block.present.sum())} samples at t={now:g}"
            )
            return
        out = block.copy()
        for i in np.flatnonzero(out.present).tolist():
            vm = out.vms[i]
            blacked = self._blackout_until.get(vm, -1.0) > now
            if not blacked and policy.blackout_rate > 0.0:
                if rng.random() < policy.blackout_rate:
                    self._blackout_until[vm] = now + policy.blackout_duration
                    self._note(
                        "blackout_start",
                        f"{vm} until t={now + policy.blackout_duration:g}",
                    )
                    blacked = True
            if blacked:
                out.present[i] = False
                continue
            if policy.corrupt_rate > 0.0 and rng.random() < policy.corrupt_rate:
                self._corrupt(out, i, rng)
        # An all-blacked-out round is still delivered (nothing present):
        # the controller's imputation keeps its training windows aligned.
        delay = 0.0
        if policy.delay_rate > 0.0 and rng.random() < policy.delay_rate:
            delay = policy.delay_seconds
            self._note("batch_delayed", f"+{delay:g}s at t={now:g}")
        release = max(now + delay, self._last_release)
        self._last_release = release
        if release <= now:
            dispatch(out)
        else:
            self._sim.schedule_at(
                release, lambda: dispatch(out), label="chaos-delayed-batch"
            )

    def _corrupt(
        self, block: SampleBlock, row: int, rng: np.random.Generator
    ) -> None:
        """Set 1..``corrupt_attributes`` of one row's values to NaN."""
        count = int(rng.integers(1, self.spec.metric.corrupt_attributes + 1))
        picked = rng.choice(len(ATTRIBUTES), size=min(count, len(ATTRIBUTES)),
                            replace=False)
        columns = sorted(int(i) for i in picked)
        block.values[row, columns] = np.nan
        names = [ATTRIBUTES[j] for j in columns]
        self._note("sample_corrupted", f"{block.vms[row]}: {', '.join(names)}")

    # ------------------------------------------------------------------
    # Hypervisor verb fates (oracle installed via set_verb_chaos)
    # ------------------------------------------------------------------
    def fate(self, verb: str) -> Tuple[str, float]:
        """Decide one verb call's fate: (outcome, latency inflation)."""
        policy = self.spec.verbs
        roll = float(self._verb_rng.random())
        if roll < policy.failure_rate:
            self._note("verb_failed", verb)
            return "failed", 1.0
        roll -= policy.failure_rate
        if roll < policy.timeout_rate:
            self._note("verb_timeout", verb)
            return "timeout", 1.0
        roll -= policy.timeout_rate
        if roll < policy.late_rate:
            self._note("verb_late", f"{verb} x{policy.latency_inflation:g}")
            return "late", policy.latency_inflation
        return "ok", 1.0

    # ------------------------------------------------------------------
    # Host capacity flaps
    # ------------------------------------------------------------------
    def _flap_check(self, now: float) -> None:
        policy = self.spec.hosts
        for host in self._hosts:
            if host.name in self._flapping:
                continue
            if self._host_rng.random() >= policy.flap_rate:
                continue
            free = host.free()
            want = ResourceSpec(
                min(policy.flap_fraction * host.capacity.cpu_cores,
                    free.cpu_cores),
                min(policy.flap_fraction * host.capacity.memory_mb,
                    free.memory_mb),
            )
            if (want.cpu_cores <= RESOURCE_EPSILON
                    and want.memory_mb <= RESOURCE_EPSILON):
                continue  # host already full — nothing to steal
            host.reserve(want)
            self._flapping[host.name] = want
            self._note(
                "host_flap",
                f"{host.name} loses {want.cpu_cores:g} cores / "
                f"{want.memory_mb:g} MB for {policy.flap_duration:g}s",
            )
            self._sim.schedule(
                policy.flap_duration,
                lambda h=host, spec=want: self._flap_end(h, spec),
                label=f"chaos-flap-end:{host.name}",
            )

    def _flap_end(self, host: Host, spec: ResourceSpec) -> None:
        host.release(spec)
        del self._flapping[host.name]
