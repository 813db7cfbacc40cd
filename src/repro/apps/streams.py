"""System S-like data stream processing application.

Models the paper's tax-calculation sample application: seven
processing elements (PEs), one per guest VM, connected in the Fig. 4
topology.  A client workload generator feeds tuples into PE1; tuples
fan out, are processed and joined, and leave through the sink stage.

Performance model (per 1 s step):

* each PE's tuple *capacity* is its effective CPU (after hog sharing,
  swap thrashing, migration overhead) divided by its per-tuple CPU
  cost;
* a PE forwards ``min(arrival, capacity)`` tuples/s downstream, so a
  saturated or degraded PE throttles everything after it;
* per-tuple processing time at a PE follows an M/M/1 latency curve,
  exploding as utilization approaches 1.

SLO (paper Sec. III-A): violated when ``output/input < 0.95`` or when
the average per-tuple processing time exceeds 20 ms.  The reported SLO
metric — plotted in Figs. 7/9 — is the end-to-end output rate in
Ktuples/s.

PE6 is deliberately the most expensive, network-intensive stage ("a
sink PE that intensively sends processed data tuples to the network")
so that it is the first PE to saturate under a workload ramp, exactly
as in the paper's bottleneck fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import AppComponent, DistributedApplication
from repro.apps.slo import SLOTracker
from repro.apps.workload import Workload
from repro.sim.engine import Simulator
from repro.sim.vm import VirtualMachine

__all__ = ["SystemSApp", "PEProfile", "SYSTEM_S_TOPOLOGY", "DEFAULT_PE_PROFILES"]

#: Max per-tuple processing time reported once a PE saturates, seconds.
_MAX_TUPLE_TIME = 0.5

#: Utilization beyond which the M/M/1 curve is clamped.
_RHO_CLAMP = 0.995


@dataclass(frozen=True)
class PEProfile:
    """Static profile of one processing element."""

    name: str
    cpu_cost: float          # core-seconds per tuple
    base_memory_mb: float    # resident set
    kb_in_per_tuple: float   # network in per tuple, KB
    kb_out_per_tuple: float  # network out per tuple, KB
    disk_kb_per_tuple: float = 0.0


#: Fig. 4 dataflow: PE1 splits to PE2/PE3, two parallel branches join at
#: PE6, PE7 archives the result stream.  Mapping: {PE: [(child, share)]}.
SYSTEM_S_TOPOLOGY: Dict[str, List[Tuple[str, float]]] = {
    "PE1": [("PE2", 0.5), ("PE3", 0.5)],
    "PE2": [("PE4", 1.0)],
    "PE3": [("PE5", 1.0)],
    "PE4": [("PE6", 1.0)],
    "PE5": [("PE6", 1.0)],
    "PE6": [("PE7", 1.0)],
    "PE7": [],
}

#: Per-tuple CPU costs tuned so that, at the nominal 25 Ktuples/s input
#: and 1-core VMs, utilizations sit at 45-75% with PE6 the bottleneck.
DEFAULT_PE_PROFILES: Tuple[PEProfile, ...] = (
    PEProfile("PE1", cpu_cost=2.2e-5, base_memory_mb=450.0,
              kb_in_per_tuple=0.10, kb_out_per_tuple=0.10),
    PEProfile("PE2", cpu_cost=4.0e-5, base_memory_mb=500.0,
              kb_in_per_tuple=0.10, kb_out_per_tuple=0.08),
    PEProfile("PE3", cpu_cost=4.0e-5, base_memory_mb=500.0,
              kb_in_per_tuple=0.10, kb_out_per_tuple=0.08),
    PEProfile("PE4", cpu_cost=4.0e-5, base_memory_mb=520.0,
              kb_in_per_tuple=0.08, kb_out_per_tuple=0.08),
    PEProfile("PE5", cpu_cost=4.0e-5, base_memory_mb=520.0,
              kb_in_per_tuple=0.08, kb_out_per_tuple=0.08),
    PEProfile("PE6", cpu_cost=3.0e-5, base_memory_mb=560.0,
              kb_in_per_tuple=0.16, kb_out_per_tuple=0.30),
    PEProfile("PE7", cpu_cost=1.8e-5, base_memory_mb=480.0,
              kb_in_per_tuple=0.30, kb_out_per_tuple=0.02,
              disk_kb_per_tuple=0.25),
)

#: Root-to-sink paths used for the per-tuple latency (critical path).
_PATHS: Tuple[Tuple[str, ...], ...] = (
    ("PE1", "PE2", "PE4", "PE6", "PE7"),
    ("PE1", "PE3", "PE5", "PE6", "PE7"),
)


class SystemSApp(DistributedApplication):
    """The System S tax-calculation application on seven VMs."""

    SOURCE_PE = "PE1"
    SINK_PE = "PE7"
    BOTTLENECK_PE = "PE6"

    def __init__(
        self,
        sim: Simulator,
        workload: Workload,
        vms: Sequence[VirtualMachine],
        profiles: Sequence[PEProfile] = DEFAULT_PE_PROFILES,
        throughput_ratio_slo: float = 0.95,
        tuple_time_slo: float = 0.020,
    ) -> None:
        if len(vms) != len(profiles):
            raise ValueError(
                f"need one VM per PE: {len(profiles)} PEs, {len(vms)} VMs"
            )
        slo = SLOTracker(lambda _metric: False, name="system-s")
        super().__init__(sim, workload, slo)
        self.throughput_ratio_slo = throughput_ratio_slo
        self.tuple_time_slo = tuple_time_slo
        self.profiles: Dict[str, PEProfile] = {}
        for profile, vm in zip(profiles, vms):
            self.profiles[profile.name] = profile
            self.add_component(
                AppComponent(
                    name=profile.name,
                    vm=vm,
                    cpu_cost=profile.cpu_cost,
                    base_memory_mb=profile.base_memory_mb,
                )
            )
        self._order = self._topological_order()
        #: Per-PE tuple backlog.  A saturated PE queues tuples in its
        #: input buffer; the buffer is bounded (UDP transport — excess
        #: tuples are dropped) but still takes time to drain after
        #: capacity is restored, extending the latency-SLO violation
        #: past the moment of the fix.
        self.backlog: Dict[str, float] = {pe: 0.0 for pe in self._order}
        #: Input-buffer bound in seconds of nominal PE capacity.
        self.backlog_cap_seconds = 2.0
        #: Per PE: network in per arriving tuple, then network out, disk
        #: read (a tenth of it) and disk written per output tuple, KB.
        self._pe_table = np.array([
            (p.kb_in_per_tuple, p.kb_out_per_tuple, p.disk_kb_per_tuple,
             p.disk_kb_per_tuple)
            for p in self.profiles.values()
        ])
        #: Last computed state, exposed for tests and traces.
        self.last_input_rate = 0.0
        self.last_output_rate = 0.0
        self.last_tuple_time = 0.0
        self.last_arrivals: Dict[str, float] = {}
        self.last_outputs: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _topological_order(self) -> List[str]:
        """Kahn topological sort of the PE DAG (deterministic)."""
        indegree = {pe: 0 for pe in SYSTEM_S_TOPOLOGY}
        for children in SYSTEM_S_TOPOLOGY.values():
            for child, _share in children:
                indegree[child] += 1
        ready = sorted(pe for pe, deg in indegree.items() if deg == 0)
        order: List[str] = []
        while ready:
            pe = ready.pop(0)
            order.append(pe)
            for child, _share in SYSTEM_S_TOPOLOGY[pe]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
            ready.sort()
        if len(order) != len(SYSTEM_S_TOPOLOGY):
            raise ValueError("PE topology contains a cycle")
        return order

    # ------------------------------------------------------------------
    # Performance model
    # ------------------------------------------------------------------
    def advance(self, now: float, dt: float) -> Tuple[float, Optional[bool]]:
        input_rate = self.workload.rate(now)
        arrivals: Dict[str, float] = {pe: 0.0 for pe in self._order}
        outputs: Dict[str, float] = {}
        tuple_times: Dict[str, float] = {}
        arrivals[self.SOURCE_PE] = input_rate

        # A capacity never depends on the same step's demand, so they are
        # read once, and the demands written once the arrivals are known.
        capacities = dict(zip(self._components, self._capacities().tolist()))
        for pe in self._order:
            arrival = arrivals[pe]
            capacity = capacities[pe]
            # Queue then serve: backlog drains ahead of new arrivals,
            # bounded by the input buffer (UDP -> overflow is dropped).
            queue = self.backlog[pe]
            served = min(queue + arrival * dt, capacity * dt)
            queue = queue + arrival * dt - served
            cap = self.backlog_cap_seconds * capacity
            queue = min(max(0.0, queue), cap)
            self.backlog[pe] = queue
            output = served / dt
            outputs[pe] = output
            waiting = queue / capacity if capacity > 0 else _MAX_TUPLE_TIME
            tuple_times[pe] = min(
                self._tuple_time(arrival, capacity) + waiting, _MAX_TUPLE_TIME
            )
            for child, share in SYSTEM_S_TOPOLOGY[pe]:
                arrivals[child] += output * share
        rates = np.array([
            (arrivals[pe], outputs[pe], outputs[pe], outputs[pe])
            for pe in self._components
        ])
        self._register(rates[:, 0])
        kbps = rates * self._pe_table
        kbps[:, 2] *= 0.1
        self._report(kbps)

        output_rate = outputs[self.SINK_PE]
        tuple_time = max(
            sum(tuple_times[pe] for pe in path) for path in _PATHS
        )

        self.last_input_rate = input_rate
        self.last_output_rate = output_rate
        self.last_tuple_time = tuple_time
        self.last_arrivals = arrivals
        self.last_outputs = outputs

        ratio = output_rate / input_rate if input_rate > 0 else 1.0
        violated = ratio < self.throughput_ratio_slo or tuple_time > self.tuple_time_slo
        # The reported SLO metric is end-to-end throughput in Ktuples/s.
        return output_rate / 1000.0, violated

    def _tuple_time(self, arrival: float, capacity: float) -> float:
        """M/M/1 sojourn time, clamped once the PE saturates."""
        if capacity <= 0:
            return _MAX_TUPLE_TIME
        rho = arrival / capacity
        if rho >= _RHO_CLAMP:
            return _MAX_TUPLE_TIME
        service = 1.0 / capacity
        return min(service / (1.0 - rho), _MAX_TUPLE_TIME)

    def slo_metric_name(self) -> str:
        return "throughput (Ktuples/second)"
