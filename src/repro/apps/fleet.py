"""Uniform N-node fleet application for scale benchmarks and campaigns.

The paper's two case studies run on 7 and 4 VMs.  Campaign-scale
experiments (and the controller's fleet-batched hot path) need a cell
with an order of magnitude more guests while keeping the per-step
performance model cheap, so :class:`UniformFleetApp` models an
embarrassingly parallel service — N identical worker shards, one per
VM, each serving an equal slice of the offered load.

Per 1 s step each node is an M/M/1 server with a bounded input queue
(same queue-then-serve discipline as the System S PEs): it serves
``min(backlog + arrival·dt, capacity·dt)`` requests, where capacity is
the VM's effective CPU ceiling divided by the per-request CPU cost.

SLO: the fleet is violated when the *worst* node's request latency
exceeds ``latency_slo_s`` or when aggregate throughput falls below
``throughput_ratio_slo`` of the offered load.  The worst-node rule is
what makes a single faulty guest (e.g. one leaking VM out of 50)
violate the application SLO, exactly as in the paper's testbeds.  The
reported SLO metric is aggregate throughput in Krequests/s.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import AppComponent, DistributedApplication
from repro.apps.slo import SLOTracker
from repro.apps.workload import Workload
from repro.sim.engine import Simulator
from repro.sim.vm import VirtualMachine

__all__ = ["UniformFleetApp", "FLEET_RATE_PER_NODE"]

#: Nominal offered load per node, requests/s.
FLEET_RATE_PER_NODE = 110.0

#: Max per-request latency reported once a node saturates, seconds.
_MAX_LATENCY = 0.5

#: Utilization beyond which the M/M/1 curve is clamped.
_RHO_CLAMP = 0.995

#: KB per request served: network out, disk read, disk write (column 0,
#: network in, is filled per arriving request instead).
_KB_PER_REQUEST = np.array([0.0, 4.0, 0.4, 0.2])


class UniformFleetApp(DistributedApplication):
    """N identical worker shards, one per VM, splitting the load evenly."""

    def __init__(
        self,
        sim: Simulator,
        workload: Workload,
        vms: Sequence[VirtualMachine],
        cpu_cost_per_req: float = 5.0e-3,
        base_memory_mb: float = 520.0,
        throughput_ratio_slo: float = 0.95,
        latency_slo_s: float = 0.040,
    ) -> None:
        if not vms:
            raise ValueError("fleet needs at least one VM")
        slo = SLOTracker(lambda _metric: False, name=f"fleet{len(vms)}")
        super().__init__(sim, workload, slo)
        self.throughput_ratio_slo = throughput_ratio_slo
        self.latency_slo_s = latency_slo_s
        width = max(2, len(str(len(vms))))
        for index, vm in enumerate(vms):
            self.add_component(
                AppComponent(
                    name=f"node{index + 1:0{width}d}",
                    vm=vm,
                    cpu_cost=cpu_cost_per_req,
                    base_memory_mb=base_memory_mb,
                )
            )
        self._node_names: Tuple[str, ...] = tuple(self._components)
        #: Per-node request backlog (bounded input queue, requests), in
        #: node order.
        self.backlog = np.zeros(len(vms))
        #: Input-buffer bound in seconds of nominal node capacity.
        self.backlog_cap_seconds = 2.0
        #: Last computed state, exposed for tests and traces.
        self.last_input_rate = 0.0
        self.last_output_rate = 0.0
        self.last_worst_latency = 0.0
        self.last_outputs = np.zeros(len(vms))

    @property
    def node_names(self) -> List[str]:
        return list(self._node_names)

    @property
    def fault_node(self) -> str:
        """Canonical fault target: the last node (mirrors PE4/db picks)."""
        return self._node_names[-1]

    def advance(self, now: float, dt: float) -> Tuple[float, Optional[bool]]:
        input_rate = self.workload.rate(now)
        arrival = input_rate / len(self._node_names)
        self._register(arrival)
        capacity = self._capacities()
        # Queue then serve; the branches of min/max pick the same operand.
        inflow = self.backlog + arrival * dt
        cap_dt = capacity * dt
        served = np.where(inflow <= cap_dt, inflow, cap_dt)
        queue = inflow - served
        queue = np.where(queue <= 0.0, 0.0, queue)
        cap = self.backlog_cap_seconds * capacity
        self.backlog = np.where(queue > cap, cap, queue)
        output = served / dt
        # M/M/1 sojourn plus the queue's wait; _MAX_LATENCY once a node
        # saturates (rho is inf or nan at capacity 0).  Clamping the worst
        # last is exact: adding a wait keeps a sojourn above the clamp.
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = arrival / capacity
            latency = 1.0 / capacity / (1.0 - rho) + self.backlog / capacity
        latency = np.where(rho < _RHO_CLAMP, latency, _MAX_LATENCY)
        worst_latency = min(float(latency.max()), _MAX_LATENCY)
        kbps = np.multiply.outer(output, _KB_PER_REQUEST)
        kbps[:, 0] = arrival * 1.6
        self._report(kbps)

        # Summed node by node, as a scalar loop would (not pairwise).
        output_rate = float(np.add.accumulate(output)[-1])
        self.last_input_rate = input_rate
        self.last_output_rate = output_rate
        self.last_worst_latency = worst_latency
        self.last_outputs = output

        ratio = output_rate / input_rate if input_rate > 0 else 1.0
        violated = (
            worst_latency > self.latency_slo_s
            or ratio < self.throughput_ratio_slo
        )
        # The reported SLO metric is aggregate throughput in Kreq/s.
        return output_rate / 1000.0, violated

    def slo_metric_name(self) -> str:
        return "throughput (Krequests/second)"
