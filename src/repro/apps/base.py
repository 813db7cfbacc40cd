"""Distributed-application interface.

Both case-study applications (the System S stream app and the RUBiS
3-tier site) are modelled as a set of *components*, one per VM, driven
by a client workload.  Every simulated second the application:

1. computes each component's resource demand from the current offered
   load and registers it on the component's VM;
2. reads back the *effective* capacity each VM grants (after fair CPU
   sharing with injected hogs, swap thrashing and migration overhead);
3. derives the application-level SLO metric and logs it.

Steps 1 and 2 run over the application's rows of the VM table at once
(:meth:`DistributedApplication._register`, :meth:`~DistributedApplication._capacities`):
a component's capacity never depends on its own demand in the same step.

The PREPARE controller never touches any of this — it sees only the
monitor's metric samples and the SLO violation log, preserving the
paper's black-box assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.apps.slo import SLOTracker
from repro.apps.workload import Workload
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.resources import ResourceKind
from repro.sim.vm import APP_CONSUMER, VirtualMachine, table_rows

__all__ = ["AppComponent", "DistributedApplication", "APP_CONSUMER"]


@dataclass
class AppComponent:
    """One application component pinned to one VM."""

    name: str
    vm: VirtualMachine
    #: CPU cost per work unit (core-seconds per tuple / request).
    cpu_cost: float
    #: Base resident set, MB.
    base_memory_mb: float

    def register_demand(self, arrival_rate: float) -> None:
        """Declare CPU/memory demand for the current arrival rate."""
        self.vm.set_cpu_demand(APP_CONSUMER, arrival_rate * self.cpu_cost)
        self.vm.set_mem_demand(APP_CONSUMER, self.base_memory_mb)

    def capacity(self) -> float:
        """Max work units per second the component could sustain.

        Uses the VM's capacity *ceiling* (what the component could get
        at saturation under fair sharing), not its instantaneous grant
        — the correct service rate for the M/M/1 latency curves.
        """
        if self.cpu_cost <= 0:
            return float("inf")
        return self.vm.effective_capacity(APP_CONSUMER) / self.cpu_cost


class DistributedApplication:
    """Base class for the modelled applications.

    The components are fixed once the application starts: :meth:`start`
    binds them to their rows of the VM table (they must share one).
    """

    #: How often the performance model advances, seconds.
    STEP_INTERVAL = 1.0

    def __init__(self, sim: Simulator, workload: Workload, slo: SLOTracker) -> None:
        self._sim = sim
        self.workload = workload
        self.slo = slo
        self._components: Dict[str, AppComponent] = {}
        self._task: Optional[PeriodicTask] = None

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def add_component(self, component: AppComponent) -> AppComponent:
        if component.name in self._components:
            raise ValueError(f"duplicate component {component.name}")
        self._components[component.name] = component
        return component

    @property
    def components(self) -> List[AppComponent]:
        return list(self._components.values())

    def component(self, name: str) -> AppComponent:
        return self._components[name]

    @property
    def vms(self) -> List[VirtualMachine]:
        return [c.vm for c in self.components]

    def vm_names(self) -> List[str]:
        return [vm.name for vm in self.vms]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin stepping the performance model every second."""
        if self._task is not None and not self._task.stopped:
            raise RuntimeError("application already started")
        components = self.components
        self._table, self._rows = table_rows([c.vm for c in components])
        self._costs = np.array([c.cpu_cost for c in components], dtype=float)
        self._free = np.flatnonzero(self._costs <= 0)
        self._divisor = np.where(self._costs <= 0, 1.0, self._costs)
        self._base_mb = np.array([c.base_memory_mb for c in components], dtype=float)
        self._mem_registered = False
        self._task = self._sim.every(
            self.STEP_INTERVAL, self._step, label=f"app:{type(self).__name__}"
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()

    def _step(self, now: float) -> None:
        self._table.tick(self._rows, self.STEP_INTERVAL)
        metric, violated = self.advance(now, self.STEP_INTERVAL)
        self.slo.observe(now, metric, violated=violated)

    # ------------------------------------------------------------------
    # The components' rows, in component order
    # ------------------------------------------------------------------
    def _register(self, arrivals) -> None:
        """Every component's CPU demand for its arrival rate (one, or
        one each), and its resident set once — after the first step's
        tick, which so sees an empty demand set."""
        table = self._table
        table.set_app_demand(ResourceKind.CPU, self._rows, arrivals * self._costs)
        if not self._mem_registered:
            table.set_app_demand(ResourceKind.MEMORY, self._rows, self._base_mb)
            self._mem_registered = True

    def _capacities(self) -> np.ndarray:
        """Work units per second every component could sustain: its
        VM's effective CPU ceiling over its cost (``inf`` at no cost)."""
        table, rows = self._table, self._rows
        capacity = table.potential[rows] * table.degradation(rows) / self._divisor
        if self._free.size:
            capacity[self._free] = np.inf
        return capacity

    def _report(self, kbps: np.ndarray) -> None:
        """Every component's network in / out, disk read / write, KB/s."""
        self._table.activity[:, self._rows] = kbps.T

    # ------------------------------------------------------------------
    # To be provided by concrete applications
    # ------------------------------------------------------------------
    def advance(self, now: float, dt: float) -> "tuple[float, Optional[bool]]":
        """Advance the performance model one step.

        Returns ``(slo_metric, violated)``; ``violated`` may be ``None``
        to defer to the tracker's predicate.
        """
        raise NotImplementedError

    def slo_metric_name(self) -> str:
        """Human-readable name of the SLO metric (for reports)."""
        raise NotImplementedError
