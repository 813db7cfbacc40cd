"""Canonical experiment scenarios (paper Sec. III-A).

Builds the simulated equivalents of the paper's two testbeds:

* **System S** — seven PEs on seven VMs (Fig. 4), fed ~25 Ktuples/s;
* **RUBiS** — web + 2 app servers + DB on four VMs (Fig. 5), driven by
  the NASA-trace-shaped workload at ~200 req/s.

Fault targets follow the paper: the memory leak hits a processing PE
(PE4 here; the paper picks a random PE) or the DB server; the CPU hog
competes inside the bottleneck PE (PE6) or the DB server; the
bottleneck fault ramps the client workload into the designated
bottleneck component.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.apps.base import DistributedApplication
from repro.apps.fleet import FLEET_RATE_PER_NODE, UniformFleetApp
from repro.apps.rubis import RubisApp
from repro.apps.streams import SystemSApp
from repro.apps.workload import NasaTraceWorkload, Workload
from repro.faults.base import Fault, FaultKind
from repro.faults.bottleneck import BottleneckFault
from repro.faults.cpuhog import CpuHogFault
from repro.faults.injector import FaultInjector
from repro.faults.memleak import MemoryLeakFault
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.monitor import DEFAULT_SAMPLING_INTERVAL, VMMonitor
from repro.sim.resources import ResourceSpec

__all__ = ["Testbed", "build_testbed", "make_fault", "parse_fleet_size",
           "APP_NAMES", "SYSTEM_S", "RUBIS", "VM_SPEC"]

SYSTEM_S = "system-s"
RUBIS = "rubis"
APP_NAMES = (SYSTEM_S, RUBIS)

#: Synthetic N-node fleets are named ``fleet<N>`` (e.g. ``fleet50``).
_FLEET_NAME = re.compile(r"^fleet(\d+)$")
_FLEET_MAX_NODES = 4096


def parse_fleet_size(app_name: str) -> Optional[int]:
    """Node count of a ``fleet<N>`` app name, or ``None`` if not one."""
    match = _FLEET_NAME.match(app_name)
    if match is None:
        return None
    n = int(match.group(1))
    if not 1 <= n <= _FLEET_MAX_NODES:
        raise ValueError(
            f"fleet size must be in [1, {_FLEET_MAX_NODES}], got {n}"
        )
    return n

#: Guest VM allocation: 1 core / 1 GB on a dual-core 4 GB host, leaving
#: local headroom for elastic scaling as in the paper's VCL setup.
VM_SPEC = ResourceSpec(cpu_cores=1.0, memory_mb=1024.0)

#: Nominal offered loads.
SYSTEM_S_RATE = 25_000.0   # tuples/s
RUBIS_RATE = 200.0         # requests/s

#: Canonical fault targets (component names / VM indices).
SYSTEM_S_LEAK_PE = "PE4"
SYSTEM_S_HOG_PE = "PE6"
RUBIS_FAULT_TIER = "db"

#: Default fault magnitudes.
LEAK_RATE_MB_S = 4.0
HOG_CORES = 1.0
BOTTLENECK_PEAK = 2.0
BOTTLENECK_RAMP = 240.0


@dataclass
class Testbed:
    """A fully assembled simulated deployment."""

    sim: Simulator
    cluster: Cluster
    app: DistributedApplication
    workload: Workload
    monitor: VMMonitor
    injector: FaultInjector
    app_name: str

    def vm_for_component(self, component: str):
        """The VM hosting a named application component."""
        return self.app.component(component).vm


def build_testbed(
    app_name: str,
    seed: int = 1,
    sampling_interval: float = DEFAULT_SAMPLING_INTERVAL,
    duration_hint: float = 2400.0,
    spares: int = 3,
    noise_scale: float = 1.0,
    monitor_drop_rate: float = 0.0,
) -> Testbed:
    """Assemble cluster + application + monitor for one experiment run.

    ``seed`` drives both the workload path and the monitor noise, so a
    given (scenario, seed) pair is fully reproducible; replicate runs
    vary the seed like the paper repeats each experiment five times.
    """
    fleet_size = parse_fleet_size(app_name)
    if app_name not in APP_NAMES and fleet_size is None:
        raise ValueError(
            f"unknown application {app_name!r}; pick from {APP_NAMES} "
            "or a 'fleet<N>' name"
        )
    sim = Simulator()
    cluster = Cluster(sim)
    rng = np.random.default_rng(seed)

    if fleet_size is not None:
        width = max(2, len(str(fleet_size)))
        vm_names = [f"vm{i + 1:0{width}d}" for i in range(fleet_size)]
        vms = cluster.place_one_vm_per_host(vm_names, VM_SPEC, spares=spares)
        workload: Workload = NasaTraceWorkload(
            fleet_size * FLEET_RATE_PER_NODE,
            duration=duration_hint,
            seed=seed,
            diurnal_amplitude=0.10,
            fluctuation=0.06,
            burstiness=0.04,
        )
        app: DistributedApplication = UniformFleetApp(sim, workload, vms)
    elif app_name == SYSTEM_S:
        vm_names = [f"vm{i + 1}" for i in range(7)]
        vms = cluster.place_one_vm_per_host(vm_names, VM_SPEC, spares=spares)
        workload: Workload = NasaTraceWorkload(
            SYSTEM_S_RATE,
            duration=duration_hint,
            seed=seed,
            diurnal_amplitude=0.10,
            fluctuation=0.05,
            burstiness=0.04,
        )
        app: DistributedApplication = SystemSApp(sim, workload, vms)
    else:
        vm_names = ["vm_web", "vm_app1", "vm_app2", "vm_db"]
        vms = cluster.place_one_vm_per_host(vm_names, VM_SPEC, spares=spares)
        workload = NasaTraceWorkload(
            RUBIS_RATE,
            duration=duration_hint,
            seed=seed,
            diurnal_amplitude=0.10,
            fluctuation=0.08,
            burstiness=0.05,
        )
        app = RubisApp(sim, workload, vms)

    monitor = VMMonitor(
        sim, app.vms, interval=sampling_interval,
        rng=np.random.default_rng(rng.integers(0, 2**31)),
        noise_scale=noise_scale,
        drop_rate=monitor_drop_rate,
        capacity=int(duration_hint / sampling_interval) + 1,
    )
    injector = FaultInjector(sim)
    return Testbed(
        sim=sim,
        cluster=cluster,
        app=app,
        workload=workload,
        monitor=monitor,
        injector=injector,
        app_name=app_name,
    )


def _fault_component(testbed: Testbed, kind: FaultKind) -> str:
    """Canonical fault-target component for a testbed."""
    if isinstance(testbed.app, UniformFleetApp):
        return testbed.app.fault_node
    if kind is FaultKind.MEMORY_LEAK:
        return SYSTEM_S_LEAK_PE if testbed.app_name == SYSTEM_S else RUBIS_FAULT_TIER
    if kind is FaultKind.CPU_HOG:
        return SYSTEM_S_HOG_PE if testbed.app_name == SYSTEM_S else RUBIS_FAULT_TIER
    if testbed.app_name == SYSTEM_S:
        return SystemSApp.BOTTLENECK_PE
    return RubisApp.BOTTLENECK_TIER


def make_fault(testbed: Testbed, kind: FaultKind) -> Fault:
    """Instantiate the canonical fault of the given kind for a testbed."""
    if kind is FaultKind.MEMORY_LEAK:
        return MemoryLeakFault(
            testbed.vm_for_component(_fault_component(testbed, kind)),
            rate_mb_per_s=LEAK_RATE_MB_S,
        )
    if kind is FaultKind.CPU_HOG:
        return CpuHogFault(
            testbed.vm_for_component(_fault_component(testbed, kind)),
            cores=HOG_CORES,
        )
    if kind is FaultKind.BOTTLENECK:
        bottleneck = _fault_component(testbed, kind)
        return BottleneckFault(
            testbed.workload,
            bottleneck_component=bottleneck,
            peak_multiplier=BOTTLENECK_PEAK,
            ramp_duration=BOTTLENECK_RAMP,
        )
    raise ValueError(f"unknown fault kind {kind!r}")
