"""Simulated virtualized cloud substrate.

Stands in for the paper's Xen/VCL testbed: a discrete-event engine
(:mod:`repro.sim.engine`), hosts and guest VMs with elastic CPU/memory
allocations (:mod:`repro.sim.host`, :mod:`repro.sim.vm`), a hypervisor
control plane with the paper's measured scaling/migration latencies
(:mod:`repro.sim.hypervisor`), and the 13-attribute per-VM monitor
(:mod:`repro.sim.monitor`).
"""

from repro._lazy import exports

#: Submodule → the names this package re-exports from it, each imported
#: on first access (PEP 562): importing ``repro.sim.engine`` alone
#: stays numpy-free.
_ORIGINS = {
    "cluster": ("Cluster",),
    "engine": ("Event", "PeriodicTask", "SimulationError", "Simulator"),
    "host": ("Host", "VCL_HOST_SPEC"),
    "hypervisor": (
        "CPU_SCALING_LATENCY",
        "MEMORY_SCALING_LATENCY",
        "MIGRATION_SECONDS_PER_512MB",
        "Hypervisor",
        "OperationRecord",
        "TransientVerbError",
    ),
    "monitor": (
        "ATTRIBUTES",
        "DEFAULT_SAMPLING_INTERVAL",
        "MetricSample",
        "VMMonitor",
    ),
    "resources": (
        "RESOURCE_EPSILON",
        "ResourceError",
        "ResourceKind",
        "ResourceSpec",
    ),
    "vm": ("VirtualMachine", "VMActivity"),
}

__all__ = sorted(name for names in _ORIGINS.values() for name in names)

__getattr__, __dir__ = exports(__name__, globals(), _ORIGINS)
