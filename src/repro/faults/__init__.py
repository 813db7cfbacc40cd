"""Fault injection (paper Sec. III-A).

The three injected fault classes — memory leak, CPU hog, capacity
bottleneck — plus the scheduler that reproduces the paper's
two-injections-per-run protocol.
"""

from repro._lazy import exports

#: Submodule → the names this package re-exports from it, each imported
#: on first access (PEP 562): the CLI reads ``FaultKind`` without
#: loading the fault models.
_ORIGINS = {
    "base": ("Fault", "FaultKind", "FaultStateError"),
    "bottleneck": ("BottleneckFault",),
    "cpuhog": ("CpuHogFault",),
    "injector": ("FaultInjector", "Injection"),
    "memleak": ("MemoryLeakFault",),
}

__all__ = sorted(name for names in _ORIGINS.values() for name in names)

__getattr__, __dir__ = exports(__name__, globals(), _ORIGINS)
