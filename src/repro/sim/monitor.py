"""VM monitoring: the 13-attribute per-VM metric sampler.

The paper's monitoring module runs in Xen's domain 0 and collects 13
resource attributes per guest every 5 seconds via libxenstat (plus a
tiny in-guest daemon for memory statistics).  This module reproduces
that interface against the simulated VMs: :class:`VMMonitor` turns the
instantaneous VM state into a noisy measurement vector over the exact
same attribute list every sampling interval.

Each round measures the whole fleet at once and hands the listeners one
:class:`SampleBlock`: the ``(vm, attr)`` matrix of measured values with
per-VM allocations and present / stale masks.  The monitor also keeps
every round it measured in the growable arrays of a
:class:`MonitorTrace`.  Downstream PREPARE components consume only these
measured values — they never peek at simulator internals — preserving
the paper's black-box property.  :class:`MetricSample` (one VM, one
round) stays the per-VM view: :meth:`VMMonitor.sample_vm` returns one,
and a trace materialises them on access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.vm import CACHE_PRESSURE_MB, VirtualMachine

__all__ = [
    "ATTRIBUTES", "MetricSample", "SampleBlock", "MonitorTrace", "VMMonitor",
    "DEFAULT_SAMPLING_INTERVAL",
]

#: The 13 system-level attributes collected per VM (Table I: "VM
#: monitoring (13 attributes)").  Names follow Fig. 3 of the paper where
#: shown there (Residual CPU, Free Mem, NetIn, NetOut, Load1).
ATTRIBUTES: Tuple[str, ...] = (
    "cpu_usage",      # percent of the VM's CPU allocation in use
    "residual_cpu",   # allocated-but-unused cores
    "load1",          # 1-minute run-queue length EWMA
    "load5",          # 5-minute run-queue length EWMA
    "free_mem",       # unallocated guest memory, MB
    "mem_used",       # resident memory, MB
    "swap_used",      # swap in use, MB
    "page_faults",    # major faults per second
    "net_in",         # KB/s received
    "net_out",        # KB/s sent
    "disk_read",      # KB/s read
    "disk_write",     # KB/s written
    "ctx_switches",   # context switches per second (hundreds)
)

#: Sampling interval used throughout the paper's experiments.
DEFAULT_SAMPLING_INTERVAL = 5.0

#: Per-attribute absolute measurement-noise standard deviations.  Tuned
#: to be small relative to each attribute's dynamic range so that fault
#: signatures dominate, but large enough that transient spikes cause the
#: occasional false alarm the paper's k-of-W filter exists to absorb.
_NOISE_STD: Dict[str, float] = {
    "cpu_usage": 2.5,
    "residual_cpu": 0.04,
    "load1": 0.08,
    "load5": 0.05,
    "free_mem": 12.0,
    "mem_used": 12.0,
    "swap_used": 6.0,
    "page_faults": 4.0,
    "net_in": 25.0,
    "net_out": 25.0,
    "disk_read": 12.0,
    "disk_write": 12.0,
    "ctx_switches": 30.0,
}

# EWMA smoothing factors per sample for the two load averages, chosen
# so that at a 5 s sampling interval they roughly match 1- and 5-minute
# exponential windows.
_LOAD1_WINDOW = 60.0
_LOAD5_WINDOW = 300.0

#: Noise standard deviations as a vector in :data:`ATTRIBUTES` order —
#: one vectorized ``Generator.normal`` call per sample draws the same
#: gaussian stream as thirteen scalar calls (verified bit-identical),
#: at a fraction of the dispatch cost.
_NOISE_STD_VEC = np.array([_NOISE_STD[name] for name in ATTRIBUTES])

_ATTR_SET = frozenset(ATTRIBUTES)


@dataclass(frozen=True)
class MetricSample:
    """One monitoring observation of one VM.

    ``values`` is keyed by attribute name and always contains every
    entry of :data:`ATTRIBUTES`.  The VM's allocations at sampling time
    are recorded alongside (the hypervisor knows them for free): many
    attributes are allocation-*dependent*, so training code must be
    able to tell which resource regime a sample was taken under.
    """

    vm: str
    timestamp: float
    values: Dict[str, float]
    cpu_allocated: float = 0.0
    mem_allocated_mb: float = 0.0
    #: True when this sample is a forward-filled repeat of the previous
    #: reading (the real collection failed — a dropped libxenstat read).
    stale: bool = False
    #: True when this sample was *synthesized* downstream (controller
    #: last-known-good imputation during a monitor blackout or NaN
    #: corruption) rather than measured.  Distinct from ``stale``: the
    #: monitor's own forward-fills carry real allocation state and stay
    #: usable for training, imputed rows do not.
    imputed: bool = False

    def vector(self, attributes: Sequence[str] = ATTRIBUTES) -> np.ndarray:
        """The sample as a float vector in the given attribute order."""
        return np.array([self.values[a] for a in attributes], dtype=float)

    def __post_init__(self) -> None:
        if _ATTR_SET <= self.values.keys():
            return
        missing = set(ATTRIBUTES) - set(self.values)
        raise ValueError(f"sample for {self.vm} missing attributes: {sorted(missing)}")


@dataclass(frozen=True)
class SampleBlock:
    """One monitoring round of a whole fleet, as arrays.

    Row ``i`` of every array belongs to VM ``vms[i]``; ``values`` is the
    ``(vm, attr)`` matrix in :data:`ATTRIBUTES` order, ``cpu`` / ``mem``
    the allocations at sampling time.  ``present[i]`` is False when VM
    ``i``'s reading never reached this consumer (a monitor blackout):
    its row then carries no information.  ``stale[i]`` marks a
    forward-filled repeat of the VM's previous reading (a dropped read).
    Listeners treat the arrays as read-only; an interceptor that
    degrades delivery works on a :meth:`copy`.
    """

    timestamp: float
    vms: Tuple[str, ...]
    values: np.ndarray
    cpu: np.ndarray
    mem: np.ndarray
    present: np.ndarray
    stale: np.ndarray

    def copy(self) -> "SampleBlock":
        return SampleBlock(
            self.timestamp, self.vms, self.values.copy(), self.cpu.copy(),
            self.mem.copy(), self.present.copy(), self.stale.copy(),
        )


class MonitorTrace(Mapping[str, List[MetricSample]]):
    """Everything a monitor measured: one ``(vm, attr)`` block per round.

    Rounds append to growable arrays (the capacity doubles), so a run's
    trace is a few numpy arrays, not one object per VM per round:
    ``times`` ``(rounds,)``, ``readings`` ``(rounds, vm, attr)``,
    ``cpu`` / ``mem`` ``(rounds, vm)``, and the stale flags.  As a mapping it is
    the per-VM view: ``trace[vm]`` builds that VM's :class:`MetricSample`
    list on each access, and nothing but the arrays is kept.
    """

    def __init__(self, vms: Sequence[str]) -> None:
        self.vms: Tuple[str, ...] = tuple(vms)
        self._index = {name: i for i, name in enumerate(self.vms)}
        n_vms = len(self.vms)
        self._rounds = 0
        self._times = np.empty(0)
        self._readings = np.empty((0, n_vms, len(ATTRIBUTES)))
        self._cpu = np.empty((0, n_vms))
        self._mem = np.empty((0, n_vms))
        self._stale = np.empty((0, n_vms), dtype=bool)

    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def times(self) -> np.ndarray:
        return self._times[:self._rounds]

    @property
    def readings(self) -> np.ndarray:
        return self._readings[:self._rounds]

    @property
    def cpu(self) -> np.ndarray:
        return self._cpu[:self._rounds]

    @property
    def mem(self) -> np.ndarray:
        return self._mem[:self._rounds]

    def append(
        self,
        timestamp: float,
        values: np.ndarray,
        cpu: np.ndarray,
        mem: np.ndarray,
        stale: np.ndarray,
    ) -> None:
        """Record one round (rows in :attr:`vms` order)."""
        r = self._rounds
        if r == self._times.shape[0]:
            self._grow()
        self._times[r] = timestamp
        self._readings[r] = values
        self._cpu[r] = cpu
        self._mem[r] = mem
        self._stale[r] = stale
        self._rounds = r + 1

    def _grow(self) -> None:
        capacity = max(16, 2 * self._times.shape[0])
        n = self._rounds
        for name in ("_times", "_readings", "_cpu", "_mem", "_stale"):
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)

    def __getitem__(self, vm: str) -> List[MetricSample]:
        i = self._index[vm]
        n = self._rounds
        return [
            MetricSample(
                vm=vm, timestamp=t, values=dict(zip(ATTRIBUTES, row)),
                cpu_allocated=cpu, mem_allocated_mb=mem, stale=stale,
            )
            for t, row, cpu, mem, stale in zip(
                self._times[:n].tolist(), self._readings[:n, i].tolist(),
                self._cpu[:n, i].tolist(), self._mem[:n, i].tolist(),
                self._stale[:n, i].tolist(),
            )
        ]

    def __iter__(self) -> Iterator[str]:
        return iter(self.vms)

    def __len__(self) -> int:
        return len(self.vms)


class _LoadState:
    """Per-VM EWMA state for the load-average attributes."""

    __slots__ = ("load1", "load5")

    def __init__(self) -> None:
        self.load1 = 0.0
        self.load5 = 0.0

    def update(self, runqueue: float, a1: float, a5: float) -> None:
        """Fold one observation in; ``a1``/``a5`` are the per-interval
        smoothing factors (constant for a fixed sampling interval, so
        the monitor precomputes them instead of exp()-ing per sample)."""
        self.load1 += a1 * (runqueue - self.load1)
        self.load5 += a5 * (runqueue - self.load5)


class VMMonitor:
    """Samples the 13 attributes of a set of VMs on a fixed interval.

    Each round is recorded in :attr:`traces` and delivered to the
    listeners as one :class:`SampleBlock` — the hook the PREPARE
    controller registers on.
    """

    def __init__(
        self,
        sim: Simulator,
        vms: Sequence[VirtualMachine],
        interval: float = DEFAULT_SAMPLING_INTERVAL,
        rng: Optional[np.random.Generator] = None,
        noise_scale: float = 1.0,
        drop_rate: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self._sim = sim
        self._vms = list(vms)
        self.interval = interval
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._noise_scale = noise_scale
        #: Probability that an individual VM read fails in a round.  A
        #: failed read is replaced by a forward-filled repeat of the
        #: previous sample (marked ``stale``), so per-VM traces stay
        #: aligned — the contract every downstream consumer relies on.
        self.drop_rate = drop_rate
        # Hot-path constants: the load-average smoothing factors for
        # this interval and the scaled noise-std vector (ATTRIBUTES
        # order) for the one-shot gaussian draw in sample_vm.
        self._alpha1 = 1.0 - np.exp(-interval / _LOAD1_WINDOW)
        self._alpha5 = 1.0 - np.exp(-interval / _LOAD5_WINDOW)
        self._noise_vec = _NOISE_STD_VEC * noise_scale
        # Fleet-wide noise-scale matrix for batched collection, built
        # lazily for the current VM count (a zero-copy broadcast view).
        self._noise_mat: Optional[np.ndarray] = None
        self._loads: Dict[str, _LoadState] = {vm.name: _LoadState() for vm in self._vms}
        self._names = tuple(vm.name for vm in self._vms)
        self.traces = MonitorTrace(self._names)
        self._listeners: List[Callable[[SampleBlock], None]] = []
        self._task: Optional[PeriodicTask] = None
        self._interceptor: Optional[
            Callable[[SampleBlock, Callable[[SampleBlock], None]], None]
        ] = None

    @property
    def vm_names(self) -> List[str]:
        return list(self._names)

    def add_listener(self, listener: Callable[[SampleBlock], None]) -> None:
        """Register a callback invoked with each round's block."""
        self._listeners.append(listener)

    def set_delivery_interceptor(
        self,
        interceptor: Optional[
            Callable[[SampleBlock, Callable[[SampleBlock], None]], None]
        ],
    ) -> None:
        """Install a hook between collection and listener delivery.

        ``interceptor(block, dispatch)`` decides what the listeners see:
        call ``dispatch`` immediately (possibly with a modified copy),
        schedule it for later, or not at all — the seam the chaos engine
        uses to drop, delay, corrupt and black out the metric stream.
        The monitor's own ``traces`` always record what was *measured*;
        interception degrades only delivery.  Pass ``None`` to remove.
        """
        self._interceptor = interceptor

    def start(self, start_at: Optional[float] = None) -> None:
        """Begin periodic sampling."""
        if self._task is not None and not self._task.stopped:
            raise RuntimeError("monitor already started")
        self._task = self._sim.every(
            self.interval, self._collect, start_at=start_at, label="vm-monitor"
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_vm(self, vm: VirtualMachine, timestamp: float) -> MetricSample:
        """Measure one VM now (noise included).

        The 13 attributes are derived once from shared VM state (the
        demand sums and utilization the individual accessors would each
        recompute) and perturbed with a single vectorized gaussian draw
        that consumes the generator stream exactly like the thirteen
        per-attribute scalar draws it replaces.
        """
        noisy, cpu_allocated, mem_allocated = self._measure(vm)
        return MetricSample(
            vm=vm.name,
            timestamp=timestamp,
            values=dict(zip(ATTRIBUTES, noisy.tolist())),
            cpu_allocated=cpu_allocated,
            mem_allocated_mb=mem_allocated,
        )

    def _measure(self, vm: VirtualMachine) -> Tuple[np.ndarray, float, float]:
        """One VM's noisy row, from its own gaussian draw, and allocations."""
        row, cpu_allocated, mem_allocated = self._raw_row(vm)
        noisy = np.array(row) + self._rng.normal(0.0, self._noise_vec)
        np.maximum(noisy, 0.0, out=noisy)
        if noisy[0] > 100.0:
            noisy[0] = 100.0
        return noisy, cpu_allocated, mem_allocated

    def _raw_row(self, vm: VirtualMachine) -> Tuple[List[float], float, float]:
        """Raw (pre-noise) attribute row plus the VM's allocations.

        Folds the VM's run queue into the load EWMAs as a side effect —
        call exactly once per VM per round.
        """
        # Inlined total_cpu_demand / total_mem_demand_mb cache reads.
        total_cpu = vm._cpu_total
        if total_cpu is None:
            total_cpu = vm._cpu_total = sum(vm._cpu_demands.values())
        cpu_allocated = vm._cpu_alloc
        usage_cores = total_cpu if total_cpu < cpu_allocated else cpu_allocated
        utilization = 0.0 if cpu_allocated == 0 else usage_cores / cpu_allocated

        load = self._loads[vm.name]
        load.update(total_cpu, self._alpha1, self._alpha5)

        mem_allocated = vm._mem_alloc
        total_mem = vm._mem_total
        if total_mem is None:
            total_mem = vm._mem_total = sum(vm._mem_demands.values())
        # Branches replace the max() builtins; each picks the exact
        # operand the original call returned.
        swap = total_mem - mem_allocated
        if swap <= 0.0:
            swap = 0.0
        free_mem = mem_allocated - total_mem
        if free_mem <= 0.0:
            free_mem = 0.0
        cache_pressure = 1.0 - free_mem / CACHE_PRESSURE_MB
        if cache_pressure <= 0.0:
            cache_pressure = 0.0
        # Major faults scale with how hard the guest is thrashing.
        page_faults = 2.0 + 90.0 * (
            swap / (mem_allocated if mem_allocated > 1.0 else 1.0)
        )
        # Context switches track overall activity (hundreds per second).
        ctx = 200.0 + 600.0 * utilization
        # Page-cache starvation shows up as extra physical reads well
        # before hard swapping starts (see repro.sim.vm).
        cache_miss_reads = 90.0 * cache_pressure

        residual = cpu_allocated - usage_cores
        if residual <= 0.0:
            residual = 0.0

        activity = vm.activity
        row = [
            100.0 * utilization,                         # cpu_usage
            residual,                                    # residual_cpu
            load.load1,
            load.load5,
            free_mem,
            min(total_mem, mem_allocated),               # mem_used
            swap,
            page_faults + 25.0 * cache_pressure,
            activity.net_in_kbps,
            activity.net_out_kbps,
            activity.disk_read_kbps + cache_miss_reads,
            activity.disk_write_kbps,
            ctx,
        ]
        return row, cpu_allocated, mem_allocated

    def _collect(self, now: float) -> None:
        """One round: measure every VM, record the round in
        :attr:`traces`, and deliver it as one :class:`SampleBlock`."""
        n = len(self._vms)
        stale = np.zeros(n, dtype=bool)
        if self.drop_rate == 0.0:
            noisy, cpu, mem = self._measure_fleet()
        else:
            noisy, cpu, mem = self._measure_with_drops(stale)
        cpu, mem = np.array(cpu, dtype=float), np.array(mem, dtype=float)
        self.traces.append(now, noisy, cpu, mem, stale)
        block = SampleBlock(
            now, self._names, noisy, cpu, mem, np.ones(n, dtype=bool), stale
        )
        if self._interceptor is None:
            self._dispatch(block)
        else:
            self._interceptor(block, self._dispatch)

    def _measure_fleet(self) -> Tuple[np.ndarray, List[float], List[float]]:
        """Every VM's noisy row from a single fleet-wide noise draw.

        With ``drop_rate == 0`` the generator is consumed strictly in
        VM-major, attribute-minor order, so one ``(n_vms, 13)`` gaussian
        draw produces the bit-identical stream of the per-VM draws (a
        broadcast fill walks the output in C order) while paying the
        numpy dispatch cost once per round instead of once per VM.
        """
        rows = []
        cpu = []
        mem = []
        for vm in self._vms:
            row, cpu_allocated, mem_allocated = self._raw_row(vm)
            rows.append(row)
            cpu.append(cpu_allocated)
            mem.append(mem_allocated)
        noise = self._noise_mat
        if noise is None or noise.shape[0] != len(rows):
            noise = self._noise_mat = np.broadcast_to(
                self._noise_vec, (len(rows), self._noise_vec.size)
            )
        noisy = np.array(rows, dtype=float).reshape(-1, self._noise_vec.size)
        noisy += self._rng.normal(0.0, noise)
        np.maximum(noisy, 0.0, out=noisy)
        cpu_col = noisy[:, 0]
        np.minimum(cpu_col, 100.0, out=cpu_col)
        return noisy, cpu, mem

    def _measure_with_drops(
        self, stale: np.ndarray
    ) -> Tuple[np.ndarray, List[float], List[float]]:
        """Every VM's row when reads can fail.

        The drop roll and the noise draw interleave per VM, so each VM
        keeps its own draw.  A failed read repeats the VM's previous
        round (flagged in ``stale``); the first round never fails.
        """
        trace = self.traces
        last = trace.rounds - 1
        noisy = np.empty((len(self._vms), self._noise_vec.size))
        cpu = []
        mem = []
        for i, vm in enumerate(self._vms):
            if last >= 0 and self._rng.random() < self.drop_rate:
                noisy[i] = trace._readings[last, i]
                cpu.append(trace._cpu[last, i])
                mem.append(trace._mem[last, i])
                stale[i] = True
            else:
                noisy[i], cpu_allocated, mem_allocated = self._measure(vm)
                cpu.append(cpu_allocated)
                mem.append(mem_allocated)
        return noisy, cpu, mem

    def _dispatch(self, block: SampleBlock) -> None:
        for listener in self._listeners:
            listener(block)
