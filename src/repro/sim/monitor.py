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
from repro.sim.vm import VirtualMachine, VMTable, table_rows

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

    Rounds append to growable arrays (``capacity`` rounds reserved up
    front, doubling past them), so a run's trace is a few numpy arrays,
    not one object per VM per round:
    ``times`` ``(rounds,)``, ``readings`` ``(rounds, vm, attr)``,
    ``cpu`` / ``mem`` ``(rounds, vm)``, and the stale flags.  As a mapping it is
    the per-VM view: ``trace[vm]`` builds that VM's :class:`MetricSample`
    list on each access, and nothing but the arrays is kept.
    """

    def __init__(self, vms: Sequence[str], capacity: int = 0) -> None:
        self.vms: Tuple[str, ...] = tuple(vms)
        self._index = {name: i for i, name in enumerate(self.vms)}
        n_vms = len(self.vms)
        self._rounds = 0
        self._times = np.empty(capacity)
        self._readings = np.empty((capacity, n_vms, len(ATTRIBUTES)))
        self._cpu = np.empty((capacity, n_vms))
        self._mem = np.empty((capacity, n_vms))
        self._stale = np.empty((capacity, n_vms), dtype=bool)

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


class VMMonitor:
    """Samples the 13 attributes of a set of VMs on a fixed interval.

    Each round is recorded in :attr:`traces` (``capacity`` rounds of it
    reserved up front) and delivered to the listeners as one
    :class:`SampleBlock` — the hook the PREPARE controller registers on.
    """

    def __init__(
        self,
        sim: Simulator,
        vms: Sequence[VirtualMachine],
        interval: float = DEFAULT_SAMPLING_INTERVAL,
        rng: Optional[np.random.Generator] = None,
        noise_scale: float = 1.0,
        drop_rate: float = 0.0,
        capacity: int = 0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self._sim = sim
        self._vms = list(vms)
        self.interval = interval
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Probability that an individual VM read fails in a round.  A
        #: failed read is replaced by a forward-filled repeat of the
        #: previous sample (marked ``stale``), so per-VM traces stay
        #: aligned — the contract every downstream consumer relies on.
        self.drop_rate = drop_rate
        # The load averages' smoothing factors for this interval, and
        # the noise standard deviations in ATTRIBUTES order.
        self._alphas = np.array([
            [1.0 - np.exp(-interval / _LOAD1_WINDOW)],
            [1.0 - np.exp(-interval / _LOAD5_WINDOW)],
        ])
        self._noise_vec = _NOISE_STD_VEC * noise_scale
        self._table, self._rows = table_rows(self._vms)
        self._ids = np.array([vm.row for vm in self._vms], dtype=np.intp)
        #: Per-VM EWMAs of the run queue: ``load1`` and ``load5``.
        self._loads = np.zeros((2, len(self._vms)))
        self._names = tuple(vm.name for vm in self._vms)
        self._index = {name: i for i, name in enumerate(self._names)}
        self.traces = MonitorTrace(self._names, capacity)
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
        """Measure one monitored VM now (noise included): the one-row
        case of a round, with its own gaussian draw."""
        i = np.array([self._index[vm.name]])
        raw, cpu, mem = self._raw(i)
        noisy = self._noisy(raw, self._noise(raw.shape))[0]
        return MetricSample(vm.name, timestamp, dict(zip(ATTRIBUTES, noisy.tolist())),
                            cpu.item(0), mem.item(0))

    def _raw(self, pos: Optional[np.ndarray] = None
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw (pre-noise) ``(vm, attr)`` rows of the monitored VMs at
        positions ``pos`` (all of them by default), with their
        allocations.

        Folds those VMs' run queues into the load EWMAs as a side
        effect — call exactly once per VM per round.
        """
        table = self._table
        rows = self._rows if pos is None else self._ids[pos]
        at = slice(None) if pos is None else pos
        total_cpu = table.cpu.total(rows)
        cpu = table.cpu_alloc[rows]
        # Where the allocation is 0 so is the usage, and 0.0 / 1.0 is
        # the 0.0 the branch gave.
        usage = np.where(total_cpu < cpu, total_cpu, cpu)
        utilization = usage / np.where(cpu == 0, 1.0, cpu)
        loads = self._loads[:, at]
        self._loads[:, at] = loads = loads + self._alphas * (total_cpu - loads)
        memory = table.memory[:, rows]
        raw = np.empty((usage.size, len(ATTRIBUTES)))
        np.multiply(utilization, 100.0, out=raw[:, 0])       # cpu_usage
        # Never negative: the usage is at most the allocation.
        raw[:, 1] = cpu - usage                               # residual_cpu
        raw[:, 2:4] = loads.T
        # free_mem, mem_used, swap_used, page_faults.
        raw[:, 4:8] = memory[:VMTable.CACHE].T
        raw[:, 8:12] = table.activity[:, rows].T
        raw[:, 10] += memory[VMTable.MISS_READS]
        # Context switches track overall activity (hundreds per second).
        np.multiply(utilization, 600.0, out=raw[:, 12])
        raw[:, 12] += 200.0
        return raw, cpu, table.mem_alloc[rows]

    def _noise(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Measurement noise for ``shape`` readings, drawn in C order.
        ``normal(0.0, std)`` draws ``0.0 + std * z`` from the same stream;
        the ``0.0 +`` only turns a ``-0.0`` into ``0.0``, which adding the
        noise to a reading makes moot."""
        return self._rng.standard_normal(shape) * self._noise_vec

    @staticmethod
    def _noisy(raw: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Add the noise to the raw rows in place, clip at 0 and cap
        ``cpu_usage`` at 100."""
        raw += noise
        np.maximum(raw, 0.0, out=raw)
        cpu_col = raw[:, 0]
        np.minimum(cpu_col, 100.0, out=cpu_col)
        return raw

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

    def _measure_fleet(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every VM's noisy row from a single fleet-wide noise draw.

        With ``drop_rate == 0`` the generator is consumed strictly in
        VM-major, attribute-minor order, so one ``(n_vms, 13)`` draw is
        the stream of the per-VM draws.
        """
        raw, cpu, mem = self._raw()
        return self._noisy(raw, self._noise(raw.shape)), cpu, mem

    def _measure_with_drops(
        self, stale: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every VM's row when reads can fail.

        The drop roll and the noise draw interleave per VM, so each VM
        keeps its own draw.  A failed read repeats the VM's previous
        round (flagged in ``stale``); the first round never fails.  Only
        the VMs actually read fold their run queues into the loads.
        """
        trace = self.traces
        last = trace.rounds - 1
        n = len(self._vms)
        noisy = np.empty((n, self._noise_vec.size))
        for i in range(n):
            if last >= 0 and self._rng.random() < self.drop_rate:
                stale[i] = True
            else:
                noisy[i] = self._noise(self._noise_vec.shape)
        read = np.flatnonzero(~stale)
        cpu, mem = np.empty(n), np.empty(n)
        raw, cpu[read], mem[read] = self._raw(read)
        noisy[read] = self._noisy(raw, noisy[read])
        if read.size < n:
            noisy[stale] = trace._readings[last, stale]
            cpu[stale] = trace._cpu[last, stale]
            mem[stale] = trace._mem[last, stale]
        return noisy, cpu, mem

    def _dispatch(self, block: SampleBlock) -> None:
        for listener in self._listeners:
            listener(block)
