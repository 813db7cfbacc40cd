"""Guest virtual machines.

A :class:`VirtualMachine` is the unit everything in PREPARE revolves
around: applications place one component per VM, faults are injected
into VMs, the monitor samples per-VM metrics, and prevention actions
(scaling, migration) operate on VMs.

The performance model is deliberately simple and transparent:

* **CPU** — consumers (the application component plus any injected CPU
  hogs) declare a demand in cores; the VM's allocated cores are divided
  proportionally when over-subscribed, exactly like a work-conserving
  fair-share scheduler inside the guest.
* **Memory** — consumers declare resident-set sizes in MB; demand above
  the VM's allocation spills to swap, which multiplies the application's
  service times (thrashing) and drives the ``page_faults`` metric.
* **Migration** — while a live migration is in flight the guest runs at
  a degraded fraction of its capacity (pre-copy dirtying overhead).

The state lives in a :class:`VMTable`: one row per VM, one array per
quantity, so an application's step, the thrash tick and the monitor's
round are a few array operations over the application's rows.  A
:class:`VirtualMachine` is a view of one row; a standalone one gets a
one-row table.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.resources import ResourceError, ResourceKind, ResourceSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.host import Host

__all__ = ["VirtualMachine", "VMActivity", "VMTable", "APP_CONSUMER",
           "table_rows"]

#: Fraction of nominal capacity a guest retains while being live-migrated.
MIGRATION_DEGRADATION = 0.65

#: Service-time multiplier per unit of swap-to-allocation ratio.  A VM
#: swapping 50% of its allocation runs roughly 1 + 0.5 * SWAP_PENALTY
#: times slower.
SWAP_PENALTY = 14.0

#: Time constants (seconds) for thrashing onset and recovery.  Paging a
#: working set back in after swap pressure is relieved is much slower
#: than falling into thrashing — the reason a *reactive* memory fix
#: still leaves a long SLO-violation tail while a predictive fix that
#: lands before swapping starts costs nothing (Figs. 6/7).
THRASH_TAU_UP = 4.0
THRASH_TAU_DOWN = 28.0

#: Page-cache pressure model: once free memory falls below this many
#: MB the guest's page cache is being eaten, service times rise mildly
#: (extra physical I/O) *before* any hard swapping starts.  This is the
#: gradual early phase of a memory leak's manifestation on a real
#: Linux guest.
CACHE_PRESSURE_MB = 150.0
CACHE_PRESSURE_PENALTY = 0.35

#: Consumer key application components register their demands under.
APP_CONSUMER = "app"

#: Rows of a table: a slice when contiguous (writes through it are
#: views), else an index array.
Rows = Union[slice, np.ndarray]


def _grow(array: np.ndarray, capacity: int) -> np.ndarray:
    """``array`` zero-padded along its last axis to ``capacity``."""
    grown = np.zeros(array.shape[:-1] + (capacity,), dtype=array.dtype)
    grown[..., :array.shape[-1]] = array
    return grown


def _max_min_grants(demands: Dict[str, float], capacity: float) -> Dict[str, float]:
    """Water-filling max-min fair allocation of ``capacity``.

    Mirrors an equal-weight fair scheduler inside the guest: every
    runnable consumer is entitled to an equal share; demand below
    the share is fully granted and the surplus is redistributed.
    """
    grants = {name: 0.0 for name in demands}
    remaining = capacity
    unsatisfied = {name: demand for name, demand in demands.items() if demand > 0}
    while unsatisfied and remaining > 1e-12:
        share = remaining / len(unsatisfied)
        fulfilled = [n for n, d in unsatisfied.items() if d <= share]
        if fulfilled:
            for name in fulfilled:
                grants[name] = demands[name]
                remaining -= unsatisfied.pop(name)
        else:
            for name in unsatisfied:
                grants[name] = share
            remaining = 0.0
            unsatisfied = {}
    return grants


def _ceiling(demands: Dict[str, float], consumer: str, capacity: float) -> float:
    """Cores ``consumer`` could obtain at unbounded demand: ``capacity``
    minus what the other consumers keep against a saturating one."""
    others = {name: demand for name, demand in demands.items() if name != consumer}
    if not others:
        return capacity
    grants = _max_min_grants({**others, consumer: math.inf}, capacity)
    return capacity - sum(grants[name] for name in others)


class _Demands:
    """One resource's consumers on every row of a :class:`VMTable`.

    ``order[row]`` holds the row's consumers in insertion order — a
    demand of 0 removes one, re-adding appends it — with the app
    consumer's entry (``None``) marking its place; its demand is the
    column ``app``.  :meth:`total` is ``sum`` over that order: ``pre``
    (the consumers before the app) plus ``app``, then each row of
    ``post`` (the ones after it, zero-padded: ``x + 0.0`` is exact).
    Float ``+`` is not associative, so with three or more consumers
    only that order reproduces the sum.
    """

    def __init__(self) -> None:
        self.app = np.zeros(0)
        self.pre = np.zeros(0)
        self.post = np.zeros((0, 0))
        self.order: List[Dict[str, Optional[float]]] = []

    def grow(self, capacity: int) -> None:
        for name in ("app", "pre", "post"):
            setattr(self, name, _grow(getattr(self, name), capacity))

    def total(self, rows: Union[int, Rows]):
        """Each row's total demand."""
        total = self.pre[rows] + self.app[rows]
        for column in self.post:
            total += column[rows]
        return total

    def demands(self, row: int) -> Dict[str, float]:
        """The row's consumers and their demands, in insertion order."""
        app = self.app.item(row)
        return {
            name: app if demand is None else demand
            for name, demand in self.order[row].items()
        }

    def set(self, row: int, consumer: str, amount: float) -> bool:
        """One consumer's demand on one row; True if anything changed."""
        order = self.order[row]
        if consumer == APP_CONSUMER:
            if amount == self.app[row]:
                return False
            self.app[row] = amount
        elif amount == order.get(consumer, 0.0):
            return False
        if amount == 0:
            del order[consumer]
        else:
            order[consumer] = None if consumer == APP_CONSUMER else amount
        names = list(order)
        cut = names.index(APP_CONSUMER) if APP_CONSUMER in order else len(names)
        after = [order[name] for name in names[cut + 1:]]
        if len(after) > len(self.post):
            self.post = np.vstack([self.post, np.zeros(
                (len(after) - len(self.post), self.post.shape[1]))])
        self.pre[row] = sum(order[name] for name in names[:cut])
        self.post[:, row] = 0.0
        self.post[:len(after), row] = after
        return True

    def set_app(self, rows: Rows, values) -> None:
        """The app consumer's demand on ``rows`` (0 removes it)."""
        current = self.app[rows]
        if np.count_nonzero(current * values) < current.size:
            # Rows whose app consumer may enter or leave their order.
            moved = (current > 0.0) != (np.asarray(values) > 0.0)
            for row, amount in zip(np.arange(self.app.size)[rows][moved].tolist(),
                                   np.broadcast_to(values, moved.shape)[moved].tolist()):
                self.set(row, APP_CONSUMER, amount)
        self.app[rows] = values


class VMTable:
    """The simulator's per-VM state as columns, one row per VM.

    ``cpu`` / ``mem`` hold the consumers' demands (:class:`_Demands`).
    ``potential`` (the app consumer's CPU ceiling), ``memory`` (free,
    used and swapped MB, major faults/s, page-cache pressure and the
    extra reads it causes, KB/s) and ``slowdown`` (the ``thrash``
    target) depend only on the other consumers, the app's resident set
    and the allocations: the rare writes recompute them for their row,
    the app's per-step CPU demand never does.  ``pace`` is 1.0, or
    ``MIGRATION_DEGRADATION`` while a migration is in flight;
    ``activity`` is the I/O the app component reports, KB/s.
    """

    _COLUMNS = ("cpu_alloc", "mem_alloc", "potential", "memory", "slowdown",
                "thrash", "pace", "activity")

    #: Rows of ``memory``.
    FREE, USED, SWAP, FAULTS, CACHE, MISS_READS = range(6)
    #: Rows of ``activity``.
    NET_IN, NET_OUT, DISK_READ, DISK_WRITE = range(4)

    def __init__(self) -> None:
        self.size = 0
        self.cpu = _Demands()
        self.mem = _Demands()
        for name in self._COLUMNS:
            setattr(self, name, np.zeros(0))
        self.memory = np.zeros((6, 0))
        self.activity = np.zeros((4, 0))

    def append(self, spec: ResourceSpec) -> int:
        """Add a row for a VM with allocation ``spec``; returns it."""
        row = self.size
        if row == self.thrash.size:
            capacity = 2 * row or 1
            for name in self._COLUMNS:
                setattr(self, name, _grow(getattr(self, name), capacity))
            self.cpu.grow(capacity)
            self.mem.grow(capacity)
        self.size = row + 1
        self.cpu.order.append({})
        self.mem.order.append({})
        self.cpu_alloc[row] = spec.cpu_cores
        self.mem_alloc[row] = spec.memory_mb
        self.potential[row] = spec.cpu_cores
        self.thrash[row] = self.pace[row] = 1.0
        self._memory(row)
        return row

    def set_allocation(self, row: int, kind: ResourceKind, amount: float) -> None:
        if kind is ResourceKind.CPU:
            self.cpu_alloc[row] = amount
            self._ceiling(row)
        else:
            self.mem_alloc[row] = amount
            self._memory(row)

    def set_demand(self, row: int, kind: ResourceKind, consumer: str,
                   amount: float) -> None:
        """Any consumer's demand on one row (0 removes it)."""
        demands = self.cpu if kind is ResourceKind.CPU else self.mem
        if not demands.set(row, consumer, amount):
            return
        if demands is self.mem:
            self._memory(row)
        elif consumer != APP_CONSUMER:
            self._ceiling(row)

    def set_app_demand(self, kind: ResourceKind, rows: Rows, values) -> None:
        """The app consumer's demand on ``rows``, one value or one each
        (its resident set is set once, so memory takes the rare path)."""
        if kind is ResourceKind.CPU:
            self.cpu.set_app(rows, values)
            return
        self.mem.set_app(rows, values)
        for row in np.arange(self.size)[rows].tolist():
            self._memory(row)

    def _ceiling(self, row: int) -> None:
        self.potential[row] = _ceiling(
            self.cpu.demands(row), APP_CONSUMER, self.cpu_alloc.item(row))

    def _memory(self, row: int) -> None:
        """Recompute a row's memory state after its demand or allocation
        changed.  Two phases, as on a real Linux guest: a mild penalty
        as the page cache is squeezed out (extra physical reads), then
        the steep thrashing penalty (and major faults) once demand
        spills into swap.
        """
        allocated = self.mem_alloc.item(row)
        total = float(self.mem.total(row))
        swap = max(0.0, total - allocated)
        free = max(0.0, allocated - total)
        cache = max(0.0, 1.0 - free / CACHE_PRESSURE_MB)
        faults = 2.0 + 90.0 * (swap / (allocated if allocated > 1.0 else 1.0))
        self.memory[:, row] = (free, min(total, allocated), swap,
                               faults + 25.0 * cache, cache, 90.0 * cache)
        self.slowdown[row] = 1.0 if allocated == 0 else (
            1.0 + CACHE_PRESSURE_PENALTY * cache
            + SWAP_PENALTY * (swap / allocated))

    def tick(self, rows: Rows, dt: float) -> None:
        """Advance the thrash EWMA of ``rows`` by ``dt`` seconds.

        It follows the swap pressure with asymmetric inertia: thrashing
        sets in within seconds, recovery takes tens of seconds (pages
        must fault back in).  A converged row adds ``alpha * 0.0``.
        """
        if dt <= 0:
            return
        up = 1.0 - math.exp(-dt / THRASH_TAU_UP)
        down = 1.0 - math.exp(-dt / THRASH_TAU_DOWN)
        thrash, target = self.thrash[rows], self.slowdown[rows]
        self.thrash[rows] = thrash + np.where(target > thrash, up, down) * (
            target - thrash)

    def degradation(self, rows: Union[int, Rows]):
        """Combined slowdown factor from swapping and in-flight migration
        (``factor * 1.0`` is exact when none is)."""
        return 1.0 / self.thrash[rows] * self.pace[rows]


def table_rows(vms: Sequence["VirtualMachine"]) -> Tuple[VMTable, Rows]:
    """The table holding ``vms`` and their rows, in order."""
    if not vms:
        return VMTable(), slice(0, 0)
    table = vms[0].table
    if any(vm.table is not table for vm in vms):
        raise ValueError("these VMs live in different tables; "
                         "create them in one Cluster")
    ids = [vm.row for vm in vms]
    if ids == list(range(ids[0], ids[0] + len(ids))):
        return table, slice(ids[0], ids[0] + len(ids))
    return table, np.array(ids, dtype=np.intp)


def _activity(index: int) -> property:
    def get(self) -> float:
        return self._table.activity.item(index, self._row)

    def put(self, value: float) -> None:
        self._table.activity[index, self._row] = value
    return property(get, put)


class VMActivity:
    """I/O activity the application component reports each model step
    (a view of its VM's row).  It feeds the monitor's network and disk
    attributes and nothing else: the paper's faults are CPU and memory
    faults."""

    __slots__ = ("_table", "_row")

    def __init__(self, table: VMTable, row: int) -> None:
        self._table = table
        self._row = row

    net_in_kbps = _activity(VMTable.NET_IN)
    net_out_kbps = _activity(VMTable.NET_OUT)
    disk_read_kbps = _activity(VMTable.DISK_READ)
    disk_write_kbps = _activity(VMTable.DISK_WRITE)


class VirtualMachine:
    """A guest VM with elastic CPU/memory allocations: a view of one
    :class:`VMTable` row (a fresh one-row table unless ``table`` is
    given)."""

    def __init__(self, name: str, spec: ResourceSpec,
                 table: Optional[VMTable] = None) -> None:
        if not name:
            raise ValueError("VM name must be non-empty")
        self.name = name
        self._spec = spec
        self.host: Optional["Host"] = None
        self.table = table if table is not None else VMTable()
        self.row = self.table.append(spec)
        self.activity = VMActivity(self.table, self.row)

    @property
    def spec(self) -> ResourceSpec:
        """Current (CPU cores, memory MB) allocation."""
        return self._spec

    @property
    def cpu_allocated(self) -> float:
        return self.table.cpu_alloc.item(self.row)

    @property
    def mem_allocated_mb(self) -> float:
        return self.table.mem_alloc.item(self.row)

    def set_allocation(self, kind: ResourceKind, amount: float) -> None:
        """Change one allocation dimension (the hypervisor calls this)."""
        if amount <= 0:
            raise ResourceError(f"{self.name}: allocation must stay positive, got {amount}")
        self._spec = self._spec.with_amount(kind, amount)
        self.table.set_allocation(self.row, kind, amount)

    @property
    def migrating(self) -> bool:
        """True while a live migration of this VM is in flight."""
        return self.table.pace.item(self.row) != 1.0

    @migrating.setter
    def migrating(self, value: bool) -> None:
        self.table.pace[self.row] = MIGRATION_DEGRADATION if value else 1.0

    def set_cpu_demand(self, consumer: str, cores: float) -> None:
        """Declare a consumer's CPU demand in cores; 0 removes it."""
        if cores < 0:
            raise ResourceError(f"negative CPU demand {cores} from {consumer}")
        self.table.set_demand(self.row, ResourceKind.CPU, consumer, cores)

    def total_cpu_demand(self) -> float:
        return float(self.table.cpu.total(self.row))

    def cpu_share(self, consumer: str) -> float:
        """Cores actually granted to ``consumer`` under max-min fairness."""
        demands = self.table.cpu.demands(self.row)
        if consumer not in demands:
            return 0.0
        return _max_min_grants(demands, self.cpu_allocated)[consumer]

    def potential_cpu(self, consumer: str) -> float:
        """Cores ``consumer`` *could* obtain if it demanded unboundedly.

        This is the capacity ceiling the application's queueing model
        saturates against: the allocation minus what the other
        consumers (e.g. an injected CPU hog) would still hold under
        max-min fairness against a saturating competitor.
        """
        return _ceiling(self.table.cpu.demands(self.row), consumer,
                        self.cpu_allocated)

    def cpu_usage_cores(self) -> float:
        """Cores actually consumed (min of demand and allocation)."""
        return min(self.total_cpu_demand(), self.cpu_allocated)

    def cpu_utilization(self) -> float:
        """Fraction of the allocation in use, in [0, 1]."""
        if self.cpu_allocated == 0:
            return 0.0
        return self.cpu_usage_cores() / self.cpu_allocated

    def set_mem_demand(self, consumer: str, mb: float) -> None:
        """Declare a consumer's resident-set size in MB; 0 removes it."""
        if mb < 0:
            raise ResourceError(f"negative memory demand {mb} from {consumer}")
        self.table.set_demand(self.row, ResourceKind.MEMORY, consumer, mb)

    def total_mem_demand_mb(self) -> float:
        return float(self.table.mem.total(self.row))

    def mem_used_mb(self) -> float:
        """Resident memory (cannot exceed the allocation)."""
        return self.table.memory.item(VMTable.USED, self.row)

    def free_mem_mb(self) -> float:
        return self.table.memory.item(VMTable.FREE, self.row)

    def swap_used_mb(self) -> float:
        return self.table.memory.item(VMTable.SWAP, self.row)

    def cache_pressure(self) -> float:
        """Page-cache starvation level in [0, 1] (1 = no cache left)."""
        return self.table.memory.item(VMTable.CACHE, self.row)

    def tick(self, dt: float) -> None:
        """Advance inertial state (:meth:`VMTable.tick` on this row)."""
        self.table.tick(slice(self.row, self.row + 1), dt)

    def memory_slowdown(self) -> float:
        """Service-time multiplier (>= 1) caused by swap thrashing."""
        return self.table.thrash.item(self.row)

    def effective_capacity(self, consumer: str = APP_CONSUMER) -> float:
        """Capacity ceiling for the application's queueing model.

        The cores the component could obtain at saturation
        (:meth:`potential_cpu`), degraded by swap thrashing and any
        in-flight migration.
        """
        return self.potential_cpu(consumer) * float(
            self.table.degradation(self.row))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        host = self.host.name if self.host else None
        return (
            f"VirtualMachine({self.name!r}, cpu={self.cpu_allocated:.2f}, "
            f"mem={self.mem_allocated_mb:.0f}MB, host={host!r})"
        )
