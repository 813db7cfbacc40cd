"""The VM state table and its kernels against the per-VM code they
replaced: bitwise, not close.

``oracles.py`` keeps the scalar ``VirtualMachine`` (``OracleVM``), the
fleet's per-node step (``OracleFleetApp``) and the monitor's per-VM raw
rows (``OracleMonitor``) verbatim.  Every number compared here must be
the same float, bit for bit, and every number that leaves the table a
Python ``float``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.base import APP_CONSUMER
from repro.apps.fleet import UniformFleetApp
from repro.apps.workload import Workload
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.monitor import VMMonitor
from repro.sim.resources import ResourceKind, ResourceSpec
from repro.sim.vm import VMTable

from ..core.oracles import OracleFleetApp, OracleMonitor, OracleVM

CONSUMERS = (APP_CONSUMER, "fault:hog", "fault:leak", "other")
ACTIVITY = ("net_in_kbps", "net_out_kbps", "disk_read_kbps", "disk_write_kbps")
SPEC = ResourceSpec(1.0, 1024.0)


def same(got, want):
    """Bitwise equal, and a Python float on our side."""
    assert type(got) is float, type(got)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


def twins(specs):
    """Table-backed VMs in one cluster, and oracle VMs beside them."""
    cluster = Cluster(Simulator())
    hosts = cluster.add_hosts(len(specs), capacity=ResourceSpec(64.0, 1e6))
    vms = [cluster.create_vm(f"vm{i}", spec, host)
           for i, (spec, host) in enumerate(zip(specs, hosts))]
    return cluster.table, vms, [OracleVM(vm.name, spec) for vm, spec in zip(vms, specs)]


def assert_same_vm(vm, twin):
    for name in ("total_cpu_demand", "total_mem_demand_mb", "cpu_usage_cores",
                 "cpu_utilization", "mem_used_mb", "free_mem_mb",
                 "swap_used_mb", "cache_pressure", "memory_slowdown"):
        same(getattr(vm, name)(), getattr(twin, name)())
    same(vm.cpu_allocated, twin.cpu_allocated)
    same(vm.mem_allocated_mb, twin.mem_allocated_mb)
    same(vm.table.potential.item(vm.row), twin.potential_cpu(APP_CONSUMER))
    same(vm.table.slowdown.item(vm.row), twin._slowdown_target())
    assert vm.migrating is twin.migrating
    for consumer in CONSUMERS:
        same(vm.cpu_share(consumer), twin.cpu_share(consumer))
        same(vm.potential_cpu(consumer), twin.potential_cpu(consumer))
        same(vm.effective_capacity(consumer), twin.effective_capacity(consumer))


# --- Demands, allocations, migration and the thrash tick
demand = st.one_of(st.just(0.0), st.floats(0.01, 3.0))
memory = st.one_of(st.just(0.0), st.floats(1.0, 1800.0))
vm_index = st.integers(0, 2)
dt = st.one_of(st.sampled_from([1.0, 0.5, 0.0, -1.0]), st.floats(0.01, 30.0))
op = st.one_of(
    st.tuples(st.just("cpu"), vm_index, st.sampled_from(CONSUMERS), demand),
    st.tuples(st.just("mem"), vm_index, st.sampled_from(CONSUMERS), memory),
    st.tuples(st.just("alloc"), vm_index,
              st.sampled_from([ResourceKind.CPU, ResourceKind.MEMORY]),
              st.floats(0.25, 2048.0)),
    st.tuples(st.just("migrating"), vm_index, st.booleans()),
    st.tuples(st.just("tick"), vm_index, dt),
    st.tuples(st.just("app_cpu"), st.lists(demand, min_size=3, max_size=3)),
    st.tuples(st.just("app_mem"), st.lists(memory, min_size=3, max_size=3)),
    st.tuples(st.just("tick_all"), dt),
)


# (0.1 + 0.2) + 0.3 != (0.2 + 0.3) + 0.1: these pin the summation order.
APP_FIRST = [("cpu", 0, APP_CONSUMER, 0.1), ("cpu", 0, "fault:hog", 0.2),
             ("cpu", 0, "other", 0.3)]
READDED_LAST = [("mem", 1, "fault:leak", 0.1), ("mem", 1, "other", 0.2),
                ("mem", 1, APP_CONSUMER, 0.3), ("mem", 1, "fault:leak", 0.0),
                ("mem", 1, "fault:leak", 0.1)]
APP_REJOINS = [("app_cpu", [0.1] * 3), ("cpu", 2, "fault:hog", 0.2),
               ("cpu", 2, "other", 0.3), ("app_cpu", [0.0] * 3),
               ("app_cpu", [0.1] * 3)]
# numpy's vector exp can round exp(-0.5 / 4) unlike math.exp.
HALF_SECOND_ONSET = [("mem", 0, APP_CONSUMER, 1500.0), ("tick_all", 0.5)]


@settings(max_examples=150, deadline=None)
@given(st.lists(op, max_size=60))
@example(APP_FIRST)
@example(READDED_LAST)
@example(APP_REJOINS)
@example(HALF_SECOND_ONSET)
def test_table_is_the_per_vm_model(ops):
    """Any interleaving of consumers coming and going (removal at 0,
    re-adding, three or more at once), scaling, migration and ticks —
    one VM at a time or over all rows — leaves every view equal to its
    oracle twin."""
    table, vms, oracle = twins([SPEC, ResourceSpec(2.0, 512.0), SPEC])
    rows = slice(vms[0].row, vms[-1].row + 1)
    for kind, *args in ops:
        if kind in ("cpu", "mem", "alloc", "migrating", "tick"):
            i, *rest = args
            for side in (vms[i], oracle[i]):
                if kind == "migrating":
                    side.migrating = rest[0]
                else:
                    getattr(side, {"cpu": "set_cpu_demand", "mem": "set_mem_demand",
                                   "alloc": "set_allocation", "tick": "tick"}[kind])(*rest)
        elif kind in ("app_cpu", "app_mem"):
            cpu = kind == "app_cpu"
            table.set_app_demand(ResourceKind.CPU if cpu else ResourceKind.MEMORY,
                                 rows, np.array(args[0]))
            for twin, amount in zip(oracle, args[0]):
                (twin.set_cpu_demand if cpu else twin.set_mem_demand)(APP_CONSUMER, amount)
        else:
            table.tick(rows, args[0])
            for twin in oracle:
                twin.tick(args[0])
        for vm, twin in zip(vms, oracle):
            assert_same_vm(vm, twin)


# --- The fleet step
class Scripted(Workload):
    """A rate per second, with a stretch of zero load (the app consumer
    leaves every VM's order, then re-joins it last)."""

    def base_rate(self, t):
        return 0.0 if 140 <= t < 145 else 110.0 * 12 * (1.0 + 0.4 * math.sin(t / 9.0))


def fleet_events(t, vms):
    """The same faults and actions, applied to one side's VMs."""
    if t == 30:
        vms[2].set_cpu_demand("fault:hog", 1.0)         # competitor ceiling
    if t == 90:
        vms[2].set_cpu_demand("fault:hog", 0.0)
    if 40 <= t < 220:
        vms[11].set_mem_demand("fault:leak", 4.0 * (t - 39))  # leak, then swap
    if t == 50:
        vms[11].set_mem_demand("fault:hog", 0.3)
    if t == 40:
        vms[11].set_cpu_demand("fault:leak", 0.03)
    if t == 60:
        vms[11].set_cpu_demand("fault:hog", 0.4)         # three consumers
    if t == 220:
        vms[11].set_mem_demand("fault:leak", 0.0)
        vms[11].set_cpu_demand("fault:leak", 0.0)
    if t == 100:
        vms[5].set_allocation(ResourceKind.CPU, 2.0)
    if t == 110:
        vms[11].set_allocation(ResourceKind.MEMORY, 1536.0)
    if t in (150, 170):
        vms[6].migrating = t == 150                      # in-flight migration


def test_fleet_step_is_the_per_node_loop():
    specs = [SPEC] * 12
    _table, vms, oracle_vms = twins(specs)
    sim = Simulator()
    ours = UniformFleetApp(sim, Scripted(), vms, base_memory_mb=980.0)
    theirs = OracleFleetApp(sim, Scripted(), oracle_vms, base_memory_mb=980.0)
    ours.start()
    peak = 1.0
    for t in range(300):
        fleet_events(t, vms)
        fleet_events(t, oracle_vms)
        ours._step(float(t))
        theirs._step(float(t))
        got, want = ours.slo.records[-1], theirs.slo.records[-1]
        same(got.metric, want.metric)
        assert got.violated == want.violated
        same(ours.last_output_rate, theirs.last_output_rate)
        same(ours.last_worst_latency, theirs.last_worst_latency)
        assert ours.backlog.tobytes() == np.array(
            list(theirs.backlog.values())).tobytes()
        assert ours.last_outputs.tobytes() == np.array(
            list(theirs.last_outputs.values())).tobytes()
        peak = max(peak, theirs.component("node12").vm.memory_slowdown())
        for vm, twin in zip(vms, oracle_vms):
            same(vm.memory_slowdown(), twin.memory_slowdown())
            same(vm.total_cpu_demand(), twin.total_cpu_demand())
            same(vm.total_mem_demand_mb(), twin.total_mem_demand_mb())
            for field in ACTIVITY:
                same(getattr(vm.activity, field), getattr(twin.activity, field))
    # The run reached what it exists for: swapping, and SLO violations.
    assert peak > 2.0
    assert any(r.violated for r in ours.slo.records)


# --- The monitor's round
@pytest.mark.parametrize("drop_rate,noise_scale,shuffle", [
    (0.0, 1.0, False), (0.0, 0.0, True), (0.3, 1.0, False), (0.3, 0.0, True),
])
def test_monitor_rounds_are_the_per_vm_rows(drop_rate, noise_scale, shuffle):
    """Fleet rounds, rounds with read drops and one-VM samples draw the
    generator and fold the load averages as the per-VM rows did — over
    contiguous rows and over an index array.  A VM with no CPU and one
    with under 1 MB take the masked lanes."""
    specs = [SPEC, ResourceSpec(0.0, 1024.0), ResourceSpec(1.0, 0.5),
             ResourceSpec(2.0, 2048.0), SPEC]
    _table, vms, oracle = twins(specs)
    order = [3, 0, 4, 1, 2] if shuffle else range(len(vms))
    vms, oracle = [vms[i] for i in order], [oracle[i] for i in order]
    kwargs = dict(drop_rate=drop_rate, noise_scale=noise_scale)
    ours = VMMonitor(Simulator(), vms, rng=np.random.default_rng(5), **kwargs)
    theirs = OracleMonitor(Simulator(), oracle, rng=np.random.default_rng(5),
                           **kwargs)
    blocks, want = [], []
    ours.add_listener(blocks.append)
    theirs.add_listener(want.append)
    rng = np.random.default_rng(1)
    for r in range(60):
        for vm, twin in zip(vms, oracle):
            draws = rng.uniform(0.0, 1.0, 8)
            for side in (vm, twin):
                side.set_cpu_demand(APP_CONSUMER, 2.0 * draws[0])
                side.set_cpu_demand("fault:hog", float(draws[1] > 0.7))
                side.set_mem_demand(APP_CONSUMER, 1200.0 * draws[2])
                side.set_mem_demand("fault:leak", 400.0 * (draws[3] > 0.6))
                for field, scale, x in zip(ACTIVITY, (300, 900, 80, 9), draws[4:]):
                    setattr(side.activity, field, scale * x)
        now = 5.0 * (r + 1)
        ours._collect(now)
        theirs._collect(now)
        got, exp = blocks[-1], want[-1]
        for field in ("values", "cpu", "mem", "present", "stale"):
            a, b = getattr(got, field), getattr(exp, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        i = r % len(vms)
        one, two = ours.sample_vm(vms[i], now), theirs.sample_vm(oracle[i], now)
        assert one.values.keys() == two.values.keys()
        for key in one.values:
            same(one.values[key], two.values[key])
        same(one.cpu_allocated, two.cpu_allocated)
        same(one.mem_allocated_mb, two.mem_allocated_mb)
    assert any(b.stale.any() for b in blocks) == (drop_rate > 0)


def test_rows_are_slices_when_contiguous():
    table, vms, _ = twins([SPEC] * 4)
    assert isinstance(table, VMTable)
    assert VMMonitor(Simulator(), vms)._rows == slice(vms[0].row, vms[-1].row + 1)
    mixed = VMMonitor(Simulator(), vms[::-1])._rows
    assert mixed.tolist() == [vm.row for vm in vms[::-1]]
    with pytest.raises(ValueError, match="different tables"):
        VMMonitor(Simulator(), vms + [twins([SPEC])[1][0]])
