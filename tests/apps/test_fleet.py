"""Tests for the uniform N-node fleet application model.

Its step is checked bit for bit against the per-node loop it replaced in
``tests/sim/test_state_kernels.py``; these tests pin what it does.
"""

import pytest

from repro.apps.fleet import FLEET_RATE_PER_NODE, UniformFleetApp
from repro.apps.workload import ConstantWorkload
from repro.faults.bottleneck import BottleneckFault
from repro.faults.injector import FaultInjector
from repro.faults.memleak import MemoryLeakFault
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.resources import ResourceSpec

VM_SPEC = ResourceSpec(1.0, 1024.0)


def build(n):
    sim = Simulator()
    vms = Cluster(sim).place_one_vm_per_host(
        [f"vm{i + 1:02d}" for i in range(n)], VM_SPEC, spares=0
    )
    workload = ConstantWorkload(n * FLEET_RATE_PER_NODE)
    return sim, UniformFleetApp(sim, workload, vms), vms, workload


def test_nominal_fleet_meets_its_slo():
    sim, app, _vms, _workload = build(8)
    app.start()
    sim.run_until(120.0)
    assert app.slo.violation_time() == 0.0
    assert app.last_output_rate == pytest.approx(8 * FLEET_RATE_PER_NODE)


def test_one_leaking_node_of_fifty_violates_the_slo():
    """The worst-node rule: one slow guest breaks the fleet's SLO while
    the aggregate throughput barely moves."""
    sim, app, vms, _workload = build(50)
    FaultInjector(sim).inject(
        MemoryLeakFault(vms[-1], rate_mb_per_s=4.0), 60.0, 400.0)
    app.start()
    sim.run_until(60.0)
    assert app.slo.violation_time() == 0.0
    sim.run_until(400.0)
    assert app.slo.latest().violated
    assert app.last_worst_latency > app.latency_slo_s
    assert app.last_output_rate >= app.throughput_ratio_slo * app.last_input_rate


def test_backlog_stays_under_its_cap():
    sim, app, vms, _workload = build(8)
    vms[3].set_cpu_demand("fault:hog", 5.0)  # node04 keeps half a core
    app.start()
    for t in range(1, 121):
        sim.run_until(float(t))
        caps = [c.capacity() for c in app.components]
        for queue, capacity in zip(app.backlog.tolist(), caps):
            assert 0.0 <= queue <= app.backlog_cap_seconds * capacity
    assert app.backlog[3] == pytest.approx(app.backlog_cap_seconds * caps[3])
    assert app.backlog[:3].tolist() == [0.0, 0.0, 0.0]


def test_bottleneck_ramp_trips_the_throughput_ratio():
    sim, app, _vms, workload = build(8)
    FaultInjector(sim).inject(
        BottleneckFault(workload, app.fault_node, peak_multiplier=2.0,
                        ramp_duration=60.0),
        30.0, 200.0)
    app.start()
    sim.run_until(25.0)
    assert not app.slo.latest().violated
    sim.run_until(150.0)
    assert app.last_output_rate < app.throughput_ratio_slo * app.last_input_rate
    assert app.slo.latest().violated


def test_activity_follows_the_output():
    sim, app, vms, _workload = build(6)
    vms[1].set_cpu_demand("fault:hog", 5.0)
    app.start()
    sim.run_until(30.0)
    arrival = app.last_input_rate / 6
    outputs = app.last_outputs.tolist()
    assert outputs[1] < outputs[0]  # the hogged node serves less
    for vm, output in zip(vms, outputs):
        assert vm.activity.net_in_kbps == arrival * 1.6
        assert vm.activity.net_out_kbps == output * 4.0
        assert vm.activity.disk_read_kbps == output * 0.4
        assert vm.activity.disk_write_kbps == output * 0.2
    assert sum(outputs) == pytest.approx(app.last_output_rate)
