"""Tests for the canonical experiment scenarios."""

import pytest

from repro.experiments.scenarios import (
    _FLEET_MAX_NODES,
    RUBIS,
    SYSTEM_S,
    VM_SPEC,
    build_testbed,
    make_fault,
    parse_fleet_size,
)
from repro.faults import FaultKind
from repro.faults.bottleneck import BottleneckFault
from repro.faults.cpuhog import CpuHogFault
from repro.faults.memleak import MemoryLeakFault


class TestBuildTestbed:
    def test_system_s_layout(self):
        testbed = build_testbed(SYSTEM_S, seed=1)
        assert len(testbed.app.vms) == 7
        assert len(testbed.cluster.idle_hosts()) == 3
        assert all(vm.spec == VM_SPEC for vm in testbed.app.vms)

    def test_rubis_layout(self):
        testbed = build_testbed(RUBIS, seed=1)
        assert [v.name for v in testbed.app.vms] == [
            "vm_web", "vm_app1", "vm_app2", "vm_db"
        ]

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            build_testbed("hadoop")

    def test_seed_reproducibility(self):
        a = build_testbed(RUBIS, seed=5)
        b = build_testbed(RUBIS, seed=5)
        assert a.workload.rate(123.0) == b.workload.rate(123.0)
        sa = a.monitor.sample_vm(a.app.vms[0], 0.0)
        sb = b.monitor.sample_vm(b.app.vms[0], 0.0)
        assert sa.values == sb.values

    def test_nominal_operation_violation_free(self):
        testbed = build_testbed(RUBIS, seed=1)
        testbed.app.start()
        testbed.sim.run_until(300.0)
        assert testbed.app.slo.violation_time() == 0.0


class TestFleetSize:
    def test_in_range_sizes_parse(self):
        assert parse_fleet_size("fleet1") == 1
        assert parse_fleet_size("fleet1000") == 1000
        assert parse_fleet_size(f"fleet{_FLEET_MAX_NODES}") == _FLEET_MAX_NODES

    @pytest.mark.parametrize("name", ["fleet0", f"fleet{_FLEET_MAX_NODES + 1}"])
    def test_out_of_range_sizes_rejected(self, name):
        with pytest.raises(ValueError, match="fleet size must be in"):
            parse_fleet_size(name)

    @pytest.mark.parametrize("name", ["fleetX", "fleet", "fleet-3", RUBIS])
    def test_other_names_are_not_fleets(self, name):
        assert parse_fleet_size(name) is None


class TestMakeFault:
    def test_leak_targets(self):
        syss = build_testbed(SYSTEM_S, seed=1)
        fault = make_fault(syss, FaultKind.MEMORY_LEAK)
        assert isinstance(fault, MemoryLeakFault)
        assert fault.vm is syss.app.component("PE4").vm
        rubis = build_testbed(RUBIS, seed=1)
        fault = make_fault(rubis, FaultKind.MEMORY_LEAK)
        assert fault.vm is rubis.app.component("db").vm

    def test_hog_targets_bottleneck_component(self):
        syss = build_testbed(SYSTEM_S, seed=1)
        fault = make_fault(syss, FaultKind.CPU_HOG)
        assert isinstance(fault, CpuHogFault)
        assert fault.vm is syss.app.component("PE6").vm

    def test_bottleneck_targets_workload(self):
        testbed = build_testbed(RUBIS, seed=1)
        fault = make_fault(testbed, FaultKind.BOTTLENECK)
        assert isinstance(fault, BottleneckFault)
        assert fault.workload is testbed.workload
        assert fault.target == "db"
