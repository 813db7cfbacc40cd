"""Tests for the VM performance model: fair sharing, memory, thrash."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.resources import ResourceError, ResourceKind, ResourceSpec
from repro.sim.vm import (
    CACHE_PRESSURE_MB,
    MIGRATION_DEGRADATION,
    THRASH_TAU_DOWN,
    THRASH_TAU_UP,
    VirtualMachine,
    _max_min_grants,
)


def make_vm(cpu=1.0, mem=1024.0):
    return VirtualMachine("vm", ResourceSpec(cpu, mem))


class TestCpuSharing:
    def test_uncontended_demand_fully_granted(self):
        vm = make_vm()
        vm.set_cpu_demand("app", 0.4)
        assert vm.cpu_share("app") == pytest.approx(0.4)

    def test_equal_split_when_both_saturate(self):
        vm = make_vm()
        vm.set_cpu_demand("app", 2.0)
        vm.set_cpu_demand("hog", 2.0)
        assert vm.cpu_share("app") == pytest.approx(0.5)
        assert vm.cpu_share("hog") == pytest.approx(0.5)

    def test_small_consumer_satisfied_surplus_to_big(self):
        vm = make_vm()
        vm.set_cpu_demand("app", 0.3)
        vm.set_cpu_demand("hog", 5.0)
        assert vm.cpu_share("app") == pytest.approx(0.3)
        assert vm.cpu_share("hog") == pytest.approx(0.7)

    def test_unknown_consumer_gets_zero(self):
        assert make_vm().cpu_share("ghost") == 0.0

    def test_zero_demand_removes_consumer(self):
        vm = make_vm()
        vm.set_cpu_demand("app", 0.5)
        vm.set_cpu_demand("app", 0.0)
        assert vm.total_cpu_demand() == 0.0

    def test_negative_demand_rejected(self):
        with pytest.raises(ResourceError):
            make_vm().set_cpu_demand("app", -0.1)

    def test_potential_cpu_against_bounded_hog(self):
        vm = make_vm()
        vm.set_cpu_demand("app", 0.3)
        vm.set_cpu_demand("hog", 0.4)
        # If the app saturated, the hog would keep its 0.4 (< fair 0.5).
        assert vm.potential_cpu("app") == pytest.approx(0.6)

    def test_potential_cpu_against_saturating_hog(self):
        vm = make_vm()
        vm.set_cpu_demand("app", 0.3)
        vm.set_cpu_demand("hog", 1.0)
        # Both saturate -> equal split.
        assert vm.potential_cpu("app") == pytest.approx(0.5)

    def test_potential_cpu_alone_is_full_allocation(self):
        vm = make_vm(cpu=2.0)
        vm.set_cpu_demand("app", 0.1)
        assert vm.potential_cpu("app") == pytest.approx(2.0)

    def test_utilization_capped_at_one(self):
        vm = make_vm()
        vm.set_cpu_demand("app", 5.0)
        assert vm.cpu_utilization() == pytest.approx(1.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=6),
        st.floats(min_value=0.1, max_value=8.0),
    )
    def test_max_min_grants_invariants(self, demands, capacity):
        named = {f"c{i}": d for i, d in enumerate(demands)}
        grants = _max_min_grants(named, capacity)
        # No consumer exceeds its demand.
        for name, demand in named.items():
            assert grants[name] <= demand + 1e-9
        # Total grants never exceed capacity.
        assert sum(grants.values()) <= capacity + 1e-9
        # Work conserving: if total demand exceeds capacity, all of it
        # is handed out; otherwise everyone is satisfied.
        if sum(named.values()) >= capacity:
            assert sum(grants.values()) == pytest.approx(capacity)
        else:
            for name, demand in named.items():
                assert grants[name] == pytest.approx(demand)


class TestMemoryModel:
    def test_free_memory(self):
        vm = make_vm(mem=1000.0)
        vm.set_mem_demand("app", 600.0)
        assert vm.free_mem_mb() == pytest.approx(400.0)
        assert vm.swap_used_mb() == 0.0

    def test_overcommit_spills_to_swap(self):
        vm = make_vm(mem=1000.0)
        vm.set_mem_demand("app", 600.0)
        vm.set_mem_demand("leak", 700.0)
        assert vm.free_mem_mb() == 0.0
        assert vm.swap_used_mb() == pytest.approx(300.0)
        assert vm.mem_used_mb() == pytest.approx(1000.0)

    def test_cache_pressure_zero_with_plenty_free(self):
        vm = make_vm(mem=1024.0)
        vm.set_mem_demand("app", 100.0)
        assert vm.cache_pressure() == 0.0

    def test_cache_pressure_grows_as_free_shrinks(self):
        vm = make_vm(mem=1024.0)
        vm.set_mem_demand("app", 1024.0 - CACHE_PRESSURE_MB / 2.0)
        assert 0.0 < vm.cache_pressure() < 1.0
        vm.set_mem_demand("app", 1024.0)
        assert vm.cache_pressure() == pytest.approx(1.0)


class TestThrashDynamics:
    def test_fresh_vm_has_no_slowdown(self):
        assert make_vm().memory_slowdown() == pytest.approx(1.0)

    def test_swap_drives_slowdown_up(self):
        vm = make_vm(mem=1000.0)
        vm.set_mem_demand("app", 1400.0)
        for _ in range(60):
            vm.tick(1.0)
        assert vm.memory_slowdown() > 3.0

    def test_recovery_is_slower_than_onset(self):
        vm = make_vm(mem=1000.0)
        vm.set_mem_demand("app", 1400.0)
        for _ in range(60):
            vm.tick(1.0)
        peak = vm.memory_slowdown()
        vm.set_mem_demand("app", 400.0)
        vm.tick(THRASH_TAU_UP)
        after_tau_up = vm.memory_slowdown()
        # After one onset time constant of recovery, most of the
        # penalty must remain (recovery tau is much longer).
        assert after_tau_up > 1.0 + 0.6 * (peak - 1.0)
        for _ in range(int(6 * THRASH_TAU_DOWN)):
            vm.tick(1.0)
        assert vm.memory_slowdown() == pytest.approx(1.0, abs=0.05)

    def test_tick_ignores_nonpositive_dt(self):
        vm = make_vm(mem=1000.0)
        vm.set_mem_demand("app", 1400.0)
        vm.tick(0.0)
        vm.tick(-5.0)
        assert vm.memory_slowdown() == pytest.approx(1.0)


class TestEffectiveCapacity:
    def test_migration_degrades_capacity(self):
        vm = make_vm()
        vm.set_cpu_demand("app", 0.5)
        healthy = vm.effective_capacity("app")
        vm.migrating = True
        assert vm.effective_capacity("app") == pytest.approx(
            healthy * MIGRATION_DEGRADATION
        )

    def test_thrash_divides_capacity(self):
        vm = make_vm(mem=1000.0)
        vm.set_cpu_demand("app", 0.5)
        healthy = vm.effective_capacity("app")
        vm.set_mem_demand("app", 1500.0)
        for _ in range(120):
            vm.tick(1.0)
        assert vm.effective_capacity("app") < healthy / 3.0

    def test_allocation_change_requires_positive(self):
        vm = make_vm()
        with pytest.raises(ResourceError):
            vm.set_allocation(ResourceKind.CPU, 0.0)

    def test_scaling_up_raises_potential(self):
        vm = make_vm()
        vm.set_cpu_demand("app", 0.8)
        vm.set_cpu_demand("hog", 1.0)
        before = vm.potential_cpu("app")
        vm.set_allocation(ResourceKind.CPU, 2.0)
        assert vm.potential_cpu("app") > before
