"""Tests for the 13-attribute VM monitor."""

import numpy as np
import pytest

from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.monitor import ATTRIBUTES, MetricSample, VMMonitor
from repro.sim.resources import ResourceSpec


@pytest.fixture
def world():
    sim = Simulator()
    cluster = Cluster(sim)
    vms = cluster.place_one_vm_per_host(
        ["vm1", "vm2"], ResourceSpec(1.0, 1024.0), spares=0
    )
    return sim, cluster, vms


class TestMetricSample:
    def test_exactly_13_attributes(self):
        assert len(ATTRIBUTES) == 13

    def test_missing_attribute_rejected(self):
        with pytest.raises(ValueError):
            MetricSample(vm="v", timestamp=0.0, values={"cpu_usage": 1.0})

    def test_vector_order_matches_attributes(self, world):
        _sim, _cluster, vms = world
        monitor = VMMonitor(Simulator(), vms)
        sample = monitor.sample_vm(vms[0], 0.0)
        vec = sample.vector()
        assert vec.shape == (13,)
        for i, attr in enumerate(ATTRIBUTES):
            assert vec[i] == sample.values[attr]

    def test_allocations_recorded(self, world):
        _sim, _cluster, vms = world
        monitor = VMMonitor(Simulator(), vms)
        sample = monitor.sample_vm(vms[0], 0.0)
        assert sample.cpu_allocated == 1.0
        assert sample.mem_allocated_mb == 1024.0


class TestSampling:
    def test_periodic_collection(self, world):
        sim, _cluster, vms = world
        monitor = VMMonitor(sim, vms, interval=5.0)
        monitor.start(start_at=5.0)
        sim.run_until(25.0)
        assert len(monitor.traces["vm1"]) == 5
        assert [s.timestamp for s in monitor.traces["vm1"]] == [5, 10, 15, 20, 25]

    def test_listener_receives_batches(self, world):
        sim, _cluster, vms = world
        monitor = VMMonitor(sim, vms, interval=5.0)
        batches = []
        monitor.add_listener(batches.append)
        monitor.start(start_at=5.0)
        sim.run_until(10.0)
        assert len(batches) == 2
        block = batches[0]
        assert block.vms == ("vm1", "vm2") and block.timestamp == 5.0
        assert block.values.shape == (2, len(ATTRIBUTES))
        assert block.present.all() and not block.stale.any()
        assert block.cpu.tolist() == [1.0, 1.0]
        assert block.mem.tolist() == [1024.0, 1024.0]

    def test_trace_keeps_every_block_as_measured(self, world):
        sim, _cluster, vms = world
        monitor = VMMonitor(sim, vms, interval=5.0)
        blocks = []
        monitor.add_listener(blocks.append)
        monitor.start(start_at=5.0)
        sim.run_until(200.0)  # past the trace's first growth
        trace = monitor.traces
        assert trace.rounds == len(blocks) == 40
        assert trace.times.tolist() == [b.timestamp for b in blocks]
        assert trace.readings.tobytes() == np.stack(
            [b.values for b in blocks]
        ).tobytes()
        # The per-VM view materialises the same numbers as samples.
        for i, name in enumerate(trace.vms):
            samples = trace[name]
            assert [s.vm for s in samples] == [name] * 40
            assert np.stack([s.vector() for s in samples]).tobytes() == (
                trace.readings[:, i].tobytes()
            )
            assert [s.cpu_allocated for s in samples] == trace.cpu[:, i].tolist()
            assert not any(s.stale or s.imputed for s in samples)

    def test_stop_halts_collection(self, world):
        sim, _cluster, vms = world
        monitor = VMMonitor(sim, vms, interval=5.0)
        monitor.start(start_at=5.0)
        sim.run_until(10.0)
        monitor.stop()
        sim.run_until(50.0)
        assert len(monitor.traces["vm1"]) == 2

    def test_double_start_rejected(self, world):
        sim, _cluster, vms = world
        monitor = VMMonitor(sim, vms)
        monitor.start()
        with pytest.raises(RuntimeError):
            monitor.start()

    def test_invalid_interval_rejected(self, world):
        sim, _cluster, vms = world
        with pytest.raises(ValueError):
            VMMonitor(sim, vms, interval=0.0)

    def test_deterministic_given_seed(self, world):
        _sim, _cluster, vms = world
        m1 = VMMonitor(Simulator(), vms, rng=np.random.default_rng(42))
        m2 = VMMonitor(Simulator(), vms, rng=np.random.default_rng(42))
        s1 = m1.sample_vm(vms[0], 0.0)
        s2 = m2.sample_vm(vms[0], 0.0)
        assert s1.values == s2.values


class TestSemantics:
    def test_values_non_negative(self, world):
        _sim, _cluster, vms = world
        monitor = VMMonitor(Simulator(), vms, rng=np.random.default_rng(0))
        for _ in range(50):
            sample = monitor.sample_vm(vms[0], 0.0)
            assert all(v >= 0.0 for v in sample.values.values())

    def test_cpu_usage_capped_at_100(self, world):
        _sim, _cluster, vms = world
        vms[0].set_cpu_demand("app", 10.0)
        monitor = VMMonitor(Simulator(), vms, rng=np.random.default_rng(0))
        for _ in range(20):
            assert monitor.sample_vm(vms[0], 0.0).values["cpu_usage"] <= 100.0

    def test_swap_visible_under_overcommit(self, world):
        _sim, _cluster, vms = world
        vms[0].set_mem_demand("app", 1524.0)
        monitor = VMMonitor(Simulator(), vms, rng=np.random.default_rng(0),
                            noise_scale=0.0)
        sample = monitor.sample_vm(vms[0], 0.0)
        assert sample.values["swap_used"] == pytest.approx(500.0)
        assert sample.values["free_mem"] == 0.0

    def test_cache_pressure_raises_disk_reads(self, world):
        _sim, _cluster, vms = world
        monitor = VMMonitor(Simulator(), vms, rng=np.random.default_rng(0),
                            noise_scale=0.0)
        idle = monitor.sample_vm(vms[0], 0.0).values["disk_read"]
        vms[0].set_mem_demand("app", 1020.0)
        pressured = monitor.sample_vm(vms[0], 0.0).values["disk_read"]
        assert pressured > idle + 50.0

    def test_noise_scale_zero_is_exact(self, world):
        _sim, _cluster, vms = world
        vms[0].set_cpu_demand("app", 0.5)
        monitor = VMMonitor(Simulator(), vms, rng=np.random.default_rng(0),
                            noise_scale=0.0)
        sample = monitor.sample_vm(vms[0], 0.0)
        assert sample.values["cpu_usage"] == pytest.approx(50.0)


class TestSamplingDuringMigration:
    def test_mid_migration_sampling_does_not_raise(self):
        """A monitoring round that lands during a live migration must
        produce a normal sample — the guest keeps running on the source
        until stop-and-copy, and the control loop keeps observing it."""
        sim = Simulator()
        cluster = Cluster(sim)
        vms = cluster.place_one_vm_per_host(
            ["vm1"], ResourceSpec(1.0, 1024.0), spares=1
        )
        monitor = VMMonitor(sim, vms, interval=5.0,
                            rng=np.random.default_rng(0))
        batches = []
        monitor.add_listener(batches.append)
        monitor.start(start_at=5.0)
        target = cluster.idle_hosts()[0]
        duration = cluster.hypervisor.migrate(vms[0], target)
        assert duration > 10.0          # several rounds land in flight
        sim.run_until(duration / 2.0)
        assert vms[0].migrating
        assert batches, "no samples collected during the migration"
        for block in batches:
            assert block.values.shape == (1, len(ATTRIBUTES))
            assert block.present.all()
            assert np.isfinite(block.values).all()
        sim.run_until(duration + 6.0)
        assert not vms[0].migrating
        assert vms[0].host is target
        # Sampling continues seamlessly after the host switch.
        post = monitor.traces["vm1"][-1]
        assert post.timestamp > duration
