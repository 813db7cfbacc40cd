"""Tests for the chaos engine: metric, verb, and host fault injection."""

import numpy as np
import pytest

from repro.chaos import ChaosEngine, ChaosSpec
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.monitor import ATTRIBUTES, SampleBlock, VMMonitor
from repro.sim.resources import ResourceSpec

VM_SPEC = ResourceSpec(1.0, 1024.0)


def block(*vms, t=0.0):
    """One round in which every named VM (default: vm1) reported."""
    vms = vms or ("vm1",)
    n = len(vms)
    return SampleBlock(
        t, tuple(vms), np.ones((n, len(ATTRIBUTES))), np.ones(n),
        np.full(n, 1024.0), np.ones(n, dtype=bool), np.zeros(n, dtype=bool),
    )


def arrived(b):
    return [vm for vm, present in zip(b.vms, b.present) if present]


def engine(sim=None, run_seed=0, **spec_kwargs):
    return ChaosEngine(
        ChaosSpec.from_dict(spec_kwargs), sim or Simulator(), run_seed=run_seed
    )


class TestMetricChaos:
    def test_batch_dropped(self):
        eng = engine(metric={"drop_batch_rate": 1.0})
        delivered = []
        eng._intercept_block(block(), delivered.append)
        assert delivered == []
        assert eng.event_counts() == {"batch_dropped": 1}

    def test_corruption_nans_attributes(self):
        eng = engine(metric={"corrupt_rate": 1.0, "corrupt_attributes": 2})
        delivered = []
        measured = block()
        eng._intercept_block(measured, delivered.append)
        (out,) = delivered
        nan_count = int(np.isnan(out.values[0]).sum())
        assert 1 <= nan_count <= 2
        assert arrived(out) == ["vm1"]
        # The engine degrades a copy: what was measured stays intact.
        assert np.isfinite(measured.values).all()
        assert eng.event_counts()["sample_corrupted"] == 1

    def test_blackout_filters_vm_but_still_delivers(self):
        eng = engine(metric={"blackout_rate": 1.0, "blackout_duration": 60.0})
        delivered = []
        eng._intercept_block(block("vm1", "vm2"), delivered.append)
        # Both VMs black out immediately; a round with nothing present
        # still arrives so the controller's imputation keeps windows
        # aligned.
        (out,) = delivered
        assert out.vms == ("vm1", "vm2") and arrived(out) == []
        assert eng.event_counts()["blackout_start"] == 2

    def test_blackout_expires(self):
        sim = Simulator()
        eng = engine(sim, metric={"blackout_rate": 1.0,
                                  "blackout_duration": 5.0})
        eng._intercept_block(block(), lambda b: None)
        sim.run_until(6.0)
        # Expired blackout: the next draw starts a new one (rate 1.0),
        # but with rate 0 the sample would pass — exercise via engine
        # state directly.
        assert eng._blackout_until["vm1"] == 5.0

    def test_delayed_batches_fifo(self):
        sim = Simulator()
        eng = engine(sim, metric={"delay_rate": 1.0, "delay_seconds": 10.0})
        seen = []

        def dispatch(b):
            seen.append((sim.now, arrived(b)))

        eng._intercept_block(block("vm1"), dispatch)
        sim.run_until(3.0)
        eng._intercept_block(block("vm2"), dispatch)
        sim.run_until(30.0)
        # First batch released at t=10, second at t=13 — order preserved.
        assert seen == [(10.0, ["vm1"]), (13.0, ["vm2"])]
        assert eng.event_counts()["batch_delayed"] == 2

    def test_delivery_monotone_even_when_delay_overlaps(self):
        sim = Simulator()
        eng = engine(sim, metric={"delay_rate": 1.0, "delay_seconds": 10.0})
        release_times = []
        eng._intercept_block(block("vm1"), lambda b: release_times.append(sim.now))
        # Second batch "arrives" immediately after — its natural release
        # (0 + 10) equals the first's; FIFO clamps it to >= the first.
        eng._intercept_block(block("vm2"), lambda b: release_times.append(sim.now))
        sim.run_until(30.0)
        assert release_times == sorted(release_times)


class TestVerbChaos:
    def test_fate_partition_extremes(self):
        assert engine(verbs={"failure_rate": 1.0}).fate("scale")[0] == "failed"
        assert engine(verbs={"timeout_rate": 1.0}).fate("scale")[0] == "timeout"
        outcome, inflation = engine(
            verbs={"late_rate": 1.0, "latency_inflation": 4.0}
        ).fate("migrate")
        assert (outcome, inflation) == ("late", 4.0)
        assert engine(verbs={}).fate("scale") == ("ok", 1.0)

    def test_fate_sequence_deterministic_per_seed(self):
        spec = {"verbs": {"failure_rate": 0.3, "timeout_rate": 0.2,
                          "late_rate": 0.2}}
        twins = [engine(run_seed=4, **spec) for _ in range(2)]
        seq = [[e.fate("scale")[0] for _ in range(50)] for e in twins]
        assert seq[0] == seq[1]
        other = engine(run_seed=5, **spec)
        assert [other.fate("scale")[0] for _ in range(50)] != seq[0]

    def test_streams_independent(self):
        # Changing the verb policy must not shift the metric stream.
        base = {"metric": {"drop_batch_rate": 0.5}}
        with_verbs = {"metric": {"drop_batch_rate": 0.5},
                      "verbs": {"failure_rate": 0.9}}

        def drop_pattern(spec_kwargs):
            eng = engine(run_seed=7, **spec_kwargs)
            seen = []
            for i in range(40):
                delivered = []
                eng._intercept_block(block(t=float(i)), delivered.append)
                seen.append(bool(delivered))
            return seen

        assert drop_pattern(base) == drop_pattern(with_verbs)


class TestHostChaos:
    def _world(self):
        sim = Simulator()
        cluster = Cluster(sim)
        cluster.place_one_vm_per_host(["vm1"], VM_SPEC, spares=1)
        return sim, cluster

    def test_flap_reserves_then_releases(self):
        sim, cluster = self._world()
        eng = engine(sim, hosts={"flap_rate": 1.0, "flap_fraction": 0.25,
                                 "flap_duration": 20.0,
                                 "check_interval": 10.0})
        eng.attach(None, cluster)
        free_before = {h.name: h.free().cpu_cores for h in cluster.hosts}
        sim.run_until(11.0)       # first check at t=10 flaps every host
        for host in cluster.hosts:
            assert host.free().cpu_cores < free_before[host.name]
        assert eng.event_counts()["host_flap"] == len(cluster.hosts)
        sim.run_until(31.0)       # t=30: flaps ended, capacity restored
        for host in cluster.hosts:
            # New flaps may have started at the t=20/t=30 checks, but
            # the *first* reservations were released.
            assert host.name in eng._flapping or (
                host.free().cpu_cores == free_before[host.name]
            )

    def test_full_host_not_flapped(self):
        sim = Simulator()
        cluster = Cluster(sim)
        # Host sized exactly to its VM: nothing free to steal.
        host = cluster.add_host("tight1", VM_SPEC)
        cluster.create_vm("vm1", VM_SPEC, host)
        eng = engine(sim, hosts={"flap_rate": 1.0, "check_interval": 5.0})
        eng.attach(None, cluster)
        sim.run_until(6.0)
        assert "host_flap" not in eng.event_counts()


class TestAttachGating:
    def test_disabled_policies_install_nothing(self):
        sim = Simulator()
        cluster = Cluster(sim)
        vms = cluster.place_one_vm_per_host(["vm1"], VM_SPEC, spares=0)
        monitor = VMMonitor(sim, vms, rng=np.random.default_rng(0))
        eng = engine(sim)          # all-zero spec
        eng.attach(monitor, cluster)
        assert monitor._interceptor is None
        assert cluster.hypervisor._verb_chaos is None

    def test_enabled_policies_install_hooks(self):
        sim = Simulator()
        cluster = Cluster(sim)
        vms = cluster.place_one_vm_per_host(["vm1"], VM_SPEC, spares=0)
        monitor = VMMonitor(sim, vms, rng=np.random.default_rng(0))
        eng = engine(sim, metric={"drop_batch_rate": 0.5},
                     verbs={"failure_rate": 0.5})
        eng.attach(monitor, cluster)
        assert monitor._interceptor is not None
        assert cluster.hypervisor._verb_chaos is eng
