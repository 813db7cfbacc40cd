"""The ingest path against the per-sample code it replaced: bitwise.

The monitor hands listeners one ``SampleBlock`` per round and the
controller lands it as one column of its ``TrainingRing``;
``oracles.py`` holds the per-sample collection (``ListMonitor``), the
per-VM buffers (``OracleTrainingBuffer``) and ``_sanitize_batch``
(``OracleIngest``) verbatim.  Every tick, every VM's window — values,
timestamps, allocations, imputed flags — must equal the oracle's byte
for byte, and so must ``_last_real``, the imputation counts and
``prepare_samples_ingested_total``.
"""

import math

import numpy as np
import pytest

from repro.core.labeling import TrainingBuffer, TrainingRing
from repro.experiments.scenarios import RUBIS, build_testbed
from repro.experiments.schemes import deploy_scheme
from repro.obs import Observability
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.monitor import ATTRIBUTES, MetricSample, SampleBlock, VMMonitor
from repro.sim.resources import ResourceSpec

from .oracles import ListMonitor, OracleIngest, OracleTrainingBuffer

N_ATTRS = len(ATTRIBUTES)


def block_to_batch(block):
    """The present rows of a block as the per-sample batch they were."""
    return [
        MetricSample(
            vm=vm, timestamp=block.timestamp,
            values=dict(zip(ATTRIBUTES, row)), cpu_allocated=cpu,
            mem_allocated_mb=mem, stale=stale,
        )
        for vm, row, cpu, mem, stale, present in zip(
            block.vms, block.values.tolist(), block.cpu.tolist(),
            block.mem.tolist(), block.stale.tolist(), block.present,
        )
        if present
    ]


def rounds(names, n_rounds, seed, degraded=True, lagging=None):
    """Yield ``(block, delivery time)``.  Degraded rounds mix NaN rows,
    missing VMs, whole rounds missing, late delivery and a block layout
    that is not the ring's (reordered, with an unmanaged VM in it);
    ``lagging`` is missing from the first 30 rounds."""
    rng = np.random.default_rng(seed)
    layouts = (tuple(names), tuple(reversed(names)) + ("unmanaged",))
    for r in range(n_rounds):
        t = 5.0 * (r + 1)
        clean = not degraded or rng.random() < 0.4
        vms = layouts[0] if clean else layouts[int(rng.random() < 0.5)]
        n = len(vms)
        values = rng.normal(50.0, 20.0, (n, N_ATTRS))
        present = np.ones(n, dtype=bool)
        if not clean:
            present = rng.random(n) > 0.2
            if rng.random() < 0.1:
                present[:] = False
            for i in np.flatnonzero(rng.random(n) < 0.2):
                values[i, rng.choice(N_ATTRS, rng.integers(1, 4), False)] = np.nan
            if rng.random() < 0.05:
                values[rng.integers(n)] = np.nan  # every attribute lost
        if lagging is not None and r < 30:
            present[vms.index(lagging)] = False
        cpu = rng.choice([1.0, 1.5, 2.0], n)
        mem = rng.choice([1024.0, 2048.0], n)
        late = 0.0 if clean or rng.random() < 0.7 else 10.0
        yield SampleBlock(t, vms, values, cpu, mem, present,
                          rng.random(n) < 0.1), t + late


def controller_and_oracle(max_samples=2000):
    testbed = build_testbed(RUBIS, seed=7, duration_hint=1600)
    controller = deploy_scheme(
        testbed, "prepare", obs=Observability()
    ).controller
    if max_samples != 2000:
        controller._ring = TrainingRing(
            testbed.app.slo, controller._ring.vms, ATTRIBUTES, max_samples
        )
        controller.buffers = controller._ring.buffers()
    oracle = OracleIngest(testbed.app.slo, controller._ring.vms, max_samples)
    return controller, oracle


def assert_same_state(controller, oracle):
    names = controller._ring.vms
    for name in names:
        buffer, want = controller.buffers[name], oracle.buffers[name]
        assert len(buffer) == len(want)
        X, _y, t = buffer.matrices()
        got = (X, t, *buffer.allocations(), buffer.imputed_mask())
        for g, w in zip(got, want.window()):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert controller._m_imputed.value(vm=name) == (
            oracle.imputed_by_vm.get(name, 0)
        )
    last_real = {
        name: t for name, t in zip(names, controller._last_real.tolist())
        if not math.isnan(t)
    }
    assert last_real == oracle._last_real
    assert controller.resilience_stats["imputed_samples"] == (
        oracle.resilience_stats["imputed_samples"]
    )
    assert controller._m_samples.value() == oracle.ingested


def drive(controller, oracle, stream):
    for block, now in stream:
        oracle.on_samples(block_to_batch(block), now)
        controller._ingest(block, now)
        assert_same_state(controller, oracle)


@pytest.mark.parametrize("seed", range(3))
def test_degraded_rounds_land_as_the_per_sample_path(seed):
    controller, oracle = controller_and_oracle()
    names = controller._ring.vms
    drive(controller, oracle, rounds(names, 150, seed, lagging=names[seed]))
    # The stream reached every corner it exists for.
    assert oracle.resilience_stats["imputed_samples"] > 0
    assert len(controller.buffers[names[seed]]) < len(controller.buffers[
        names[(seed + 1) % len(names)]])


def test_clean_rounds_take_one_column():
    controller, oracle = controller_and_oracle()
    names = controller._ring.vms
    drive(controller, oracle, rounds(names, 40, 5, degraded=False))
    assert controller.resilience_stats["imputed_samples"] == 0
    assert len(controller.buffers[names[0]]) == 40


def test_all_missing_late_round_takes_delivery_time():
    """With nothing present the imputed column takes the time it was
    delivered — ``batch[0].timestamp if batch else now``."""
    controller, oracle = controller_and_oracle()
    names = controller._ring.vms
    stream = list(rounds(names, 3, 9, degraded=False))
    empty = SampleBlock(20.0, names, np.full((len(names), N_ATTRS), np.nan),
                        np.ones(len(names)), np.ones(len(names)),
                        np.zeros(len(names), dtype=bool),
                        np.zeros(len(names), dtype=bool))
    drive(controller, oracle, stream + [(empty, 30.0)])
    assert controller.buffers[names[0]].matrices()[2][-1] == 30.0
    assert controller.buffers[names[0]].imputed_mask()[-1]


@pytest.mark.parametrize("seed", range(2))
def test_compaction_boundary(seed):
    """A ring of 8-row windows compacts every 8 rounds past 16; a VM
    that joins after a compaction keeps its own start."""
    controller, oracle = controller_and_oracle(max_samples=8)
    names = controller._ring.vms
    drive(controller, oracle, rounds(names, 70, seed, lagging=names[-1]))
    assert controller._ring.end <= 16


def test_standalone_buffer_is_a_one_vm_ring():
    ours, want = TrainingBuffer(None, max_samples=5), OracleTrainingBuffer(
        None, max_samples=5)
    rng = np.random.default_rng(1)
    for i in range(23):
        sample = MetricSample(
            vm="vm", timestamp=5.0 * i,
            values=dict(zip(ATTRIBUTES, rng.normal(size=N_ATTRS).tolist())),
            cpu_allocated=float(i % 3), mem_allocated_mb=1024.0,
            imputed=bool(i % 4 == 0),
        )
        ours.append(sample)
        want.append(sample)
        lo, hi = ours._ring.window(0)
        ring = ours._ring
        got = (ring.values[0, lo:hi], ring.times[lo:hi], *ours.allocations(),
               ours.imputed_mask())
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want.window()]
    with pytest.raises(TypeError):
        TrainingRing(None, ("a", "b")).buffers()["a"].append(sample)


@pytest.mark.parametrize("drop_rate", [0.0, 0.3])
def test_monitor_blocks_are_the_per_sample_batches(drop_rate):
    """The block path draws the monitor's RNG as the per-sample path
    did — one fleet draw without drops, per-VM drop roll and draw with
    them — and its trace materialises the same samples."""
    sim = Simulator()
    vms = Cluster(sim).place_one_vm_per_host(
        ["vm1", "vm2", "vm3"], ResourceSpec(1.0, 1024.0), spares=0
    )
    ours = VMMonitor(sim, vms, rng=np.random.default_rng(3),
                     drop_rate=drop_rate)
    theirs = ListMonitor(sim, vms, rng=np.random.default_rng(3),
                         drop_rate=drop_rate)
    blocks, batches = [], []
    ours.add_listener(blocks.append)
    theirs.add_listener(batches.append)
    rng = np.random.default_rng(0)
    for r in range(40):
        for vm in vms:
            vm.set_cpu_demand("app", rng.uniform(0.0, 2.0))
            vm.set_mem_demand("app", rng.uniform(500.0, 1500.0))
        ours._collect(5.0 * (r + 1))
        theirs._collect(5.0 * (r + 1))
        assert block_to_batch(blocks[-1]) == batches[-1]
    assert dict(ours.traces) == theirs.traces
    assert any(b.stale.any() for b in blocks) == (drop_rate > 0)
