"""Regression tests for the regime/epoch masking inside ``_retrain``.

The controller's training-set selection (``PrepareController._retrain``)
applies three filters before any model sees a row:

* **normal** samples count only under the VM's *current* allocation
  (``TrainingBuffer.regime_mask``);
* **abnormal** samples count only under the allocation their violation
  epoch *began* with — once a prevention action rescales the VM
  mid-epoch, the remaining "violated" rows describe the already-fixed
  state draining out and must be dropped;
* **imputed** rows (controller-synthesized repeats during monitor
  blackouts) never enter the CPTs at all.

These tests drive ``_retrain`` directly with hand-built training rows
and a captured ``train`` call, so the exact row selection is pinned rather
than inferred from end-to-end behaviour.
"""

import numpy as np

from repro.core.controller import PrepareConfig
from repro.experiments.scenarios import RUBIS, build_testbed
from repro.experiments.schemes import deploy_scheme
from repro.sim.monitor import ATTRIBUTES

N_ROWS = 100
INTERVAL = 5.0
# Violation epoch: rows 60..80 inclusive (timestamps 300..400).
EPOCH_LO, EPOCH_HI = 300.0, 400.0


class FakeSLO:
    """Stands in for the app's SLOTracker with a fixed violation band."""

    def violated_at_many(self, t):
        t = np.asarray(t, dtype=float)
        return (t >= EPOCH_LO) & (t <= EPOCH_HI)


def deploy_controller():
    testbed = build_testbed(RUBIS, seed=7, duration_hint=1600)
    cfg = PrepareConfig(min_training_samples=20, min_abnormal_samples=5)
    managed = deploy_scheme(testbed, "prepare", config=cfg)
    return testbed, managed.controller


def fill_ring(controller, rows_by_vm):
    """Push rounds into the controller's training ring, one every
    ``INTERVAL`` seconds.  ``rows_by_vm`` maps a VM to ``(values, cpu
    allocations, mem allocations[, imputed row indices])``; a VM with
    fewer rows than the longest joins late, so its rows are the last
    rounds'.  VMs not named get no rows."""
    ring = controller._ring
    n_vms, n_attrs = len(ring.vms), len(ATTRIBUTES)
    rounds = max(rows[0].shape[0] for rows in rows_by_vm.values())
    for r in range(rounds):
        values = np.zeros((n_vms, n_attrs))
        cpu, mem = np.zeros(n_vms), np.zeros(n_vms)
        imputed, has_row = np.zeros(n_vms, bool), np.zeros(n_vms, bool)
        for name, (vals, cpu_alloc, mem_alloc, *flagged) in rows_by_vm.items():
            k = r - (rounds - vals.shape[0])
            if k < 0:
                continue
            i = ring.vms.index(name)
            values[i], cpu[i], mem[i] = vals[k], cpu_alloc[k], mem_alloc[k]
            imputed[i] = k in set(*flagged)
            has_row[i] = True
        ring.push(r * INTERVAL, values, cpu, mem, imputed, rows=has_row)


def run_retrain(controller, target, values, cpu_alloc, mem_alloc,
                monkeypatch, imputed=()):
    """Fill the target's rows, run ``_retrain`` and capture ``train``."""
    buffer = controller.buffers[target]
    buffer._slo = FakeSLO()
    fill_ring(controller, {target: (values, cpu_alloc, mem_alloc, imputed)})

    def fake_localize(names, block, labels, allocations=None):
        # Implicate only the target VM, passing the app labels through
        # unchanged, so the test controls y_vm exactly.
        return {target: np.asarray(labels, dtype=np.intp).copy()}

    captured = {}

    def fake_train(train_values, train_labels, segment_ids=None):
        captured["values"] = np.array(train_values, copy=True)
        captured["labels"] = np.array(train_labels, copy=True)
        captured["segment_ids"] = (
            None if segment_ids is None
            else np.array(segment_ids, copy=True)
        )
        return controller.predictors[target]

    monkeypatch.setattr(controller.localizer, "localize_block", fake_localize)
    monkeypatch.setattr(controller.predictors[target], "train", fake_train)
    controller._retrain()
    return captured, buffer


class TestRetrainRegimeMask:
    def test_mid_epoch_rescale_drops_violated_tail(self, monkeypatch):
        """A prevention action rescaling the VM mid-epoch must drop the
        post-rescale "violated" rows AND the old-regime normal rows."""
        testbed, controller = deploy_controller()
        target = testbed.app.vms[0].name
        vm = controller.cluster.vm(target)
        cur_cpu, cur_mem = vm.cpu_allocated, vm.mem_allocated_mb
        old_cpu = cur_cpu * 2.0  # well outside the 2% regime tolerance

        rng = np.random.default_rng(11)
        values = rng.normal(size=(N_ROWS, len(ATTRIBUTES)))
        # Rows 0..69 under the old allocation; the rescale lands at row
        # 70 — inside the violation epoch (rows 60..80).
        cpu_alloc = np.where(np.arange(N_ROWS) < 70, old_cpu, cur_cpu)
        mem_alloc = np.full(N_ROWS, cur_mem)

        captured, buffer = run_retrain(
            controller, target, values, cpu_alloc, mem_alloc, monkeypatch
        )

        # Kept: the epoch rows still under the epoch-start allocation
        # (60..69) and the normal rows under the current regime
        # (81..99).  Dropped: old-regime normals (0..59) and the
        # post-rescale violated tail (70..80).
        expected = list(range(60, 70)) + list(range(81, N_ROWS))
        X, y, _t = buffer.matrices()
        assert "values" in captured, "train() was never reached"
        np.testing.assert_array_equal(captured["values"], X[expected])
        np.testing.assert_array_equal(captured["labels"], y[expected])
        assert captured["labels"].sum() == 10
        # The two contiguous runs of kept rows become the two Markov
        # segments.
        np.testing.assert_array_equal(
            captured["segment_ids"], [0] * 10 + [1] * 19
        )

    def test_imputed_rows_never_enter_training(self, monkeypatch):
        """Synthesized (imputed) rows are excluded even when label and
        regime would otherwise admit them."""
        testbed, controller = deploy_controller()
        target = testbed.app.vms[0].name
        vm = controller.cluster.vm(target)
        cur_cpu, cur_mem = vm.cpu_allocated, vm.mem_allocated_mb

        rng = np.random.default_rng(12)
        values = rng.normal(size=(N_ROWS, len(ATTRIBUTES)))
        cpu_alloc = np.full(N_ROWS, cur_cpu)  # one regime throughout
        mem_alloc = np.full(N_ROWS, cur_mem)
        imputed = {62, 85, 86, 87, 88, 89}  # one abnormal, five normal

        captured, buffer = run_retrain(
            controller, target, values, cpu_alloc, mem_alloc, monkeypatch,
            imputed=imputed,
        )

        expected = [i for i in range(N_ROWS) if i not in imputed]
        X, y, _t = buffer.matrices()
        assert "values" in captured, "train() was never reached"
        np.testing.assert_array_equal(captured["values"], X[expected])
        np.testing.assert_array_equal(captured["labels"], y[expected])
        # The imputed abnormal row (62) is gone: 21-row epoch minus 1.
        assert captured["labels"].sum() == 20

    def test_unchanged_regime_keeps_whole_window(self, monkeypatch):
        """With a single allocation regime and no imputation every row
        trains — the masks only ever *remove* rows for cause."""
        testbed, controller = deploy_controller()
        target = testbed.app.vms[0].name
        vm = controller.cluster.vm(target)

        rng = np.random.default_rng(13)
        values = rng.normal(size=(N_ROWS, len(ATTRIBUTES)))
        cpu_alloc = np.full(N_ROWS, vm.cpu_allocated)
        mem_alloc = np.full(N_ROWS, vm.mem_allocated_mb)

        captured, buffer = run_retrain(
            controller, target, values, cpu_alloc, mem_alloc, monkeypatch
        )
        X, y, _t = buffer.matrices()
        np.testing.assert_array_equal(captured["values"], X)
        np.testing.assert_array_equal(captured["labels"], y)
        np.testing.assert_array_equal(
            captured["segment_ids"], np.zeros(N_ROWS, dtype=np.intp)
        )
