"""The diagnosis path against the loops it replaced: bitwise, not close.

``_fraction_changed`` scans every component's window as one
``(component, attribute, time)`` stack, ``DeviationLocalizer`` scores
each violation epoch from one ``(vm, rows, attr)`` block and
``violation_epochs`` is a shifted comparison; ``oracles.py`` holds the
per-column scan, the per-VM epoch loop and the looped epochs verbatim.
"""

import numpy as np
import pytest

from repro.core import inference
from repro.core.inference import DriftDetector, _fraction_changed, detect_change_point
from repro.core.localization import DeviationLocalizer, violation_epochs
from repro.sim.monitor import ATTRIBUTES

from .oracles import (
    LoopLocalizer,
    oracle_boundary,
    oracle_detect_change_point,
    oracle_fraction_changed,
    oracle_violation_epochs,
)
from .test_golden_decisions import run_cell
from .test_retrain_masking import FakeSLO, deploy_controller, fill_ring


# ----------------------------------------------------------------------
# Change-point scan
# ----------------------------------------------------------------------
def fleet_windows(seed, lengths=(12, 12, 9, 24, 12, 7), attrs=13):
    """Noisy windows of mixed lengths; a step on some components, a
    constant column, NaN and inf in others."""
    rng = np.random.default_rng(seed)
    windows = {}
    for i, rows in enumerate(lengths):
        w = rng.normal(50.0, 1.0 + i, (rows, attrs)) * rng.uniform(0.1, 3.0)
        if rng.random() < 0.5:
            w[rows // 2:, rng.integers(attrs)] += rng.uniform(0.0, 12.0)
        windows[f"vm{i}"] = w
    windows["vm0"][:, 3] = 7.0
    windows["vm1"][4, 5] = np.nan
    windows["vm2"][2, 6] = np.inf
    return windows


@pytest.mark.parametrize("seed", range(4))
def test_scan_decides_each_column_on_its_own_boundary(seed, monkeypatch):
    """Thresholds placed exactly on, and one ulp either side of, each
    column's decision boundary: a last-bit difference in any mean or
    variance of the stack ``_fraction_changed`` builds flips a
    decision here."""
    windows = fleet_windows(seed)
    stacks = []
    scan = inference._mean_shift
    monkeypatch.setattr(
        inference, "_mean_shift",
        lambda columns, threshold: stacks.append(columns) or scan(columns, threshold),
    )
    with np.errstate(invalid="ignore"):
        for threshold in (0.5, 2.0, 4.5):
            assert _fraction_changed(windows, threshold, 6) == (
                oracle_fraction_changed(windows, threshold, 6)
            )
        last = stacks[-len({w.shape for w in windows.values()}):]
        assert sum(s.shape[0] for s in last) == len(windows)
        for columns in last:
            flat = columns.reshape(-1, columns.shape[-1])
            t = np.array([oracle_boundary(c) for c in flat])
            t = np.where(np.isfinite(t), t, 4.5)  # NaN/inf columns: any
            for threshold in (np.nextafter(t, 0.0), t, np.nextafter(t, np.inf)):
                pairs = list(zip(flat, threshold))
                want = [oracle_detect_change_point(c, k) for c, k in pairs]
                got = scan(columns, threshold.reshape(columns.shape[:2]))
                assert got.ravel().tolist() == want
                assert [detect_change_point(c, k) for c, k in pairs] == want


def test_scan_short_misshapen_and_empty_windows():
    windows = fleet_windows(7)
    assert _fraction_changed({}, 4.5, 6) == -1.0
    for bad in (np.ones((5, 13)), np.ones(12), np.ones((0, 13))):
        probe = dict(windows, bad=bad)
        assert _fraction_changed(probe, 4.5, 6) == -1.0
        with np.errstate(invalid="ignore"):  # the loop scans vm2's inf first
            assert oracle_fraction_changed(probe, 4.5, 6) == -1.0
    assert not detect_change_point(np.ones(5))
    assert not detect_change_point(np.ones((12, 2)))


def test_drift_detector_fractions_match_the_loop():
    detector = DriftDetector(threshold=3.0, min_fraction=0.5, cooldown=0)
    fractions = set()
    for tick in range(12):
        windows = fleet_windows(tick, lengths=(12, 12, 16, 24))
        if tick % 3 == 0:
            windows["vm1"] = windows["vm1"][:8]  # still warming up
        with np.errstate(invalid="ignore"):
            fired = detector.check(windows)
            want = oracle_fraction_changed(windows, 3.0, 12)
        assert detector.last_fraction == want
        assert fired == (want >= 0.5)
        fractions.add(want)
    assert -1.0 in fractions and len(fractions) > 2


# ----------------------------------------------------------------------
# Violation epochs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_violation_epochs_are_the_loop_epochs(seed):
    rng = np.random.default_rng(seed)
    for n in (0, 1, 2, 37, 2000):
        y = (rng.random(n) < rng.uniform(0.02, 0.98)).astype(np.intp)
        for labels in (y, np.ones(n, dtype=np.intp), y * 3):
            got, want = violation_epochs(labels), oracle_violation_epochs(labels)
            assert got == want
            assert all(type(i) is int for pair in got for i in pair)


# ----------------------------------------------------------------------
# Localizer
# ----------------------------------------------------------------------
EPOCHS = ((0, 6), (60, 75), (110, 140), (150, 152))


def world(seed, amplitude, n=170, n_vms=6):
    """A root cause (vm1) ramping before each epoch, a downstream jump
    (vm2) inside it, a constant column (vm3); vm1 rescaled mid-epoch,
    vm4 inside a reference window, vm5 in all but one reference row."""
    rng = np.random.default_rng(seed)
    attrs = len(ATTRIBUTES)
    values = {
        f"vm{i}": rng.normal(50.0, 1.0 + i, (n, attrs)) for i in range(n_vms)
    }
    labels = np.zeros(n, dtype=np.intp)
    for start, end in EPOCHS:
        labels[start:end] = 1
        lo = max(0, start - 15)
        values["vm1"][lo:end, 2] += np.linspace(0.0, 40.0 * amplitude, end - lo)
        values["vm2"][start:end, 0] += 200.0 * amplitude
    values["vm3"][:, 4] = 7.0
    cpu = {name: np.ones(n) for name in values}
    mem = {name: np.full(n, 1024.0) for name in values}
    cpu["vm1"][68:] = 2.0
    mem["vm4"][90:94] = 2048.0
    mem["vm5"][86:97] = 512.0
    allocs = {name: (cpu[name], mem[name]) for name in values}
    return values, labels, allocs


@pytest.mark.parametrize("amplitude", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("with_allocs", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_localizer_block_is_the_per_vm_loop(seed, with_allocs, amplitude):
    values, labels, allocs = world(seed, amplitude)
    allocs = allocs if with_allocs else None
    oracle = LoopLocalizer()
    want = oracle.localize(values, labels, per_vm_allocations=allocs)
    got = DeviationLocalizer().localize(values, labels, per_vm_allocations=allocs)
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype
        assert got[name].tobytes() == want[name].tobytes()

    # Every epoch's scores and onsets, bitwise — from the stacked block
    # and from the same block as a strided window of a wider ring.
    names = list(values)
    kernel = DeviationLocalizer()
    block = np.stack(list(values.values()))
    ring = np.full((len(names), block.shape[1] + 9, block.shape[2]), np.nan)
    ring[:, 4:-5] = block
    pairs = None if allocs is None else tuple(
        np.stack([allocs[n][k] for n in names]) for k in (0, 1)
    )
    assert len(oracle.evidence) == len(EPOCHS)
    for (start, end), (scores, onsets) in zip(EPOCHS, oracle.evidence):
        for view in (block, ring[:, 4:-5]):
            score_row, onset_row = kernel._epoch_evidence(
                view, pairs, start, end
            )
            assert score_row.tobytes() == np.array(
                [scores[n] for n in names]
            ).tobytes()
            assert onset_row.tolist() == [
                -1 if onsets[n] is None else onsets[n] for n in names
            ]
    first_scores, first_onsets = oracle.evidence[0]
    assert all(s == np.inf for s in first_scores.values())  # empty reference
    assert all(o is None for o in first_onsets.values())


def test_deviation_score_is_the_one_vm_block():
    rng = np.random.default_rng(5)
    for rows in (1, 2, 7, 40):
        epoch = rng.normal(3.0, 2.0, (rows, 13))
        mean, std = rng.normal(size=13), rng.uniform(0.0, 2.0, 13)
        std[:3] = 0.0
        got = DeviationLocalizer.deviation_score(epoch, mean, std)
        want = LoopLocalizer.deviation_score(epoch, mean, std)
        assert type(got) is float and np.float64(got).tobytes() == (
            np.float64(want).tobytes()
        )


# ----------------------------------------------------------------------
# SLO labels once per retrain round
# ----------------------------------------------------------------------
def test_aligned_buffers_share_timestamps_every_round(monkeypatch):
    """Labels-once rests on this: on the chaos golden cell (blackouts
    and NaN corruption), every buffer of the round's length holds the
    same timestamps on every retrain round."""
    from repro.core.controller import PrepareController

    retrain = PrepareController._retrain
    imputed = []

    def checked(controller):
        buffers = list(controller.buffers.values())
        ref_len = max(len(b) for b in buffers)
        stamps = [b.matrices()[2] for b in buffers if len(b) == ref_len]
        assert all(t.tobytes() == stamps[0].tobytes() for t in stamps)
        imputed.append(sum(b.imputed_mask().any() for b in buffers))
        retrain(controller)

    monkeypatch.setattr(PrepareController, "_retrain", checked)
    run_cell("fleet8-leak-s7-chaos")
    assert len(imputed) > 10 and max(imputed) > 0  # imputation happened


def test_vm_lagging_since_before_first_sample_is_left_out(monkeypatch):
    _testbed, controller = deploy_controller()
    names = list(controller.buffers)
    rng = np.random.default_rng(17)
    filled = {}
    for name in names:
        rows = 70 if name == names[0] else 100  # names[0] lags
        controller.buffers[name]._slo = FakeSLO()
        filled[name] = (rng.normal(size=(rows, len(ATTRIBUTES))),
                        np.ones(rows), np.full(rows, 1024.0))
    fill_ring(controller, filled)
    seen = {}

    def spy(vms, block, labels, allocations=None):
        seen["vms"] = list(vms)
        seen["labels"] = np.array(labels)
        # The aligned VMs' windows, read as one block of ring columns.
        assert block.shape == (len(vms), 100, len(ATTRIBUTES))
        for name, rows in zip(vms, block):
            assert rows.tobytes() == filled[name][0].tobytes()
        return {name: np.zeros_like(labels) for name in vms}

    monkeypatch.setattr(controller.localizer, "localize_block", spy)
    controller._retrain()
    assert seen["vms"] == names[1:]
    assert seen["labels"].tobytes() == (
        controller.buffers[names[1]].matrices()[1].tobytes()
    )
