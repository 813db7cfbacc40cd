"""Tests for cause inference: pinpointing, ranking, workload change."""

import numpy as np
import pytest

from repro.core.inference import CauseInference, Diagnosis, detect_change_point
from repro.core.predictor import PredictionResult

ATTRS = ("cpu", "mem", "net")


def result(abnormal, score, strengths=(0.0, 0.0, 0.0)):
    return PredictionResult(
        abnormal=abnormal,
        probability=1.0 / (1.0 + np.exp(-score)),
        score=score,
        bins=(0, 0, 0),
        strengths=tuple(strengths),
        attributes=ATTRS,
        steps=3,
    )


class TestDiagnose:
    def test_faulty_vms_are_alerting_vms(self):
        inference = CauseInference()
        diagnosis = inference.diagnose(100.0, {
            "vm1": result(False, -2.0),
            "vm2": result(True, 3.0),
            "vm3": result(True, 1.0),
        })
        assert diagnosis.faulty_vms == ("vm2", "vm3")

    def test_ordering_by_score_not_probability(self):
        """Scores 30 and 20 both saturate probability at 1.0; the
        ranking must still put the higher-score VM first."""
        inference = CauseInference()
        diagnosis = inference.diagnose(0.0, {
            "vm_a": result(True, 20.0),
            "vm_b": result(True, 30.0),
        })
        assert diagnosis.faulty_vms == ("vm_b", "vm_a")

    def test_ranked_metrics_follow_strengths(self):
        inference = CauseInference()
        diagnosis = inference.diagnose(0.0, {
            "vm1": result(True, 2.0, strengths=(0.1, 2.0, -0.5)),
        })
        ranking = diagnosis.ranked_metrics["vm1"]
        assert [name for name, _s in ranking] == ["mem", "cpu", "net"]
        assert diagnosis.top_metric("vm1") == "mem"

    def test_top_metric_missing_vm(self):
        inference = CauseInference()
        diagnosis = inference.diagnose(0.0, {"vm1": result(True, 1.0)})
        assert diagnosis.top_metric("ghost") is None

    def test_no_alerts_no_faults(self):
        inference = CauseInference()
        diagnosis = inference.diagnose(0.0, {"vm1": result(False, -1.0)})
        assert diagnosis.faulty_vms == ()
        assert not diagnosis.workload_change


class TestChangePoint:
    def test_detects_mean_shift(self):
        window = np.concatenate([np.full(10, 5.0), np.full(10, 25.0)])
        assert detect_change_point(window)

    def test_rejects_stationary_noise(self):
        rng = np.random.default_rng(0)
        assert not detect_change_point(rng.normal(10.0, 1.0, 20))

    def test_too_short_window(self):
        assert not detect_change_point(np.array([1.0, 100.0]))


class TestWorkloadChange:
    def _windows(self, shifted_vms, n_vms=3):
        rng = np.random.default_rng(1)
        windows = {}
        for i in range(n_vms):
            name = f"vm{i}"
            base = rng.normal(50.0, 1.0, (12, 3))
            if name in shifted_vms:
                base[6:, 0] += 30.0
            windows[name] = base
        return windows

    def test_all_components_shift_means_workload_change(self):
        inference = CauseInference()
        windows = self._windows({"vm0", "vm1", "vm2"})
        assert inference.is_workload_change(windows)

    def test_single_component_shift_is_internal_fault(self):
        # A workload change moves *every* component (Sec. II-C); one or
        # two shifted components out of three are an internal fault.
        inference = CauseInference()
        for shifted in ({"vm1"}, {"vm0", "vm1"}):
            windows = self._windows(shifted)
            assert not inference.is_workload_change(windows), shifted

    def test_empty_windows(self):
        assert not CauseInference().is_workload_change({})

    def test_diagnose_passes_workload_flag(self):
        inference = CauseInference()
        windows = self._windows({"vm0", "vm1", "vm2"})
        diagnosis = inference.diagnose(
            0.0,
            {name: result(True, 1.0) for name in windows},
            recent_windows=windows,
        )
        assert diagnosis.workload_change
