"""Tests for the experiment runner and replicate machinery."""

import gc
import weakref

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentConfig,
    run_experiment,
    run_replicates,
)
from repro.experiments.scenarios import RUBIS, SYSTEM_S
from repro.faults import FaultKind

FAST = dict(
    duration=700.0,
    first_injection_at=200.0,
    injection_duration=150.0,
    injection_gap=150.0,
)


class TestConfig:
    def test_injection_windows(self):
        config = ExperimentConfig(
            app=RUBIS, fault=FaultKind.CPU_HOG, scheme="none",
            first_injection_at=100.0, injection_duration=50.0,
            injection_gap=25.0, injection_count=3,
        )
        assert config.injection_windows() == [
            (100.0, 150.0), (175.0, 225.0), (250.0, 300.0)
        ]

    def test_duration_must_cover_schedule(self):
        config = ExperimentConfig(
            app=RUBIS, fault=FaultKind.CPU_HOG, scheme="none",
            duration=100.0,
        )
        with pytest.raises(ValueError):
            run_experiment(config)


class TestRunExperiment:
    def test_none_scheme_measures_fault_damage(self):
        result = run_experiment(ExperimentConfig(
            app=RUBIS, fault=FaultKind.CPU_HOG, scheme="none", seed=5, **FAST
        ))
        assert result.violation_time > 100.0
        assert len(result.per_injection_violation) == 2
        assert result.actions == []

    def test_prepare_beats_none(self):
        none = run_experiment(ExperimentConfig(
            app=RUBIS, fault=FaultKind.CPU_HOG, scheme="none", seed=5, **FAST
        ))
        prepare = run_experiment(ExperimentConfig(
            app=RUBIS, fault=FaultKind.CPU_HOG, scheme="prepare", seed=5, **FAST
        ))
        assert prepare.violation_time < 0.5 * none.violation_time
        assert prepare.actions

    def test_samples_and_labels_aligned(self):
        result = run_experiment(ExperimentConfig(
            app=RUBIS, fault=FaultKind.CPU_HOG, scheme="none", seed=5, **FAST
        ))
        lengths = {len(v) for v in result.samples.values()}
        assert len(lengths) == 1
        assert len(result.sample_labels) == lengths.pop()
        assert sum(result.sample_labels) > 0

    def test_trace_covers_run(self):
        result = run_experiment(ExperimentConfig(
            app=RUBIS, fault=FaultKind.CPU_HOG, scheme="none", seed=5, **FAST
        ))
        assert result.trace_times[0] <= 1.0
        assert result.trace_times[-1] >= FAST["duration"] - 2.0

    def test_deterministic_given_seed(self):
        config = ExperimentConfig(
            app=RUBIS, fault=FaultKind.CPU_HOG, scheme="prepare", seed=9, **FAST
        )
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.violation_time == b.violation_time
        assert len(a.actions) == len(b.actions)


class TestReplicates:
    def test_seeds_vary(self):
        summary = run_replicates(
            ExperimentConfig(app=RUBIS, fault=FaultKind.CPU_HOG,
                             scheme="none", seed=5, **FAST),
            repeats=2,
        )
        assert len(summary.violation_times) == 2
        seeds = {r.config.seed for r in summary.results}
        assert len(seeds) == 2

    def test_stats(self):
        summary = run_replicates(
            ExperimentConfig(app=RUBIS, fault=FaultKind.CPU_HOG,
                             scheme="none", seed=5, **FAST),
            repeats=2,
        )
        assert summary.mean > 0
        assert summary.std >= 0

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            run_replicates(
                ExperimentConfig(app=RUBIS, fault=FaultKind.CPU_HOG,
                                 scheme="none"),
                repeats=0,
            )


class TestResultHoldsOnlyArrays:
    """A result keeps the monitor's trace arrays, not the testbed: the
    samples it exposes are built from those arrays on access."""

    CHAOS = {"seed": 2, "metric": {"corrupt_rate": 0.05,
                                   "blackout_rate": 0.02}}

    @staticmethod
    def _run(monkeypatch, keep, **overrides):
        deploy = runner.deploy_scheme

        def spy(testbed, scheme, **kwargs):
            managed = deploy(testbed, scheme, **kwargs)
            keep(testbed, managed)
            return managed

        monkeypatch.setattr(runner, "deploy_scheme", spy)
        return run_experiment(ExperimentConfig(
            app=RUBIS, fault=FaultKind.CPU_HOG, scheme="prepare", seed=5,
            **FAST, **overrides,
        ))

    @pytest.mark.parametrize("chaos", [None, CHAOS])
    def test_run_releases_simulator_and_controller(self, monkeypatch, chaos):
        refs = []
        result = self._run(
            monkeypatch,
            lambda testbed, managed: refs.extend(
                [weakref.ref(testbed.sim), weakref.ref(managed.controller)]
            ),
            chaos=chaos,
        )
        gc.collect()
        assert len(refs) == 2 and all(ref() is None for ref in refs)
        assert result.actions
        assert len(next(iter(result.samples.values()))) == len(
            result.sample_labels
        )

    def test_sample_labels_are_the_per_timestamp_labels(self, monkeypatch):
        slos = []
        result = self._run(
            monkeypatch, lambda testbed, _managed: slos.append(testbed.app.slo)
        )
        (slo,) = slos
        times = result.samples.times.tolist()
        assert result.sample_labels == [int(slo.violated_at(t)) for t in times]
        assert all(type(label) is int for label in result.sample_labels)
        assert 0 < sum(result.sample_labels) < len(times)
