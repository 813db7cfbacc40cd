"""Focused tests for controller internals: validation, escalation,
episode tracking, deviation fallback."""

import numpy as np
import pytest

from repro.core.controller import PrepareConfig
from repro.core.predictor import PredictionResult
from repro.experiments.scenarios import RUBIS, build_testbed
from repro.experiments.schemes import deploy_scheme
from repro.faults import CpuHogFault
from repro.sim.monitor import SampleBlock
from repro.sim.resources import ResourceKind

ATTRS_N = 13


def deployed(seed=7, **config_kw):
    testbed = build_testbed(RUBIS, seed=seed, duration_hint=1600)
    config = PrepareConfig(**config_kw) if config_kw else None
    managed = deploy_scheme(testbed, "prepare", config=config)
    return testbed, managed


def fake_result(attributes, abnormal=True, score=2.0, strengths=None):
    n = len(attributes)
    return PredictionResult(
        abnormal=abnormal,
        probability=0.9 if abnormal else 0.1,
        score=score if abnormal else -score,
        bins=tuple(0 for _ in range(n)),
        strengths=tuple(strengths if strengths is not None else [0.0] * n),
        attributes=tuple(attributes),
        steps=3,
    )


class TestEpisodeTracking:
    def test_abnormal_results_accumulate(self):
        _testbed, managed = deployed()
        controller = managed.controller
        result = fake_result(controller.attributes)
        controller._note_strengths("vm_db", result)
        controller._note_strengths("vm_db", result)
        assert len(controller._recent_strengths["vm_db"]) == 2

    def test_normal_result_clears_episode(self):
        _testbed, managed = deployed()
        controller = managed.controller
        controller._note_strengths(
            "vm_db", fake_result(controller.attributes, abnormal=True)
        )
        controller._note_strengths(
            "vm_db", fake_result(controller.attributes, abnormal=False)
        )
        assert len(controller._recent_strengths["vm_db"]) == 0

    def test_window_average_weights_by_score(self):
        _testbed, managed = deployed()
        controller = managed.controller
        attrs = controller.attributes
        weak = [0.0] * ATTRS_N
        weak[0] = 1.0
        strong = [0.0] * ATTRS_N
        strong[1] = 1.0
        controller._note_strengths(
            "vm_db", fake_result(attrs, score=0.5, strengths=weak)
        )
        controller._note_strengths(
            "vm_db", fake_result(attrs, score=5.0, strengths=strong)
        )
        merged = controller._window_averaged(
            "vm_db", fake_result(attrs, score=5.0, strengths=strong)
        )
        # The high-score sample's attribute must dominate the mean.
        assert merged.strengths[1] > merged.strengths[0]

    def test_window_average_floors_weights_at_a_tenth(self):
        # A barely-abnormal sample (score 0.05) weighs 0.1, a confident
        # one (0.5) its score: the confident sample's metric ranks
        # first even though the weak one's raw strength is larger.
        _testbed, managed = deployed()
        controller = managed.controller
        attrs = controller.attributes
        weak = [0.0] * ATTRS_N
        weak[0] = 1.0
        confident = [0.0] * ATTRS_N
        confident[1] = 0.8
        controller._note_strengths(
            "vm_db", fake_result(attrs, score=0.05, strengths=weak)
        )
        controller._note_strengths(
            "vm_db", fake_result(attrs, score=0.5, strengths=confident)
        )
        merged = controller._window_averaged(
            "vm_db", fake_result(attrs, score=0.5, strengths=confident)
        )
        assert merged.ranked_attributes()[0][0] == attrs[1]
        np.testing.assert_allclose(
            merged.strengths[:2], [0.1 / 0.6, 0.4 / 0.6]
        )

    def test_fresh_violation_clears_all_episodes(self):
        testbed, managed = deployed()
        controller = managed.controller
        controller._note_strengths(
            "vm_db", fake_result(controller.attributes)
        )
        # Feed a violated SLO record then tick the controller once,
        # with a round in which nothing arrived.
        testbed.app.slo.observe(0.0, 10_000.0)
        controller._on_block(SampleBlock(
            0.0, (), np.empty((0, ATTRS_N)), np.empty(0), np.empty(0),
            np.empty(0, dtype=bool), np.empty(0, dtype=bool),
        ))
        assert len(controller._recent_strengths["vm_db"]) == 0


class TestDeviationFallback:
    def test_insufficient_history_yields_nothing(self):
        _testbed, managed = deployed()
        assert managed.controller._deviation_results(0.0) == {}

    def test_detects_shifted_vm(self):
        testbed, managed = deployed()
        controller = managed.controller
        testbed.app.start()
        testbed.monitor.start(start_at=5.0)
        testbed.sim.run_until(140.0)
        # Hog the DB hard, collect a few more samples.
        CpuHogFault(testbed.cluster.vm("vm_db"), cores=1.0).activate(
            testbed.sim
        )
        testbed.sim.run_until(170.0)
        results = controller._deviation_results(testbed.sim.now)
        assert results
        assert results["vm_db"].abnormal
        ranked = results["vm_db"].ranked_attributes()
        assert ranked[0][1] > 2.0

    def test_quiet_system_below_threshold(self):
        testbed, managed = deployed()
        controller = managed.controller
        testbed.app.start()
        testbed.monitor.start(start_at=5.0)
        testbed.sim.run_until(200.0)
        results = controller._deviation_results(testbed.sim.now)
        # Either empty (top z < 2) or nothing abnormal.
        assert not any(r.abnormal for r in results.values())


class TestValidationEscalation:
    def test_ineffective_action_excludes_metric(self):
        testbed, managed = deployed()
        controller = managed.controller
        actuator = managed.actuator
        # Take an action on a bogus metric, then resolve its validation
        # with alerts still active -> escalation must exclude it.
        action = actuator.prevent("vm_db", [("swap_used", 3.0)])
        testbed.sim.run_until(1.0)
        controller._watch_action(action, testbed.sim.now)
        controller._reactive_abnormal["vm_db"] = True
        controller._latest_results["vm_db"] = fake_result(
            controller.attributes,
            strengths=[1.0 if a == "cpu_usage" else 0.0
                       for a in controller.attributes],
        )
        controller._resolve_validations(
            testbed.sim.now + controller.config.validation_settle + 1.0,
            slo_violated=True,
        )
        assert action.effective is False
        # The escalation took the next actionable metric (cpu).
        followups = [a for a in actuator.actions if a is not action]
        assert followups
        assert followups[0].resource is ResourceKind.CPU

    def test_effective_action_resets_filter(self):
        testbed, managed = deployed()
        controller = managed.controller
        actuator = managed.actuator
        action = actuator.prevent("vm_db", [("swap_used", 3.0)])
        testbed.sim.run_until(1.0)
        controller._watch_action(action, testbed.sim.now)
        # Residual raw alerts below the confirmation threshold: the
        # anomaly has stopped, so validation must credit the action and
        # clear the stale alert history.
        controller.filters["vm_db"].push(True)
        controller.filters["vm_db"].push(False)
        controller._resolve_validations(
            testbed.sim.now + controller.config.validation_settle + 1.0,
            slo_violated=False,
        )
        assert action.effective is True
        assert controller.filters["vm_db"].recent_alerts == 0

    def test_persisting_alerts_mark_ineffective(self):
        testbed, managed = deployed()
        controller = managed.controller
        actuator = managed.actuator
        action = actuator.prevent("vm_db", [("swap_used", 3.0)])
        testbed.sim.run_until(1.0)
        controller._watch_action(action, testbed.sim.now)
        for _ in range(4):
            controller.filters["vm_db"].push(True)
        controller._resolve_validations(
            testbed.sim.now + controller.config.validation_settle + 1.0,
            slo_violated=False,
        )
        assert action.effective is False
