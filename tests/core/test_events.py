"""Tests for the controller event log."""

import inspect
import re

import pytest

from repro.core import controller
from repro.core.events import KINDS, ControllerEvent, EventLog
from repro.experiments import ExperimentConfig, RUBIS
from repro.experiments.scenarios import build_testbed, make_fault
from repro.experiments.schemes import deploy_scheme
from repro.faults import FaultKind


def test_kinds_lists_exactly_what_the_controller_emits():
    emitted = re.findall(
        r'\.emit\(\s*[^,]+,\s*"(\w+)"', inspect.getsource(controller)
    )
    assert set(emitted) == set(KINDS) and len(set(KINDS)) == len(KINDS) == 9


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit(1.0, "raw_alert", vm="vm1", score=2.5)
        log.emit(2.0, "raw_alert", vm="vm2", score=1.0)
        log.emit(3.0, "action", vm="vm1", verb="scale")
        assert len(log) == 3
        assert [e.vm for e in log.of_kind("raw_alert")] == ["vm1", "vm2"]
        assert [e.kind for e in log.for_vm("vm1")] == ["raw_alert", "action"]
        assert len(log.between(1.5, 2.5)) == 1
        assert log.counts() == {"raw_alert": 2, "action": 1}

    def test_bound_drops_oldest(self):
        log = EventLog(max_events=3)
        for i in range(5):
            log.emit(float(i), "raw_alert", vm=f"vm{i}")
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.timestamp for e in log] == [2.0, 3.0, 4.0]

    def test_timeline_filter(self):
        log = EventLog()
        log.emit(1.0, "raw_alert", vm="vm1")
        log.emit(2.0, "action", vm="vm1", verb="scale")
        text = log.timeline(kinds=("action",))
        assert "action" in text and "raw_alert" not in text

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            EventLog(max_events=0)

    def test_event_detail_isolated(self):
        """The log copies detail dicts so later mutation cannot rewrite
        history."""
        log = EventLog()
        detail = {"score": 1.0}
        log.emit(1.0, "raw_alert", vm="v", **detail)
        detail["score"] = 9.0
        assert list(log)[0].detail["score"] == 1.0


@pytest.mark.slow
class TestControllerEmitsEvents:
    @pytest.fixture(scope="class")
    def events(self):
        testbed = build_testbed(RUBIS, seed=7, duration_hint=1000.0)
        managed = deploy_scheme(testbed, "prepare")
        fault = make_fault(testbed, FaultKind.CPU_HOG)
        testbed.injector.inject(fault, 300.0, 200.0)
        testbed.app.start()
        testbed.monitor.start(start_at=5.0)
        testbed.sim.run_until(800.0)
        return managed.controller.events

    def test_training_recorded(self, events):
        trained = events.of_kind("model_trained")
        assert trained
        assert all(e.vm == "vm_db" for e in trained)
        assert all(e.detail["abnormal"] >= 4 for e in trained)

    def test_action_follows_diagnosis(self, events):
        diagnoses = events.of_kind("diagnosis")
        actions = events.of_kind("action")
        assert diagnoses and actions
        assert actions[0].timestamp >= diagnoses[0].timestamp

    def test_suppression_follows_action(self, events):
        actions = events.of_kind("action")
        suppressions = events.of_kind("suppressed")
        assert suppressions
        assert suppressions[0].timestamp >= actions[0].timestamp

    def test_timeline_is_ordered(self, events):
        stamps = [e.timestamp for e in events]
        assert stamps == sorted(stamps)
