"""Integration-style tests for the PREPARE controller loop."""

import numpy as np
import pytest

from repro.core.actuation import PreventionActuator
from repro.core.controller import PrepareConfig, PrepareController
from repro.experiments.scenarios import RUBIS, SYSTEM_S, build_testbed, make_fault
from repro.experiments.schemes import deploy_scheme
from repro.faults import CpuHogFault, FaultKind, MemoryLeakFault


def deploy(app=RUBIS, scheme="prepare", seed=7, **config_kw):
    testbed = build_testbed(app, seed=seed, duration_hint=1600)
    cfg = PrepareConfig(**config_kw) if config_kw else None
    managed = deploy_scheme(testbed, scheme, config=cfg)
    return testbed, managed


class TestWiring:
    def test_one_model_per_vm(self):
        testbed, managed = deploy()
        controller = managed.controller
        assert set(controller.predictors) == {v.name for v in testbed.app.vms}
        assert set(controller.filters) == set(controller.predictors)

    def test_double_attach_rejected(self):
        _testbed, managed = deploy()
        with pytest.raises(RuntimeError):
            managed.controller.attach()

    def test_lookahead_steps(self):
        testbed, managed = deploy()
        controller = managed.controller
        # Exact multiple: 30 s at a 5 s interval is exactly 6 steps.
        assert controller.config.lookahead_seconds == 30.0
        assert testbed.monitor.interval == 5.0
        assert controller.lookahead_steps == 6

    def test_none_scheme_has_no_controller(self):
        testbed = build_testbed(RUBIS, seed=1)
        managed = deploy_scheme(testbed, "none")
        assert managed.controller is None and managed.actuator is None
        managed.reset_allocations()  # no-op, must not raise

    def test_reactive_scheme_disables_prediction(self):
        _testbed, managed = deploy(scheme="reactive")
        assert not managed.controller.config.prediction_enabled


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("retrain_every", 0),
        ("lookahead_seconds", 0.0),
        ("lookahead_seconds", -5.0),
        ("lookahead_seconds", float("inf")),
        ("lookahead_seconds", float("nan")),
        ("n_bins", 1),
        ("min_training_samples", 1),
        ("reactive_confirmations", 0),
        ("action_cooldown", -1.0),
        ("action_cooldown", float("nan")),
        ("post_action_grace", -0.5),
        ("post_action_grace", float("inf")),
    ])
    def test_rejects_value_that_would_break_the_loop(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            PrepareConfig(**{field: value})

    def test_accepts_boundary_values(self):
        PrepareConfig(
            retrain_every=1, lookahead_seconds=0.5, n_bins=2,
            min_training_samples=2, reactive_confirmations=1,
            action_cooldown=0.0, post_action_grace=0.0,
        )


class TestOnlineLearning:
    def test_no_training_without_anomalies(self):
        testbed, managed = deploy()
        testbed.app.start()
        testbed.monitor.start(start_at=5.0)
        testbed.sim.run_until(400.0)
        assert not managed.controller.trained()
        assert managed.actuator.actions == []

    def test_violation_produces_trained_model_on_faulty_vm(self):
        testbed, managed = deploy()
        fault = make_fault(testbed, FaultKind.MEMORY_LEAK)
        testbed.injector.inject(fault, 200.0, 300.0)
        testbed.app.start()
        testbed.monitor.start(start_at=5.0)
        testbed.sim.run_until(700.0)
        controller = managed.controller
        assert controller.predictors["vm_db"].trained
        healthy = [n for n, p in controller.predictors.items()
                   if n != "vm_db" and p.trained]
        assert healthy == []

    def test_reactive_fallback_acts_on_faulty_vm(self):
        testbed, managed = deploy(scheme="reactive")
        fault = make_fault(testbed, FaultKind.CPU_HOG)
        testbed.injector.inject(fault, 200.0, 200.0)
        testbed.app.start()
        testbed.monitor.start(start_at=5.0)
        testbed.sim.run_until(450.0)
        actions = managed.actuator.actions
        assert actions, "reactive path must act on the violation"
        assert any(a.vm == "vm_db" for a in actions)
        assert all(not a.proactive for a in actions)

    def test_prevention_disabled_observes_only(self):
        testbed, managed = deploy(prevention_enabled=False)
        fault = make_fault(testbed, FaultKind.CPU_HOG)
        testbed.injector.inject(fault, 200.0, 200.0)
        testbed.app.start()
        testbed.monitor.start(start_at=5.0)
        testbed.sim.run_until(450.0)
        assert managed.actuator.actions == []
        assert managed.controller.alerts  # alerts still recorded


class TestSuppression:
    def test_grace_window_follows_operations(self):
        testbed, managed = deploy()
        controller = managed.controller
        vm = testbed.cluster.vm("vm_db")
        testbed.app.start()
        testbed.monitor.start(start_at=5.0)
        testbed.sim.run_until(20.0)
        from repro.sim.resources import ResourceKind
        testbed.cluster.hypervisor.scale(vm, ResourceKind.CPU, 2.0)
        testbed.sim.run_until(30.0)
        assert controller._suppressed("vm_db", testbed.sim.now)
        testbed.sim.run_until(
            30.0 + controller.config.post_action_grace + 10.0
        )
        assert not controller._suppressed("vm_db", testbed.sim.now)


class TestOperatorAlarms:
    """Controller → alarm-manager wiring (optional, default off)."""

    def test_default_has_no_alarm_manager(self):
        _testbed, managed = deploy()
        assert managed.controller.alarms is None

    def test_reactive_violation_raises_critical_alarm(self):
        from repro.serve.alarms import AlarmManager

        testbed, managed = deploy(scheme="reactive")
        controller = managed.controller
        controller.alarms = AlarmManager(clock=lambda: testbed.sim.now)
        fault = make_fault(testbed, FaultKind.CPU_HOG)
        testbed.injector.inject(fault, 200.0, 200.0)
        testbed.app.start()
        testbed.monitor.start(start_at=5.0)
        testbed.sim.run_until(450.0)
        alarms = [a for a in controller.alarms.alarms()
                  if a.vm == "vm_db" and a.kind.startswith("anomaly:")]
        assert alarms, "confirmed alert must raise an operator alarm"
        # Reactive alerts mean the SLO is already violated: critical.
        assert alarms[0].severity == "critical"
        assert alarms[0].raised_at >= 200.0  # sim-time stamps

    def test_failed_action_escalates_alarm_severity(self):
        # Regression for the severity-drop bug: a prevention action
        # whose every retry failed used to vanish from validation, so
        # the alarm never escalated.  Now it resolves FAILED and the
        # controller escalates the alarm instead of resetting it.
        import numpy as np

        from repro.core.actuation import PreventionAction, ResourceKind
        from repro.serve.alarms import AlarmManager

        testbed, managed = deploy()
        controller = managed.controller
        controller.alarms = AlarmManager(clock=lambda: testbed.sim.now)
        kind = "anomaly:mem_used"
        alarm = controller.alarms.raise_alarm(
            "vm_db", kind, "warning", now=10.0)
        controller._alarm_kinds["vm_db"] = kind
        action = PreventionAction(
            action_id=999, timestamp=10.0, vm="vm_db", verb="scale",
            resource=ResourceKind.MEMORY, metric="mem_used",
            proactive=True, failed=True,
        )
        controller.validator.watch(action, np.array([5.0]), now=10.0)
        controller._resolve_validations(now=100.0, slo_violated=False)
        assert alarm.severity == "critical"
        assert alarm.state == "escalating"
        assert alarm.events[-1]["reason"] == "prevention action failed"
        validations = [e for e in controller.events
                       if e.kind == "validation"]
        assert validations[-1].detail["outcome"] == "failed"

    def test_effective_action_resolves_alarm(self):
        import numpy as np

        from repro.core.actuation import PreventionAction, ResourceKind
        from repro.serve.alarms import AlarmManager

        testbed, managed = deploy()
        controller = managed.controller
        controller.alarms = AlarmManager(clock=lambda: testbed.sim.now)
        kind = "anomaly:mem_used"
        alarm = controller.alarms.raise_alarm(
            "vm_db", kind, "warning", now=10.0)
        controller._alarm_kinds["vm_db"] = kind
        action = PreventionAction(
            action_id=998, timestamp=10.0, vm="vm_db", verb="scale",
            resource=ResourceKind.MEMORY, metric="mem_used",
            proactive=True, completed=True,
        )
        controller.actuator.actions.append(action)
        controller.validator.watch(action, np.array([5.0]), now=10.0)
        controller._resolve_validations(now=100.0, slo_violated=False)
        assert alarm.state == "resolved"
        assert "vm_db" not in controller._alarm_kinds
