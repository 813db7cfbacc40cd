"""Regression tests for the control-loop validation/diagnosis fixes.

Each test class pins one bug that previously survived because the loop
was unobservable:

* validations keyed by VM instead of action_id (two in-flight actions
  for the same VM swapped metric columns);
* module-global action-ID counter (IDs depended on process history);
* ``_deviation_results`` returning ``{}`` when *any* VM was short on
  samples (one late joiner disabled the model-free fallback for all);
* banker's-rounded ``lookahead_steps`` (12.5 s at a 5 s interval gave
  2 steps instead of 3).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.actuation import (
    EffectivenessValidator,
    PreventionActuator,
    ValidationOutcome,
)
from repro.core.controller import PrepareConfig
from repro.experiments.scenarios import RUBIS, build_testbed
from repro.experiments.schemes import deploy_scheme
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.monitor import ATTRIBUTES, SampleBlock
from repro.sim.resources import ResourceSpec

VM_SPEC = ResourceSpec(1.0, 1024.0)


@pytest.fixture
def world():
    sim = Simulator()
    cluster = Cluster(sim)
    cluster.place_one_vm_per_host(["vm1", "vm2"], VM_SPEC, spares=2)
    return sim, cluster


def deploy(**config_kw):
    testbed = build_testbed(RUBIS, seed=7, duration_hint=1600)
    cfg = PrepareConfig(**config_kw) if config_kw else None
    managed = deploy_scheme(testbed, "prepare", config=cfg)
    return testbed, managed


class TestValidationKeyedByAction:
    """Two pending actions on one VM must each validate against their
    *own* indicted metric column, not whichever was registered last."""

    def test_two_pending_actions_same_vm_use_own_columns(self, world):
        sim, cluster = world
        actuator = PreventionActuator(cluster, sim, mode="scaling")
        validator = EffectivenessValidator(
            window_samples=2, settle_seconds=20.0
        )
        first = actuator.prevent("vm1", [("swap_used", 2.0)])
        second = actuator.prevent("vm1", [("cpu_usage", 2.0)])
        sim.run_until(1.0)  # let both scaling verbs complete
        # swap_used sat at ~100 before the first action; cpu_usage
        # at ~50 before the second.
        validator.watch(first, np.array([100.0, 100.0]), now=0.0)
        validator.watch(second, np.array([50.0, 50.0]), now=5.0)
        # After settling: swap_used collapsed to ~10 (changed), while
        # cpu_usage is still ~50 (unchanged).
        resolved = validator.check(
            30.0,
            {
                first.action_id: np.array([10.0, 10.0]),
                second.action_id: np.array([50.0, 50.0]),
            },
            {"vm1": True},
        )
        assert {id(a) for a, _o in resolved} == {id(first), id(second)}
        assert first.usage_changed is True
        assert second.usage_changed is False

    def test_controller_maps_columns_by_action_id(self, world, monkeypatch):
        """The controller hands the validator an action_id-keyed map
        with each action's own metric column."""
        testbed, managed = deploy()
        controller = managed.controller
        vm = testbed.app.vms[0].name
        # Two in-flight actions on the same VM, different metrics.
        first = controller.actuator.prevent(vm, [("swap_used", 2.0)])
        second = controller.actuator.prevent(vm, [("cpu_usage", 2.0)])
        assert first is not None and second is not None
        controller._watch_action(first, now=0.0)
        controller._watch_action(second, now=0.0)

        seen = {}

        def capture(now, look_ahead_values, alerts_active):
            seen.update(look_ahead_values)
            return []

        monkeypatch.setattr(controller.validator, "check", capture)
        controller._resolve_validations(now=100.0, slo_violated=False)
        assert set(seen) == {first.action_id, second.action_id}

    def test_pending_actions_resolve_independently(self, world):
        """Maturity is per-action: the earlier action resolves while
        the later one stays pending."""
        sim, cluster = world
        actuator = PreventionActuator(cluster, sim, mode="scaling")
        validator = EffectivenessValidator(settle_seconds=20.0)
        first = actuator.prevent("vm1", [("swap_used", 2.0)])
        second = actuator.prevent("vm1", [("cpu_usage", 2.0)])
        sim.run_until(1.0)
        validator.watch(first, np.array([100.0]), now=0.0)
        validator.watch(second, np.array([50.0]), now=15.0)
        resolved = validator.check(
            25.0, {first.action_id: np.array([100.0])}, {"vm1": False}
        )
        assert [a.action_id for a, _o in resolved] == [first.action_id]
        assert resolved[0][1] == ValidationOutcome.EFFECTIVE
        assert validator.pending_count == 1


class TestPerActuatorActionIds:
    """Action IDs must restart at 1 per actuator, so repeated
    experiments and replayed runs are bitwise-reproducible."""

    def test_fresh_actuator_starts_at_one(self, world):
        sim, cluster = world
        first_actuator = PreventionActuator(cluster, sim, mode="scaling")
        a1 = first_actuator.prevent("vm1", [("swap_used", 2.0)])
        a2 = first_actuator.prevent("vm2", [("swap_used", 2.0)])
        assert (a1.action_id, a2.action_id) == (1, 2)

        # A second world, as a repeated experiment would build it.
        sim2 = Simulator()
        cluster2 = Cluster(sim2)
        cluster2.place_one_vm_per_host(["vm1", "vm2"], VM_SPEC, spares=2)
        second_actuator = PreventionActuator(cluster2, sim2, mode="scaling")
        b1 = second_actuator.prevent("vm1", [("swap_used", 2.0)])
        assert b1.action_id == 1


class TestDeviationFallbackSkipsShortVMs:
    """One VM short on samples must not disable the model-free
    reactive fallback for the whole cluster."""

    def test_short_vm_skipped_not_fatal(self):
        testbed, managed = deploy()
        controller = managed.controller
        names = tuple(controller.buffers)
        late_joiner, deviant = 0, 1
        needed = 20  # epoch_len + gap + ref_len in _deviation_results
        n = len(names)
        for i in range(needed):
            values = np.full((n, len(ATTRIBUTES)), 10.0)
            values[:, ATTRIBUTES.index("cpu_usage")] = 20.0
            if i >= needed - 4:
                # deviant epoch at the window's end
                values[deviant, ATTRIBUTES.index("cpu_usage")] = 95.0
            present = np.ones(n, dtype=bool)
            present[late_joiner] = i >= needed - 3  # 3 rows only
            controller._ingest(
                SampleBlock(5.0 * i, names, values, np.ones(n),
                            np.full(n, 1024.0), present,
                            np.zeros(n, dtype=bool)),
                5.0 * i,
            )
        late_joiner, deviant = names[late_joiner], names[deviant]
        assert len(controller.buffers[late_joiner]) == 3
        results = controller._deviation_results(now=100.0)
        assert late_joiner not in results
        assert deviant in results
        assert results[deviant].abnormal

    def test_all_vms_short_returns_empty(self):
        _testbed, managed = deploy()
        controller = managed.controller
        assert controller._deviation_results(now=0.0) == {}


class TestLookaheadCeiling:
    """Half-way look-ahead windows must round *up*: the window is a
    promise to predict at least that far out."""

    @pytest.mark.parametrize("seconds,interval,expected", [
        (12.5, 5.0, 3),   # the bug: banker's round() gave 2
        (17.5, 5.0, 4),   # the other half-way parity
        (30.0, 5.0, 6),   # exact multiple stays exact
        (31.0, 5.0, 7),   # any overshoot costs a full step
        (2.5, 5.0, 1),    # floor of one step
        (0.3, 0.1, 3),    # float-noise ratio (2.9999...) stays exact
    ])
    def test_halfway_points(self, seconds, interval, expected):
        testbed, managed = deploy()
        controller = managed.controller
        controller.config = dataclasses.replace(
            controller.config, lookahead_seconds=seconds
        )
        controller.monitor.interval = interval
        assert controller.lookahead_steps == expected
