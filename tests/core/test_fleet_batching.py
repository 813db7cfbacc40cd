"""The fleet-batched controller hot path and its scorer.

The controller's predictive, reactive and deviation stages run through
one :class:`repro.core.fleet.FleetScorer` call per tick.  What that
loop *decides* is pinned by ``test_golden_decisions.py``; this file
covers the scorer's unit-level parity with the per-VM predictor calls,
its incremental repair (``sync``/``refresh``/``restack``) and how the
controller holds on to it across retrains.
"""

import numpy as np
import pytest

from repro.core.bayes import NaiveBayesClassifier
from repro.core.controller import PrepareConfig
from repro.core.fleet import FleetScorer
from repro.core.predictor import AnomalyPredictor
from repro.core.tan import TANClassifier
from repro.experiments.scenarios import RUBIS, build_testbed, make_fault
from repro.experiments.schemes import deploy_scheme
from repro.faults.base import FaultKind

N_ATTRS = 9


class TestControllerScorerLifetime:
    @staticmethod
    def _tick(testbed, controller):
        """Advance one monitoring tick that is not a retrain tick."""
        every = controller.config.retrain_every
        while True:
            testbed.sim.run_until(testbed.sim.now + testbed.monitor.interval)
            if controller._rounds % every:
                return

    def test_refit_refreshes_membership_change_replaces(self):
        testbed = build_testbed(RUBIS, seed=7, duration_hint=1600)
        controller = deploy_scheme(testbed, "prepare").controller
        testbed.injector.inject(
            make_fault(testbed, FaultKind.MEMORY_LEAK), 200.0, 300.0
        )
        testbed.app.start()
        testbed.monitor.start(start_at=5.0)
        testbed.sim.run_until(700.0)
        self._tick(testbed, controller)
        scorer = controller._scorer
        assert list(scorer.predictors) == ["vm_db"]
        stack = scorer._stacked

        # An in-place refit swaps vm_db's chains and classifier
        # tensors: the next tick repairs the same scorer's rows.
        trained = controller.predictors["vm_db"]
        X, y, _t = controller.buffers["vm_db"].matrices()
        window = (X, y)
        trained.train(*window)
        assert not scorer.stacked
        self._tick(testbed, controller)
        assert controller._scorer is scorer
        assert scorer._stacked is stack
        assert scorer.stacked

        # A second VM gaining a model changes trained membership: the
        # stack's row layout is different, so the scorer is replaced.
        controller.predictors["vm_web"].train(*window)
        self._tick(testbed, controller)
        assert controller._scorer is not scorer
        assert list(controller._scorer.predictors) == ["vm_web", "vm_db"]


class TestRemovedSwitches:
    @pytest.mark.parametrize(
        "kwargs", [
            {"fleet_batching": False}, {"horizon_sweep": True},
            {"continuous_learning": True}, {"drift_detection": True},
            {"drift_window": 24}, {"drift_min_fraction": 1.0},
            {"drift_cooldown": 24},
        ]
    )
    def test_config_rejects_removed_fields(self, kwargs):
        with pytest.raises(TypeError, match="unexpected keyword"):
            PrepareConfig(**kwargs)

    def test_predictor_has_no_scalar_switch(self):
        assert not hasattr(AnomalyPredictor(["a"]), "vectorized")

    @pytest.mark.parametrize("model", [
        AnomalyPredictor(["a"]), TANClassifier(4), NaiveBayesClassifier(4),
    ])
    def test_train_is_the_only_trainer(self, model):
        for name in ("partial_fit", "partial_train", "supports_partial_fit"):
            assert not hasattr(model, name), name


def _train_predictor(seed, n_attrs=N_ATTRS):
    rng = np.random.default_rng(seed)
    predictor = AnomalyPredictor(
        [f"m{i}" for i in range(n_attrs)], n_bins=6, markov="2dep",
    )
    values = np.cumsum(rng.normal(size=(250, n_attrs)), axis=0)
    labels = (rng.random(250) < 0.3).astype(int)
    return predictor.train(values, labels), values


def _make_fleet(n_vms=5):
    predictors, traces = {}, {}
    for i in range(n_vms):
        p, v = _train_predictor(seed=40 + i)
        predictors[f"vm{i}"] = p
        traces[f"vm{i}"] = v
    return predictors, traces


def _assert_result_equal(got, want):
    assert got.abnormal == want.abnormal
    assert got.score == want.score
    assert got.probability == want.probability
    assert got.bins == want.bins
    assert got.strengths == want.strengths
    assert got.steps == want.steps
    assert got.attributes == want.attributes


class TestClassifyBatchParity:
    def test_matches_classify_current(self):
        predictors, traces = _make_fleet()
        scorer = FleetScorer(predictors)
        batch = [
            (vm, traces[vm][100 + i]) for i, vm in enumerate(sorted(predictors))
        ]
        results = scorer.classify_batch(batch)
        for (vm, values), got in zip(batch, results):
            _assert_result_equal(got, predictors[vm].classify_current(values))

    def test_empty_batch_is_empty(self):
        predictors, _traces = _make_fleet(n_vms=2)
        scorer = FleetScorer(predictors)
        assert scorer.classify_batch([]) == []
        assert scorer.score([]) == []


class TestIncrementalRefresh:
    def test_sync_is_one_compare_until_a_model_changes(self):
        predictors, traces = _make_fleet(n_vms=3)
        scorer = FleetScorer(predictors)
        sources, scorer._sources = scorer._sources, None
        scorer.sync()  # nothing refit: no source is looked at
        predictors["vm1"].train(traces["vm1"][:200], [0, 1] * 100)
        with pytest.raises(TypeError):
            scorer.sync()  # the refit counter moved: every source is
        scorer._sources = sources
        batch = [(vm, traces[vm][50:60], 4) for vm in sorted(predictors)]
        for (vm, recent, steps), got in zip(batch, scorer.score(batch)):
            _assert_result_equal(got, predictors[vm].predict(recent, steps))

    def test_model_object_set_back_on_a_predictor_is_a_refit(self):
        """Setting a model object fitted long ago moves the refit
        counter too, so the O(1) check cannot miss it."""
        predictors, traces = _make_fleet(n_vms=2)
        scorer = FleetScorer(predictors)
        vm0 = predictors["vm0"]
        old = vm0.classifier, vm0.discretizer, vm0.value_models
        vm0.train(traces["vm1"][:200], [0, 0, 1] * 66 + [0, 1])
        batch = [(vm, traces[vm][50:60], 4) for vm in sorted(predictors)]
        scorer.score(batch)
        vm0.classifier, vm0.discretizer, vm0.value_models = old
        fresh = FleetScorer(predictors).score(batch)
        for got, want in zip(scorer.score(batch), fresh):
            _assert_result_equal(got, want)

    def test_refresh_repairs_refit_vm(self):
        predictors, traces = _make_fleet()
        scorer = FleetScorer(predictors)
        batch = [(vm, traces[vm][50:60], 4) for vm in sorted(predictors)]
        scorer.score(batch)  # fill horizon-table rows

        # Refit one VM on different data (new chain/classifier tensors).
        refit = "vm2"
        rng = np.random.default_rng(99)
        values = np.cumsum(rng.normal(size=(220, N_ATTRS)), axis=0)
        labels = (rng.random(220) < 0.4).astype(int)
        predictors[refit].train(values, labels)
        assert not scorer.stacked

        assert scorer.refresh() is True
        assert scorer.stacked

        # Every VM — refit and untouched — must still score bitwise
        # like the per-VM reference and like a scorer built from
        # scratch.
        fresh = FleetScorer(predictors)
        for (vm, recent, steps), got, rebuilt in zip(
            batch, scorer.score(batch), fresh.score(batch)
        ):
            want = predictors[vm].predict(recent, steps)
            _assert_result_equal(got, want)
            _assert_result_equal(rebuilt, want)
        for (vm, values_row), got in zip(
            [(vm, traces[vm][80]) for vm in sorted(predictors)],
            scorer.classify_batch(
                [(vm, traces[vm][80]) for vm in sorted(predictors)]
            ),
        ):
            _assert_result_equal(
                got, predictors[vm].classify_current(values_row)
            )

    def test_refresh_repairs_in_place_update(self):
        """``MarkovModel.update`` mutates a chain *in place* (same model
        object, bumped version) — identity checks alone would miss it.
        ``stacked`` must go stale and ``refresh`` must repair to
        bitwise-per-VM scores."""
        predictors, traces = _make_fleet(n_vms=4)
        scorer = FleetScorer(predictors)
        batch = [(vm, traces[vm][50:60], 4) for vm in sorted(predictors)]
        before = scorer.score(batch)  # fills horizon-table rows

        updated = predictors["vm2"]
        rng = np.random.default_rng(7)
        for chain in updated.value_models:
            chain.update(rng.integers(0, updated.n_bins, size=60))
        assert not scorer.stacked

        assert scorer.refresh() is True
        assert scorer.stacked
        fresh = FleetScorer(predictors)
        after = scorer.score(batch)
        for (vm, recent, steps), got, rebuilt in zip(
            batch, after, fresh.score(batch)
        ):
            want = predictors[vm].predict(recent, steps)
            _assert_result_equal(got, want)
            _assert_result_equal(rebuilt, want)
        # The predicted bins come straight from the chains (every
        # attribute is masked out of this random fleet's scores).
        moved = [
            vm for (vm, _r, _s), a, b in zip(batch, before, after)
            if a.bins != b.bins
        ]
        assert moved == ["vm2"]

    def test_refresh_refuses_untrained_replacement(self):
        predictors, _ = _make_fleet(n_vms=3)
        scorer = FleetScorer(predictors)
        assert scorer.stacked
        # The scorer holds its own dict: swap the entry it actually
        # consults for an untrained predictor.
        scorer.predictors["vm1"] = AnomalyPredictor(
            [f"m{i}" for i in range(N_ATTRS)], n_bins=6, markov="2dep"
        )
        assert scorer.refresh() is False

    def test_sync_fails_by_name_on_retired_model(self):
        predictors, traces = _make_fleet(n_vms=3)
        scorer = FleetScorer(predictors)
        predictors["vm1"].train(traces["vm1"][:200], [0, 1] * 100)
        predictors["vm1"].invalidate()
        with pytest.raises(ValueError, match="'vm1' is not trained"):
            scorer.score([("vm0", traces["vm0"][50:60], 4)])

    def test_naive_refit_is_repaired_in_place(self):
        predictors, traces = _make_fleet(n_vms=3)
        scorer = FleetScorer(predictors)
        stack, tensors = scorer._stacked, scorer._tensors
        # vm1 comes back from a refit with a naive classifier: it scores
        # as a TAN whose attributes are all roots, so its rows are
        # repaired like any other refit's.
        refit = predictors["vm1"]
        refit.classifier = NaiveBayesClassifier(n_bins=refit.n_bins)
        values = traces["vm1"][:200]
        refit.train(values, values[:, 0] > np.median(values[:, 0]))
        assert refit.classifier.attribute_mask.any()
        assert scorer.refresh() is True
        assert scorer._stacked is stack and scorer._tensors is tensors
        assert tensors.is_root[scorer._slices["vm1"]].all()
        batch = [(vm, traces[vm][50:60], 4) for vm in sorted(predictors)]
        for (vm, recent, steps), got in zip(batch, scorer.score(batch)):
            _assert_result_equal(got, predictors[vm].predict(recent, steps))
        observed = [(vm, traces[vm][80]) for vm in sorted(predictors)]
        for (vm, row), got in zip(observed, scorer.classify_batch(observed)):
            _assert_result_equal(got, predictors[vm].classify_current(row))
        assert scorer._stacked is stack

    def test_sync_rebuilds_when_rows_cannot_be_repaired(self):
        predictors, traces = _make_fleet(n_vms=3)
        scorer = FleetScorer(predictors)
        stack = scorer._stacked
        # Every VM is retrained onto simple chains: no row of the
        # 2-dependent stack can take them, so sync re-stacks the fleet.
        for vm, predictor in predictors.items():
            predictor.markov_kind = "simple"
            predictor.train(traces[vm][:200], [0, 1] * 100)
        assert scorer.refresh() is False
        batch = [(vm, traces[vm][50:60], 4) for vm in sorted(predictors)]
        for (vm, recent, steps), got in zip(batch, scorer.score(batch)):
            _assert_result_equal(got, predictors[vm].predict(recent, steps))
        assert scorer._stacked is not stack
        assert scorer.stacked and not scorer._stacked.two_dependent

    def test_failed_retrain_keeps_the_old_model(self):
        """A window with no state transitions raises out of ``train``;
        the predictor must go on scoring with the model it had, and
        the scorer stacked over it must not notice anything."""
        predictors, traces = _make_fleet(n_vms=3)
        scorer = FleetScorer(predictors)
        victim = predictors["vm1"]
        recent = traces["vm1"][50:60]
        before = victim.predict(recent, 4), victim.classify_current(recent[-1])
        held = victim.discretizer, list(victim.value_models)
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="no state transitions"):
            # Re-cut bins, one-row segments: nothing to count.
            victim.train(
                40.0 + 9.0 * rng.normal(size=(60, N_ATTRS)),
                [0, 1] * 30, segment_ids=np.arange(60),
            )
        assert victim.trained
        assert victim.discretizer is held[0]
        assert victim.value_models == held[1]
        assert before == (
            victim.predict(recent, 4), victim.classify_current(recent[-1])
        )
        assert scorer.stacked
        _assert_result_equal(scorer.score([("vm1", recent, 4)])[0], before[0])
        _assert_result_equal(
            scorer.classify_batch([("vm1", recent[-1])])[0], before[1]
        )

    def test_swapped_classifier_object_is_stale(self):
        """Current means the objects the predictor holds *now*: a
        classifier swapped in behind an untouched chain stack must not
        be answered from the retired classifier's tensors."""
        predictors, traces = _make_fleet(n_vms=2)
        scorer = FleetScorer(predictors)
        swapped = predictors["vm0"]
        values = traces["vm0"][:200]
        swapped.classifier = NaiveBayesClassifier(n_bins=swapped.n_bins).fit(
            swapped.discretizer.transform(values),
            (values[:, 0] > np.median(values[:, 0])).astype(int),
        )
        assert swapped.classifier.attribute_mask.any()
        recent = values[50:60]
        _assert_result_equal(
            scorer.score([("vm0", recent, 4)])[0], swapped.predict(recent, 4)
        )

    def test_refit_to_another_variant_is_rejected_by_name(self):
        # One VM retrained onto simple chains leaves a fleet whose
        # chains cannot share one operator: the next call names it.
        predictors, traces = _make_fleet(n_vms=3)
        scorer = FleetScorer(predictors)
        odd = predictors["vm1"]
        odd.markov_kind = "simple"
        odd.train(traces["vm1"][:200], [0, 1] * 100)
        assert scorer.refresh() is False
        for call in (
            lambda: scorer.score([("vm0", traces["vm0"][50:60], 4)]),
            lambda: scorer.classify_batch([("vm0", traces["vm0"][80])]),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value).endswith(
                "markov='2dep', n_bins=6: vm0, vm2; "
                "markov='simple', n_bins=6: vm1"
            )


class TestRestackValidation:
    def test_rejects_out_of_range(self):
        predictors, _ = _make_fleet(n_vms=2)
        scorer = FleetScorer(predictors)
        chains = scorer._stacked
        with pytest.raises(ValueError, match="outside"):
            chains.restack(
                len(chains._models), predictors["vm0"].value_models
            )

    def test_rejects_untrained_models(self):
        from repro.core.markov import TwoDependentMarkovModel

        predictors, _ = _make_fleet(n_vms=2)
        scorer = FleetScorer(predictors)
        n_states = scorer.n_states
        untrained = [TwoDependentMarkovModel(n_states)]
        with pytest.raises(ValueError, match="trained"):
            scorer._stacked.restack(0, untrained)

    def test_rejects_state_count_mismatch(self):
        predictors, _ = _make_fleet(n_vms=2)
        scorer = FleetScorer(predictors)
        # A fleet trained with a different bin count has a different
        # chain state space.
        small = AnomalyPredictor(
            [f"m{i}" for i in range(N_ATTRS)], n_bins=4, markov="2dep"
        )
        rng = np.random.default_rng(5)
        values = np.cumsum(rng.normal(size=(200, N_ATTRS)), axis=0)
        labels = (rng.random(200) < 0.3).astype(int)
        small.train(values, labels)
        with pytest.raises(ValueError, match="n_states"):
            scorer._stacked.restack(0, small.value_models)


class TestServeImportCompat:
    def test_service_reexports_core_scorer(self):
        from repro.serve import service

        assert service.FleetScorer is FleetScorer
