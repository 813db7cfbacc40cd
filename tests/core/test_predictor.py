"""Tests for the combined anomaly predictor (Markov + classifier)."""

import json

import numpy as np
import pytest

from repro.core.markov import TwoDependentMarkovModel
from repro.core.predictor import (
    AnomalyPredictor,
    BatchedAttributeChains,
    monolithic_attributes,
)

ATTRS = ("cpu", "mem", "net")


def leaky_trace(n=240, onset=160, seed=0):
    """cpu flat; mem climbs after onset; net noisy.  Labels flag the
    region where mem is high."""
    rng = np.random.default_rng(seed)
    cpu = rng.normal(50.0, 2.0, n)
    mem = np.full(n, 300.0) + rng.normal(0, 5.0, n)
    mem[onset:] += np.linspace(0, 400.0, n - onset)
    net = rng.normal(100.0, 10.0, n)
    values = np.column_stack([cpu, mem, net])
    labels = (mem > 500.0).astype(int)
    return values, labels


class TestTraining:
    def test_requires_matching_shapes(self):
        pred = AnomalyPredictor(ATTRS)
        with pytest.raises(ValueError):
            pred.train(np.zeros((10, 2)), np.zeros(10, dtype=int))
        with pytest.raises(ValueError):
            pred.train(np.zeros((10, 3)), np.zeros(7, dtype=int))

    def test_trained_flag_and_invalidate(self):
        values, labels = leaky_trace()
        pred = AnomalyPredictor(ATTRS)
        assert not pred.trained
        pred.train(values, labels)
        assert pred.trained
        pred.invalidate()
        assert not pred.trained
        with pytest.raises(RuntimeError):
            pred.classify_current(values[0])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AnomalyPredictor([])
        with pytest.raises(ValueError):
            AnomalyPredictor(ATTRS, markov="cubic")
        with pytest.raises(ValueError):
            AnomalyPredictor(ATTRS, classifier="svm")
        with pytest.raises(ValueError):
            AnomalyPredictor(ATTRS, prediction_mode="fuzzy")

    def test_segment_ids_split_markov_training(self):
        """Two disjoint segments with a huge value gap between them:
        the gap transition must not be learned."""
        low = np.column_stack([np.full(50, 10.0)] * 3)
        high = np.column_stack([np.full(50, 90.0)] * 3)
        values = np.vstack([low, high])
        labels = np.array([0] * 50 + [1] * 50)
        seg = np.array([0] * 50 + [1] * 50)
        pred = AnomalyPredictor(ATTRS, n_bins=4)
        pred.train(values, labels, segment_ids=seg)
        # From the low state, prediction must stay low (the jump
        # low->high happened only across the segment boundary).
        dist = pred.value_models[0].predict_distribution([0, 0], steps=1)
        assert dist[0] > 0.9


class TestPrediction:
    def test_classify_current_detects_anomalous_state(self):
        values, labels = leaky_trace()
        pred = AnomalyPredictor(ATTRS)
        pred.train(values, labels)
        abnormal_row = values[labels == 1][-1]
        normal_row = values[labels == 0][10]
        assert pred.classify_current(abnormal_row).abnormal
        assert not pred.classify_current(normal_row).abnormal

    def test_lookahead_alerts_before_current_state_does(self):
        """On a rising trend, the look-ahead prediction must turn
        abnormal no later than current-state classification."""
        values, labels = leaky_trace()
        pred = AnomalyPredictor(ATTRS)
        pred.train(values, labels)
        first_pred = None
        first_now = None
        for i in range(2, len(values) - 6):
            if first_pred is None and pred.predict(values[i - 1:i + 1], 6).abnormal:
                first_pred = i
            if first_now is None and pred.classify_current(values[i]).abnormal:
                first_now = i
            if first_pred is not None and first_now is not None:
                break
        assert first_pred is not None and first_now is not None
        assert first_pred <= first_now

    def test_history_requirements(self):
        values, labels = leaky_trace()
        two = AnomalyPredictor(ATTRS, markov="2dep")
        two.train(values, labels)
        assert two.history_needed == 2
        with pytest.raises(ValueError):
            two.predict(values[:1], steps=2)
        simple = AnomalyPredictor(ATTRS, markov="simple")
        simple.train(values, labels)
        assert simple.history_needed == 1
        simple.predict(values[:1], steps=2)  # enough history

    def test_result_carries_attribution(self):
        values, labels = leaky_trace()
        pred = AnomalyPredictor(ATTRS)
        pred.train(values, labels)
        result = pred.classify_current(values[labels == 1][-1])
        ranked = result.ranked_attributes()
        assert ranked[0][0] == "mem"
        assert result.attributes == ATTRS
        assert len(result.strengths) == 3

    def test_score_sign_matches_abnormal_flag(self):
        values, labels = leaky_trace()
        pred = AnomalyPredictor(ATTRS)
        pred.train(values, labels)
        for i in range(2, 40):
            r = pred.predict(values[i - 1:i + 1], steps=3)
            assert r.abnormal == (r.score > 0.0)

    def test_soft_and_hard_modes_both_work(self):
        values, labels = leaky_trace()
        for mode in ("soft", "hard"):
            pred = AnomalyPredictor(ATTRS, prediction_mode=mode)
            pred.train(values, labels)
            r = pred.predict(values[-3:-1], steps=3)
            assert r.abnormal  # deep in the anomaly

    def test_steps_recorded(self):
        values, labels = leaky_trace()
        pred = AnomalyPredictor(ATTRS)
        pred.train(values, labels)
        assert pred.predict(values[:2], steps=4).steps == 4
        assert pred.classify_current(values[0]).steps == 0


class TestMonolithicHelpers:
    def test_attribute_naming(self):
        names = monolithic_attributes(["vm1", "vm2"], ["cpu", "mem"])
        assert names == ["vm1:cpu", "vm1:mem", "vm2:cpu", "vm2:mem"]

    def test_concat_histories(self):
        a = np.ones((5, 2))
        b = np.zeros((5, 3))
        big = AnomalyPredictor.concat_histories([a, b])
        assert big.shape == (5, 5)

    def test_concat_mismatched_rows_rejected(self):
        with pytest.raises(ValueError):
            AnomalyPredictor.concat_histories([np.ones((5, 2)), np.ones((4, 2))])

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            AnomalyPredictor.concat_histories([])


def random_window(seed, n=260, n_attrs=3):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=(n, n_attrs)), axis=0)
    labels = (rng.random(n) < 0.3).astype(int)
    labels[:2] = [0, 1]
    return values, labels


def assert_predictors_identical(a, b, values):
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )
    for i in range(2, len(values), 37):
        recent = values[i - 2:i]
        assert a.predict(recent, steps=4) == b.predict(recent, steps=4)
        assert a.classify_current(values[i]) == b.classify_current(values[i])


KINDS = pytest.mark.parametrize(
    "markov,classifier",
    [("2dep", "tan"), ("2dep", "naive"), ("simple", "tan"), ("simple", "naive")],
)


class TestRetrain:
    """``train`` is the only trainer, so every retrain must build the
    model from the new window alone."""

    @KINDS
    def test_retrain_is_a_fresh_train(self, markov, classifier):
        old_values, old_labels = random_window(71, n=400)
        values, labels = random_window(73)
        ids = np.zeros(len(values), dtype=int)
        ids[150:] = 1
        retrained = AnomalyPredictor(
            ["a", "b", "c"], n_bins=6, markov=markov, classifier=classifier
        ).train(old_values * 10.0, old_labels)
        retrained.train(values, labels, segment_ids=ids)
        fresh = AnomalyPredictor(
            ["a", "b", "c"], n_bins=6, markov=markov, classifier=classifier
        ).train(values, labels, segment_ids=ids)
        assert_predictors_identical(retrained, fresh, values)

    @KINDS
    def test_restored_predictor_retrains_like_a_fresh_one(self, markov, classifier):
        old_values, old_labels = random_window(79)
        restored = AnomalyPredictor.from_dict(
            AnomalyPredictor(
                ["a", "b", "c"], n_bins=6, markov=markov, classifier=classifier
            ).train(old_values, old_labels).to_dict()
        )
        values, labels = random_window(83)
        fresh = AnomalyPredictor(
            ["a", "b", "c"], n_bins=6, markov=markov, classifier=classifier
        ).train(values, labels)
        assert_predictors_identical(restored.train(values, labels), fresh, values)

    @KINDS
    def test_trained_model_does_not_alias_the_window(self, markov, classifier):
        values, labels = random_window(89)
        original = values.copy()
        predictor = AnomalyPredictor(
            ["a", "b", "c"], n_bins=6, markov=markov, classifier=classifier
        ).train(values, labels)
        before = json.dumps(predictor.to_dict(), sort_keys=True)
        # The caller's ring buffer is overwritten in place on the next
        # monitoring rounds; the model must not see it.
        values[:] = 0.0
        labels[:] = 1
        assert json.dumps(predictor.to_dict(), sort_keys=True) == before
        reference = AnomalyPredictor(
            ["a", "b", "c"], n_bins=6, markov=markov, classifier=classifier
        ).train(original, random_window(89)[1])
        assert_predictors_identical(predictor, reference, original)


class TestFragmentedWindow:
    def test_train_raises_when_no_segment_yields_transitions(self):
        rng = np.random.default_rng(61)
        values = np.cumsum(rng.normal(size=(40, 3)), axis=0)
        labels = (rng.random(40) < 0.3).astype(int)
        labels[:2] = [0, 1]
        ids = np.arange(40)  # every segment has exactly one sample
        predictor = AnomalyPredictor(["a", "b", "c"], n_bins=6)
        with pytest.raises(ValueError, match="no state transitions"):
            predictor.train(values, labels, segment_ids=ids)
        assert not predictor.trained


class TestFreshSlice:
    def test_fresh_slice_localizes_staleness(self):
        chains = [
            TwoDependentMarkovModel(4).fit([0, 1, 2, 3, 2, 1, 0])
            for _ in range(4)
        ]
        batched = BatchedAttributeChains(chains)
        assert batched.fresh()
        chains[2].update([1, 2, 3])
        assert not batched.fresh()
        assert batched.fresh_slice(0, 2)
        assert not batched.fresh_slice(2, 4)
        batched.restack(2, chains[2:])
        assert batched.fresh()
