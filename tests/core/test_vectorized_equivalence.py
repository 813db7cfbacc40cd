"""Equivalence of the vectorized prediction engine vs preserved references.

The perf rework (cached transition operators, tensorized look-ahead,
batch TAN scoring — see ``docs/performance.md``) must not change any
result.  Two tiers of guarantees are asserted here:

* **bitwise** between the new code paths themselves: cached vs
  freshly-built matrices, ``predict_distributions`` rows vs repeated
  single-horizon calls, stacked-operator vs scalar-fallback
  propagation, and batch vs single-sample classifier scoring (the
  scalar methods route through the batch ones);
* **allclose + identical discrete decisions** against the preserved
  pre-vectorization ``*_reference`` implementations: those used
  different BLAS kernels / summation orders, so the last float ulp can
  differ, but predicted bins, alert booleans, and classifications must
  match exactly on seeded data.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bayes import NaiveBayesClassifier, select_attributes
from repro.core.markov import (
    SimpleMarkovModel,
    TwoDependentMarkovModel,
    expected_bins,
)
from repro.core.predictor import AnomalyPredictor, BatchedAttributeChains
from repro.core.tan import TANClassifier
from repro.core.unsupervised import OutlierDetector, rolling_outlier_flags

from .oracles import oracle_cmi_per_pair

N_STATES = 6

sequences = st.lists(
    st.integers(0, N_STATES - 1), min_size=4, max_size=50
)


# ----------------------------------------------------------------------
# Markov layer
# ----------------------------------------------------------------------
class TestMarkovEquivalence:
    @pytest.mark.parametrize("cls", [SimpleMarkovModel, TwoDependentMarkovModel])
    @given(seq=sequences)
    @settings(max_examples=40, deadline=None)
    def test_cached_matrix_matches_reference(self, cls, seq):
        model = cls(N_STATES).fit(seq)
        np.testing.assert_array_equal(
            model.transition_matrix(), model._build_transition_matrix()
        )
        # The cache is reused (same object) until the counts change.
        assert model.transition_matrix() is model.transition_matrix()

    @pytest.mark.parametrize("cls", [SimpleMarkovModel, TwoDependentMarkovModel])
    @given(seq=sequences, extra=sequences)
    @settings(max_examples=25, deadline=None)
    def test_cache_invalidated_by_update(self, cls, seq, extra):
        model = cls(N_STATES).fit(seq)
        before = model.transition_matrix()
        version = model._version
        model.update(extra)
        after = model.transition_matrix()
        np.testing.assert_array_equal(
            after, model._build_transition_matrix()
        )
        if len(extra) > model.history_needed:  # counts actually changed
            assert model._version > version
            assert after is not before
        # An equivalent fresh model agrees bitwise.
        fresh = cls(N_STATES).fit(seq).update(extra)
        np.testing.assert_array_equal(after, fresh.transition_matrix())

    @pytest.mark.parametrize("cls", [SimpleMarkovModel, TwoDependentMarkovModel])
    @given(seq=sequences, steps=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_all_horizons_match_single_horizon_calls(self, cls, seq, steps):
        model = cls(N_STATES).fit(seq)
        history = seq[-2:]
        stacked = model.predict_distributions(history, steps)
        assert stacked.shape == (steps, N_STATES)
        for k in range(steps):
            np.testing.assert_array_equal(
                stacked[k], model.predict_distribution(history, k + 1)
            )

    @pytest.mark.parametrize("cls", [SimpleMarkovModel, TwoDependentMarkovModel])
    @given(seq=sequences, steps=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_propagation_matches_reference(self, cls, seq, steps):
        model = cls(N_STATES).fit(seq)
        history = seq[-2:]
        vectorized = model.predict_distribution(history, steps)
        reference = model._predict_reference(list(history), steps)
        np.testing.assert_allclose(
            vectorized, reference, rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize("cls", [SimpleMarkovModel, TwoDependentMarkovModel])
    def test_predicted_bins_match_reference_on_seeded_chains(self, cls):
        rng = np.random.default_rng(3)
        for _ in range(20):
            seq = rng.integers(0, N_STATES, size=rng.integers(6, 80))
            model = cls(N_STATES).fit(seq)
            history = seq[-2:].tolist()
            for steps in (1, 3, 8):
                vec = model.predict_distribution(history, steps)
                ref = model._predict_reference(history, steps)
                assert int(expected_bins(vec)) == int(expected_bins(ref))


# ----------------------------------------------------------------------
# Batched multi-attribute propagation
# ----------------------------------------------------------------------
class TestBatchedChains:
    @pytest.mark.parametrize("cls", [SimpleMarkovModel, TwoDependentMarkovModel])
    def test_stacked_operator_matches_per_model(self, cls):
        rng = np.random.default_rng(7)
        n_attrs, steps = 5, 8
        models = [
            cls(N_STATES).fit(rng.integers(0, N_STATES, size=60))
            for _ in range(n_attrs)
        ]
        batched = BatchedAttributeChains(models)
        histories = rng.integers(0, N_STATES, size=(3, n_attrs))
        stacked = batched.predict_all(histories, steps)
        assert stacked.shape == (steps, n_attrs, N_STATES)
        for j, model in enumerate(models):
            expected = model.predict_distributions(
                histories[:, j].tolist(), steps
            )
            np.testing.assert_array_equal(stacked[:, j, :], expected)

    def test_freshness_tracks_model_updates(self):
        rng = np.random.default_rng(9)
        models = [
            TwoDependentMarkovModel(N_STATES).fit(
                rng.integers(0, N_STATES, size=40)
            )
            for _ in range(3)
        ]
        batched = BatchedAttributeChains(models)
        assert batched.fresh()
        models[1].update(rng.integers(0, N_STATES, size=10))
        assert not batched.fresh()
        rebuilt = BatchedAttributeChains(models)
        assert rebuilt.fresh()

    def test_mixed_variants_rejected(self):
        rng = np.random.default_rng(1)
        a = SimpleMarkovModel(N_STATES).fit(rng.integers(0, N_STATES, 30))
        b = TwoDependentMarkovModel(N_STATES).fit(rng.integers(0, N_STATES, 30))
        with pytest.raises(ValueError):
            BatchedAttributeChains([a, b])


# ----------------------------------------------------------------------
# Classifier layer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained_classifiers():
    rng = np.random.default_rng(17)
    n, a, b = 250, 9, 8
    X = rng.integers(0, b, size=(n, a))
    # Give a few attributes real signal so attribute selection keeps some.
    y = (rng.random(n) < 0.3).astype(int)
    X[y == 1, :3] = np.clip(X[y == 1, :3] + 3, 0, b - 1)
    tan = TANClassifier(n_bins=b).fit(X, y)
    naive = NaiveBayesClassifier(n_bins=b).fit(X, y)
    return tan, naive, X, y, b


class TestClassifierEquivalence:
    def test_vectorized_cmi_matches_reference(self, trained_classifiers):
        tan, _, X, y, b = trained_classifiers
        np.testing.assert_array_equal(
            tan._conditional_mutual_information(tan._count_joint(X, y)),
            oracle_cmi_per_pair(X, y, b, tan.smoothing),
        )

    def test_raw_strengths_gather_matches_reference_loop(
        self, trained_classifiers
    ):
        tan, _, X, _, _ = trained_classifiers
        batch = tan._raw_strengths_batch(X)
        for k, row in enumerate(X):
            np.testing.assert_array_equal(
                batch[k], tan._raw_strengths_reference(row)
            )

    def test_attribute_mask_matches_reference_selection(
        self, trained_classifiers
    ):
        tan, _, X, y, _ = trained_classifiers
        reference_strengths = np.stack(
            [tan._raw_strengths_reference(row) for row in X]
        )
        np.testing.assert_array_equal(
            tan.attribute_mask, select_attributes(reference_strengths, y)
        )

    @given(data=st.data())
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_batch_scoring_is_bitwise_scalar(self, trained_classifiers, data):
        tan, naive, _, _, b = trained_classifiers
        m = data.draw(st.integers(1, 6))
        X = np.array([
            data.draw(
                st.lists(st.integers(0, b - 1), min_size=9, max_size=9)
            )
            for _ in range(m)
        ])
        for clf in (tan, naive):
            odds = clf.log_odds_batch(X)
            strengths = clf.strengths_batch(X)
            for k, row in enumerate(X):
                assert odds[k] == clf.log_odds(row)
                np.testing.assert_array_equal(
                    strengths[k], np.asarray(clf.attribute_strengths(row))
                )

    def test_scoring_matches_reference_on_seeded_samples(
        self, trained_classifiers
    ):
        tan, naive, _, _, b = trained_classifiers
        rng = np.random.default_rng(23)
        for clf in (tan, naive):
            for _ in range(30):
                x = rng.integers(0, b, size=9)
                np.testing.assert_allclose(
                    clf.log_odds(x), clf.log_odds_reference(x),
                    rtol=1e-10, atol=1e-12,
                )
                np.testing.assert_allclose(
                    clf.attribute_strengths(x), clf.strengths_reference(x),
                    rtol=1e-10, atol=1e-12,
                )
                assert clf.classify(x) == (clf.log_odds_reference(x) > 0.0)

    def test_expected_batch_is_bitwise_scalar(self, trained_classifiers):
        tan, naive, _, _, b = trained_classifiers
        rng = np.random.default_rng(29)
        D = rng.dirichlet(np.ones(b), size=(4, 9))
        for clf in (tan, naive):
            strengths = clf.expected_strengths_batch(D)
            odds = clf.expected_log_odds_batch(D)
            for k in range(D.shape[0]):
                assert odds[k] == clf.expected_log_odds(list(D[k]))
                np.testing.assert_array_equal(
                    strengths[k],
                    np.asarray(clf.expected_strengths(list(D[k]))),
                )

    def test_expected_scoring_matches_reference(self, trained_classifiers):
        tan, naive, _, _, b = trained_classifiers
        rng = np.random.default_rng(31)
        for clf in (tan, naive):
            for _ in range(20):
                D = list(rng.dirichlet(np.ones(b), size=9))
                np.testing.assert_allclose(
                    clf.expected_strengths(D),
                    clf.expected_strengths_reference(D),
                    rtol=1e-10, atol=1e-12,
                )
                np.testing.assert_allclose(
                    clf.expected_log_odds(D),
                    clf.expected_log_odds_reference(D),
                    rtol=1e-10, atol=1e-12,
                )


# ----------------------------------------------------------------------
# Predictor layer
# ----------------------------------------------------------------------
def _per_chain_predict(predictor, recent, steps):
    """Oracle for ``predict``: every chain propagated on its own with
    :meth:`MarkovModel.predict_distributions`, then the classifier."""
    binned = predictor.discretizer.transform(np.asarray(recent, dtype=float))
    final = np.stack([
        model.predict_distributions(binned[:, j].tolist(), steps)[-1]
        for j, model in enumerate(predictor.value_models)
    ])
    bins = tuple(int(b) for b in expected_bins(final))
    if predictor.prediction_mode == "hard":
        return predictor._classify(bins, steps=steps)
    return predictor._classify_soft(list(final), bins, steps)


class TestPredictorEquivalence:
    @pytest.mark.parametrize("markov", ["2dep", "simple"])
    @pytest.mark.parametrize("classifier", ["tan", "naive"])
    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_all_paths_agree(self, markov, classifier, mode):
        rng = np.random.default_rng(42)
        n, a = 250, 5
        values = rng.normal(size=(n, a)).cumsum(axis=0) * 0.1 \
            + rng.normal(size=(n, a))
        labels = (rng.random(n) < 0.25).astype(int)
        predictor = AnomalyPredictor(
            [f"a{i}" for i in range(a)], markov=markov,
            classifier=classifier, prediction_mode=mode,
        )
        predictor.train(values, labels)
        recent = values[-3:]
        for steps in (1, 4, 8):
            vectorized = predictor.predict(recent, steps)
            # Stacked operator vs per-chain propagation: bitwise.
            assert vectorized == _per_chain_predict(predictor, recent, steps)
            # Horizon sweep entry k is the single-horizon prediction.
            horizon = predictor.predict_horizons(recent, steps)[-1]
            assert horizon.score == vectorized.score
            assert horizon.bins == vectorized.bins
            assert horizon.strengths == vectorized.strengths
            assert horizon.steps == steps
            # Pre-vectorization path: same decisions, allclose scores.
            reference = predictor.predict_reference(recent, steps)
            assert vectorized.bins == reference.bins
            assert vectorized.abnormal == reference.abnormal
            np.testing.assert_allclose(
                vectorized.score, reference.score, rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(
                vectorized.strengths, reference.strengths,
                rtol=1e-9, atol=1e-12,
            )

    def test_stale_operator_is_rebuilt(self):
        rng = np.random.default_rng(5)
        n, a = 200, 4
        values = rng.normal(size=(n, a))
        labels = (rng.random(n) < 0.3).astype(int)
        predictor = AnomalyPredictor([f"a{i}" for i in range(a)])
        predictor.train(values, labels)
        assert predictor._batched is not None and predictor._batched.fresh()
        # Mutate one chain behind the operator's back; the predictor
        # must detect staleness, re-stack and answer from the live
        # chains.
        predictor.value_models[0].update([0, 1, 2, 3, 2, 1])
        stale = predictor._batched
        assert not stale.fresh()
        recent = values[-2:]
        assert predictor.predict(recent, steps=3) == _per_chain_predict(
            predictor, recent, steps=3
        )
        assert predictor._batched is not stale
        assert predictor._batched.fresh()


# ----------------------------------------------------------------------
# Rolling unsupervised detection
# ----------------------------------------------------------------------
class TestRollingOutlierEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        n_samples=st.integers(10, 70),
        n_attrs=st.integers(1, 6),
        window=st.integers(4, 20),
        gap=st.integers(0, 6),
        min_attributes=st.integers(1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_step_refit_loop(
        self, seed, n_samples, n_attrs, window, gap, min_attributes
    ):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n_samples, n_attrs)) \
            * rng.uniform(0.1, 10.0, size=n_attrs)
        threshold = float(rng.uniform(0.5, 6.0))
        flags = rolling_outlier_flags(
            values, window, gap,
            threshold=threshold, min_attributes=min_attributes,
        )
        expected = np.zeros(n_samples, dtype=bool)
        for i in range(window + gap, n_samples):
            detector = OutlierDetector(
                threshold=threshold, min_attributes=min_attributes
            ).fit(values[i - window - gap:i - gap])
            expected[i] = detector.classify(values[i])
        np.testing.assert_array_equal(flags, expected)
