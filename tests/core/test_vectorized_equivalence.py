"""Equivalence of the vectorized prediction engine vs preserved references.

The perf rework (cached transition operators, tensorized look-ahead,
batch TAN scoring — see ``docs/performance.md``) must not change any
result.  Two tiers of guarantees are asserted here:

* **bitwise** between the new code paths themselves: cached vs
  freshly-built matrices, ``predict_distributions`` rows vs repeated
  single-horizon calls, and a stacked operator vs each chain on its
  own;
* **allclose + identical discrete decisions** against the
  pre-vectorization loops kept in ``oracles.py``: those used
  different BLAS kernels / summation orders, so the last float ulp can
  differ, but predicted bins, alert booleans, and classifications must
  match exactly on seeded data.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bayes import NaiveBayesClassifier, select_attributes
from repro.core.markov import (
    SimpleMarkovModel,
    TwoDependentMarkovModel,
    expected_bins,
)
from repro.core.predictor import AnomalyPredictor, BatchedAttributeChains
from repro.core.tan import TANClassifier
from repro.core.unsupervised import OutlierDetector, rolling_outlier_flags

from .oracles import (
    oracle_cmi_per_pair,
    oracle_expected_log_odds,
    oracle_expected_strengths,
    oracle_from_score,
    oracle_log_odds,
    oracle_predict,
    oracle_propagate,
    oracle_strengths,
    oracle_tan_raw_strengths,
)
from .soft_scoring import score_distributions

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
        reference = oracle_propagate(model, list(history), steps)
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
                ref = oracle_propagate(model, history, steps)
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
        stacked = batched.predict_subset(histories, np.arange(n_attrs), steps)
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
                batch[k], oracle_tan_raw_strengths(tan, row)
            )

    def test_attribute_mask_matches_reference_selection(
        self, trained_classifiers
    ):
        tan, _, X, y, _ = trained_classifiers
        reference_strengths = np.stack(
            [oracle_tan_raw_strengths(tan, row) for row in X]
        )
        np.testing.assert_array_equal(
            tan.attribute_mask, select_attributes(reference_strengths, y)
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
                    clf.log_odds(x), oracle_log_odds(clf, x),
                    rtol=1e-10, atol=1e-12,
                )
                np.testing.assert_allclose(
                    clf.attribute_strengths(x), oracle_strengths(clf, x),
                    rtol=1e-10, atol=1e-12,
                )
                assert clf.classify(x) == (oracle_log_odds(clf, x) > 0.0)

    def test_expected_scoring_matches_reference(self, trained_classifiers):
        tan, naive, _, _, b = trained_classifiers
        rng = np.random.default_rng(31)
        for clf in (tan, naive):
            D = rng.dirichlet(np.ones(b), size=(20, 9))
            scores, strengths = score_distributions(clf, D)
            for k in range(D.shape[0]):
                np.testing.assert_allclose(
                    strengths[k], oracle_expected_strengths(clf, list(D[k])),
                    rtol=1e-10, atol=1e-12,
                )
                np.testing.assert_allclose(
                    scores[k], oracle_expected_log_odds(clf, list(D[k])),
                    rtol=1e-10, atol=1e-12,
                )


# ----------------------------------------------------------------------
# Predictor layer
# ----------------------------------------------------------------------
def _per_chain_predict(predictor, recent, steps):
    """Oracle for ``predict``: every chain propagated on its own with
    :meth:`MarkovModel.predict_distributions`, then the classifier's
    point API (hard) or the soft row scoring."""
    binned = predictor.discretizer.transform(np.asarray(recent, dtype=float))
    final = np.stack([
        model.predict_distributions(binned[:, j].tolist(), steps)[-1]
        for j, model in enumerate(predictor.value_models)
    ])
    bins = tuple(int(b) for b in expected_bins(final))
    clf = predictor.classifier
    if predictor.prediction_mode == "hard":
        score, strengths = clf.log_odds(bins), clf.attribute_strengths(bins)
    else:
        (score,), (strengths,) = score_distributions(clf, final[None])
    return oracle_from_score(
        score, bins, strengths, predictor.attributes, steps
    )


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
            reference = oracle_predict(predictor, recent, steps)
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
        recent = values[-2:]
        predictor.predict(recent, steps=3)
        scorer = predictor._scorer
        assert scorer.stacked
        # Mutate one chain behind the operator's back; the predictor's
        # scorer must detect staleness, re-stack and answer from the
        # live chains.
        predictor.value_models[0].update([0, 1, 2, 3, 2, 1])
        assert not scorer.stacked
        assert predictor.predict(recent, steps=3) == _per_chain_predict(
            predictor, recent, steps=3
        )
        assert predictor._scorer is scorer and scorer.stacked


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
