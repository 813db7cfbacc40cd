"""Tests for the naive Bayes classifier baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arrays import pack_array, unpack_array
from repro.core.bayes import (
    NaiveBayesClassifier,
    NotTrainedError,
    ordinal_smooth,
    select_attributes,
)
from repro.core.tan import TANClassifier


def labelled_data(n=200, n_bins=8, seed=0):
    """Attribute 0 carries the class signal; attribute 1-2 are noise."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.3).astype(int)
    X = rng.integers(0, n_bins, (n, 3))
    X[:, 0] = np.where(y == 1, rng.integers(6, n_bins, n), rng.integers(0, 3, n))
    return X, y


class TestValidation:
    def test_untrained_rejected(self):
        with pytest.raises(NotTrainedError):
            NaiveBayesClassifier(8).classify([0])

    def test_bad_labels_rejected(self):
        clf = NaiveBayesClassifier(8)
        with pytest.raises(ValueError):
            clf.fit([[0], [1]], [0, 2])

    def test_out_of_range_bins_rejected(self):
        clf = NaiveBayesClassifier(4)
        with pytest.raises(ValueError):
            clf.fit([[0], [9]], [0, 1])

    def test_wrong_sample_width_rejected(self):
        X, y = labelled_data()
        clf = NaiveBayesClassifier(8).fit(X, y)
        with pytest.raises(ValueError):
            clf.classify([0, 1])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            NaiveBayesClassifier(0)
        with pytest.raises(ValueError):
            NaiveBayesClassifier(8, smoothing=0.0)
        with pytest.raises(ValueError):
            NaiveBayesClassifier(8, class_prior="weird")


class TestClassification:
    def test_learns_separable_signal(self):
        X, y = labelled_data()
        clf = NaiveBayesClassifier(8).fit(X, y)
        assert clf.classify([7, 3, 3])
        assert not clf.classify([1, 3, 3])

    def test_probability_monotone_with_odds(self):
        X, y = labelled_data()
        clf = NaiveBayesClassifier(8).fit(X, y)
        assert clf.predict_proba([7, 3, 3]) > 0.5
        assert clf.predict_proba([1, 3, 3]) < 0.5

    def test_log_odds_is_sum_of_strengths_plus_prior(self):
        X, y = labelled_data()
        clf = NaiveBayesClassifier(8, class_prior="balanced").fit(X, y)
        x = np.array([7, 2, 5])
        assert clf.log_odds(x) == pytest.approx(
            sum(clf.attribute_strengths(x))
        )

    def test_empirical_prior_shifts_decision(self):
        X, y = labelled_data()
        balanced = NaiveBayesClassifier(8, class_prior="balanced").fit(X, y)
        empirical = NaiveBayesClassifier(8, class_prior="empirical").fit(X, y)
        x = np.array([5, 3, 3])  # borderline
        assert empirical.log_odds(x) < balanced.log_odds(x)

    def test_capped_prior_bounded(self):
        X, y = labelled_data()
        y[:] = 0
        y[:5] = 1  # extreme skew
        capped = NaiveBayesClassifier(8, class_prior="capped").fit(X, y)
        balanced = NaiveBayesClassifier(8, class_prior="balanced").fit(X, y)
        x = np.array([3, 3, 3])
        assert balanced.log_odds(x) - capped.log_odds(x) <= 1.0 + 1e-9


class TestAttributeSelection:
    def test_signal_attribute_kept_noise_dropped(self):
        X, y = labelled_data(n=400)
        clf = NaiveBayesClassifier(8).fit(X, y)
        assert clf.attribute_mask[0]
        assert not clf.attribute_mask[1]
        assert not clf.attribute_mask[2]

    def test_masked_attributes_contribute_zero(self):
        X, y = labelled_data(n=400)
        clf = NaiveBayesClassifier(8).fit(X, y)
        strengths = clf.attribute_strengths([7, 0, 7])
        assert strengths[1] == 0.0
        assert strengths[2] == 0.0
        assert strengths[0] != 0.0

    def test_classic_mode_keeps_everything(self):
        X, y = labelled_data(n=400)
        clf = NaiveBayesClassifier(8, robust=False).fit(X, y)
        assert clf.attribute_mask.all()

    def test_select_attributes_requires_both_classes(self):
        strengths = np.ones((10, 3))
        mask = select_attributes(strengths, np.zeros(10, dtype=int))
        assert mask.all()

    def test_small_sample_noise_blocked(self):
        """With very few abnormal samples, a noise attribute whose
        samples coincidentally cluster must not be selected."""
        rng = np.random.default_rng(5)
        n = 100
        y = np.zeros(n, dtype=int)
        y[:4] = 1
        strengths = rng.normal(0, 0.3, (n, 1))
        strengths[:4, 0] = 0.8  # suspicious but tiny-sample
        assert not select_attributes(strengths, y)[0]


class TestSupportMask:
    def test_unseen_bins_carry_no_evidence(self):
        X, y = labelled_data()
        # Bins 6-7 never observed: bin 7 is beyond even the ordinal
        # smoothing's one-bin reach from the last observed bin (5).
        X[:, 0] = np.clip(X[:, 0], 0, 5)
        clf = NaiveBayesClassifier(8).fit(X, y)
        strengths = clf.attribute_strengths([7, 3, 3])
        assert strengths[0] == 0.0

    def test_adjacent_bin_inherits_support(self):
        X, y = labelled_data()
        X[:, 0] = np.clip(X[:, 0], 0, 6)  # bin 7 adjacent to observed 6
        clf = NaiveBayesClassifier(8).fit(X, y)
        strengths = clf.attribute_strengths([7, 3, 3])
        assert strengths[0] != 0.0


class TestSoftClassification:
    def test_expected_matches_point_on_degenerate_dist(self):
        X, y = labelled_data()
        clf = NaiveBayesClassifier(8).fit(X, y)
        x = np.array([7, 3, 3])
        dists = []
        for j in range(3):
            d = np.zeros(8)
            d[x[j]] = 1.0
            dists.append(d)
        # Clipping makes these differ when |L| > clip, so compare to
        # the clipped point strengths.
        expected = clf.expected_strengths(dists)
        point = np.clip(clf.attribute_strengths(x), -2.5, 2.5)
        np.testing.assert_allclose(expected, point, atol=1e-9)

    def test_wrong_distribution_count_rejected(self):
        X, y = labelled_data()
        clf = NaiveBayesClassifier(8).fit(X, y)
        with pytest.raises(ValueError):
            clf.expected_strengths([np.ones(8) / 8])

    def test_wrong_distribution_width_rejected(self):
        X, y = labelled_data()
        clf = NaiveBayesClassifier(8).fit(X, y)
        with pytest.raises(ValueError):
            clf.expected_strengths([np.ones(4) / 4] * 3)


class TestOrdinalSmooth:
    def test_preserves_axis_shape(self):
        counts = np.zeros((2, 5))
        counts[0, 2] = 10.0
        out = ordinal_smooth(counts, axis=1)
        assert out.shape == counts.shape

    def test_spreads_to_neighbours_only(self):
        counts = np.zeros(5)
        counts[2] = 10.0
        out = ordinal_smooth(counts)
        assert out[1] > 0 and out[3] > 0
        assert out[0] == 0 and out[4] == 0
        assert out[2] == 10.0

    def test_total_mass_grows_by_kernel(self):
        counts = np.array([0.0, 10.0, 0.0])
        out = ordinal_smooth(counts)
        assert out.sum() == pytest.approx(10.0 * 1.7)


class TestProperties:
    @settings(max_examples=25)
    @given(st.integers(min_value=10, max_value=80), st.integers(0, 10_000))
    def test_probability_in_unit_interval(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 6, (n, 4))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        clf = NaiveBayesClassifier(6).fit(X, y)
        for row in X[:10]:
            assert 0.0 <= clf.predict_proba(row) <= 1.0


def make_labeled(seed, n, n_attrs=4, n_bins=6):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, n_bins, size=(n, n_attrs))
    y = (rng.random(n) < 0.3).astype(int)
    y[:2] = [0, 1]
    return X, y


class TestCorruptSnapshotRejection:
    def test_naive_bayes_rejects_bad_log_probabilities(self):
        X, y = make_labeled(29, 120)
        blob = NaiveBayesClassifier(n_bins=6).fit(X, y).to_dict()
        log_prior = unpack_array(blob["log_prior"], "<f8")
        log_prior[0] = 0.5
        bad = {**blob, "log_prior": pack_array(log_prior)}
        with pytest.raises(ValueError, match="positive log"):
            NaiveBayesClassifier.from_dict(bad)
        log_cpt = unpack_array(blob["log_cpt"], "<f8")
        log_cpt[0, 0, 0] = np.nan
        bad = {**blob, "log_cpt": pack_array(log_cpt)}
        with pytest.raises(ValueError, match="non-finite"):
            NaiveBayesClassifier.from_dict(bad)


class TestNaiveIsRootOnlyTAN:
    """Naive Bayes is the TAN with no tree edges: given the same
    tables, a naive-Bayes classifier and a TAN whose every attribute is
    a root score bitwise alike."""

    N_ATTRS, N_BINS = 13, 8

    def pair(self, seed, robust):
        a, b = self.N_ATTRS, self.N_BINS
        rng = np.random.default_rng(seed)
        counts = rng.random((a, 2, b)) + 0.05
        log_cpt = np.log(counts / counts.sum(axis=2, keepdims=True))
        support = rng.random((a, b)) < 0.75
        prior = rng.random(2) + 0.1
        common = {
            "n_bins": b, "smoothing": 0.15, "class_prior": "balanced",
            "robust": robust, "n_attributes": a,
            "log_prior": pack_array(np.log(prior / prior.sum())),
            "attribute_mask": pack_array(rng.random(a) < 0.6),
        }
        naive = NaiveBayesClassifier.from_dict({
            "kind": "naive", **common,
            "log_cpt": pack_array(log_cpt), "support": pack_array(support),
        })
        tan = TANClassifier.from_dict({
            "kind": "tan", **common,
            "parents": pack_array(np.full(a, -1, dtype=np.int64)),
            "log_cpt": [pack_array(table) for table in log_cpt],
            "support": [pack_array(row) for row in support],
        })
        return naive, tan, rng

    @pytest.mark.parametrize("robust", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scores_bitwise_alike(self, seed, robust):
        naive, tan, rng = self.pair(seed, robust)
        a, b = self.N_ATTRS, self.N_BINS
        # Out-of-range bins exercise the clip as well.
        X = rng.integers(-1, b + 1, size=(64, a))
        D = rng.dirichlet(np.ones(b), size=(16, a))
        for method in ("log_odds_batch", "strengths_batch"):
            got, want = getattr(naive, method)(X), getattr(tan, method)(X)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), method
        for method in ("expected_strengths_batch", "expected_log_odds_batch"):
            got, want = getattr(naive, method)(D), getattr(tan, method)(D)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), method
        for x in X[:16]:
            assert naive.log_odds(x) == tan.log_odds(x)
            assert naive.attribute_strengths(x) == tan.attribute_strengths(x)
        for dists in D:
            assert (naive.expected_strengths(list(dists))
                    == tan.expected_strengths(list(dists)))
            assert (naive.expected_log_odds(list(dists))
                    == tan.expected_log_odds(list(dists)))
