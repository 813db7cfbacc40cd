"""Tests for the TAN classifier: structure, Eq. (1)/(2), attribution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arrays import pack_array, unpack_array
from repro.core.bayes import NotTrainedError
from repro.core.tan import TANClassifier


def correlated_data(n=400, n_bins=8, seed=0):
    """a0 drives the class; a1 copies a0 (strong dependency); a2 noise."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.3).astype(int)
    a0 = np.where(y == 1, rng.integers(6, n_bins, n), rng.integers(0, 3, n))
    a1 = np.clip(a0 + rng.integers(-1, 2, n), 0, n_bins - 1)
    a2 = rng.integers(0, n_bins, n)
    return np.column_stack([a0, a1, a2]), y


class TestStructureLearning:
    def test_tree_has_single_root(self):
        X, y = correlated_data()
        clf = TANClassifier(8).fit(X, y)
        assert (clf.parents == -1).sum() == 1

    def test_tree_is_acyclic(self):
        X, y = correlated_data()
        clf = TANClassifier(8).fit(X, y)
        for i in range(len(clf.parents)):
            seen = set()
            node = i
            while clf.parents[node] >= 0:
                assert node not in seen
                seen.add(node)
                node = clf.parents[node]

    def test_correlated_attributes_linked(self):
        X, y = correlated_data()
        clf = TANClassifier(8).fit(X, y)
        # a0 and a1 are strongly dependent: one must parent the other.
        assert clf.parents[1] == 0 or clf.parents[0] == 1

    def test_single_attribute_has_no_parent(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 4, (50, 1))
        y = (X[:, 0] > 1).astype(int)
        clf = TANClassifier(4).fit(X, y)
        assert clf.parents[0] == -1


class TestClassification:
    def test_learns_separable_signal(self):
        X, y = correlated_data()
        clf = TANClassifier(8).fit(X, y)
        assert clf.classify([7, 7, 3])
        assert not clf.classify([1, 1, 3])

    def test_untrained_rejected(self):
        with pytest.raises(NotTrainedError):
            TANClassifier(8).classify([0])

    def test_eq1_decision_is_sign_of_log_odds(self):
        X, y = correlated_data()
        clf = TANClassifier(8).fit(X, y)
        for row in X[:20]:
            assert clf.classify(row) == (clf.log_odds(row) > 0.0)

    def test_log_odds_decomposes_into_strengths(self):
        X, y = correlated_data()
        clf = TANClassifier(8, class_prior="balanced").fit(X, y)
        row = X[0]
        assert clf.log_odds(row) == pytest.approx(
            sum(clf.attribute_strengths(row))
        )


class TestAttribution:
    def test_signal_attribute_ranked_first(self):
        """Fig. 3: the fault-related metric has the largest L_i."""
        X, y = correlated_data()
        clf = TANClassifier(8).fit(X, y)
        ranked = clf.rank_attributes([7, 7, 3], names=["sig", "echo", "noise"])
        assert ranked[0][0] in ("sig", "echo")
        assert ranked[-1][0] == "noise"

    def test_rank_names_length_checked(self):
        X, y = correlated_data()
        clf = TANClassifier(8).fit(X, y)
        with pytest.raises(ValueError):
            clf.rank_attributes([7, 7, 3], names=["just-one"])

    def test_strengths_zero_for_masked(self):
        X, y = correlated_data()
        clf = TANClassifier(8).fit(X, y)
        assert not clf.attribute_mask[2]
        assert clf.attribute_strengths([7, 7, 3])[2] == 0.0


class TestHierarchicalBackoff:
    def test_sparse_parent_cells_fall_back_to_marginal(self):
        """A child attribute's evidence must survive conditioning on a
        parent value rarely seen in the abnormal class."""
        rng = np.random.default_rng(2)
        n = 120
        y = np.zeros(n, dtype=int)
        y[:6] = 1
        # a0: strong abnormal signal (bin 7 iff abnormal).
        a0 = np.where(y == 1, 7, rng.integers(0, 3, n))
        # a1: perfectly determined by a0 (candidate parent/child).
        a1 = a0.copy()
        X = np.column_stack([a0, a1])
        clf = TANClassifier(8).fit(X, y)
        # Joint evidence for the abnormal signature must be clearly
        # positive despite only 6 abnormal samples and the dependency.
        assert clf.log_odds([7, 7]) > 1.0


class TestSoftClassification:
    def test_expected_log_odds_matches_under_point_dists(self):
        X, y = correlated_data()
        clf = TANClassifier(8, class_prior="balanced").fit(X, y)
        row = X[0]
        dists = []
        for j in range(3):
            d = np.zeros(8)
            d[row[j]] = 1.0
            dists.append(d)
        soft = clf.expected_log_odds(dists)
        hard = sum(np.clip(clf.attribute_strengths(row), -2.5, 2.5))
        assert soft == pytest.approx(hard, abs=1e-9)

    def test_uniform_dists_give_finite_score(self):
        X, y = correlated_data()
        clf = TANClassifier(8).fit(X, y)
        score = clf.expected_log_odds([np.ones(8) / 8] * 3)
        assert np.isfinite(score)

    def test_distribution_validation(self):
        X, y = correlated_data()
        clf = TANClassifier(8).fit(X, y)
        with pytest.raises(ValueError):
            clf.expected_strengths([np.ones(8) / 8] * 2)


class TestRobustVsClassic:
    def test_classic_mode_has_no_masking(self):
        X, y = correlated_data()
        clf = TANClassifier(8, robust=False).fit(X, y)
        assert clf.attribute_mask.all()

    def test_drifted_sample_scores_lower_in_robust_mode(self):
        """A sample entirely outside the training range must gather no
        abnormal evidence in robust mode (open-world support)."""
        rng = np.random.default_rng(3)
        n = 150
        y = np.zeros(n, dtype=int)
        y[:10] = 1
        X = np.column_stack([
            np.where(y == 1, 4, rng.integers(0, 3, n)),
            rng.integers(0, 3, n),
            rng.integers(0, 3, n),
        ])
        robust = TANClassifier(8, robust=True).fit(X, y)
        drifted = [7, 7, 7]
        strengths = robust.attribute_strengths(drifted)
        assert all(s == 0.0 for s in strengths)


class TestProperties:
    @settings(max_examples=20)
    @given(st.integers(min_value=12, max_value=60), st.integers(0, 10_000))
    def test_probability_in_unit_interval(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, (n, 4))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        clf = TANClassifier(5).fit(X, y)
        for row in X[:10]:
            assert 0.0 <= clf.predict_proba(row) <= 1.0

    @settings(max_examples=20)
    @given(st.integers(min_value=12, max_value=60), st.integers(0, 10_000))
    def test_strengths_finite(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, (n, 3))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        clf = TANClassifier(5).fit(X, y)
        for row in X[:10]:
            assert np.isfinite(clf.attribute_strengths(row)).all()


def make_labeled(seed, n, n_attrs=4, n_bins=6):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, n_bins, size=(n, n_attrs))
    y = (rng.random(n) < 0.3).astype(int)
    y[:2] = [0, 1]
    return X, y


class TestCorruptSnapshotRejection:
    def test_tan_rejects_bad_snapshot_values(self):
        X, y = make_labeled(31, 120)
        blob = TANClassifier(n_bins=6).fit(X, y).to_dict()
        log_prior = unpack_array(blob["log_prior"], "<f8")
        log_prior[0] = np.inf
        bad = {**blob, "log_prior": pack_array(log_prior)}
        with pytest.raises(ValueError, match="corrupt TAN snapshot"):
            TANClassifier.from_dict(bad)
        parents = unpack_array(blob["parents"], "<i8")
        parents[0] = 9
        bad = {**blob, "parents": pack_array(parents)}
        with pytest.raises(ValueError):
            TANClassifier.from_dict(bad)
        table = unpack_array(blob["log_cpt"][0], "<f8")
        table.flat[0] = 1.0
        bad = {**blob, "log_cpt": [pack_array(table), *blob["log_cpt"][1:]]}
        with pytest.raises(ValueError, match="positive log"):
            TANClassifier.from_dict(bad)
