"""The refit path against the loops it replaced: bitwise, not close.

``TANClassifier`` / ``NaiveBayesClassifier`` count with one integer
``np.bincount`` and ``FleetScorer`` fills its horizon table lazily;
``oracles.py`` holds the one-hot fit, the per-pair CMI, the counting
loop and the eager k-step operator verbatim.  Nothing here may differ
in a single bit.
"""

import json

import numpy as np
import pytest

from repro.core.bayes import NaiveBayesClassifier
from repro.core.fleet import HORIZON_TABLES, FleetScorer
from repro.core.predictor import AnomalyPredictor
from repro.core.tan import TANClassifier

from .oracles import (
    OneHotTAN,
    oracle_cmi_per_pair,
    oracle_horizon_operator,
    oracle_naive_counts,
)

N_BINS, N_ATTRS = 8, 13


def binned(rows, seed=0, abnormal=0.2):
    """Correlated binned data with bin 7 never visited and column 2
    constant — the two shapes smoothing and support treat specially."""
    rng = np.random.default_rng(seed)
    y = (rng.random(rows) < abnormal).astype(np.intp)
    X = rng.integers(0, N_BINS - 1, size=(rows, N_ATTRS))
    X = np.clip(X + y[:, None] * rng.integers(0, 3, size=X.shape), 0, N_BINS - 2)
    X[:, 1] = np.clip(X[:, 0] + rng.integers(0, 2, size=rows), 0, N_BINS - 2)
    X[:, 2] = 3
    return X.astype(np.intp), y


def snapshot(clf) -> bytes:
    return json.dumps(clf.to_dict(), sort_keys=True).encode()


# ----------------------------------------------------------------------
# Counts and tables
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rows", [300, 600, 2000])
@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize("prior", ["balanced", "empirical", "capped"])
def test_tan_fit_is_bitwise_the_onehot_fit(prior, robust, rows):
    X, y = binned(rows, seed=rows)
    new = TANClassifier(N_BINS, class_prior=prior, robust=robust).fit(X, y)
    old = OneHotTAN(N_BINS, class_prior=prior, robust=robust).fit(X, y)
    assert snapshot(new) == snapshot(old)
    # Probe every bin, the unvisited one included.
    probe = np.random.default_rng(1).integers(0, N_BINS, size=(256, N_ATTRS))
    for method in ("log_odds_batch", "strengths_batch"):
        assert (
            getattr(new, method)(probe).tobytes()
            == getattr(old, method)(probe).tobytes()
        )
    for name in ("_diff_hard", "_diff_soft", "_root_diff_soft"):
        got, want = getattr(new, name), getattr(old, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    assert (
        new._conditional_mutual_information(new._count_joint(X, y)).tobytes()
        == oracle_cmi_per_pair(X, y, N_BINS, new.smoothing).tobytes()
    )


def test_tan_fit_with_one_class_only():
    X, _ = binned(300)
    y = np.zeros(300, dtype=np.intp)
    assert snapshot(TANClassifier(N_BINS).fit(X, y)) == snapshot(
        OneHotTAN(N_BINS).fit(X, y)
    )


@pytest.mark.parametrize("abnormal", [0.2, 0.0])
def test_naive_counts_are_the_loop_counts(abnormal):
    X, y = binned(600, seed=9, abnormal=abnormal)
    clf = NaiveBayesClassifier(N_BINS).fit(X, y)
    raw, classes = oracle_naive_counts(X, y, N_BINS)
    for got, want in zip(clf._count(X, y), (raw, classes)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# A refit keeps nothing of the model it replaces
# ----------------------------------------------------------------------
def assert_classifiers_identical(got, want):
    assert snapshot(got) == snapshot(want)
    for name in ("_diff_hard", "_diff_soft"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    probe = np.random.default_rng(2).integers(0, N_BINS, size=(128, N_ATTRS))
    for method in ("log_odds_batch", "strengths_batch"):
        assert (
            getattr(got, method)(probe).tobytes()
            == getattr(want, method)(probe).tobytes()
        )


@pytest.mark.parametrize("cls", [NaiveBayesClassifier, TANClassifier])
@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize("prior", ["balanced", "empirical", "capped"])
def test_refit_is_a_fresh_fit(cls, robust, prior):
    # The first window is wider and skewed differently, so any count,
    # tree or mask carried over would show.
    old_X, old_y = binned(600, seed=21, abnormal=0.05)
    old_X = np.hstack([old_X, old_X[:, :4]])
    X, y = binned(300, seed=22, abnormal=0.35)
    refit = cls(N_BINS, class_prior=prior, robust=robust).fit(old_X, old_y)
    refit.fit(X, y)
    fresh = cls(N_BINS, class_prior=prior, robust=robust).fit(X, y)
    assert refit.n_attributes == N_ATTRS
    assert_classifiers_identical(refit, fresh)


@pytest.mark.parametrize("cls", [NaiveBayesClassifier, TANClassifier])
@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize("prior", ["balanced", "empirical", "capped"])
def test_restored_classifier_refits_like_a_fresh_one(cls, robust, prior):
    old_X, old_y = binned(400, seed=23)
    restored = cls.from_dict(
        cls(N_BINS, class_prior=prior, robust=robust).fit(old_X, old_y).to_dict()
    )
    X, y = binned(300, seed=24)
    assert_classifiers_identical(
        restored.fit(X, y),
        cls(N_BINS, class_prior=prior, robust=robust).fit(X, y),
    )


# ----------------------------------------------------------------------
# Horizon table
# ----------------------------------------------------------------------
def window(seed, rows=250, n_attrs=9):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=(rows, n_attrs)), axis=0)
    return values, (rng.random(rows) < 0.3).astype(int)


def fleet(n_vms=4, markov="2dep"):
    predictors, traces = {}, {}
    for i in range(n_vms):
        values, labels = window(60 + i)
        predictors[f"vm{i}"] = AnomalyPredictor(
            [f"m{j}" for j in range(9)], n_bins=6, markov=markov
        ).train(values, labels)
        traces[f"vm{i}"] = values
    return predictors, traces


def assert_scores_like_predict(scorer, predictors, traces, steps=(4, 1, 9)):
    batch = [
        (vm, traces[vm][40 + 7 * k:50 + 7 * k], s)
        for k, s in enumerate(steps) for vm in sorted(scorer.predictors)
    ]
    for (vm, recent, s), got in zip(batch, scorer.score(batch)):
        assert got == predictors[vm].predict(recent, s)


def assert_valid_rows_are_live(scorer):
    """Every row the mask calls valid is what the eager operator holds
    for the chains stacked *now* — lazy fill == eager build, and no
    row survives the chain it was computed from."""
    stacked = scorer._stacked
    assert scorer._horizon_cache
    for steps, (table, valid) in scorer._horizon_cache.items():
        eager = oracle_horizon_operator(
            stacked._tensor, steps, stacked.n_states, stacked.two_dependent
        ).reshape(table.shape)
        assert valid.any()
        assert table[valid].tobytes() == eager[valid].tobytes()


@pytest.mark.parametrize("markov", ["2dep", "simple"])
def test_refit_update_rebuild_interleavings_score_like_predict(markov):
    predictors, traces = fleet(markov=markov)
    scorer = FleetScorer(predictors)
    assert_scores_like_predict(scorer, predictors, traces)
    filled = {s: v.sum() for s, (_t, v) in scorer._horizon_cache.items()}

    # Refit one VM: its mask rows clear, nobody else's do.
    predictors["vm1"].train(*window(91))
    assert scorer.refresh() is True
    for steps, (_table, valid) in scorer._horizon_cache.items():
        assert 0 < valid.sum() < filled[steps]
    assert_scores_like_predict(scorer, predictors, traces)
    assert_valid_rows_are_live(scorer)

    # In-place update: same chain objects, bumped versions.
    chain = predictors["vm2"].value_models[3]
    chain.update(np.random.default_rng(3).integers(0, 6, size=40))
    assert not scorer.stacked
    assert_scores_like_predict(scorer, predictors, traces)
    assert_valid_rows_are_live(scorer)

    # A classifier swapped behind an unchanged chain stack is stale
    # too; its rows cannot be repaired, so the stack (and every table)
    # is rebuilt.
    refit = predictors["vm0"]
    values, labels = window(60)
    refit.classifier = NaiveBayesClassifier(n_bins=6).fit(
        refit.discretizer.transform(values), labels
    )
    assert scorer.stacked
    assert_scores_like_predict(scorer, predictors, traces)
    assert scorer._fast is None

    # Membership change: the controller builds a new scorer; a rebuild
    # in place drops the tables with the row layout they indexed.
    del scorer.predictors["vm0"]
    scorer._build()
    assert not scorer._horizon_cache and scorer._fast is not None
    assert_scores_like_predict(scorer, predictors, traces)
    predictors["vm3"].train(*window(92))
    assert_scores_like_predict(scorer, predictors, traces)
    assert_valid_rows_are_live(scorer)


def test_table_lru_keeps_a_handful_of_depths():
    predictors, traces = fleet(n_vms=2)
    scorer = FleetScorer(predictors)
    depths = tuple(range(1, HORIZON_TABLES + 4))
    assert_scores_like_predict(scorer, predictors, traces, steps=depths)
    assert list(scorer._horizon_cache) == list(depths[-HORIZON_TABLES:])
    assert_scores_like_predict(scorer, predictors, traces, steps=(depths[-2],))
    assert list(scorer._horizon_cache)[-1] == depths[-2]
    assert len(scorer._horizon_cache) == HORIZON_TABLES
