"""The one-pass refit and row classification against the loops they
replaced: bitwise, not close.

``AnomalyPredictor.train`` counts every chain from one ``np.bincount``,
fits and transforms every discretizer column at once and fits the TAN
without per-attribute Python; ``FleetScorer`` classifies a batch's rows
in one pass.  ``oracles.py`` keeps the per-chain, per-column,
per-attribute and per-item loops verbatim.  A refit is compared by its
``to_dict()`` JSON, its scoring tensors and its stacked operator.
"""

import json

import numpy as np
import pytest

from repro.core.bayes import NaiveBayesClassifier, ordinal_smooth
from repro.core.discretization import Discretizer
from repro.core.fleet import FleetScorer
from repro.core.markov import expected_bins
from repro.core.predictor import MARKOV_CHAINS, AnomalyPredictor
from repro.core.tan import TANClassifier

from .oracles import (
    OneHotTAN,
    OracleDiscretizer,
    oracle_build_scoring_tensors,
    oracle_classify_rows,
    oracle_fit_chains,
    oracle_maximum_spanning_tree,
    oracle_ordinal_smooth,
    oracle_transition_matrix,
)

ATTRS = [f"m{j}" for j in range(7)]
WINDOWS = ["contiguous", "gaps", "interleaved", "short", "constant"]


def window(kind, seed=0, rows=160):
    """Raw values, labels and segment ids of one training window."""
    rng = np.random.default_rng(seed)
    values = 50.0 + 3.0 * np.cumsum(rng.normal(size=(rows, len(ATTRS))), axis=0)
    labels = (rng.random(rows) < 0.3).astype(int)
    segments = None
    if kind == "gaps":            # contiguous runs, as the controller cuts
        segments = np.cumsum(rng.random(rows) < 0.05)
    elif kind == "interleaved":   # a segment's rows need not be adjacent
        segments = rng.integers(0, 4, size=rows)
    elif kind == "short":         # most runs too short for a transition
        segments = np.repeat(np.arange(rows), rng.integers(1, 4, rows))[:rows]
    elif kind == "constant":      # linspace switches formula on a 0 step
        values[:, 2] = 7.25
    return values, labels, segments


def oracle_train(predictor, values, labels, segments):
    """The predictor ``train`` built from the replaced loops."""
    n = predictor.n_bins
    disc = OracleDiscretizer(n).fit(values)
    binned = disc.transform(values)
    params = dict(smoothing=predictor.smoothing, robust=predictor.robust,
                  class_prior=predictor.classifier.class_prior)
    if predictor.classifier_kind == "tan":
        clf = OneHotTAN(n, **params).fit(binned, labels)
    else:
        clf = NaiveBayesClassifier(n, **params).fit(binned, labels)
        oracle_build_scoring_tensors(clf, np.arange(clf.n_attributes))
    oracle = AnomalyPredictor(
        predictor.attributes, n_bins=n, markov=predictor.markov_kind,
        classifier=predictor.classifier_kind, robust=predictor.robust,
    )
    oracle.discretizer, oracle.classifier = disc, clf
    oracle.value_models = oracle_fit_chains(
        MARKOV_CHAINS[predictor.markov_kind], binned, segments, n,
        predictor.smoothing,
    )
    oracle._trained = True
    return oracle


def snapshot(model) -> bytes:
    return json.dumps(model.to_dict(), sort_keys=True).encode()


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize("classifier", ["tan", "naive"])
@pytest.mark.parametrize("markov", ["2dep", "simple"])
def test_train_is_bitwise_the_loop_fit(markov, classifier, robust, kind):
    values, labels, segments = window(kind, seed=len(kind))
    got = AnomalyPredictor(
        ATTRS, markov=markov, classifier=classifier, robust=robust
    ).train(values, labels, segment_ids=segments)
    want = oracle_train(got, values, labels, segments)
    assert snapshot(got) == snapshot(want)
    for name in ("_diff_soft", "_diff_hard"):
        assert (getattr(got.classifier, name).tobytes()
                == getattr(want.classifier, name).tobytes())
    assert (FleetScorer({"vm": got})._stacked._tensor.tobytes() == np.stack(
        [oracle_transition_matrix(m) for m in want.value_models]).tobytes())


@pytest.mark.parametrize("markov", ["2dep", "simple"])
def test_per_chain_update_shares_the_kernels(markov):
    seq = np.random.default_rng(8).integers(0, 6, size=(90, 1))
    ids = np.repeat([0, 1, 2], 30)
    chain = MARKOV_CHAINS[markov](6, smoothing=0.15)
    for k in range(3):
        chain.update(seq[ids == k, 0])
    (want,) = oracle_fit_chains(MARKOV_CHAINS[markov], seq, ids, 6, 0.15)
    assert chain._counts.tobytes() == want._counts.tobytes()
    assert (chain.transition_matrix().tobytes()
            == oracle_transition_matrix(want).tobytes())


@pytest.mark.parametrize("n_bins", [8, 5])   # 5: the step is inexact
@pytest.mark.parametrize("strategy", ["width", "quantile"])
def test_discretizer_columns_fit_and_transform_at_once(strategy, n_bins):
    values, _, _ = window("constant", seed=3)
    values[:, 5] = 1.0 + 1e-13 * np.arange(values.shape[0])  # near-constant
    got = Discretizer(n_bins, strategy).fit(values)
    want = OracleDiscretizer(n_bins, strategy).fit(values)
    assert got.to_dict() == want.to_dict()
    # Out of range both ways, and the infinities: the comparison count
    # is searchsorted on everything training accepts.
    probe = np.vstack([values, 3.0 * values - 90.0,
                       np.full((1, 7), np.inf), np.full((1, 7), -np.inf)])
    assert got.transform(probe).tobytes() == want.transform(probe).tobytes()


def test_train_rejects_non_finite_values_by_name():
    values, labels, _ = window("contiguous")
    predictor = AnomalyPredictor(ATTRS).train(values, labels)
    before = snapshot(predictor)
    for bad in (np.nan, np.inf):
        poisoned = values.copy()
        poisoned[40, 4] = bad
        poisoned[90, 6] = bad
        with pytest.raises(ValueError, match="'m4'"):
            predictor.train(poisoned, labels)
    assert snapshot(predictor) == before


# ----------------------------------------------------------------------
# TAN pieces
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1, 2, 5, 13])
def test_prim_on_lists_breaks_ties_like_argmax(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        weights = rng.integers(0, 3, size=(n, n)).astype(float)
        weights += weights.T                      # symmetric, many ties
        assert (TANClassifier._maximum_spanning_tree(weights).tolist()
                == oracle_maximum_spanning_tree(weights).tolist())


def test_ordinal_smooth_keeps_the_reduction_layout():
    """The smoothed axis stays innermost in memory: the fit's row sums
    run in an order that follows the layout, so their bits do too."""
    counts = np.random.default_rng(4).integers(0, 9, size=(2, 5, 8, 8))
    for got, want in [
        (ordinal_smooth(counts, axis=3), oracle_ordinal_smooth(counts, 3)),
        (ordinal_smooth(ordinal_smooth(counts, axis=3), axis=2),
         oracle_ordinal_smooth(oracle_ordinal_smooth(counts, 3), 2)),
        (ordinal_smooth(counts[0, :, 0], axis=-1),
         oracle_ordinal_smooth(counts[0, :, 0], -1)),
    ]:
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()
        assert got.sum(axis=-1).tobytes() == want.sum(axis=-1).tobytes()


@pytest.mark.parametrize("cls", [TANClassifier, NaiveBayesClassifier])
@pytest.mark.parametrize("robust", [True, False])
def test_scoring_tensors_are_the_loop_tensors(cls, robust):
    values, labels, _ = window("constant", seed=11)
    binned = Discretizer(8).fit(values).transform(values)
    fitted = cls(8, robust=robust).fit(binned, labels)
    for clf in (fitted, cls.from_dict(fitted.to_dict())):
        oracle = cls.from_dict(clf.to_dict())
        oracle_build_scoring_tensors(oracle, clf._parent_or_self)
        for name in ("_diff_hard", "_diff_soft"):
            got, want = getattr(clf, name), getattr(oracle, name)
            assert got.flags.c_contiguous and want.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Row classification
# ----------------------------------------------------------------------
def near_half_rows(rows, n=8, seed=0):
    """Distributions whose means sit within an ulp or two of a half: a
    BLAS product rounds some of them by the shape of the batch."""
    rng = np.random.default_rng(seed)
    d = rng.dirichlet(np.full(n, 4.0), size=rows)
    shift = (np.floor(d @ np.arange(n)) + 0.5 - d @ np.arange(n)) / (n - 1)
    d[:, -1] += shift
    d[:, 0] -= shift
    return np.abs(d)


def test_a_rows_bin_does_not_depend_on_the_batch():
    d = near_half_rows(500)
    alone = [int(expected_bins(row[None])[0]) for row in d]
    assert expected_bins(d).tolist() == alone
    assert expected_bins(d.reshape(50, 10, 8)).ravel().tolist() == alone


def fleet(modes):
    predictors = {}
    for i, mode in enumerate(modes):
        values, labels, _ = window("contiguous", seed=20 + i)
        attrs = ATTRS[: 4 + i % 3]       # VMs of different widths
        predictors[f"vm{i}"] = AnomalyPredictor(
            attrs, prediction_mode=mode
        ).train(values[:, : len(attrs)], labels)
    return predictors


def batch_rows(scorer, vms, seed):
    sel = np.concatenate([scorer._slices[vm] for vm in vms])
    bounds = np.concatenate([[0], np.cumsum([scorer._slices[vm].size
                                             for vm in vms])])
    return near_half_rows(sel.size, seed=seed), sel, bounds


def test_rows_classify_like_the_item_loop():
    scorer = FleetScorer(fleet(["soft", "hard", "hard", "soft", "hard"]))
    vms = sorted(scorer.predictors) * 3
    final, sel, bounds = batch_rows(scorer, vms, seed=5)
    items = [(vm, 1 + k % 4) for k, vm in enumerate(vms)]
    got = scorer._classify_rows(items, final, sel, bounds)
    assert got == oracle_classify_rows(scorer, items, final, sel, bounds)


def test_hard_fleet_matches_each_one_vm_scorer():
    predictors = fleet(["hard"] * 4)
    scorer = FleetScorer(predictors)
    vms = sorted(predictors) * 13
    final, sel, bounds = batch_rows(scorer, vms, seed=6)
    items = [(vm, 3) for vm in vms]
    got = scorer._classify_rows(items, final, sel, bounds)
    for j, (vm, result) in enumerate(zip(vms, got)):
        one = FleetScorer({vm: predictors[vm]})
        rows = final[bounds[j]:bounds[j + 1]]
        (alone,) = one._classify_rows(
            [(vm, 3)], rows, one._slices[vm], np.array([0, rows.shape[0]])
        )
        assert result == alone
