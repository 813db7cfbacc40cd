"""The per-VM predictor API answers through the one scoring path.

``AnomalyPredictor.predict`` / ``predict_horizons`` /
``classify_current`` run through a one-VM ``FleetScorer`` the
predictor caches.  They must answer bitwise what the per-VM copy they
replaced answered (``oracle_vm_*`` in ``oracles.py``), and, to allclose
with identical decisions, what the pre-vectorization loops
(``oracle_predict``) answer.
"""

import itertools

import numpy as np
import pytest

import repro.core.predictor as predictor_module
from repro.core.predictor import AnomalyPredictor, monolithic_attributes

from .oracles import (
    oracle_predict,
    oracle_propagate,
    oracle_vm_classify_current,
    oracle_vm_predict,
    oracle_vm_predict_horizons,
)

STEPS = (1, 2, 5, 12)
CONFIGS = list(itertools.product(["2dep", "simple"], ["tan", "naive"],
                                 ["soft", "hard"]))


def trace(n_attrs, seed, rows=300):
    """A drifting trace whose SLO state follows its first two columns,
    so attribute selection keeps attributes and the strengths are not
    all zero."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, n_attrs)).cumsum(axis=0) * 0.2 \
        + rng.normal(size=(rows, n_attrs))
    signal = values[:, 0] + values[:, 1]
    labels = (signal > np.quantile(signal, 0.75)).astype(int)
    return values, labels


def trained(attributes, markov="2dep", classifier="tan", mode="soft", seed=0):
    values, labels = trace(len(attributes), seed)
    predictor = AnomalyPredictor(
        attributes, markov=markov, classifier=classifier,
        prediction_mode=mode,
    ).train(values, labels)
    assert predictor.classifier.attribute_mask.any()
    return predictor, values


def assert_same(got, want):
    """Bitwise equality of two results, field by field."""
    assert got == want
    assert np.asarray(got.score).tobytes() == np.asarray(want.score).tobytes()
    assert (np.asarray(got.strengths).tobytes()
            == np.asarray(want.strengths).tobytes())


def rounding_ties(predictor, recent, steps):
    """Attributes whose predicted mean is within 1e-9 of a half bin.

    Their expected bin depends on the last ulp of the mean, which
    depends on the matmul kernel; ``oracle_predict`` takes the mean
    with a per-attribute ``np.dot``, the scorer with one matrix-vector
    product per VM.
    """
    binned = predictor.discretizer.transform(np.asarray(recent, dtype=float))
    ties = set()
    for j, model in enumerate(predictor.value_models):
        dist = oracle_propagate(model, binned[:, j].tolist(), steps)
        mean = float(np.dot(np.arange(predictor.n_bins), dist))
        if abs(mean - np.floor(mean) - 0.5) < 1e-9:
            ties.add(j)
    return ties


def assert_one_vm_path_is_the_oracle(predictor, values):
    windows = [values[i - 3:i] for i in range(60, values.shape[0], 47)]
    for recent in windows:
        horizons = predictor.predict_horizons(recent, max(STEPS))
        want = oracle_vm_predict_horizons(predictor, recent, max(STEPS))
        assert len(horizons) == len(want) == max(STEPS)
        for got, expected in zip(horizons, want):
            assert_same(got, expected)
        for steps in STEPS:
            got = predictor.predict(recent, steps)
            assert_same(got, oracle_vm_predict(predictor, recent, steps))
            assert_same(got, horizons[steps - 1])
            reference = oracle_predict(predictor, recent, steps)
            moved = {
                j for j, (a, b) in enumerate(zip(got.bins, reference.bins))
                if a != b
            }
            assert moved <= rounding_ties(predictor, recent, steps)
            if moved and predictor.prediction_mode == "hard":
                continue  # the tie's bin enters the hard score
            assert got.abnormal == reference.abnormal
            np.testing.assert_allclose(
                got.score, reference.score, rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(
                got.strengths, reference.strengths, rtol=1e-9, atol=1e-12
            )
        observed = recent[-1]
        assert_same(
            predictor.classify_current(observed),
            oracle_vm_classify_current(predictor, observed),
        )


@pytest.mark.parametrize("markov,classifier,mode", CONFIGS)
def test_one_vm_path_is_bitwise_the_per_vm_copy(markov, classifier, mode):
    predictor, values = trained(
        [f"a{i}" for i in range(6)], markov, classifier, mode
    )
    assert_one_vm_path_is_the_oracle(predictor, values)


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_monolithic_width_is_bitwise_the_per_vm_copy(mode):
    attributes = monolithic_attributes(
        [f"vm{i}" for i in range(4)], [f"m{j}" for j in range(13)]
    )
    predictor, values = trained(attributes, mode=mode, seed=3)
    assert_one_vm_path_is_the_oracle(predictor, values)


def test_refits_are_repaired_in_the_cached_scorer():
    predictor, values = trained([f"a{i}" for i in range(5)])
    recent = values[-3:]
    predictor.predict(recent, 4)
    scorer = predictor._scorer
    predictor.train(*trace(5, seed=9))
    assert not scorer.stacked
    assert_same(predictor.predict(recent, 4),
                oracle_vm_predict(predictor, recent, 4))
    predictor.value_models[2].update([0, 1, 2, 3, 2, 1, 0])
    assert_same(predictor.predict(recent, 4),
                oracle_vm_predict(predictor, recent, 4))
    assert_same(predictor.classify_current(recent[-1]),
                oracle_vm_classify_current(predictor, recent[-1]))
    assert predictor._scorer is scorer and scorer.stacked


def test_predict_horizons_propagates_once(monkeypatch):
    predictor, values = trained([f"a{i}" for i in range(5)])
    calls = []
    real = predictor_module.propagate

    def spy(tensor, histories, steps):
        calls.append(steps)
        return real(tensor, histories, steps)

    monkeypatch.setattr(predictor_module, "propagate", spy)
    results = predictor.predict_horizons(values[-2:], 12)
    assert calls == [12]
    assert [r.steps for r in results] == list(range(1, 13))
    assert not predictor._scorer._horizon_cache


def test_untrained_and_invalid_inputs_raise():
    predictor = AnomalyPredictor(["a", "b"])
    for call in (
        lambda: predictor.predict(np.zeros((2, 2)), 1),
        lambda: predictor.predict_horizons(np.zeros((2, 2)), 1),
        lambda: predictor.classify_current([0.0, 0.0]),
    ):
        with pytest.raises(RuntimeError):
            call()
    predictor, values = trained(["a", "b"])
    for call in (
        lambda: predictor.predict(values[-2:], 0),
        lambda: predictor.predict_horizons(values[-2:], 0),
        lambda: predictor.predict(values[-1:], 1),
        lambda: predictor.predict(values[-2:, :1], 1),
        lambda: predictor.classify_current([0.0]),
    ):
        with pytest.raises(ValueError):
            call()
    predictor.invalidate()
    with pytest.raises(RuntimeError):
        predictor.predict(values[-2:], 1)
