"""Soft (expected) Eq. (1)/(2) scoring of a bare classifier.

The soft path lives in one place, ``FleetScorer``'s row
classification.  :func:`score_distributions` runs a fitted classifier's
predicted distributions through it, so classifier-level tests can state
the soft semantics without a trained value predictor of their own.
"""

import numpy as np

from repro.core.fleet import FleetScorer
from repro.core.predictor import AnomalyPredictor


def score_distributions(clf, dists):
    """``(scores (m,), strengths (m, a))`` of ``clf`` on ``(m, a,
    n_bins)`` predicted distributions, through ``FleetScorer``."""
    dists = np.asarray(dists, dtype=float)
    m, a, n = dists.shape
    predictor = AnomalyPredictor([f"a{i}" for i in range(a)], n_bins=n)
    rng = np.random.default_rng(0)
    predictor.train(rng.normal(size=(40, a)), np.arange(40) % 2)
    predictor.classifier = clf
    scorer = FleetScorer({"vm": predictor})
    results = scorer._classify_rows(
        [("vm", 1)] * m, dists.reshape(m * a, n),
        np.tile(scorer._slices["vm"], m), np.arange(m + 1) * a,
    )
    return (
        np.array([r.score for r in results]),
        np.array([r.strengths for r in results]),
    )
