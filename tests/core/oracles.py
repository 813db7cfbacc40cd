"""The loops the refit and diagnosis paths replaced, kept verbatim as
test oracles.

``src/`` counts with one integer ``np.bincount`` and fills the horizon
table lazily; these are the one-hot TAN fit, the per-pair CMI, the
per-attribute naive-Bayes counts and the eager k-step horizon operator
as they stood before.  ``test_refit_kernels.py`` demands bitwise
equality with them.

``src/`` fits a predictor's chains, discretizer columns and TAN tables
in one pass each and classifies a batch's rows in one pass;
:func:`oracle_fit_chains`, :func:`oracle_transition_matrix`,
:class:`OracleDiscretizer`, the Prim, ordinal smoothing and
scoring-tensor loops and :func:`oracle_classify_rows` are the
per-chain, per-column, per-attribute and per-item loops they
replaced.  ``test_one_pass_refit.py`` demands bitwise equality with
them.

``src/`` scans change points as one ``(component, attribute, time)``
stack and scores each violation epoch from one ``(vm, rows, attr)``
block; the per-column scan, the per-VM localizer epoch loop and the
looped ``violation_epochs`` below are what it replaced.
``test_diagnosis_kernels.py`` demands bitwise equality with them.

``src/`` hands the controller one ``(vm, attr)`` block per monitoring
round and keeps the fleet's training windows in one ring;
:class:`ListMonitor`, :class:`OracleTrainingBuffer` and
:class:`OracleIngest` are the per-sample collection, the per-VM buffer
and ``_sanitize_batch`` it replaced.  ``test_ingest_kernels.py``
demands bitwise equality with them.

``src/`` keeps the simulator's per-VM state in one ``VMTable`` and runs
the fleet step, the thrash tick and the monitor's round as array
kernels over it; :class:`OracleVM`, :class:`OracleFleetApp` and
:class:`OracleMonitor` are the per-VM objects and loops they replaced.
``tests/sim/test_state_kernels.py`` demands bitwise equality with them.

``src/`` propagates a VM's chains as one stacked einsum and scores
from fit-time log-likelihood-ratio tensors; the ``oracle_*propagate``,
``oracle_*strengths``, ``oracle_*log_odds`` and :func:`oracle_predict`
functions are the per-attribute chain propagation and the scalar
scoring loops it replaced, each taking the model as its first argument.
They used BLAS matmul and Python ``sum``, so
``test_vectorized_equivalence.py`` demands allclose scores and
identical decisions, not bitwise equality.

``src/`` answers ``AnomalyPredictor.predict`` / ``predict_horizons`` /
``classify_current`` through a one-VM ``FleetScorer``; the
``oracle_vm_*`` functions are the per-VM scoring copy that replaced,
and ``test_one_scoring_path.py`` demands bitwise equality with them.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import APP_CONSUMER, AppComponent, DistributedApplication
from repro.apps.fleet import _MAX_LATENCY, _RHO_CLAMP
from repro.apps.slo import SLOTracker
from repro.apps.workload import Workload

from repro.core.bayes import (
    ABNORMAL,
    NORMAL,
    ORDINAL_KERNEL_WEIGHT,
    STRENGTH_CLIP,
    _class_log_prior_from_counts,
    check_training_data,
    select_attributes,
)
from repro.core.discretization import _CONSTANT_EDGE, Discretizer
from repro.core.localization import DeviationLocalizer
from repro.core.markov import (
    SimpleMarkovModel,
    TwoDependentMarkovModel,
    expected_bins,
)
from repro.core.predictor import PredictionResult
from repro.core.tan import CPT_BACKOFF, TANClassifier
from repro.sim.engine import Simulator
from repro.sim.engine import PeriodicTask
from repro.sim.monitor import (
    _LOAD1_WINDOW, _LOAD5_WINDOW, _NOISE_STD_VEC, ATTRIBUTES,
    DEFAULT_SAMPLING_INTERVAL, MetricSample, MonitorTrace, SampleBlock,
    VMMonitor,
)
from repro.sim.resources import ResourceError, ResourceKind, ResourceSpec
from repro.sim.vm import (
    CACHE_PRESSURE_MB, CACHE_PRESSURE_PENALTY, MIGRATION_DEGRADATION,
    SWAP_PENALTY, THRASH_TAU_DOWN, THRASH_TAU_UP,
)


def oracle_cmi_per_pair(X, y, n_bins, smoothing) -> np.ndarray:
    """The pre-vectorization per-pair CMI loop."""
    n_attrs = X.shape[1]
    b = n_bins
    cmi = np.zeros((n_attrs, n_attrs))
    for label in (NORMAL, ABNORMAL):
        rows = X[y == label]
        if rows.shape[0] == 0:
            continue
        class_weight = rows.shape[0] / X.shape[0]
        # Per-attribute marginals under this class.
        marg = np.empty((n_attrs, b))
        for i in range(n_attrs):
            counts = np.bincount(rows[:, i], minlength=b) + smoothing
            marg[i] = counts / counts.sum()
        for i in range(n_attrs):
            for j in range(i + 1, n_attrs):
                joint = np.full((b, b), smoothing, dtype=float)
                np.add.at(joint, (rows[:, i], rows[:, j]), 1.0)
                joint /= joint.sum()
                denom = np.outer(marg[i], marg[j])
                term = float(np.sum(joint * (np.log(joint) - np.log(denom))))
                contribution = class_weight * max(term, 0.0)
                cmi[i, j] += contribution
                cmi[j, i] += contribution
    return cmi


class OneHotTAN(TANClassifier):
    """:class:`TANClassifier` with the one-hot einsum fit it used to
    have; scoring, ``to_dict`` and the spanning tree are inherited."""

    def _onehot_cmi(self, X, y, onehot) -> np.ndarray:
        n_attrs = X.shape[1]
        cmi = np.zeros((n_attrs, n_attrs))
        upper = np.triu(np.ones((n_attrs, n_attrs), dtype=bool), k=1)
        for label in (NORMAL, ABNORMAL):
            oh = onehot[y == label]
            if oh.shape[0] == 0:
                continue
            class_weight = oh.shape[0] / X.shape[0]
            marg = oh.sum(axis=0) + self.smoothing            # (a, b)
            marg /= marg.sum(axis=1, keepdims=True)
            joint = np.einsum("mip,mjq->ijpq", oh, oh) + self.smoothing
            joint /= joint.sum(axis=(2, 3), keepdims=True)
            denom = np.einsum("ip,jq->ijpq", marg, marg)
            terms = np.sum(
                joint * (np.log(joint) - np.log(denom)), axis=(2, 3)
            )
            contribution = class_weight * np.maximum(terms, 0.0)
            contribution = np.where(upper, contribution, 0.0)
            cmi += contribution + contribution.T
        return cmi

    def fit(self, X, y) -> "OneHotTAN":
        X, y = check_training_data(np.asarray(X), np.asarray(y), self.n_bins)
        n_attrs = X.shape[1]
        self.n_attributes = n_attrs
        onehot = (X[:, :, None] == np.arange(self.n_bins)).astype(float)
        self.parents = oracle_maximum_spanning_tree(
            self._onehot_cmi(X, y, onehot)
        )
        counts = np.array(
            [np.sum(y == NORMAL), np.sum(y == ABNORMAL)], dtype=float
        )
        self._log_prior = _class_log_prior_from_counts(
            counts, y.size, self.class_prior, self.smoothing
        )
        parent_or_self = np.where(
            self.parents >= 0, self.parents, np.arange(n_attrs)
        )
        marg_counts = np.zeros((2, n_attrs, self.n_bins))
        pair_counts = np.zeros((2, n_attrs, self.n_bins, self.n_bins))
        for label in (NORMAL, ABNORMAL):
            oh = onehot[y == label]
            if oh.shape[0]:
                marg_counts[label] = oh.sum(axis=0)
                pair_counts[label] = np.einsum(
                    "map,mac->apc", oh[:, parent_or_self], oh
                )
        self._fit_tables(parent_or_self, marg_counts, pair_counts)
        self.attribute_mask = np.ones(n_attrs, dtype=bool)
        if self.robust:
            sample_strengths = self._raw_strengths_batch(X)
            self.attribute_mask = select_attributes(sample_strengths, y)
        return self

    def _fit_tables(self, parent_or_self, marg_counts, pair_counts) -> None:
        n_attrs = self.n_attributes
        cpts: List[np.ndarray] = []
        supports: List[np.ndarray] = []
        for i in range(n_attrs):
            parent = self.parents[i]
            marg_raw = marg_counts[:, i, :].copy()
            if self.robust:
                marg_raw = oracle_ordinal_smooth(marg_raw, axis=1)
            marginal = marg_raw + self.smoothing
            marginal /= marginal.sum(axis=1, keepdims=True)
            if parent < 0:
                table = marginal
                if self.robust:
                    supports.append(
                        marg_raw.sum(axis=0) >= ORDINAL_KERNEL_WEIGHT
                    )
                else:
                    supports.append(np.ones(self.n_bins, dtype=bool))
            else:
                raw = pair_counts[:, i, :, :]
                if self.robust:
                    raw = oracle_ordinal_smooth(
                        oracle_ordinal_smooth(raw, axis=2), axis=1
                    )
                cond = raw + self.smoothing
                cond /= cond.sum(axis=2, keepdims=True)
                row_counts = raw.sum(axis=2, keepdims=True)
                backoff = CPT_BACKOFF if self.robust else 0.0
                lam = row_counts / (row_counts + backoff) if backoff else 1.0
                lam = np.broadcast_to(np.asarray(lam), cond.shape) if np.isscalar(lam) else lam
                table = lam * cond + (1.0 - lam) * marginal[:, np.newaxis, :]
                if self.robust:
                    child_support = (
                        marg_raw.sum(axis=0) >= ORDINAL_KERNEL_WEIGHT
                    )
                else:
                    child_support = np.ones(self.n_bins, dtype=bool)
                supports.append(
                    np.broadcast_to(child_support, (self.n_bins, self.n_bins)).copy()
                )
            cpts.append(np.log(table))
        self._log_cpt = cpts
        self._support = supports
        oracle_build_scoring_tensors(self, parent_or_self)


def oracle_maximum_spanning_tree(weights: np.ndarray) -> np.ndarray:
    """Prim's algorithm; returns parent indices with root = 0."""
    n = weights.shape[0]
    parents = np.full(n, -1, dtype=np.intp)
    if n <= 1:
        return parents
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_weight = weights[0].copy()
    best_parent = np.zeros(n, dtype=np.intp)
    for _ in range(n - 1):
        candidates = np.where(~in_tree)[0]
        nxt = candidates[np.argmax(best_weight[candidates])]
        parents[nxt] = best_parent[nxt]
        in_tree[nxt] = True
        improved = weights[nxt] > best_weight
        best_weight = np.where(improved, weights[nxt], best_weight)
        best_parent = np.where(improved, nxt, best_parent)
    return parents


def oracle_ordinal_smooth(counts: np.ndarray, axis: int = -1) -> np.ndarray:
    """``ordinal_smooth`` through ``np.moveaxis``."""
    counts = np.asarray(counts, dtype=float)
    w = ORDINAL_KERNEL_WEIGHT
    moved = np.moveaxis(counts, axis, -1)
    out = moved.copy()
    out[..., 1:] += w * moved[..., :-1]
    out[..., :-1] += w * moved[..., 1:]
    return np.moveaxis(out, -1, axis)


def oracle_build_scoring_tensors(clf, parent_or_self: np.ndarray) -> None:
    """``BayesClassifier._build_scoring_tensors``'s per-attribute loop
    over ``clf._log_cpt`` and ``clf._support``."""
    n_attrs, b = clf.n_attributes, clf.n_bins
    diff = np.empty((n_attrs, b, b))
    support = np.empty((n_attrs, b, b), dtype=bool)
    for i, table in enumerate(clf._log_cpt):
        # A root's (b,) row broadcasts along the parent axis.
        diff[i] = table[ABNORMAL] - table[NORMAL]
        support[i] = clf._support[i]
    clf._parent_or_self = parent_or_self
    clf._diff_hard = np.where(support, diff, 0.0)
    clf._diff_soft = np.where(
        support, np.clip(diff, -STRENGTH_CLIP, STRENGTH_CLIP), 0.0
    )
    clf._attr_idx = np.arange(n_attrs)
    clf._prior_diff = float(clf._log_prior[ABNORMAL] - clf._log_prior[NORMAL])


def oracle_fit_chains(chain_cls, binned, segment_ids, n_bins, smoothing):
    """``AnomalyPredictor.train``'s chain loop: a fresh chain per
    attribute, fed one ``update`` per segment, each counting with
    ``np.add.at`` over its ``_extract_transitions`` pairs."""
    if segment_ids is None:
        segments = [np.arange(binned.shape[0])]
    else:
        ids = np.asarray(segment_ids)
        segments = [np.flatnonzero(ids == seg) for seg in np.unique(ids)]
    chains = []
    for j in range(binned.shape[1]):
        model = chain_cls(n_bins, smoothing=smoothing)
        for rows in segments:
            seq = binned[rows, j]
            if seq.size > model.history_needed:
                if isinstance(model, TwoDependentMarkovModel):
                    cond, nxt = seq[:-2] * model.n_states + seq[1:-1], seq[2:]
                else:
                    cond, nxt = seq[:-1], seq[1:]
                np.add.at(model._counts, (cond, nxt), 1.0)
                model._trained = True
        chains.append(model)
    return chains


def oracle_transition_matrix(model) -> np.ndarray:
    """``MarkovModel._build_transition_matrix`` on one chain's own
    ``(conditions, n)`` counts."""
    smoothed = model._counts + model.smoothing
    if model.persistence > 0:
        rows = np.arange(smoothed.shape[0])
        targets = np.tile(
            np.arange(model.n_states), smoothed.shape[0] // model.n_states
        )
        smoothed[rows, targets] += model.persistence
    return smoothed / smoothed.sum(axis=1, keepdims=True)


class OracleDiscretizer(Discretizer):
    """:class:`Discretizer` with its per-column fit and transform."""

    def fit(self, data: np.ndarray) -> "OracleDiscretizer":
        data = np.asarray(data, dtype=float)
        bins = [self._fit_column(col) for col in data.T]
        self._edges = np.array([e for e, _ in bins])
        self._centers = np.array([c for _, c in bins])
        return self

    def _fit_column(self, col: np.ndarray):
        lo, hi = float(np.min(col)), float(np.max(col))
        if hi - lo < 1e-12:
            edges = np.full(self.n_bins - 1, _CONSTANT_EDGE)
            centers = np.full(self.n_bins, lo)
            return edges, centers
        if self.strategy == "width":
            all_edges = np.linspace(lo, hi, self.n_bins + 1)
        else:
            quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)
            all_edges = np.quantile(col, quantiles)
            # Guard against duplicate quantile edges on spiky data.
            all_edges = np.maximum.accumulate(
                all_edges + np.arange(self.n_bins + 1) * 1e-9
            )
        edges = all_edges[1:-1]
        centers = 0.5 * (all_edges[:-1] + all_edges[1:])
        return edges, centers

    def transform(self, data: np.ndarray) -> np.ndarray:
        arr = np.atleast_2d(np.asarray(data, dtype=float))
        out = np.empty(arr.shape, dtype=np.intp)
        for j, edges in enumerate(self._edges):
            out[:, j] = np.searchsorted(edges, arr[:, j], side="right")
        return out


def oracle_naive_counts(X, y, n_bins):
    """Per-class, per-attribute bincount loop of
    ``NaiveBayesClassifier._count``: ``((a, 2, b), (2,))``."""
    n_attrs = X.shape[1]
    raw_counts = np.zeros((n_attrs, 2, n_bins), dtype=float)
    class_counts = np.zeros(2, dtype=float)
    for label in (NORMAL, ABNORMAL):
        rows = X[y == label]
        class_counts[label] += rows.shape[0]
        for j in range(n_attrs):
            if rows.size:
                raw_counts[j, label, :] += np.bincount(
                    rows[:, j], minlength=n_bins
                )
    return raw_counts, class_counts


def oracle_horizon_operator(tensor, steps, n, two_dependent) -> np.ndarray:
    """The eager k-step operator ``FleetScorer._horizon_for`` built for
    every start state of every chain: ``(A, [p0,] c0, x)``."""
    a = tensor.shape[0]
    idx = np.arange(n)
    if two_dependent:
        # G[a, p0, c0, c, x]: the live path's dense combined-state
        # matrix after each step, for every (p0, c0) start.
        combined = np.zeros((a, n, n, n, n))
        combined[:, :, idx, idx, :] = tensor
        for _ in range(steps - 1):
            combined = np.einsum(
                "aspc,apcx->ascx",
                combined.reshape(a, n * n, n, n),
                tensor,
            ).reshape(a, n, n, n, n)
        return combined.sum(axis=3)
    dist = tensor.copy()
    for _ in range(steps - 1):
        dist = np.einsum("asc,acx->asx", dist, tensor)
    return dist


# ----------------------------------------------------------------------
# Prediction and scoring path
# ----------------------------------------------------------------------
def oracle_tan_raw_strengths(tan, x: np.ndarray) -> np.ndarray:
    """Unmasked Eq. (2) terms for one binned sample — the
    pre-vectorization per-attribute loop."""
    strengths = np.empty(tan.n_attributes)
    for i in range(tan.n_attributes):
        parent = tan.parents[i]
        table = tan._log_cpt[i]
        support = tan._support[i]
        if parent < 0:
            if not support[x[i]]:
                strengths[i] = 0.0
            else:
                strengths[i] = table[ABNORMAL, x[i]] - table[NORMAL, x[i]]
        elif not support[x[parent], x[i]]:
            strengths[i] = 0.0
        else:
            strengths[i] = (
                table[ABNORMAL, x[parent], x[i]]
                - table[NORMAL, x[parent], x[i]]
            )
    return strengths


def oracle_tan_strengths(tan, x: Sequence[int]) -> List[float]:
    """Pre-vectorization TAN ``attribute_strengths``."""
    tan._require_trained()
    x = tan._check_sample(x)
    raw = oracle_tan_raw_strengths(tan, x)
    raw = np.where(tan.attribute_mask, raw, 0.0)
    return [float(v) for v in raw]


def oracle_tan_log_odds(tan, x: Sequence[int]) -> float:
    """Pre-vectorization TAN ``log_odds``."""
    strengths = oracle_tan_strengths(tan, x)
    return float(
        sum(strengths) + tan._log_prior[ABNORMAL] - tan._log_prior[NORMAL]
    )


def oracle_tan_expected_strengths(
    tan, distributions: Sequence[np.ndarray]
) -> List[float]:
    """Pre-vectorization TAN ``expected_strengths``."""
    tan._require_trained()
    if len(distributions) != tan.n_attributes:
        raise ValueError(
            f"expected {tan.n_attributes} distributions, got {len(distributions)}"
        )
    dists = []
    for i, dist in enumerate(distributions):
        p = np.asarray(dist, dtype=float)
        if p.shape != (tan.n_bins,):
            raise ValueError(
                f"distribution {i} must have shape ({tan.n_bins},)"
            )
        dists.append(p)
    strengths: List[float] = []
    for i in range(tan.n_attributes):
        if not tan.attribute_mask[i]:
            strengths.append(0.0)
            continue
        parent = tan.parents[i]
        table = tan._log_cpt[i]
        diff = np.clip(
            table[ABNORMAL] - table[NORMAL], -STRENGTH_CLIP, STRENGTH_CLIP
        )
        diff = np.where(tan._support[i], diff, 0.0)
        if parent < 0:
            strengths.append(float(dists[i] @ diff))         # (n_bins,)
        else:
            strengths.append(float(dists[parent] @ diff @ dists[i]))
    return strengths


def oracle_tan_expected_log_odds(
    tan, distributions: Sequence[np.ndarray]
) -> float:
    """Pre-vectorization TAN ``expected_log_odds``."""
    prior = tan._log_prior[ABNORMAL] - tan._log_prior[NORMAL]
    return float(
        sum(oracle_tan_expected_strengths(tan, distributions)) + prior
    )


def oracle_naive_strengths(naive, x: Sequence[int]) -> List[float]:
    """Pre-vectorization naive-Bayes ``attribute_strengths``."""
    naive._require_trained()
    x = np.asarray(x, dtype=np.intp)
    if x.shape != (naive.n_attributes,):
        raise ValueError(
            f"expected {naive.n_attributes} attributes, got shape {x.shape}"
        )
    x = np.clip(x, 0, naive.n_bins - 1)
    idx = np.arange(naive.n_attributes)
    diff = (
        naive._log_cpt[idx, ABNORMAL, x] - naive._log_cpt[idx, NORMAL, x]
    )
    diff = np.where(naive._support[idx, x], diff, 0.0)
    diff = np.where(naive.attribute_mask, diff, 0.0)
    return [float(v) for v in diff]


def oracle_naive_log_odds(naive, x: Sequence[int]) -> float:
    """Pre-vectorization naive-Bayes ``log_odds``."""
    naive._require_trained()
    return float(
        sum(oracle_naive_strengths(naive, x))
        + naive._log_prior[ABNORMAL] - naive._log_prior[NORMAL]
    )


def oracle_naive_expected_strengths(
    naive, distributions: Sequence[np.ndarray]
) -> List[float]:
    """Pre-vectorization naive-Bayes ``expected_strengths``."""
    naive._require_trained()
    if len(distributions) != naive.n_attributes:
        raise ValueError(
            f"expected {naive.n_attributes} distributions, got {len(distributions)}"
        )
    strengths = []
    for i, dist in enumerate(distributions):
        p = np.asarray(dist, dtype=float)
        if p.shape != (naive.n_bins,):
            raise ValueError(
                f"distribution {i} must have shape ({naive.n_bins},)"
            )
        if not naive.attribute_mask[i]:
            strengths.append(0.0)
            continue
        diff = np.clip(
            naive._log_cpt[i, ABNORMAL] - naive._log_cpt[i, NORMAL],
            -STRENGTH_CLIP, STRENGTH_CLIP,
        )
        diff = np.where(naive._support[i], diff, 0.0)
        strengths.append(float(p @ diff))
    return strengths


def oracle_naive_expected_log_odds(
    naive, distributions: Sequence[np.ndarray]
) -> float:
    """Pre-vectorization naive-Bayes ``expected_log_odds``."""
    prior = naive._log_prior[ABNORMAL] - naive._log_prior[NORMAL]
    return float(
        sum(oracle_naive_expected_strengths(naive, distributions)) + prior
    )


def _per_classifier(tan_oracle, naive_oracle):
    """One oracle over both classifiers: TAN's loop for a TAN, naive
    Bayes's for naive Bayes."""
    def oracle(clf, *args):
        if isinstance(clf, TANClassifier):
            return tan_oracle(clf, *args)
        return naive_oracle(clf, *args)
    return oracle


oracle_strengths = _per_classifier(oracle_tan_strengths, oracle_naive_strengths)
oracle_log_odds = _per_classifier(oracle_tan_log_odds, oracle_naive_log_odds)
oracle_expected_strengths = _per_classifier(
    oracle_tan_expected_strengths, oracle_naive_expected_strengths
)
oracle_expected_log_odds = _per_classifier(
    oracle_tan_expected_log_odds, oracle_naive_expected_log_odds
)


def oracle_condition_index(model, history: Sequence[int]) -> int:
    """Transition-matrix row of the conditioning state of ``history``:
    the current state, or the ``(prev, cur)`` combined state."""
    if isinstance(model, TwoDependentMarkovModel):
        return model.encode(history[-2], history[-1])
    return int(history[-1])


def oracle_simple_propagate(
    model, history: Sequence[int], steps: int
) -> np.ndarray:
    """Pre-vectorization first-order propagation (``dist @ matrix``)."""
    matrix = model._build_transition_matrix()
    dist = np.zeros(model.n_states)
    dist[oracle_condition_index(model, history)] = 1.0
    for _ in range(steps):
        dist = dist @ matrix
    return dist


def oracle_two_dependent_propagate(
    model, history: Sequence[int], steps: int
) -> np.ndarray:
    """Pre-vectorization 2-dependent propagation: the per-current-state
    loop over the flat combined-state distribution."""
    matrix = model._build_transition_matrix()  # (n^2, n)
    n = model.n_states
    combined = np.zeros(n * n)
    combined[oracle_condition_index(model, history)] = 1.0
    single = np.zeros(n)
    for _ in range(steps):
        # P(next single state) given the combined-state distribution.
        single = combined @ matrix
        # Advance the combined distribution: (prev, cur) -> (cur, next).
        next_combined = np.zeros(n * n)
        rows = combined.reshape(n, n)  # rows[prev, cur]
        cur_mass = rows.sum(axis=0)    # P(cur = c)
        for cur in range(n):
            if cur_mass[cur] <= 0.0:
                continue
            # Distribution of next given cur, weighted over prev;
            # combined rows for (prev, cur) live at index prev*n+cur.
            weights = rows[:, cur]
            row_indices = np.arange(n) * n + cur
            next_given = weights @ matrix[row_indices]
            next_combined[cur * n: (cur + 1) * n] += next_given
        combined = next_combined
    return single


def oracle_propagate(model, history: Sequence[int], steps: int) -> np.ndarray:
    """Pre-vectorization distribution ``steps`` transitions ahead, for
    either chain variant."""
    if isinstance(model, TwoDependentMarkovModel):
        return oracle_two_dependent_propagate(model, history, steps)
    if isinstance(model, SimpleMarkovModel):
        return oracle_simple_propagate(model, history, steps)
    raise NotImplementedError


def oracle_predict(
    predictor, recent_values: np.ndarray, steps: int
) -> PredictionResult:
    """The pre-vectorization ``AnomalyPredictor.predict``.

    Recomputes each chain's transition matrix from raw counts,
    propagates attribute-by-attribute in Python, and scores with the
    classifiers' scalar loops above.
    """
    predictor._require_trained()
    recent = oracle_check_recent(predictor, recent_values, steps)
    binned = predictor.discretizer.transform(recent)
    distributions: List[np.ndarray] = []
    predicted_bins: List[int] = []
    for j, model in enumerate(predictor.value_models):
        history = binned[:, j].tolist()
        dist = oracle_propagate(model, history, steps)
        distributions.append(dist)
        expected = float(np.dot(np.arange(predictor.n_bins), dist))
        predicted_bins.append(int(np.clip(round(expected), 0, predictor.n_bins - 1)))
    bins = tuple(predicted_bins)
    if predictor.prediction_mode == "hard":
        score = oracle_log_odds(predictor.classifier, bins)
        strengths = tuple(oracle_strengths(predictor.classifier, bins))
    else:
        strengths = tuple(
            oracle_expected_strengths(predictor.classifier, distributions)
        )
        score = oracle_expected_log_odds(predictor.classifier, distributions)
    return PredictionResult(
        abnormal=score > 0.0,
        probability=float(1.0 / (1.0 + np.exp(-score))),
        score=float(score),
        bins=bins,
        strengths=strengths,
        attributes=predictor.attributes,
        steps=steps,
    )


def oracle_from_score(
    score: float,
    bins: Sequence[int],
    strengths: Sequence[float],
    attributes: Tuple[str, ...],
    steps: int = 0,
) -> PredictionResult:
    """``PredictionResult.from_score``: the result for Eq. (1)
    statistic ``score``, abnormal when it is positive, with the
    logistic posterior."""
    score = float(score)
    return PredictionResult(
        abnormal=score > 0.0,
        probability=float(1.0 / (1.0 + np.exp(-score))),
        score=score,
        bins=tuple(int(b) for b in bins),
        strengths=tuple(float(v) for v in strengths),
        attributes=attributes,
        steps=steps,
    )


def oracle_classify_rows(scorer, items, final, sel, bounds):
    """``FleetScorer._classify_rows`` with its per-item loop: each
    item's expected bins, hard-mode gather, Eq. (1) sum and posterior
    computed on its own."""
    tensors = scorer._tensors
    rel_parent = tensors.rel_parent[sel]
    parent_local = rel_parent + np.repeat(
        bounds[:-1], np.diff(bounds)
    )
    is_root = tensors.is_root[sel]
    mask = tensors.mask[sel]
    roots = np.flatnonzero(is_root)
    children = np.flatnonzero(~is_root)
    strengths_all = np.zeros(sel.shape[0])
    if roots.size:
        strengths_all[roots] = np.einsum(
            "ac,ac->a", final[roots],
            np.ascontiguousarray(tensors.diff_soft[:, 0, :])[sel][roots],
        )
    if children.size:
        strengths_all[children] = np.einsum(
            "ap,apc,ac->a",
            final[parent_local[children]],
            tensors.diff_soft[sel][children],
            final[children],
        )
    strengths_all = np.where(mask, strengths_all, 0.0)
    diff_hard = tensors.diff_hard[sel]
    results: List[PredictionResult] = []
    for j, (vm, steps) in enumerate(items):
        predictor = scorer.predictors[vm]
        lo, hi = bounds[j], bounds[j + 1]
        predicted = expected_bins(final[lo:hi])
        if predictor.prediction_mode == "hard":
            clipped = np.clip(predicted, 0, predictor.n_bins - 1)
            raw = diff_hard[lo:hi][
                np.arange(hi - lo), clipped[rel_parent[lo:hi]], clipped
            ]
            strengths = np.where(mask[lo:hi], raw, 0.0)
        else:
            strengths = strengths_all[lo:hi]
        results.append(oracle_from_score(
            strengths.sum() + tensors.prior_diff[vm],
            predicted, strengths, predictor.attributes, steps,
        ))
    return results


# ----------------------------------------------------------------------
# The per-VM scoring copy
# ----------------------------------------------------------------------
# The VM's chains stacked into one operator, then the classifiers'
# batch methods, as they stood.
def oracle_check_recent(
    predictor, recent_values: np.ndarray, steps: int
) -> np.ndarray:
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    recent = np.asarray(recent_values, dtype=float)
    if recent.ndim != 2 or recent.shape[1] != len(predictor.attributes):
        raise ValueError(
            f"expected (n, {len(predictor.attributes)}) recent values, "
            f"got {recent.shape}"
        )
    if recent.shape[0] < predictor.history_needed:
        raise ValueError(
            f"need {predictor.history_needed} recent samples, "
            f"got {recent.shape[0]}"
        )
    return recent


def oracle_vm_distributions(
    predictor, histories: np.ndarray, steps: int
) -> np.ndarray:
    """``BatchedAttributeChains(value_models).predict_all``: every
    attribute's distribution at every horizon, ``(steps, a, n)``."""
    models = predictor.value_models
    n = models[0].n_states
    stacked = np.stack([m.transition_matrix() for m in models])
    two_dependent = isinstance(models[0], TwoDependentMarkovModel)
    if two_dependent:
        tensor = np.ascontiguousarray(stacked.reshape(len(models), n, n, n))
    else:
        tensor = np.ascontiguousarray(stacked)
    histories = np.asarray(histories, dtype=np.intp)
    a = tensor.shape[0]
    out = np.empty((steps, a, n))
    attrs = np.arange(a)
    if two_dependent:
        combined = np.zeros((a, n, n))
        combined[attrs, histories[-2], histories[-1]] = 1.0
        for k in range(steps):
            combined = np.einsum("apc,apcx->acx", combined, tensor)
            out[k] = combined.sum(axis=1)
    else:
        dist = np.zeros((a, n))
        dist[attrs, histories[-1]] = 1.0
        for k in range(steps):
            dist = np.einsum("ac,acx->ax", dist, tensor)
            out[k] = dist
    return out


def oracle_vm_strengths_batch(clf, X) -> np.ndarray:
    """``BayesClassifier.strengths_batch``: masked Eq. (2) strengths of
    binned samples, ``(m, a)``."""
    clf._require_trained()
    X = np.clip(np.atleast_2d(np.asarray(X, dtype=np.intp)), 0, clf.n_bins - 1)
    raw = clf._raw_strengths_batch(X)
    return np.where(clf.attribute_mask[None, :], raw, 0.0)


def oracle_vm_log_odds_batch(clf, X) -> np.ndarray:
    """``BayesClassifier.log_odds_batch``, ``(m,)``."""
    return oracle_vm_strengths_batch(clf, X).sum(axis=1) + clf._prior_diff


def oracle_vm_expected_strengths_batch(clf, D: np.ndarray) -> np.ndarray:
    """``BayesClassifier.expected_strengths_batch``: expected (soft)
    strengths of ``(m, a, n)`` distribution sets, ``(m, a)``."""
    clf._require_trained()
    D = np.asarray(D, dtype=float)
    roots = np.flatnonzero(clf.parents < 0)
    children = np.flatnonzero(clf.parents >= 0)
    S = np.zeros((D.shape[0], clf.n_attributes))
    if roots.size:
        S[:, roots] = np.einsum(
            "mrc,rc->mr", D[:, roots], clf._diff_soft[roots, 0, :]
        )
    if children.size:
        S[:, children] = np.einsum(
            "mrp,rpc,mrc->mr",
            D[:, clf._parent_or_self[children]],
            clf._diff_soft[children],
            D[:, children],
        )
    return np.where(clf.attribute_mask[None, :], S, 0.0)


def oracle_vm_expected_log_odds_batch(clf, D: np.ndarray) -> np.ndarray:
    """``BayesClassifier.expected_log_odds_batch``, ``(m,)``."""
    return oracle_vm_expected_strengths_batch(clf, D).sum(axis=1) + (
        clf._log_prior[ABNORMAL] - clf._log_prior[NORMAL]
    )


def oracle_vm_predict_horizons(
    predictor, recent_values: np.ndarray, steps: int
) -> List[PredictionResult]:
    """The per-VM ``AnomalyPredictor.predict_horizons``."""
    predictor._require_trained()
    recent = oracle_check_recent(predictor, recent_values, steps)
    binned = predictor.discretizer.transform(recent)
    dists = oracle_vm_distributions(predictor, binned, steps)
    bins = expected_bins(dists)
    clf = predictor.classifier
    if predictor.prediction_mode == "hard":
        scores = oracle_vm_log_odds_batch(clf, bins)
        strengths = oracle_vm_strengths_batch(clf, bins)
    else:
        strengths = oracle_vm_expected_strengths_batch(clf, dists)
        scores = oracle_vm_expected_log_odds_batch(clf, dists)
    return [
        oracle_from_score(
            scores[k], bins[k], strengths[k], predictor.attributes, k + 1
        )
        for k in range(steps)
    ]


def oracle_vm_predict(
    predictor, recent_values: np.ndarray, steps: int
) -> PredictionResult:
    """The per-VM ``AnomalyPredictor.predict``: the last horizon of one
    propagation, scored as a single sample."""
    predictor._require_trained()
    recent = oracle_check_recent(predictor, recent_values, steps)
    binned = predictor.discretizer.transform(recent)
    final = oracle_vm_distributions(predictor, binned, steps)[-1]
    bins = tuple(int(b) for b in expected_bins(final))
    clf = predictor.classifier
    if predictor.prediction_mode == "hard":
        return oracle_from_score(
            clf.log_odds(bins), bins, clf.attribute_strengths(bins),
            predictor.attributes, steps,
        )
    D = np.asarray(final)[None]
    return oracle_from_score(
        float(oracle_vm_expected_log_odds_batch(clf, D)[0]), bins,
        [float(v) for v in oracle_vm_expected_strengths_batch(clf, D)[0]],
        predictor.attributes, steps,
    )


def oracle_vm_classify_current(predictor, values) -> PredictionResult:
    """The per-VM ``AnomalyPredictor.classify_current``."""
    predictor._require_trained()
    bins = predictor.discretizer.transform(np.asarray(values, dtype=float))
    bins = tuple(int(b) for b in bins)
    clf = predictor.classifier
    return oracle_from_score(
        clf.log_odds(bins), bins, clf.attribute_strengths(bins),
        predictor.attributes,
    )


# ----------------------------------------------------------------------
# Diagnosis path
# ----------------------------------------------------------------------
def oracle_detect_change_point(
    window: np.ndarray, threshold: float = 4.5, min_samples: int = 6
) -> bool:
    values = np.asarray(window, dtype=float)
    if values.ndim != 1 or values.size < min_samples:
        return False
    half = values.size // 2
    first, second = values[:half], values[half:]
    pooled = np.sqrt(0.5 * (first.var() + second.var()))
    scale = max(pooled, 1e-3 * max(abs(values.mean()), 1.0))
    shift = abs(second.mean() - first.mean())
    return bool(shift > threshold * scale / np.sqrt(half))


def oracle_boundary(column: np.ndarray) -> float:
    """The threshold at which ``oracle_detect_change_point`` flips for
    this column, in the oracle's own arithmetic."""
    values = np.asarray(column, dtype=float)
    half = values.size // 2
    first, second = values[:half], values[half:]
    pooled = np.sqrt(0.5 * (first.var() + second.var()))
    scale = max(pooled, 1e-3 * max(abs(values.mean()), 1.0))
    shift = abs(second.mean() - first.mean())
    return float(shift * np.sqrt(half) / scale)


def oracle_fraction_changed(
    recent_windows: Mapping[str, np.ndarray],
    threshold: float,
    min_samples: int,
) -> float:
    if not recent_windows:
        return -1.0
    changed = 0
    for window in recent_windows.values():
        matrix = np.asarray(window, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] < min_samples:
            return -1.0
        if any(
            oracle_detect_change_point(matrix[:, j], threshold)
            for j in range(matrix.shape[1])
        ):
            changed += 1
    return changed / len(recent_windows)


def oracle_violation_epochs(y: np.ndarray) -> List[Tuple[int, int]]:
    y = np.asarray(y, dtype=np.intp)
    epochs: List[Tuple[int, int]] = []
    start = None
    for i, label in enumerate(y):
        if label and start is None:
            start = i
        elif not label and start is not None:
            epochs.append((start, i))
            start = None
    if start is not None:
        epochs.append((start, len(y)))
    return epochs


class LoopLocalizer(DeviationLocalizer):
    """:class:`DeviationLocalizer` with the per-VM epoch loop it used to
    have.  ``evidence`` records each epoch's ``(scores, onsets)``; the
    implicated-VM labelling (``_normal_profile``) is inherited."""

    @staticmethod
    def deviation_score(
        epoch_values: np.ndarray,
        normal_mean: np.ndarray,
        normal_std: np.ndarray,
    ) -> float:
        if epoch_values.size == 0:
            return 0.0
        epoch_mean = epoch_values.mean(axis=0)
        epoch_std = epoch_values.std(axis=0)
        scale = np.maximum(
            np.maximum(normal_std, epoch_std),
            1e-3 * np.maximum(np.abs(normal_mean), 1.0),
        )
        z = np.abs(epoch_mean - normal_mean) / scale
        return float(z.max())

    def localize(
        self,
        per_vm_values: Mapping[str, np.ndarray],
        labels: np.ndarray,
        per_vm_allocations: Optional[
            Mapping[str, Tuple[np.ndarray, np.ndarray]]
        ] = None,
    ) -> Dict[str, np.ndarray]:
        self.evidence = []
        labels = np.asarray(labels, dtype=np.intp)
        names = list(per_vm_values)
        matrices = {}
        for name in names:
            matrix = np.asarray(per_vm_values[name], dtype=float)
            if matrix.shape[0] != labels.shape[0]:
                raise ValueError(
                    f"{name}: {matrix.shape[0]} samples vs {labels.shape[0]} labels"
                )
            matrices[name] = matrix
        out = {name: np.zeros_like(labels) for name in names}
        epochs = oracle_violation_epochs(labels)
        if not epochs:
            return out

        for start, end in epochs:
            ref_end = max(0, start - self.reference_gap)
            ref_start = max(0, ref_end - self.reference_window)
            scores = {}
            ref_stats: Dict[str, Optional[Tuple[np.ndarray, np.ndarray]]] = {}
            for name in names:
                matrix = matrices[name]
                epoch_vals = matrix[start:end]
                reference = matrix[ref_start:ref_end]
                if per_vm_allocations is not None:
                    cpu, mem = per_vm_allocations[name]
                    cpu0, mem0 = cpu[start], mem[start]
                    cpu_tol = 0.02 * max(cpu0, 1e-9)
                    mem_tol = 0.02 * max(mem0, 1e-9)
                    same = (
                        np.abs(cpu[start:end] - cpu0) <= cpu_tol
                    ) & (np.abs(mem[start:end] - mem0) <= mem_tol)
                    if same.any() and not same.all():
                        epoch_vals = epoch_vals[same]
                    ref_same = (
                        np.abs(cpu[ref_start:ref_end] - cpu0) <= cpu_tol
                    ) & (np.abs(mem[ref_start:ref_end] - mem0) <= mem_tol)
                    if ref_same.sum() >= 3 and not ref_same.all():
                        reference = reference[ref_same]
                if reference.shape[0] < 3:
                    scores[name] = float("inf")
                    ref_stats[name] = None
                else:
                    ref_stats[name] = (
                        reference.mean(axis=0), reference.std(axis=0)
                    )
                    scores[name] = self.deviation_score(
                        epoch_vals, *ref_stats[name]
                    )
            onsets = {
                name: self._onset_index(
                    matrices[name], ref_stats[name], start, end
                )
                for name in names
            }
            self.evidence.append((scores, onsets))
            finite = {n: o for n, o in onsets.items() if o is not None}
            if finite:
                earliest = min(finite.values())
                implicated = [
                    n for n, o in finite.items()
                    if o <= earliest + self.onset_slack
                    and scores[n] >= self.min_score
                ]
                if not implicated:
                    implicated = [min(finite, key=finite.get)]
            else:
                top = max(scores.values())
                if top < self.min_score or not np.isfinite(top):
                    implicated = [n for n, s in scores.items() if s == top]
                else:
                    implicated = [
                        n for n, s in scores.items()
                        if s >= self.share_of_max * top and s >= self.min_score
                    ]
            for name in implicated:
                profile = self._normal_profile(
                    matrices[name], labels,
                    None if per_vm_allocations is None
                    else (per_vm_allocations[name], start),
                )
                if profile is None:
                    out[name][start:end] = 1
                    continue
                mean, std = profile
                scale = np.maximum(std, 1e-3 * np.maximum(np.abs(mean), 1.0))
                z = np.abs(matrices[name][start:end] - mean) / scale
                per_sample = z.max(axis=1)
                cutoff = max(self.min_score, 0.1 * float(per_sample.max()))
                deviant = per_sample >= cutoff
                out[name][start:end] = deviant.astype(out[name].dtype)
        return out

    def _onset_index(
        self,
        matrix: np.ndarray,
        ref: Optional[Tuple[np.ndarray, np.ndarray]],
        start: int,
        end: int,
        lead: int = 24,
    ) -> Optional[int]:
        if ref is None:
            return None
        mean, std = ref
        scale = np.maximum(std, 1e-3 * np.maximum(np.abs(mean), 1.0))
        scan_start = max(0, start - lead)
        z = np.abs(matrix[scan_start:end] - mean) / scale
        above = z.max(axis=1) > self.onset_threshold
        sustained = above[:-1] & above[1:]
        hits = np.flatnonzero(sustained)
        return int(scan_start + hits[0]) if hits.size else None


# ----------------------------------------------------------------------
# Simulator state
# ----------------------------------------------------------------------
@dataclass
class OracleActivity:
    """I/O activity the application component reports each model step.

    These feed the monitor's network/disk attributes; they have no
    feedback into the performance model (the paper's faults are CPU and
    memory faults).
    """

    net_in_kbps: float = 0.0
    net_out_kbps: float = 0.0
    disk_read_kbps: float = 0.0
    disk_write_kbps: float = 0.0


class OracleVM:
    """A guest VM with elastic CPU/memory allocations."""

    def __init__(self, name: str, spec: ResourceSpec) -> None:
        if not name:
            raise ValueError("VM name must be non-empty")
        self.name = name
        self._spec = spec
        self.host: Optional["Host"] = None
        self.migrating = False
        self.activity = OracleActivity()
        self._cpu_demands: Dict[str, float] = {}
        self._mem_demands: Dict[str, float] = {}
        self._thrash = 1.0
        # Memo for _slowdown_target: (total demand, allocation) -> value.
        # Healthy VMs re-derive an identical slowdown every simulated
        # second; one float compare per input replaces the arithmetic.
        # Kept as two scalars (not a tuple) to avoid an allocation per
        # VM per simulated second.
        self._sd_total = -1.0
        self._sd_alloc = -1.0
        self._sd_val = 1.0
        # Plain-attribute mirrors of the allocation (property access is
        # a measurable cost in the per-second hot loop) and lazily
        # cached demand totals, invalidated whenever the corresponding
        # demand dict actually changes.  The totals are recomputed with
        # the exact same ``sum`` over the same insertion order, so the
        # cache is bitwise-transparent.
        self._cpu_alloc = spec.cpu_cores
        self._mem_alloc = spec.memory_mb
        self._cpu_total: Optional[float] = None
        self._mem_total: Optional[float] = None
        # Memo for potential_cpu keyed by consumer.  The ceiling depends
        # only on the *other* consumers' demands and the allocation —
        # never on the queried consumer's own demand — so an entry stays
        # valid across the every-step updates of that consumer's own
        # demand and is dropped only when a competitor's demand or the
        # allocation changes.  ``_pc_sole`` names the consumer when the
        # cache holds exactly that consumer's entry (the steady state),
        # letting set_cpu_demand skip invalidation with one compare.
        self._pc_cache: Dict[str, float] = {}
        self._pc_sole: Optional[str] = None

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    @property
    def spec(self) -> ResourceSpec:
        """Current (CPU cores, memory MB) allocation."""
        return self._spec

    @property
    def cpu_allocated(self) -> float:
        return self._cpu_alloc

    @property
    def mem_allocated_mb(self) -> float:
        return self._mem_alloc

    def set_allocation(self, kind: ResourceKind, amount: float) -> None:
        """Change one allocation dimension (the hypervisor calls this)."""
        if amount <= 0:
            raise ResourceError(f"{self.name}: allocation must stay positive, got {amount}")
        self._spec = self._spec.with_amount(kind, amount)
        self._cpu_alloc = self._spec.cpu_cores
        self._mem_alloc = self._spec.memory_mb
        self._pc_cache.clear()
        self._pc_sole = None

    # ------------------------------------------------------------------
    # CPU model
    # ------------------------------------------------------------------
    def set_cpu_demand(self, consumer: str, cores: float) -> None:
        """Declare a consumer's CPU demand in cores; 0 removes it."""
        if cores < 0:
            raise ResourceError(f"negative CPU demand {cores} from {consumer}")
        demands = self._cpu_demands
        if cores == 0:
            if consumer not in demands:
                return
            del demands[consumer]
        else:
            if demands.get(consumer) == cores:
                return
            demands[consumer] = cores
        self._cpu_total = None
        # A consumer's own demand never affects its own ceiling; only
        # the *other* consumers' memoized ceilings go stale.  In the
        # steady state the cache holds exactly the changing consumer's
        # own entry (``_pc_sole``), so there is nothing to drop.
        cache = self._pc_cache
        if cache and self._pc_sole != consumer:
            keep = cache.get(consumer)
            cache.clear()
            if keep is not None:
                cache[consumer] = keep
                self._pc_sole = consumer
            else:
                self._pc_sole = None

    def total_cpu_demand(self) -> float:
        total = self._cpu_total
        if total is None:
            total = self._cpu_total = sum(self._cpu_demands.values())
        return total

    @staticmethod
    def _max_min_grants(demands: Dict[str, float], capacity: float) -> Dict[str, float]:
        """Water-filling max-min fair allocation of ``capacity``.

        Mirrors an equal-weight fair scheduler inside the guest: every
        runnable consumer is entitled to an equal share; demand below
        the share is fully granted and the surplus is redistributed.
        """
        grants = {name: 0.0 for name in demands}
        remaining = capacity
        unsatisfied = {name: demand for name, demand in demands.items() if demand > 0}
        while unsatisfied and remaining > 1e-12:
            share = remaining / len(unsatisfied)
            fulfilled = [n for n, d in unsatisfied.items() if d <= share]
            if fulfilled:
                for name in fulfilled:
                    grants[name] = demands[name]
                    remaining -= unsatisfied.pop(name)
            else:
                for name in unsatisfied:
                    grants[name] = share
                remaining = 0.0
                unsatisfied = {}
        return grants

    def cpu_share(self, consumer: str) -> float:
        """Cores actually granted to ``consumer`` under max-min fairness."""
        demands = self._cpu_demands
        if consumer not in demands:
            return 0.0
        if len(demands) == 1:
            # Sole consumer: water-filling grants min(demand, capacity)
            # (and nothing when the capacity is below the redistribution
            # epsilon, where the loop never runs).
            capacity = self.cpu_allocated
            if capacity <= 1e-12:
                return 0.0
            demand = demands[consumer]
            return demand if demand <= capacity else capacity
        grants = self._max_min_grants(demands, self.cpu_allocated)
        return grants[consumer]

    def potential_cpu(self, consumer: str) -> float:
        """Cores ``consumer`` *could* obtain if it demanded unboundedly.

        This is the capacity ceiling the application's queueing model
        saturates against: the allocation minus what the other
        consumers (e.g. an injected CPU hog) would still hold under
        max-min fairness against a saturating competitor.
        """
        cached = self._pc_cache.get(consumer)
        if cached is not None:
            return cached
        demands = self._cpu_demands
        n = len(demands)
        if n == 0 or (n == 1 and consumer in demands):
            # No competitors: a saturating consumer takes the whole
            # allocation (water-filling grants it everything, or nothing
            # when the capacity is below the epsilon — either way the
            # others hold zero).
            value = self._cpu_alloc
        else:
            others = {
                name: demand
                for name, demand in demands.items()
                if name != consumer
            }
            scenario = dict(others)
            scenario[consumer] = float("inf")
            grants = self._max_min_grants(scenario, self._cpu_alloc)
            value = self._cpu_alloc - sum(grants[name] for name in others)
        cache = self._pc_cache
        cache[consumer] = value
        self._pc_sole = consumer if len(cache) == 1 else None
        return value

    def cpu_usage_cores(self) -> float:
        """Cores actually consumed (min of demand and allocation)."""
        return min(self.total_cpu_demand(), self.cpu_allocated)

    def cpu_utilization(self) -> float:
        """Fraction of the allocation in use, in [0, 1]."""
        if self.cpu_allocated == 0:
            return 0.0
        return self.cpu_usage_cores() / self.cpu_allocated

    # ------------------------------------------------------------------
    # Memory model
    # ------------------------------------------------------------------
    def set_mem_demand(self, consumer: str, mb: float) -> None:
        """Declare a consumer's resident-set size in MB; 0 removes it."""
        if mb < 0:
            raise ResourceError(f"negative memory demand {mb} from {consumer}")
        demands = self._mem_demands
        if mb == 0:
            if consumer not in demands:
                return
            del demands[consumer]
        else:
            if demands.get(consumer) == mb:
                return
            demands[consumer] = mb
        self._mem_total = None

    def total_mem_demand_mb(self) -> float:
        total = self._mem_total
        if total is None:
            total = self._mem_total = sum(self._mem_demands.values())
        return total

    def mem_used_mb(self) -> float:
        """Resident memory (cannot exceed the allocation)."""
        return min(self.total_mem_demand_mb(), self.mem_allocated_mb)

    def free_mem_mb(self) -> float:
        return max(0.0, self.mem_allocated_mb - self.total_mem_demand_mb())

    def swap_used_mb(self) -> float:
        return max(0.0, self.total_mem_demand_mb() - self.mem_allocated_mb)

    def cache_pressure(self) -> float:
        """Page-cache starvation level in [0, 1] (1 = no cache left)."""
        return max(0.0, 1.0 - self.free_mem_mb() / CACHE_PRESSURE_MB)

    def _slowdown_target(self) -> float:
        """Instantaneous slowdown implied by memory state.

        Two phases, as on a real Linux guest: a mild, gradually growing
        penalty as the page cache is squeezed out, then the steep
        thrashing penalty once demand spills into swap.
        """
        allocated = self._mem_alloc
        if allocated == 0:
            return 1.0
        # Single pass over the demand dict; the sub-expressions below
        # are exactly swap_used_mb(), cache_pressure() and the original
        # ratio, just without summing the demands three times over.
        total = self._mem_total
        if total is None:
            total = self._mem_total = sum(self._mem_demands.values())
        if total == self._sd_total and allocated == self._sd_alloc:
            return self._sd_val
        swap = max(0.0, total - allocated)
        free = max(0.0, allocated - total)
        cache = max(0.0, 1.0 - free / CACHE_PRESSURE_MB)
        value = 1.0 + CACHE_PRESSURE_PENALTY * cache + SWAP_PENALTY * (swap / allocated)
        self._sd_total = total
        self._sd_alloc = allocated
        self._sd_val = value
        return value

    def tick(self, dt: float) -> None:
        """Advance inertial state (the application model calls this
        once per step before reading capacities)."""
        if dt <= 0:
            return
        # Inlined _slowdown_target memo hit: the overwhelmingly common
        # case (healthy VM, unchanged demands) is a pair of float
        # compares with no call.
        total = self._mem_total
        if total is not None and total == self._sd_total \
                and self._mem_alloc == self._sd_alloc:
            target = self._sd_val
        else:
            target = self._slowdown_target()
        if target == self._thrash:
            # Converged (the common healthy steady state at 1.0): the
            # EWMA update would add alpha * 0.0 — skip the exp().
            return
        tau = THRASH_TAU_UP if target > self._thrash else THRASH_TAU_DOWN
        alpha = 1.0 - math.exp(-dt / tau)
        self._thrash += alpha * (target - self._thrash)

    def memory_slowdown(self) -> float:
        """Service-time multiplier (>= 1) caused by swap thrashing.

        Follows the instantaneous swap pressure with asymmetric
        inertia: thrashing sets in within seconds, but recovery after
        pressure is relieved takes tens of seconds (pages must fault
        back in).
        """
        return self._thrash

    # ------------------------------------------------------------------
    # Effective application capacity
    # ------------------------------------------------------------------
    def _degradation(self) -> float:
        """Combined slowdown from swapping and in-flight migration."""
        factor = 1.0 / self.memory_slowdown()
        if self.migrating:
            factor *= MIGRATION_DEGRADATION
        return factor

    def effective_app_cpu(self, consumer: str = "app") -> float:
        """Cores effectively delivered to the application right now.

        The fair CPU share degraded by swap thrashing and any in-flight
        live migration.
        """
        return self.cpu_share(consumer) * self._degradation()

    def effective_capacity(self, consumer: str = "app") -> float:
        """Capacity ceiling for the application's queueing model.

        The cores the component could obtain at saturation
        (:meth:`potential_cpu`), degraded by swap thrashing and any
        in-flight migration.
        """
        return self.potential_cpu(consumer) * self._degradation()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        host = self.host.name if self.host else None
        return (
            f"OracleVM({self.name!r}, cpu={self.cpu_allocated:.2f}, "
            f"mem={self.mem_allocated_mb:.0f}MB, host={host!r})"
        )


class OracleFleetApp(DistributedApplication):
    """:class:`UniformFleetApp` with the per-node step it used to have
    (each node's tick fused into its iteration); step it with
    :meth:`_step`."""

    # advance() fuses each VM's tick into its per-node iteration (the
    # tick precedes that node's demand updates and only touches the
    # VM's own state, so the result is identical to the generic
    # all-ticks-first pass).
    _ticks_in_advance = True

    def __init__(
        self,
        sim: Simulator,
        workload: Workload,
        vms: Sequence[OracleVM],
        cpu_cost_per_req: float = 5.0e-3,
        base_memory_mb: float = 520.0,
        throughput_ratio_slo: float = 0.95,
        latency_slo_s: float = 0.040,
    ) -> None:
        if not vms:
            raise ValueError("fleet needs at least one VM")
        slo = SLOTracker(lambda _metric: False, name=f"fleet{len(vms)}")
        super().__init__(sim, workload, slo)
        self.throughput_ratio_slo = throughput_ratio_slo
        self.latency_slo_s = latency_slo_s
        width = max(2, len(str(len(vms))))
        for index, vm in enumerate(vms):
            self.add_component(
                AppComponent(
                    name=f"node{index + 1:0{width}d}",
                    vm=vm,
                    cpu_cost=cpu_cost_per_req,
                    base_memory_mb=base_memory_mb,
                )
            )
        self._node_names: Tuple[str, ...] = tuple(self._components)
        # Per-node hot-loop bindings: the component set, each node's VM,
        # its (stable) activity record and its cost constants never
        # change after construction, so advance() walks this tuple
        # instead of re-resolving four attribute chains per node per
        # simulated second.
        self._nodes = tuple(
            (name, comp, comp.vm, comp.vm.activity,
             comp.cpu_cost, comp.base_memory_mb)
            for name, comp in self._components.items()
        )
        #: Per-node request backlog (bounded input queue, requests).
        self.backlog: Dict[str, float] = {name: 0.0 for name in self._node_names}
        #: Input-buffer bound in seconds of nominal node capacity.
        self.backlog_cap_seconds = 2.0
        # The app's resident set is constant, and no other code path
        # ever touches the APP_CONSUMER memory entry, so it is
        # registered once on the first step instead of re-asserted per
        # node per simulated second.
        self._mem_registered = False
        #: Last computed state, exposed for tests and traces.
        self.last_input_rate = 0.0
        self.last_output_rate = 0.0
        self.last_worst_latency = 0.0
        self.last_outputs: Dict[str, float] = {}

    @property
    def node_names(self) -> List[str]:
        return list(self._node_names)

    @property
    def fault_node(self) -> str:
        """Canonical fault target: the last node (mirrors PE4/db picks)."""
        return self._node_names[-1]

    def advance(self, now: float, dt: float) -> Tuple[float, Optional[bool]]:
        input_rate = self.workload.rate(now)
        arrival = input_rate / len(self._node_names)
        backlog = self.backlog
        output_rate = 0.0
        worst_latency = 0.0
        outputs: Dict[str, float] = {}
        cap_seconds = self.backlog_cap_seconds
        arrival_dt = arrival * dt
        net_in = arrival * 1.6
        register_mem = not self._mem_registered
        for name, component, vm, activity, cost, base_mb in self._nodes:
            # Fused tick: runs before this node's demand updates, and a
            # tick reads only its own VM's memory state — which only
            # this node's iteration modifies — so the result matches
            # the generic all-ticks-first pass bit for bit.  (On the
            # very first step the tick must see an *empty* demand set,
            # hence the registration below comes after it.)
            vm.tick(dt)
            # Inlined AppComponent.register_demand / .capacity: same
            # operations in the same order, minus two wrapper frames
            # per node per step.  min()/max() calls are replaced with
            # branches that pick the identical operand.
            vm.set_cpu_demand(APP_CONSUMER, arrival * cost)
            if register_mem:
                vm.set_mem_demand(APP_CONSUMER, base_mb)
            if cost <= 0:
                capacity = float("inf")
            else:
                # Inlined OracleVM._degradation and the
                # potential_cpu memo's hit path.
                pc = vm._pc_cache.get(APP_CONSUMER)
                if pc is None:
                    pc = vm.potential_cpu(APP_CONSUMER)
                factor = 1.0 / vm._thrash
                if vm.migrating:
                    factor *= MIGRATION_DEGRADATION
                capacity = pc * factor / cost
            inflow = backlog[name] + arrival_dt
            cap_dt = capacity * dt
            served = inflow if inflow <= cap_dt else cap_dt
            queue = inflow - served
            if queue <= 0.0:
                queue = 0.0
            cap = cap_seconds * capacity
            if queue > cap:
                queue = cap
            backlog[name] = queue
            output = served / dt
            outputs[name] = output
            output_rate += output
            # Inlined _latency (M/M/1 sojourn, clamped at saturation).
            if capacity > 0:
                waiting = queue / capacity
                rho = arrival / capacity
                if rho >= _RHO_CLAMP:
                    latency = _MAX_LATENCY
                else:
                    latency = 1.0 / capacity / (1.0 - rho)
                    if latency > _MAX_LATENCY:
                        latency = _MAX_LATENCY
                    else:
                        latency += waiting
            else:
                waiting = _MAX_LATENCY
                latency = _MAX_LATENCY + waiting
            if latency > _MAX_LATENCY:
                latency = _MAX_LATENCY
            if latency > worst_latency:
                worst_latency = latency
            activity.net_in_kbps = net_in
            activity.net_out_kbps = output * 4.0
            activity.disk_read_kbps = output * 0.4
            activity.disk_write_kbps = output * 0.2

        if register_mem:
            self._mem_registered = True
        self.last_input_rate = input_rate
        self.last_output_rate = output_rate
        self.last_worst_latency = worst_latency
        self.last_outputs = outputs

        ratio = output_rate / input_rate if input_rate > 0 else 1.0
        violated = (
            worst_latency > self.latency_slo_s
            or ratio < self.throughput_ratio_slo
        )
        # The reported SLO metric is aggregate throughput in Kreq/s.
        return output_rate / 1000.0, violated

    def _step(self, now: float) -> None:
        metric, violated = self.advance(now, self.STEP_INTERVAL)
        self.slo.observe(now, metric, violated=violated)


class _LoadState:
    """Per-VM EWMA state for the load-average attributes."""

    __slots__ = ("load1", "load5")

    def __init__(self) -> None:
        self.load1 = 0.0
        self.load5 = 0.0

    def update(self, runqueue: float, a1: float, a5: float) -> None:
        """Fold one observation in; ``a1``/``a5`` are the per-interval
        smoothing factors (constant for a fixed sampling interval, so
        the monitor precomputes them instead of exp()-ing per sample)."""
        self.load1 += a1 * (runqueue - self.load1)
        self.load5 += a5 * (runqueue - self.load5)


class OracleMonitor(VMMonitor):
    """:class:`VMMonitor` with the per-VM raw rows it used to have:
    ``_raw_row`` per VM folding a ``_LoadState``, and the fleet and
    read-drop rounds built from them; it watches ``OracleVM`` objects."""

    def __init__(
        self,
        sim: Simulator,
        vms: Sequence[OracleVM],
        interval: float = DEFAULT_SAMPLING_INTERVAL,
        rng: Optional[np.random.Generator] = None,
        noise_scale: float = 1.0,
        drop_rate: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self._sim = sim
        self._vms = list(vms)
        self.interval = interval
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._noise_scale = noise_scale
        #: Probability that an individual VM read fails in a round.  A
        #: failed read is replaced by a forward-filled repeat of the
        #: previous sample (marked ``stale``), so per-VM traces stay
        #: aligned — the contract every downstream consumer relies on.
        self.drop_rate = drop_rate
        # Hot-path constants: the load-average smoothing factors for
        # this interval and the scaled noise-std vector (ATTRIBUTES
        # order) for the one-shot gaussian draw in sample_vm.
        self._alpha1 = 1.0 - np.exp(-interval / _LOAD1_WINDOW)
        self._alpha5 = 1.0 - np.exp(-interval / _LOAD5_WINDOW)
        self._noise_vec = _NOISE_STD_VEC * noise_scale
        # Fleet-wide noise-scale matrix for batched collection, built
        # lazily for the current VM count (a zero-copy broadcast view).
        self._noise_mat: Optional[np.ndarray] = None
        self._loads: Dict[str, _LoadState] = {vm.name: _LoadState() for vm in self._vms}
        self._names = tuple(vm.name for vm in self._vms)
        self.traces = MonitorTrace(self._names)
        self._listeners: List[Callable[[SampleBlock], None]] = []
        self._task: Optional[PeriodicTask] = None
        self._interceptor: Optional[
            Callable[[SampleBlock, Callable[[SampleBlock], None]], None]
        ] = None

    def sample_vm(self, vm: OracleVM, timestamp: float) -> MetricSample:
        """Measure one VM now (noise included).

        The 13 attributes are derived once from shared VM state (the
        demand sums and utilization the individual accessors would each
        recompute) and perturbed with a single vectorized gaussian draw
        that consumes the generator stream exactly like the thirteen
        per-attribute scalar draws it replaces.
        """
        noisy, cpu_allocated, mem_allocated = self._measure(vm)
        return MetricSample(
            vm=vm.name,
            timestamp=timestamp,
            values=dict(zip(ATTRIBUTES, noisy.tolist())),
            cpu_allocated=cpu_allocated,
            mem_allocated_mb=mem_allocated,
        )

    def _measure(self, vm: OracleVM) -> Tuple[np.ndarray, float, float]:
        """One VM's noisy row, from its own gaussian draw, and allocations."""
        row, cpu_allocated, mem_allocated = self._raw_row(vm)
        noisy = np.array(row) + self._rng.normal(0.0, self._noise_vec)
        np.maximum(noisy, 0.0, out=noisy)
        if noisy[0] > 100.0:
            noisy[0] = 100.0
        return noisy, cpu_allocated, mem_allocated

    def _raw_row(self, vm: OracleVM) -> Tuple[List[float], float, float]:
        """Raw (pre-noise) attribute row plus the VM's allocations.

        Folds the VM's run queue into the load EWMAs as a side effect —
        call exactly once per VM per round.
        """
        # Inlined total_cpu_demand / total_mem_demand_mb cache reads.
        total_cpu = vm._cpu_total
        if total_cpu is None:
            total_cpu = vm._cpu_total = sum(vm._cpu_demands.values())
        cpu_allocated = vm._cpu_alloc
        usage_cores = total_cpu if total_cpu < cpu_allocated else cpu_allocated
        utilization = 0.0 if cpu_allocated == 0 else usage_cores / cpu_allocated

        load = self._loads[vm.name]
        load.update(total_cpu, self._alpha1, self._alpha5)

        mem_allocated = vm._mem_alloc
        total_mem = vm._mem_total
        if total_mem is None:
            total_mem = vm._mem_total = sum(vm._mem_demands.values())
        # Branches replace the max() builtins; each picks the exact
        # operand the original call returned.
        swap = total_mem - mem_allocated
        if swap <= 0.0:
            swap = 0.0
        free_mem = mem_allocated - total_mem
        if free_mem <= 0.0:
            free_mem = 0.0
        cache_pressure = 1.0 - free_mem / CACHE_PRESSURE_MB
        if cache_pressure <= 0.0:
            cache_pressure = 0.0
        # Major faults scale with how hard the guest is thrashing.
        page_faults = 2.0 + 90.0 * (
            swap / (mem_allocated if mem_allocated > 1.0 else 1.0)
        )
        # Context switches track overall activity (hundreds per second).
        ctx = 200.0 + 600.0 * utilization
        # Page-cache starvation shows up as extra physical reads well
        # before hard swapping starts (see repro.sim.vm).
        cache_miss_reads = 90.0 * cache_pressure

        residual = cpu_allocated - usage_cores
        if residual <= 0.0:
            residual = 0.0

        activity = vm.activity
        row = [
            100.0 * utilization,                         # cpu_usage
            residual,                                    # residual_cpu
            load.load1,
            load.load5,
            free_mem,
            min(total_mem, mem_allocated),               # mem_used
            swap,
            page_faults + 25.0 * cache_pressure,
            activity.net_in_kbps,
            activity.net_out_kbps,
            activity.disk_read_kbps + cache_miss_reads,
            activity.disk_write_kbps,
            ctx,
        ]
        return row, cpu_allocated, mem_allocated

    def _measure_fleet(self) -> Tuple[np.ndarray, List[float], List[float]]:
        """Every VM's noisy row from a single fleet-wide noise draw.

        With ``drop_rate == 0`` the generator is consumed strictly in
        VM-major, attribute-minor order, so one ``(n_vms, 13)`` gaussian
        draw produces the bit-identical stream of the per-VM draws (a
        broadcast fill walks the output in C order) while paying the
        numpy dispatch cost once per round instead of once per VM.
        """
        rows = []
        cpu = []
        mem = []
        for vm in self._vms:
            row, cpu_allocated, mem_allocated = self._raw_row(vm)
            rows.append(row)
            cpu.append(cpu_allocated)
            mem.append(mem_allocated)
        noise = self._noise_mat
        if noise is None or noise.shape[0] != len(rows):
            noise = self._noise_mat = np.broadcast_to(
                self._noise_vec, (len(rows), self._noise_vec.size)
            )
        noisy = np.array(rows, dtype=float).reshape(-1, self._noise_vec.size)
        noisy += self._rng.normal(0.0, noise)
        np.maximum(noisy, 0.0, out=noisy)
        cpu_col = noisy[:, 0]
        np.minimum(cpu_col, 100.0, out=cpu_col)
        return noisy, cpu, mem

    def _measure_with_drops(
        self, stale: np.ndarray
    ) -> Tuple[np.ndarray, List[float], List[float]]:
        """Every VM's row when reads can fail.

        The drop roll and the noise draw interleave per VM, so each VM
        keeps its own draw.  A failed read repeats the VM's previous
        round (flagged in ``stale``); the first round never fails.
        """
        trace = self.traces
        last = trace.rounds - 1
        noisy = np.empty((len(self._vms), self._noise_vec.size))
        cpu = []
        mem = []
        for i, vm in enumerate(self._vms):
            if last >= 0 and self._rng.random() < self.drop_rate:
                noisy[i] = trace._readings[last, i]
                cpu.append(trace._cpu[last, i])
                mem.append(trace._mem[last, i])
                stale[i] = True
            else:
                noisy[i], cpu_allocated, mem_allocated = self._measure(vm)
                cpu.append(cpu_allocated)
                mem.append(mem_allocated)
        return noisy, cpu, mem


# ----------------------------------------------------------------------
# Ingest path
# ----------------------------------------------------------------------
class ListMonitor(OracleMonitor):
    """:class:`VMMonitor` with the per-sample collection it used to have:
    one :class:`MetricSample` per VM per round, kept in per-VM lists
    (``traces``) and dispatched to listeners as a list."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.traces = {vm.name: [] for vm in self._vms}

    def _collect(self, now: float) -> None:
        if self.drop_rate == 0.0 and self._vms:
            self._collect_batched(now)
            return
        batch = []
        for vm in self._vms:
            trace = self.traces[vm.name]
            dropped = (
                self.drop_rate > 0.0
                and trace
                and self._rng.random() < self.drop_rate
            )
            if dropped:
                previous = trace[-1]
                sample = MetricSample(
                    vm=previous.vm,
                    timestamp=now,
                    values=dict(previous.values),
                    cpu_allocated=previous.cpu_allocated,
                    mem_allocated_mb=previous.mem_allocated_mb,
                    stale=True,
                )
            else:
                sample = self.sample_vm(vm, now)
            trace.append(sample)
            batch.append(sample)
        if self._interceptor is None:
            self._dispatch(batch)
        else:
            self._interceptor(batch, self._dispatch)

    def _collect_batched(self, now: float) -> None:
        vms = self._vms
        rows = []
        allocs = []
        for vm in vms:
            row, cpu_allocated, mem_allocated = self._raw_row(vm)
            rows.append(row)
            allocs.append((cpu_allocated, mem_allocated))
        noise = self._noise_mat
        if noise is None or noise.shape[0] != len(vms):
            noise = self._noise_mat = np.broadcast_to(
                self._noise_vec, (len(vms), self._noise_vec.size)
            )
        noisy = np.array(rows) + self._rng.normal(0.0, noise)
        np.maximum(noisy, 0.0, out=noisy)
        cpu_col = noisy[:, 0]
        np.minimum(cpu_col, 100.0, out=cpu_col)
        batch = []
        traces = self.traces
        for vm, (cpu_allocated, mem_allocated), values in zip(
            vms, allocs, noisy.tolist()
        ):
            sample = MetricSample(
                vm=vm.name,
                timestamp=now,
                values=dict(zip(ATTRIBUTES, values)),
                cpu_allocated=cpu_allocated,
                mem_allocated_mb=mem_allocated,
            )
            traces[vm.name].append(sample)
            batch.append(sample)
        if self._interceptor is None:
            self._dispatch(batch)
        else:
            self._interceptor(batch, self._dispatch)


class OracleTrainingBuffer:
    """One VM's own grow-and-compact training window, filled one
    :class:`MetricSample` at a time."""

    def __init__(
        self,
        slo,
        attributes: Sequence[str] = ATTRIBUTES,
        max_samples: int = 2000,
    ) -> None:
        self._slo = slo
        self.attributes = tuple(attributes)
        self.max_samples = max_samples
        capacity = 2 * max_samples
        n_attrs = len(self.attributes)
        self._values_buf = np.empty((capacity, n_attrs))
        self._times_buf = np.empty(capacity)
        self._cpu_buf = np.empty(capacity)
        self._mem_buf = np.empty(capacity)
        self._imputed_buf = np.empty(capacity, dtype=bool)
        self._start = 0
        self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    def append(self, sample: MetricSample) -> None:
        if self._end == self._values_buf.shape[0]:
            self._compact()
        i = self._end
        self._values_buf[i] = sample.vector(self.attributes)
        self._times_buf[i] = sample.timestamp
        self._cpu_buf[i] = sample.cpu_allocated
        self._mem_buf[i] = sample.mem_allocated_mb
        self._imputed_buf[i] = sample.imputed
        self._end = i + 1
        if self._end - self._start > self.max_samples:
            self._start = self._end - self.max_samples

    def _compact(self) -> None:
        n = self._end - self._start
        sl = slice(self._start, self._end)
        self._values_buf[:n] = self._values_buf[sl]
        self._times_buf[:n] = self._times_buf[sl]
        self._cpu_buf[:n] = self._cpu_buf[sl]
        self._mem_buf[:n] = self._mem_buf[sl]
        self._imputed_buf[:n] = self._imputed_buf[sl]
        self._start = 0
        self._end = n

    def window(self) -> Tuple[np.ndarray, ...]:
        """``(values, times, cpu, mem, imputed)`` of the live window."""
        sl = slice(self._start, self._end)
        return (self._values_buf[sl], self._times_buf[sl], self._cpu_buf[sl],
                self._mem_buf[sl], self._imputed_buf[sl])


class OracleIngest:
    """The controller's per-sample ingest: ``_sanitize_batch`` repairs a
    list of samples, then each lands in its VM's own buffer.  The
    counters stand in for ``prepare_imputed_samples_total`` and
    ``prepare_samples_ingested_total``."""

    def __init__(self, slo, names: Sequence[str], max_samples: int = 2000):
        self.buffers = {
            name: OracleTrainingBuffer(slo, max_samples=max_samples)
            for name in names
        }
        self._last_real: Dict[str, float] = {}
        self._last_values: Dict[str, Dict[str, float]] = {}
        self._last_alloc: Dict[str, Tuple[float, float]] = {}
        self.resilience_stats = {"imputed_samples": 0}
        self.imputed_by_vm: Dict[str, int] = {}
        self.ingested = 0

    def on_samples(self, batch: List[MetricSample], now: float) -> None:
        batch = self._sanitize_batch(batch, now)
        for sample in batch:
            buffer = self.buffers.get(sample.vm)
            if buffer is not None:
                buffer.append(sample)
        self.ingested += len(batch)

    def _count_imputed(self, vm: str) -> None:
        self.imputed_by_vm[vm] = self.imputed_by_vm.get(vm, 0) + 1

    def _sanitize_batch(
        self, batch: List[MetricSample], now: float
    ) -> List[MetricSample]:
        ts = batch[0].timestamp if batch else now
        out: List[MetricSample] = []
        seen = set()
        buffers = self.buffers
        last_values = self._last_values
        for sample in batch:
            vm = sample.vm
            if vm in buffers:
                seen.add(vm)
                if math.isfinite(sum(sample.values.values())):
                    self._last_real[vm] = sample.timestamp
                else:
                    last = last_values.get(vm, {})
                    fixed = {
                        name: value if math.isfinite(value)
                        else last.get(name, 0.0)
                        for name, value in sample.values.items()
                    }
                    sample = dataclasses.replace(
                        sample, values=fixed, imputed=True
                    )
                    self.resilience_stats["imputed_samples"] += 1
                    self._count_imputed(vm)
                last_values[vm] = sample.values
                self._last_alloc[vm] = (
                    sample.cpu_allocated, sample.mem_allocated_mb
                )
            out.append(sample)
        for name in self.buffers:
            if name in seen:
                continue
            last = self._last_values.get(name)
            if last is None:
                continue  # no real contact yet: nothing to impute from
            cpu, mem = self._last_alloc[name]
            out.append(
                MetricSample(
                    vm=name, timestamp=ts, values=dict(last),
                    cpu_allocated=cpu, mem_allocated_mb=mem,
                    stale=True, imputed=True,
                )
            )
            self.resilience_stats["imputed_samples"] += 1
            self._count_imputed(name)
        return out
