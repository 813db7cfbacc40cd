"""The loops the refit path replaced, kept verbatim as test oracles.

``src/`` counts with one integer ``np.bincount`` and fills the horizon
table lazily; these are the one-hot TAN fit, the per-pair CMI, the
per-attribute naive-Bayes counts and the eager k-step horizon operator
as they stood before.  ``test_refit_kernels.py`` demands bitwise
equality with them.
"""

from typing import List

import numpy as np

from repro.core.bayes import (
    ABNORMAL,
    NORMAL,
    ORDINAL_KERNEL_WEIGHT,
    _class_log_prior_from_counts,
    check_training_data,
    ordinal_smooth,
    select_attributes,
)
from repro.core.tan import CPT_BACKOFF, TANClassifier


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
        self.parents = self._maximum_spanning_tree(
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
                marg_raw = ordinal_smooth(marg_raw, axis=1)
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
                    raw = ordinal_smooth(ordinal_smooth(raw, axis=2), axis=1)
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
        self._build_scoring_tensors(parent_or_self)


def oracle_naive_counts(X, y, n_bins):
    """Per-class, per-attribute bincount loop of
    ``NaiveBayesClassifier._accumulate``: ``((a, 2, b), (2,))``."""
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
