"""Tree-Augmented Naive Bayes (TAN) anomaly classifier.

The paper adopts the TAN model of Cohen et al. [12] for two reasons
(Sec. II-B/II-C): it captures dependencies among system metrics, and
its per-attribute log-likelihood-ratio decomposition gives a ranked
list of the metrics most related to a predicted anomaly — the signal
the prevention actuator scales.

Structure learning is the classic Chow–Liu construction restricted to
class-conditioned attributes (Friedman et al. 1997):

1. estimate the conditional mutual information I(a_i; a_j | C) for all
   attribute pairs from the discretized training data;
2. build a maximum-weight spanning tree over the attributes;
3. root the tree at attribute 0 and direct edges outward — each
   attribute gets at most one attribute parent, plus the class.

Classification implements Eq. (1):

    sum_i log[P(a_i | a_pi, C=1) / P(a_i | a_pi, C=0)]
        + log[P(C=1) / P(C=0)]  >  0   =>  abnormal

and :meth:`attribute_strengths` returns the per-attribute terms L_i of
Eq. (2) used for metric attribution (Fig. 3).

Performance notes (see ``docs/performance.md``): every fit-time count
comes from one integer ``np.bincount`` over a combined ``(class, i, j,
bin_i, bin_j)`` index, all CPTs are built in one pass, and the
per-attribute log-likelihood-ratio tables are flattened at fit time
into dense ``(n_attrs, n_bins, n_bins)`` difference tensors so scoring
is a single vectorized gather (hard path) or contraction (soft path).
Batch variants (:meth:`log_odds_batch`, :meth:`strengths_batch`,
:meth:`expected_strengths_batch`) score many samples/horizons at
once; the scalar methods route through them, so single-sample and
batch results are bitwise-identical.  The pre-vectorization scoring
loops are preserved as ``*_reference`` methods for equivalence tests
and benchmark baselines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bayes import (
    ABNORMAL,
    NORMAL,
    ORDINAL_KERNEL_WEIGHT,
    STRENGTH_CLIP,
    NotTrainedError,
    _class_log_prior_from_counts,
    check_training_data,
    ordinal_smooth,
    select_attributes,
)

__all__ = ["TANClassifier"]

#: Equivalent-sample-size for shrinking child CPT rows toward the
#: class-conditional marginal (Friedman et al. 1997 recommend exactly
#: this backoff for TAN on sparse data).  A parent cell observed fewer
#: than ~CPT_BACKOFF times contributes mostly marginal evidence, so a
#: correlated parent cannot "explain away" a sparsely-observed child
#: signal.
CPT_BACKOFF = 5.0


class TANClassifier:
    """Tree-augmented naive Bayes over binned attribute vectors."""

    def __init__(
        self, n_bins: int, smoothing: float = 0.15,
        class_prior: str = "balanced", robust: bool = True,
    ) -> None:
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        if smoothing <= 0:
            raise ValueError(f"smoothing must be positive, got {smoothing}")
        if class_prior not in ("balanced", "empirical", "capped"):
            raise ValueError(f"unknown class_prior {class_prior!r}")
        self.n_bins = n_bins
        self.smoothing = smoothing
        #: See :class:`~repro.core.bayes.NaiveBayesClassifier` — online
        #: training data is skewed; "balanced" keeps the attribute
        #: evidence in charge and leaves transient mistakes to the
        #: k-of-W filter.
        self.class_prior = class_prior
        #: See :class:`~repro.core.bayes.NaiveBayesClassifier.robust`.
        self.robust = robust
        self.n_attributes: Optional[int] = None
        #: Boolean keep-mask from attribute selection (set by fit).
        self.attribute_mask: Optional[np.ndarray] = None
        #: parent[i] is the attribute parent of i, or -1 for the root(s).
        self.parents: Optional[np.ndarray] = None
        self._log_prior: Optional[np.ndarray] = None
        # CPTs: for roots, shape (2, n_bins); for children, (2, n_bins
        # parent values, n_bins child values), stored per attribute.
        self._log_cpt: Optional[List[np.ndarray]] = None
        # Fit-time scoring tensors (see _build_scoring_tensors).
        self._parent_or_self: Optional[np.ndarray] = None
        self._diff_hard: Optional[np.ndarray] = None
        self._diff_soft: Optional[np.ndarray] = None
        self._root_idx: Optional[np.ndarray] = None
        self._child_idx: Optional[np.ndarray] = None
        self._root_diff_soft: Optional[np.ndarray] = None

    @property
    def trained(self) -> bool:
        return self._log_cpt is not None

    # ------------------------------------------------------------------
    # Structure learning
    # ------------------------------------------------------------------
    def _count_joint(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Class-conditional pairwise bin counts, ``(2, a, a, b, b)``.

        ``[c, i, j, p, q]`` counts the class-``c`` samples with
        ``a_i = p`` and ``a_j = q``, from one integer ``np.bincount``
        over the combined index.  Every count the fit needs is a slice
        of it: the diagonal blocks ``[c, i, i, p, p]`` are the
        marginals and ``[c, parent, child]`` any tree's pair counts.
        """
        a, b = X.shape[1], self.n_bins
        block = a * b * b
        left = (y * (a * block))[:, None] + np.arange(a) * block + X * b
        right = np.arange(a) * (b * b) + X
        index = left[:, :, None] + right[:, None, :]
        return np.bincount(
            index.ravel(), minlength=2 * a * block
        ).reshape(2, a, a, b, b)

    def _conditional_mutual_information(self, joint: np.ndarray) -> np.ndarray:
        """I(a_i; a_j | C) matrix from the joint counts, smoothed.

        Only the ``i < j`` pairs are evaluated and the matrix is
        mirrored from them; each pair reduces its own contiguous
        ``b * b`` block, exactly as a lone pair would.  A class
        without samples has weight zero.
        """
        a = joint.shape[1]
        iu, ju = np.triu_indices(a, k=1)
        class_counts = joint[:, 0, 0].sum(axis=(1, 2))
        weight = class_counts / class_counts.sum()
        marg = np.einsum("ciipp->cip", joint) + self.smoothing
        marg /= marg.sum(axis=2, keepdims=True)
        pairs = joint[:, iu, ju] + self.smoothing             # (2, P, b, b)
        pairs /= pairs.sum(axis=(2, 3), keepdims=True)
        denom = marg[:, iu, :, None] * marg[:, ju, None, :]
        terms = np.sum(pairs * (np.log(pairs) - np.log(denom)), axis=(2, 3))
        contribution = weight[:, None] * np.maximum(terms, 0.0)
        cmi = np.zeros((a, a))
        cmi[iu, ju] = cmi[ju, iu] = contribution[NORMAL] + contribution[ABNORMAL]
        return cmi

    @staticmethod
    def _maximum_spanning_tree(weights: np.ndarray) -> np.ndarray:
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

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, X: Sequence[Sequence[int]], y: Sequence[int]) -> "TANClassifier":
        """Tree, prior, CPTs and attribute selection from the joint
        counts of the training set ``(X, y)``."""
        X, y = check_training_data(np.asarray(X), np.asarray(y), self.n_bins)
        self.n_attributes = a = X.shape[1]
        joint = self._count_joint(X, y)
        self.parents = self._maximum_spanning_tree(
            self._conditional_mutual_information(joint)
        )
        self._log_prior = _class_log_prior_from_counts(
            joint[:, 0, 0].sum(axis=(1, 2)).astype(float), y.size,
            self.class_prior, self.smoothing,
        )
        parent_or_self = np.where(self.parents >= 0, self.parents, np.arange(a))
        self._fit_tables(
            parent_or_self,
            np.einsum("ciipp->cip", joint).astype(float),
            joint[:, parent_or_self, np.arange(a)].astype(float),
        )
        # Attribute selection (as in Cohen et al. [12]): keep only
        # attributes whose strengths separate the classes on the
        # training set itself.
        self.attribute_mask = np.ones(a, dtype=bool)
        if self.robust:
            self.attribute_mask = select_attributes(
                self._raw_strengths_batch(X), y
            )
        return self

    def _fit_tables(
        self, parent_or_self: np.ndarray,
        marg_counts: np.ndarray, pair_counts: np.ndarray,
    ) -> None:
        """Every attribute's CPT, support and scoring tensors from the
        raw ``(2, a, b)`` marginal and ``(2, a, parent, child)`` pair
        counts, in one pass.

        Each ``[class, attribute]`` block keeps the memory layout a
        lone ``(2, b, b)`` table has (after the two ordinal smoothings
        the *parent* axis is innermost), so every row sum adds in the
        order a per-attribute build adds and the entries are bitwise
        the same.
        """
        marg_raw, raw = marg_counts, pair_counts
        if self.robust:
            marg_raw = ordinal_smooth(marg_raw, axis=2)
            raw = ordinal_smooth(ordinal_smooth(raw, axis=3), axis=2)
            # Open-world support follows the marginal: evidence is
            # meaningful wherever the child bin itself was observed.
            observed = marg_raw.sum(axis=0) >= ORDINAL_KERNEL_WEIGHT  # (a, b)
        else:
            observed = np.ones(marg_raw.shape[1:], dtype=bool)
        marginal = marg_raw + self.smoothing
        marginal /= marginal.sum(axis=2, keepdims=True)
        cond = raw + self.smoothing
        cond /= cond.sum(axis=3, keepdims=True)
        if self.robust:
            # Hierarchical shrinkage: blend each (class, parent-value)
            # row toward the class marginal by how often the parent
            # value was actually observed in that class.
            row_counts = raw.sum(axis=3, keepdims=True)
            lam = row_counts / (row_counts + CPT_BACKOFF)
        else:
            lam = 1.0
        child = np.log(lam * cond + (1.0 - lam) * marginal[:, :, np.newaxis, :])
        root = np.log(marginal)
        is_root = self.parents < 0
        self._log_cpt = [
            root[:, i] if is_root[i] else child[:, i]
            for i in range(self.n_attributes)
        ]
        self._support = [
            observed[i] if is_root[i]
            else np.tile(observed[i], (self.n_bins, 1))
            for i in range(self.n_attributes)
        ]
        self._build_scoring_tensors(parent_or_self)

    def _build_scoring_tensors(self, parent_or_self: np.ndarray) -> None:
        """Flatten the per-attribute CPTs into dense gather tensors.

        ``_diff_hard[i, p, c]`` is the Eq. (2) log-likelihood-ratio of
        attribute ``i`` at child bin ``c`` under parent bin ``p``
        (support-masked, unclipped — the hard path); ``_diff_soft`` is
        the clipped variant the soft/expected path uses.  Root
        attributes are broadcast along the parent axis with their own
        index as pseudo-parent, so one fancy-indexed gather covers the
        whole attribute vector.
        """
        n_attrs, b = self.n_attributes, self.n_bins
        diff = np.empty((n_attrs, b, b))
        support = np.empty((n_attrs, b, b), dtype=bool)
        for i, table in enumerate(self._log_cpt):
            # A root's (b,) row broadcasts along the parent axis.
            diff[i] = table[ABNORMAL] - table[NORMAL]
            support[i] = self._support[i]
        self._parent_or_self = parent_or_self
        self._diff_hard = np.where(support, diff, 0.0)
        self._diff_soft = np.where(
            support, np.clip(diff, -STRENGTH_CLIP, STRENGTH_CLIP), 0.0
        )
        self._root_idx = np.flatnonzero(self.parents < 0)
        self._child_idx = np.flatnonzero(self.parents >= 0)
        # Root rows are constant along the parent axis; keep the
        # compact (n_roots, b) view the soft path contracts with.
        self._root_diff_soft = self._diff_soft[self._root_idx, 0, :]
        # Per-fit scalar-path caches: the attribute index vector and
        # the class-prior log-difference.  Rebuilt on every fit() /
        # from_dict(), so they are keyed to the model version and the
        # single-sample path never re-assembles them per call.
        self._attr_idx = np.arange(n_attrs)
        self._prior_diff = float(self._log_prior[ABNORMAL] - self._log_prior[NORMAL])

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _require_trained(self) -> None:
        if not self.trained:
            raise NotTrainedError("TANClassifier is not trained")

    def _check_sample(self, x: Sequence[int]) -> np.ndarray:
        x = np.asarray(x, dtype=np.intp)
        if x.shape != (self.n_attributes,):
            raise ValueError(
                f"expected {self.n_attributes} attributes, got shape {x.shape}"
            )
        return np.clip(x, 0, self.n_bins - 1)

    def _check_batch(self, X: Sequence[Sequence[int]]) -> np.ndarray:
        X = np.asarray(X, dtype=np.intp)
        if X.ndim != 2 or X.shape[1] != self.n_attributes:
            raise ValueError(
                f"expected (n, {self.n_attributes}) samples, got shape {X.shape}"
            )
        return np.clip(X, 0, self.n_bins - 1)

    def _raw_strengths_batch(self, X: np.ndarray) -> np.ndarray:
        """Unmasked Eq. (2) terms for already-validated binned samples:
        one gather over the dense difference tensor, shape (m, a)."""
        return self._diff_hard[
            self._attr_idx[None, :], X[:, self._parent_or_self], X
        ]

    def _raw_strengths_reference(self, x: np.ndarray) -> np.ndarray:
        """Unmasked Eq. (2) terms for one binned sample — the
        pre-vectorization per-attribute loop (equivalence reference)."""
        strengths = np.empty(self.n_attributes)
        for i in range(self.n_attributes):
            parent = self.parents[i]
            table = self._log_cpt[i]
            support = self._support[i]
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

    def attribute_strengths(self, x: Sequence[int]) -> List[float]:
        """The L_i terms of Eq. (2) for one sample.

        L_i = log[P(a_i | a_pi, C=1) / P(a_i | a_pi, C=0)]; a larger
        L_i means attribute i pushes the decision harder toward
        "abnormal" — the attribute-selection signal of Fig. 3.
        Attributes pruned by training-time attribute selection
        contribute zero.
        """
        self._require_trained()
        x = self._check_sample(x)
        raw = self._diff_hard[self._attr_idx, x[self._parent_or_self], x]
        return [float(v) for v in np.where(self.attribute_mask, raw, 0.0)]

    def strengths_batch(self, X: Sequence[Sequence[int]]) -> np.ndarray:
        """Masked Eq. (2) strengths for a batch of binned samples.

        ``X`` has shape (m, n_attributes); returns (m, n_attributes).
        Row ``k`` is bitwise-identical to ``attribute_strengths(X[k])``.
        """
        self._require_trained()
        X = self._check_batch(np.atleast_2d(np.asarray(X, dtype=np.intp)))
        raw = self._raw_strengths_batch(X)
        return np.where(self.attribute_mask[None, :], raw, 0.0)

    def log_odds(self, x: Sequence[int]) -> float:
        """Left-hand side of Eq. (1).

        Single-sample fast path: one gather over the cached difference
        tensor instead of routing through the (m, a) batch machinery —
        at fleet scale the controller's classify tick calls this once
        per VM, and the batch path's shape plumbing costs more than
        the 13-element reduction itself.  Bitwise-identical to
        ``log_odds_batch(x[None])[0]``: same gathered elements, same
        contiguous 13-element pairwise sum, same prior difference.
        """
        self._require_trained()
        x = self._check_sample(x)
        raw = self._diff_hard[self._attr_idx, x[self._parent_or_self], x]
        return float(np.where(self.attribute_mask, raw, 0.0).sum() + self._prior_diff)

    def log_odds_batch(self, X: Sequence[Sequence[int]]) -> np.ndarray:
        """Eq. (1) statistic for a batch of binned samples, shape (m,)."""
        strengths = self.strengths_batch(X)
        return strengths.sum(axis=1) + self._prior_diff

    def strengths_reference(self, x: Sequence[int]) -> List[float]:
        """Pre-vectorization :meth:`attribute_strengths` (reference)."""
        self._require_trained()
        x = self._check_sample(x)
        raw = self._raw_strengths_reference(x)
        raw = np.where(self.attribute_mask, raw, 0.0)
        return [float(v) for v in raw]

    def log_odds_reference(self, x: Sequence[int]) -> float:
        """Pre-vectorization :meth:`log_odds` (reference)."""
        strengths = self.strengths_reference(x)
        return float(
            sum(strengths) + self._log_prior[ABNORMAL] - self._log_prior[NORMAL]
        )

    def predict_proba(self, x: Sequence[int]) -> float:
        """Posterior probability of the abnormal class."""
        odds = self.log_odds(x)
        return float(1.0 / (1.0 + np.exp(-odds)))

    def classify(self, x: Sequence[int]) -> bool:
        """Eq. (1): abnormal when the log-odds sum is positive."""
        return self.log_odds(x) > 0.0

    # ------------------------------------------------------------------
    # Soft (distribution-based) classification
    # ------------------------------------------------------------------
    def _as_distribution_matrix(
        self, distributions: Sequence[np.ndarray]
    ) -> np.ndarray:
        if len(distributions) != self.n_attributes:
            raise ValueError(
                f"expected {self.n_attributes} distributions, got {len(distributions)}"
            )
        dists = np.empty((self.n_attributes, self.n_bins))
        for i, dist in enumerate(distributions):
            p = np.asarray(dist, dtype=float)
            if p.shape != (self.n_bins,):
                raise ValueError(
                    f"distribution {i} must have shape ({self.n_bins},)"
                )
            dists[i] = p
        return dists

    def expected_strengths(self, distributions: Sequence[np.ndarray]) -> List[float]:
        """Expected L_i under independent predicted bin distributions.

        For a child attribute the expectation runs over both its own
        and its parent's predicted distribution:
        E[L_i] = sum_{p,s} P_pi(p) P_i(s) (log P(s|p,1) - log P(s|p,0)).
        This is how predicted future states are classified: the value
        predictor returns a distribution per attribute, and averaging
        the decision statistic over it avoids the brittleness of
        rounding every attribute to a single bin.
        """
        self._require_trained()
        D = self._as_distribution_matrix(distributions)
        return [float(v) for v in self.expected_strengths_batch(D[None])[0]]

    def expected_strengths_batch(self, D: np.ndarray) -> np.ndarray:
        """Expected strengths for a batch of distribution sets.

        ``D`` has shape (m, n_attributes, n_bins) — e.g. the ``m``
        look-ahead horizons of one propagation.  Returns (m,
        n_attributes); row ``k`` is bitwise-identical to
        ``expected_strengths(list(D[k]))``.
        """
        self._require_trained()
        D = np.asarray(D, dtype=float)
        if D.ndim != 3 or D.shape[1:] != (self.n_attributes, self.n_bins):
            raise ValueError(
                f"expected (m, {self.n_attributes}, {self.n_bins}) "
                f"distributions, got shape {D.shape}"
            )
        S = np.zeros((D.shape[0], self.n_attributes))
        roots, children = self._root_idx, self._child_idx
        if roots.size:
            S[:, roots] = np.einsum(
                "mrc,rc->mr", D[:, roots], self._root_diff_soft
            )
        if children.size:
            S[:, children] = np.einsum(
                "mrp,rpc,mrc->mr",
                D[:, self._parent_or_self[children]],
                self._diff_soft[children],
                D[:, children],
            )
        return np.where(self.attribute_mask[None, :], S, 0.0)

    def expected_log_odds(self, distributions: Sequence[np.ndarray]) -> float:
        """Eq. (1) statistic averaged over predicted distributions."""
        self._require_trained()
        D = self._as_distribution_matrix(distributions)
        return float(self.expected_log_odds_batch(D[None])[0])

    def expected_log_odds_batch(self, D: np.ndarray) -> np.ndarray:
        """Batched :meth:`expected_log_odds`, shape (m,)."""
        return self.expected_strengths_batch(D).sum(axis=1) + (
            self._log_prior[ABNORMAL] - self._log_prior[NORMAL]
        )

    def expected_strengths_reference(
        self, distributions: Sequence[np.ndarray]
    ) -> List[float]:
        """Pre-vectorization :meth:`expected_strengths` (reference)."""
        self._require_trained()
        if len(distributions) != self.n_attributes:
            raise ValueError(
                f"expected {self.n_attributes} distributions, got {len(distributions)}"
            )
        dists = []
        for i, dist in enumerate(distributions):
            p = np.asarray(dist, dtype=float)
            if p.shape != (self.n_bins,):
                raise ValueError(
                    f"distribution {i} must have shape ({self.n_bins},)"
                )
            dists.append(p)
        strengths: List[float] = []
        for i in range(self.n_attributes):
            if not self.attribute_mask[i]:
                strengths.append(0.0)
                continue
            parent = self.parents[i]
            table = self._log_cpt[i]
            diff = np.clip(
                table[ABNORMAL] - table[NORMAL], -STRENGTH_CLIP, STRENGTH_CLIP
            )
            diff = np.where(self._support[i], diff, 0.0)
            if parent < 0:
                strengths.append(float(dists[i] @ diff))         # (n_bins,)
            else:
                strengths.append(float(dists[parent] @ diff @ dists[i]))
        return strengths

    def expected_log_odds_reference(
        self, distributions: Sequence[np.ndarray]
    ) -> float:
        """Pre-vectorization :meth:`expected_log_odds` (reference)."""
        prior = self._log_prior[ABNORMAL] - self._log_prior[NORMAL]
        return float(
            sum(self.expected_strengths_reference(distributions)) + prior
        )

    # ------------------------------------------------------------------
    # Snapshot / restore (model registry hooks)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable snapshot of the fitted classifier.

        Persists the tree structure, per-attribute log-CPTs, support
        masks, prior and attribute mask; the flattened scoring tensors
        are rebuilt deterministically on restore, so a classifier from
        :meth:`from_dict` scores bitwise-identically to this one.
        """
        self._require_trained()
        return {
            "kind": "tan",
            "n_bins": self.n_bins,
            "smoothing": self.smoothing,
            "class_prior": self.class_prior,
            "robust": self.robust,
            "n_attributes": self.n_attributes,
            "parents": self.parents.tolist(),
            "log_prior": self._log_prior.tolist(),
            "log_cpt": [table.tolist() for table in self._log_cpt],
            "support": [mask.tolist() for mask in self._support],
            "attribute_mask": self.attribute_mask.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "TANClassifier":
        """Rebuild a classifier saved by :meth:`to_dict`."""
        if payload.get("kind") != "tan":
            raise ValueError(
                f"not a TAN snapshot: kind={payload.get('kind')!r}"
            )
        clf = cls(
            n_bins=int(payload["n_bins"]),
            smoothing=float(payload["smoothing"]),
            class_prior=str(payload["class_prior"]),
            robust=bool(payload["robust"]),
        )
        n_attrs = int(payload["n_attributes"])
        b = clf.n_bins
        parents = np.asarray(payload["parents"], dtype=np.intp)
        log_prior = np.asarray(payload["log_prior"], dtype=float)
        mask = np.asarray(payload["attribute_mask"], dtype=bool)
        tables = payload["log_cpt"]
        supports = payload["support"]
        if parents.shape != (n_attrs,) or log_prior.shape != (2,):
            raise ValueError("parents / log_prior shape is invalid")
        if not np.isfinite(log_prior).all() or (log_prior > 0.0).any():
            raise ValueError(
                "corrupt TAN snapshot: log prior must be finite and <= 0"
            )
        if ((parents < -1) | (parents >= n_attrs)).any():
            raise ValueError(
                "corrupt TAN snapshot: parent indices out of range"
            )
        if mask.shape != (n_attrs,):
            raise ValueError("attribute_mask shape is invalid")
        if len(tables) != n_attrs or len(supports) != n_attrs:
            raise ValueError(
                f"expected {n_attrs} CPTs/supports, got "
                f"{len(tables)}/{len(supports)}"
            )
        cpts: List[np.ndarray] = []
        masks: List[np.ndarray] = []
        for i in range(n_attrs):
            table = np.asarray(tables[i], dtype=float)
            support = np.asarray(supports[i], dtype=bool)
            want_table = (2, b) if parents[i] < 0 else (2, b, b)
            want_support = (b,) if parents[i] < 0 else (b, b)
            if table.shape != want_table or support.shape != want_support:
                raise ValueError(
                    f"attribute {i}: CPT shape {table.shape} / support "
                    f"shape {support.shape} do not match parent "
                    f"{int(parents[i])}"
                )
            if not np.isfinite(table).all():
                raise ValueError(
                    f"corrupt TAN snapshot: attribute {i} CPT contains "
                    f"non-finite log probabilities"
                )
            if (table > 0.0).any():
                raise ValueError(
                    f"corrupt TAN snapshot: attribute {i} CPT contains "
                    f"positive log probabilities"
                )
            cpts.append(table)
            masks.append(support)
        clf.n_attributes = n_attrs
        clf.parents = parents
        clf._log_prior = log_prior
        clf._log_cpt = cpts
        clf._support = masks
        parent_or_self = np.where(parents >= 0, parents, np.arange(n_attrs))
        clf._build_scoring_tensors(parent_or_self)
        clf.attribute_mask = mask
        return clf

    def rank_attributes(
        self, x: Sequence[int], names: Optional[Sequence[str]] = None
    ) -> List[Tuple[str, float]]:
        """Attributes ranked by impact strength, strongest first."""
        strengths = self.attribute_strengths(x)
        if names is None:
            names = [f"a{i}" for i in range(len(strengths))]
        if len(names) != len(strengths):
            raise ValueError(
                f"{len(names)} names for {len(strengths)} attributes"
            )
        ranked = sorted(zip(names, strengths), key=lambda kv: -kv[1])
        return [(name, float(value)) for name, value in ranked]
