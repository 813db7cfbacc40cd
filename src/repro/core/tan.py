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

Scoring is inherited from :class:`~repro.core.bayes.BayesClassifier`,
which naive Bayes shares (see ``docs/performance.md``): every fit-time
count comes from one integer ``np.bincount`` over a combined ``(class,
i, j, bin_i, bin_j)`` index, all CPTs are built in one pass, and the
per-attribute log-likelihood-ratio tables are flattened at fit time
into dense ``(n_attrs, n_bins, n_bins)`` difference tensors so scoring
is a single vectorized gather (hard path) or, in
:class:`~repro.core.fleet.FleetScorer`, one contraction (soft path).
The pre-vectorization scoring loops are the test oracles in
``tests/core/oracles.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arrays import pack_array, unpack_array
from repro.core.bayes import (
    ABNORMAL,
    NORMAL,
    BayesClassifier,
    ORDINAL_KERNEL_WEIGHT,
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


class TANClassifier(BayesClassifier):
    """Tree-augmented naive Bayes over binned attribute vectors.

    Scoring is :class:`~repro.core.bayes.BayesClassifier`'s; a TAN
    learns the tree (``parents``) and one CPT per attribute.
    """

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
        """Prim's algorithm on lists; returns parent indices with root
        = 0.  Of equally heavy candidates the lowest index joins first,
        as ``np.argmax`` picks."""
        rows = weights.tolist()
        parents = [-1] * len(rows)
        if len(rows) > 1:
            best, best_parent = rows[0][:], [0] * len(rows)
            outside = list(range(1, len(rows)))
            while outside:
                nxt = max(outside, key=best.__getitem__)
                outside.remove(nxt)
                parents[nxt] = best_parent[nxt]
                for j in outside:
                    if rows[nxt][j] > best[j]:
                        best[j], best_parent[j] = rows[nxt][j], nxt
        return np.array(parents, dtype=np.intp)

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
        is_root = (self.parents < 0).tolist()
        # Every child's support is its marginal's, along the parent axis.
        support = np.broadcast_to(observed[:, None, :], child.shape[1:])
        self._log_cpt = [
            root[:, i] if is_root[i] else child[:, i]
            for i in range(self.n_attributes)
        ]
        self._support = [
            observed[i] if is_root[i] else support[i]
            for i in range(self.n_attributes)
        ]
        self._build_scoring_tensors(
            parent_or_self,
            np.where(
                np.array(is_root)[:, None, None],
                (root[ABNORMAL] - root[NORMAL])[:, None, :],
                child[ABNORMAL] - child[NORMAL],
            ),
            support,
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
            "parents": pack_array(self.parents.astype(np.int64)),
            "log_prior": pack_array(self._log_prior),
            "log_cpt": [pack_array(table) for table in self._log_cpt],
            "support": [pack_array(mask) for mask in self._support],
            "attribute_mask": pack_array(self.attribute_mask),
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
        parents = unpack_array(payload["parents"], "<i8").astype(
            np.intp, copy=False)
        log_prior = unpack_array(payload["log_prior"], "<f8")
        mask = unpack_array(payload["attribute_mask"], "|b1")
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
            table = unpack_array(tables[i], "<f8")
            support = unpack_array(supports[i], "|b1")
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
        clf._build_scoring_tensors(
            parent_or_self,
            np.array([
                np.broadcast_to(t[ABNORMAL] - t[NORMAL], (b, b)) for t in cpts
            ]).reshape(n_attrs, b, b),
            np.array([np.broadcast_to(m, (b, b)) for m in masks]
                     ).reshape(n_attrs, b, b),
        )
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
