"""Naive Bayes anomaly classifier (baseline).

The authors' earlier system [10] used naive Bayes for anomaly
classification; the paper replaces it with TAN because naive Bayes
"cannot provide the metric attribution information accurately"
(Sec. II-B).  We keep it as the comparison baseline and as the
degenerate case of TAN (a TAN with no augmenting tree edges): both
score through :class:`BayesClassifier`, naive Bayes with every
attribute a root.

Classes are binary: 0 = normal, 1 = abnormal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arrays import pack_array, unpack_array

__all__ = ["NaiveBayesClassifier", "NotTrainedError", "check_training_data"]

NORMAL, ABNORMAL = 0, 1


class NotTrainedError(RuntimeError):
    """Raised when a classifier is used before :meth:`fit`."""


#: Cap on the magnitude of the log prior-odds term under the "capped"
#: policy (see :func:`_class_log_prior_from_counts`).
PRIOR_ODDS_CAP = 1.0

#: Clip on per-bin log-likelihood-ratios inside the *soft* (expected)
#: classification path, in nats.  Bounds how much a low-probability
#: bin can contribute to the expected decision statistic.
STRENGTH_CLIP = 2.5

#: Minimum class-separation utility (nats) an attribute must show on
#: the training set to participate in classification (see
#: :func:`select_attributes`).
MIN_ATTRIBUTE_UTILITY = 0.3


def select_attributes(
    strengths: np.ndarray, y: np.ndarray,
    min_utility: float = MIN_ATTRIBUTE_UTILITY,
) -> np.ndarray:
    """Attribute-selection mask from per-sample training strengths.

    Cohen et al. [12] — the TAN work the paper builds on — select a
    small subset of metrics that actually predict the SLO state rather
    than using all of them.  We keep attribute ``j`` only when its
    strength separates the classes significantly: the mean strength on
    abnormal samples must exceed the mean on normal samples by at
    least ``min_utility`` *and* by two standard errors.  Attributes
    whose class-conditional behaviour is indistinguishable (pure-noise
    metrics) otherwise contribute coincidental positive strengths that
    accumulate into chronic false alarms.

    ``strengths`` has shape (n_samples, n_attributes); ``y`` is the
    binary label vector.  Returns a boolean keep-mask.
    """
    strengths = np.asarray(strengths, dtype=float)
    y = np.asarray(y, dtype=np.intp)
    abn = strengths[y == ABNORMAL]
    norm = strengths[y == NORMAL]
    if abn.shape[0] == 0 or norm.shape[0] == 0:
        return np.ones(strengths.shape[1], dtype=bool)
    utility = abn.mean(axis=0) - norm.mean(axis=0)
    # Effective standard error with a small-sample floor: with a
    # handful of abnormal samples a pure-noise attribute easily lands
    # all of them in one bin (zero within-class variance), so the
    # plug-in SE alone under-estimates the uncertainty.  The floor
    # 1/sqrt(n_abn) reflects that per-sample strengths are O(1) nats.
    se = np.sqrt(
        abn.var(axis=0) / max(abn.shape[0], 1)
        + norm.var(axis=0) / max(norm.shape[0], 1)
        + 1.0 / max(abn.shape[0], 1)
    )
    return (utility >= min_utility) & (utility >= 2.0 * se)


def _class_log_prior_from_counts(
    counts: np.ndarray, n_samples: int, class_prior: str, smoothing: float
) -> np.ndarray:
    """Log class prior vector from the ``(2,)`` class counts.

    * ``"empirical"`` — Eq. (1) verbatim; with the heavily
      normal-skewed online training sets this swamps the attribute
      evidence and suppresses early alerts.
    * ``"balanced"`` — drops the prior term entirely; VMs whose class
      distributions are indistinguishable then sit exactly on the
      decision boundary and alert on noise.
    * ``"capped"`` (default) — empirical prior-odds clipped to
      ``[-PRIOR_ODDS_CAP, 0]``: uninvolved VMs lean mildly normal
      while genuine attribute evidence (log-odds of a few nats) still
      dominates.
    """
    if class_prior == "balanced":
        return np.zeros(2)
    prior = (counts + smoothing) / (n_samples + 2.0 * smoothing)
    log_prior = np.log(prior)
    if class_prior == "capped":
        diff = float(np.clip(log_prior[ABNORMAL] - log_prior[NORMAL],
                             -PRIOR_ODDS_CAP, 0.0))
        return np.array([0.0, diff])
    return log_prior


#: Neighbour weight for ordinal count smoothing (see
#: :func:`ordinal_smooth`).
ORDINAL_KERNEL_WEIGHT = 0.35


def ordinal_smooth(counts: np.ndarray, axis: int = -1) -> np.ndarray:
    """Spread counts onto adjacent bins along an ordinal axis.

    Attribute bins are *ordered* value ranges, so an observation in bin
    b is weak evidence about bins b±1 as well.  Smoothing the raw
    counts with a small triangular kernel lets a model trained on one
    anomaly recognise a recurrence whose values land one bin over
    (workload drift, different noise draw) — without granting any
    support to regions far outside everything ever observed.
    """
    counts = np.asarray(counts, dtype=float)
    w = ORDINAL_KERNEL_WEIGHT
    moved = np.moveaxis(counts, axis, -1)
    out = moved.copy()
    out[..., 1:] += w * moved[..., :-1]
    out[..., :-1] += w * moved[..., 1:]
    return np.moveaxis(out, -1, axis)


def check_training_data(X: np.ndarray, y: np.ndarray, n_bins: int) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a discrete design matrix and binary label vector."""
    X = np.asarray(X, dtype=np.intp)
    y = np.asarray(y, dtype=np.intp)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} does not match X rows {X.shape[0]}")
    if X.size and (X.min() < 0 or X.max() >= n_bins):
        raise ValueError(f"X entries must lie in [0, {n_bins})")
    if not np.isin(y, (NORMAL, ABNORMAL)).all():
        raise ValueError("labels must be 0 (normal) or 1 (abnormal)")
    if X.shape[0] == 0:
        raise ValueError("training set is empty")
    return X, y


class BayesClassifier:
    """Eq. (1) scoring for a Bayesian network classifier in which every
    attribute has the class and at most one attribute as parents.

    TAN gives every attribute but the tree root one attribute parent;
    naive Bayes is the case with no tree edges, every attribute a
    root.  A subclass fits ``parents`` (``-1`` marks a root),
    ``_log_prior``, ``_log_cpt`` and ``_support`` — a root's table is
    ``(2, n_bins)`` and its support ``(n_bins,)``, a child's ``(2,
    n_bins parent values, n_bins child values)`` and ``(n_bins,
    n_bins)`` — then calls :meth:`_build_scoring_tensors`; every
    scoring method below reads only the tensors that builds.
    """

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
        #: "balanced" zeroes the log P(C=1)/P(C=0) prior term of
        #: Eq. (1).  Online training sets are heavily skewed toward
        #: normal samples (anomalies are short); an empirical prior
        #: would swamp the attribute evidence and suppress early
        #: alerts.  The resulting extra false alarms are exactly what
        #: the k-of-W filter (Sec. II-C) exists to absorb.
        self.class_prior = class_prior
        #: True enables the robustness extensions built on top of the
        #: paper's Eq. (1): attribute selection, ordinal count
        #: smoothing and the open-world support mask.  False is the
        #: classic algorithm (used by the paper-faithful accuracy
        #: benches and available for ablation).
        self.robust = robust
        self.n_attributes: Optional[int] = None
        #: Boolean keep-mask from attribute selection (set by fit).
        self.attribute_mask: Optional[np.ndarray] = None
        #: parent[i] is the attribute parent of i, or -1 for a root.
        self.parents: Optional[np.ndarray] = None
        self._log_prior: Optional[np.ndarray] = None       # (2,)
        self._log_cpt = None
        self._support = None
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
            raise NotTrainedError(f"{type(self).__name__} is not trained")

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

    def attribute_strengths(self, x: Sequence[int]) -> List[float]:
        """The L_i terms of Eq. (2) for one sample.

        L_i = log[P(a_i | a_pi, C=1) / P(a_i | a_pi, C=0)], where a
        root conditions on the class alone; a larger L_i means
        attribute i pushes the decision harder toward "abnormal" — the
        attribute-selection signal of Fig. 3.  Without parent
        conditioning (naive Bayes) the attribution is less sharp
        (Sec. II-B).  Attributes pruned by training-time attribute
        selection contribute zero.
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
        """Expected L_i under independent predicted bin distributions
        (one probability vector per attribute).

        For a child attribute the expectation runs over both its own
        and its parent's predicted distribution:
        E[L_i] = sum_{p,s} P_pi(p) P_i(s) (log P(s|p,1) - log P(s|p,0)).
        This is how predicted future states are classified: the value
        predictor returns a distribution per attribute, and averaging
        the decision statistic over it avoids the brittleness of
        rounding every attribute to a single bin.  The per-bin
        log-ratios are clipped to ±:data:`STRENGTH_CLIP` first so that
        a small tail probability on a severe bin cannot dominate the
        expectation (the alert should fire on *probable* anomalies,
        not improbable catastrophic ones).
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


class NaiveBayesClassifier(BayesClassifier):
    """Discrete naive Bayes over binned attribute vectors: the
    :class:`BayesClassifier` whose every attribute is a root."""

    # _log_cpt is one (n_attrs, 2, n_bins) array and _support one
    # (n_attrs, n_bins) array; row i is attribute i's root table.

    def fit(self, X: Sequence[Sequence[int]], y: Sequence[int]) -> "NaiveBayesClassifier":
        X, y = check_training_data(np.asarray(X), np.asarray(y), self.n_bins)
        self.n_attributes = X.shape[1]
        return self._rebuild(X, y, *self._count(X, y))

    def _count(self, X: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Raw ``(attribute, class, bin)`` counts and ``(2,)`` class
        counts as floats, each from one integer bincount."""
        a, b = self.n_attributes, self.n_bins
        index = np.arange(a) * (2 * b) + (y * b)[:, None] + X
        raw_counts = np.bincount(
            index.ravel(), minlength=2 * a * b
        ).reshape(a, 2, b).astype(float)
        return raw_counts, np.bincount(y, minlength=2).astype(float)

    def _rebuild(
        self, X: np.ndarray, y: np.ndarray,
        raw: np.ndarray, class_counts: np.ndarray,
    ) -> "NaiveBayesClassifier":
        """Derive every fitted tensor from the training set ``(X, y)``
        and its raw bin and class counts."""
        n_attrs = self.n_attributes
        self._log_prior = _class_log_prior_from_counts(
            class_counts, y.size, self.class_prior, self.smoothing,
        )
        if self.robust:
            raw = ordinal_smooth(raw, axis=2)
        cpt = raw + self.smoothing
        cpt /= cpt.sum(axis=2, keepdims=True)
        self._log_cpt = np.log(cpt)
        # Open-world support mask: a bin observed in *neither* class
        # carries no evidence either way.  Without this, data that
        # drifts outside the training range (workload growth, regime
        # shifts) lands in smoothing-only cells where the flatter
        # (smaller-sample) abnormal CPT always wins, producing chronic
        # false alarms.
        if self.robust:
            self._support = raw.sum(axis=1) >= ORDINAL_KERNEL_WEIGHT
        else:
            self._support = np.ones((n_attrs, self.n_bins), dtype=bool)
        self._build_root_tensors()
        # Attribute selection: score every training sample, keep only
        # attributes that separate the classes.
        if self.robust:
            # Selection deliberately uses the *unmasked* ratios, as the
            # per-sample scoring of the original implementation did.
            diff = self._log_cpt[:, ABNORMAL, :] - self._log_cpt[:, NORMAL, :]
            sample_strengths = diff[np.arange(n_attrs)[None, :], X]
            self.attribute_mask = select_attributes(sample_strengths, y)
        else:
            self.attribute_mask = np.ones(n_attrs, dtype=bool)
        return self

    def _build_root_tensors(self) -> None:
        """Score as a TAN with no tree edges: every attribute a root."""
        self.parents = np.full(self.n_attributes, -1, dtype=np.intp)
        self._build_scoring_tensors(np.arange(self.n_attributes))

    def strengths_reference(self, x: Sequence[int]) -> List[float]:
        """Pre-vectorization :meth:`attribute_strengths` (reference)."""
        self._require_trained()
        x = np.asarray(x, dtype=np.intp)
        if x.shape != (self.n_attributes,):
            raise ValueError(
                f"expected {self.n_attributes} attributes, got shape {x.shape}"
            )
        x = np.clip(x, 0, self.n_bins - 1)
        idx = np.arange(self.n_attributes)
        diff = (
            self._log_cpt[idx, ABNORMAL, x] - self._log_cpt[idx, NORMAL, x]
        )
        diff = np.where(self._support[idx, x], diff, 0.0)
        diff = np.where(self.attribute_mask, diff, 0.0)
        return [float(v) for v in diff]

    def log_odds_reference(self, x: Sequence[int]) -> float:
        """Pre-vectorization :meth:`log_odds` (reference)."""
        self._require_trained()
        return float(
            sum(self.strengths_reference(x))
            + self._log_prior[ABNORMAL] - self._log_prior[NORMAL]
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
        strengths = []
        for i, dist in enumerate(distributions):
            p = np.asarray(dist, dtype=float)
            if p.shape != (self.n_bins,):
                raise ValueError(
                    f"distribution {i} must have shape ({self.n_bins},)"
                )
            if not self.attribute_mask[i]:
                strengths.append(0.0)
                continue
            diff = np.clip(
                self._log_cpt[i, ABNORMAL] - self._log_cpt[i, NORMAL],
                -STRENGTH_CLIP, STRENGTH_CLIP,
            )
            diff = np.where(self._support[i], diff, 0.0)
            strengths.append(float(p @ diff))
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

        The log-CPTs, support masks and attribute mask are the full
        fitted state; the scoring tensors are deterministic functions
        of them, so :meth:`from_dict` rebuilds a classifier that scores
        bitwise-identically.
        """
        self._require_trained()
        return {
            "kind": "naive",
            "n_bins": self.n_bins,
            "smoothing": self.smoothing,
            "class_prior": self.class_prior,
            "robust": self.robust,
            "n_attributes": self.n_attributes,
            "log_prior": pack_array(self._log_prior),
            "log_cpt": pack_array(self._log_cpt),
            "support": pack_array(self._support),
            "attribute_mask": pack_array(self.attribute_mask),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "NaiveBayesClassifier":
        """Rebuild a classifier saved by :meth:`to_dict`."""
        if payload.get("kind") != "naive":
            raise ValueError(
                f"not a naive-Bayes snapshot: kind={payload.get('kind')!r}"
            )
        clf = cls(
            n_bins=int(payload["n_bins"]),
            smoothing=float(payload["smoothing"]),
            class_prior=str(payload["class_prior"]),
            robust=bool(payload["robust"]),
        )
        n_attrs = int(payload["n_attributes"])
        log_cpt = unpack_array(payload["log_cpt"], "<f8")
        support = unpack_array(payload["support"], "|b1")
        mask = unpack_array(payload["attribute_mask"], "|b1")
        log_prior = unpack_array(payload["log_prior"], "<f8")
        if log_cpt.shape != (n_attrs, 2, clf.n_bins):
            raise ValueError(
                f"log_cpt shape {log_cpt.shape} does not match "
                f"({n_attrs}, 2, {clf.n_bins})"
            )
        if support.shape != (n_attrs, clf.n_bins):
            raise ValueError(f"support shape {support.shape} is invalid")
        if mask.shape != (n_attrs,) or log_prior.shape != (2,):
            raise ValueError("attribute_mask / log_prior shape is invalid")
        if not (np.isfinite(log_cpt).all() and np.isfinite(log_prior).all()):
            raise ValueError(
                "corrupt naive-Bayes snapshot: non-finite log probabilities"
            )
        if (log_cpt > 0.0).any() or (log_prior > 0.0).any():
            raise ValueError(
                "corrupt naive-Bayes snapshot: positive log probabilities"
            )
        clf.n_attributes = n_attrs
        clf._log_prior = log_prior
        clf._log_cpt = log_cpt
        clf._support = support
        # Rebuild the scoring tensors exactly as fit() derives them.
        clf._build_root_tensors()
        clf.attribute_mask = mask
        return clf
