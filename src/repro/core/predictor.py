"""The anomaly prediction model (paper Sec. II-B).

Combines attribute-value prediction with multi-variant anomaly
classification: each attribute's future bin is predicted by a Markov
chain (2-dependent by default), and the vector of predicted bins is
classified normal/abnormal by a TAN classifier, yielding an early
alarm a look-ahead window before the anomaly manifests.

One :class:`AnomalyPredictor` is instantiated per VM ("per-component"
in Fig. 10); the *monolithic* baseline of Fig. 10 is the same class
trained over the concatenated attributes of every VM (see
:func:`monolithic_attributes` and
:meth:`AnomalyPredictor.concat_histories`).

The per-tick prediction (13 chains × a multi-step look-ahead window,
every 5 s, for every VM) is the unit of work the paper's scalability
argument rests on, so it is fully vectorized: all of a VM's
per-attribute chains are stacked into one
:class:`BatchedAttributeChains` operator and propagated as a single
tensor contraction per step, and the classifiers score with
precomputed log-CPT tensors (see ``docs/performance.md``).  The
pre-vectorization code path is preserved as
:meth:`AnomalyPredictor.predict_reference` for equivalence tests and
benchmark baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bayes import NaiveBayesClassifier
from repro.core.discretization import DEFAULT_BINS, Discretizer
from repro.core.markov import (
    MarkovModel,
    SimpleMarkovModel,
    TwoDependentMarkovModel,
    expected_bins,
)
from repro.core.tan import TANClassifier

__all__ = [
    "AnomalyPredictor",
    "BatchedAttributeChains",
    "MARKOV_CHAINS",
    "PredictionResult",
    "monolithic_attributes",
]

#: Chain class of each ``markov=`` variant.  A predictor's
#: ``history_needed`` is its chain class's, so the registry can read it
#: from a snapshot's ``"markov"`` field without restoring the model
#: (``serve/registry.py::CHAIN_HISTORY`` copies the numbers, a test
#: pins the copy).
MARKOV_CHAINS: Dict[str, type] = {
    "2dep": TwoDependentMarkovModel,
    "simple": SimpleMarkovModel,
}


@dataclass(frozen=True)
class PredictionResult:
    """Outcome of one look-ahead prediction (or current classification)."""

    abnormal: bool
    probability: float
    #: classifier log-odds (Eq. 1 left-hand side); unlike the posterior
    #: probability it does not saturate, so it ranks VMs reliably.
    score: float
    #: predicted (or observed) bin per attribute
    bins: Tuple[int, ...]
    #: Eq. (2) strength per attribute, aligned with ``attributes``
    strengths: Tuple[float, ...]
    attributes: Tuple[str, ...]
    #: look-ahead steps this prediction was made for (0 = now)
    steps: int = 0

    @classmethod
    def from_score(
        cls,
        score: float,
        bins: Sequence[int],
        strengths: Sequence[float],
        attributes: Tuple[str, ...],
        steps: int = 0,
    ) -> "PredictionResult":
        """The result for Eq. (1) statistic ``score``: abnormal when it
        is positive, with the logistic posterior."""
        score = float(score)
        return cls(
            abnormal=score > 0.0,
            probability=float(1.0 / (1.0 + np.exp(-score))),
            score=score,
            bins=tuple(int(b) for b in bins),
            strengths=tuple(float(v) for v in strengths),
            attributes=attributes,
            steps=steps,
        )

    def ranked_attributes(self) -> List[Tuple[str, float]]:
        """Attributes sorted by anomaly-impact strength, strongest first."""
        return sorted(
            zip(self.attributes, self.strengths), key=lambda kv: -kv[1]
        )


def monolithic_attributes(
    vm_names: Sequence[str], attributes: Sequence[str]
) -> List[str]:
    """Attribute names for the monolithic (one-big-model) baseline."""
    return [f"{vm}:{attr}" for vm in vm_names for attr in attributes]


class BatchedAttributeChains:
    """All of one VM's per-attribute Markov chains as one tensor operator.

    Stacks the smoothed transition matrices of ``n_attrs`` same-shaped
    chains into a ``(n_attrs, n_condition_states, n_states)`` tensor
    and propagates *every* attribute's state distribution
    simultaneously — one contraction per look-ahead step instead of
    ``n_attrs`` separate matrix products per step.

    The operator snapshots each model's training version at build
    time; :meth:`fresh` reports whether any underlying chain has been
    refit/updated since, in which case callers rebuild (or
    :meth:`restack`) before propagating.
    """

    def __init__(self, models: Sequence[MarkovModel]) -> None:
        if not models:
            raise ValueError("need at least one chain")
        kinds = {type(m) for m in models}
        if len(kinds) != 1:
            raise ValueError(f"chains must share one variant, got {kinds}")
        states = {m.n_states for m in models}
        if len(states) != 1:
            raise ValueError(f"chains must share n_states, got {states}")
        if not all(m._trained for m in models):
            raise ValueError("all chains must be trained")
        self._models = tuple(models)
        self.n_states = models[0].n_states
        self.two_dependent = isinstance(models[0], TwoDependentMarkovModel)
        self.history_needed = models[0].history_needed
        n = self.n_states
        stacked = np.stack([m.transition_matrix() for m in models])
        if self.two_dependent:
            #: (n_attrs, prev, cur, next)
            self._tensor = np.ascontiguousarray(
                stacked.reshape(len(models), n, n, n)
            )
        else:
            #: (n_attrs, cur, next)
            self._tensor = np.ascontiguousarray(stacked)
        self._versions = tuple(m._version for m in models)

    @property
    def n_attrs(self) -> int:
        return len(self._models)

    def fresh(self) -> bool:
        """True while no underlying chain has been refit/updated."""
        return all(
            m._version == v for m, v in zip(self._models, self._versions)
        )

    def fresh_slice(self, start: int, stop: int) -> bool:
        """True while no chain in ``[start, stop)`` was refit/updated.

        Lets fleet-wide consumers locate *which* VM's rows went stale
        (e.g. after an in-place :meth:`MarkovModel.update`) and repair
        just those via :meth:`restack` instead of rebuilding.
        """
        return all(
            m._version == v
            for m, v in zip(
                self._models[start:stop], self._versions[start:stop]
            )
        )

    def restack(self, start: int, models: Sequence[MarkovModel]) -> None:
        """Replace a contiguous run of chains with refit models.

        The incremental-repair path for fleet-wide operators: when a
        retrain swaps one VM's chains, only that VM's tensor rows are
        re-snapshotted instead of rebuilding the whole stack.  The new
        models must match the stack's variant and state count.

        Raises :class:`ValueError` when the replacement cannot slot in
        (different variant, state count, or untrained models) — the
        caller should rebuild from scratch instead.
        """
        if start < 0 or start + len(models) > len(self._models):
            raise ValueError(
                f"restack [{start}, {start + len(models)}) outside "
                f"0..{len(self._models)}"
            )
        for m in models:
            if type(m) is not type(self._models[0]):
                raise ValueError(
                    f"variant mismatch: {type(m)} vs {type(self._models[0])}"
                )
            if m.n_states != self.n_states:
                raise ValueError(
                    f"n_states mismatch: {m.n_states} vs {self.n_states}"
                )
            if not m._trained:
                raise ValueError("replacement chains must be trained")
        n = self.n_states
        stacked = np.stack([m.transition_matrix() for m in models])
        if self.two_dependent:
            self._tensor[start:start + len(models)] = stacked.reshape(
                len(models), n, n, n
            )
        else:
            self._tensor[start:start + len(models)] = stacked
        all_models = list(self._models)
        all_versions = list(self._versions)
        all_models[start:start + len(models)] = models
        all_versions[start:start + len(models)] = [
            m._version for m in models
        ]
        self._models = tuple(all_models)
        self._versions = tuple(all_versions)

    def predict_all(self, histories: np.ndarray, steps: int) -> np.ndarray:
        """Distributions for every attribute at every horizon.

        ``histories`` is a ``(>= history_needed, n_attrs)`` integer
        matrix of trailing observed states, oldest first (one column
        per attribute).  Returns ``(steps, n_attrs, n_states)``; slice
        ``[k, j]`` equals ``models[j].predict_distribution(histories[:,
        j], k + 1)`` bitwise.
        """
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        histories = np.asarray(histories, dtype=np.intp)
        if histories.ndim != 2 or histories.shape[1] != self.n_attrs:
            raise ValueError(
                f"expected (n, {self.n_attrs}) histories, got {histories.shape}"
            )
        if histories.shape[0] < self.history_needed:
            raise ValueError(
                f"need {self.history_needed} trailing states, "
                f"got {histories.shape[0]}"
            )
        return self._propagate(self._tensor, histories, steps)

    def predict_subset(
        self, histories: np.ndarray, attrs_idx: np.ndarray, steps: int
    ) -> np.ndarray:
        """Distributions for a *subset* of the stacked attributes.

        Identical to :meth:`predict_all` restricted to the attribute
        indices in ``attrs_idx`` — the einsum reductions are
        independent along the attribute axis, so slice ``[k, i]``
        equals ``predict_all(full_histories, steps)[k, attrs_idx[i]]``
        bitwise.  Lets a fleet-wide operator score only the VMs with
        pending samples.
        """
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        attrs_idx = np.asarray(attrs_idx, dtype=np.intp)
        histories = np.asarray(histories, dtype=np.intp)
        if histories.ndim != 2 or histories.shape[1] != attrs_idx.shape[0]:
            raise ValueError(
                f"expected (n, {attrs_idx.shape[0]}) histories, "
                f"got {histories.shape}"
            )
        if histories.shape[0] < self.history_needed:
            raise ValueError(
                f"need {self.history_needed} trailing states, "
                f"got {histories.shape[0]}"
            )
        return self._propagate(self._tensor[attrs_idx], histories, steps)

    def _propagate(
        self, tensor: np.ndarray, histories: np.ndarray, steps: int
    ) -> np.ndarray:
        """The look-ahead recurrence over ``tensor``'s attribute rows.

        The einsum reductions are independent along the attribute
        axis, so any row subset of the stack propagates to the same
        bits as the full stack.
        """
        a, n = tensor.shape[0], self.n_states
        out = np.empty((steps, a, n))
        attrs = np.arange(a)
        if self.two_dependent:
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


class AnomalyPredictor:
    """Per-component online anomaly prediction model.

    Parameters
    ----------
    attributes:
        Names of the metric attributes, defining vector order.
    n_bins:
        Single states per attribute for discretization and the chains.
    markov:
        ``"2dep"`` (paper) or ``"simple"`` (baseline of Fig. 11).
    classifier:
        ``"tan"`` (paper) or ``"naive"`` (baseline from [10]).
    """

    def __init__(
        self,
        attributes: Sequence[str],
        n_bins: int = DEFAULT_BINS,
        markov: str = "2dep",
        classifier: str = "tan",
        smoothing: float = 0.15,
        class_prior: str = "balanced",
        prediction_mode: str = "soft",
        robust: bool = True,
    ) -> None:
        if not attributes:
            raise ValueError("need at least one attribute")
        if markov not in MARKOV_CHAINS:
            raise ValueError(f"unknown markov variant {markov!r}")
        if classifier not in ("tan", "naive"):
            raise ValueError(f"unknown classifier {classifier!r}")
        if prediction_mode not in ("soft", "hard"):
            raise ValueError(f"unknown prediction mode {prediction_mode!r}")
        self.attributes = tuple(attributes)
        self.n_bins = n_bins
        self.markov_kind = markov
        self.classifier_kind = classifier
        self.smoothing = smoothing
        #: "soft" classifies the *distribution* the value predictor
        #: returns (expected Eq. 1 statistic); "hard" rounds each
        #: attribute to one predicted bin first (ablation baseline).
        self.prediction_mode = prediction_mode
        self.discretizer = Discretizer(n_bins=n_bins)
        self.value_models: List[MarkovModel] = []
        self.robust = robust
        self._batched: Optional[BatchedAttributeChains] = None
        if classifier == "tan":
            self.classifier: "TANClassifier | NaiveBayesClassifier" = TANClassifier(
                n_bins=n_bins, smoothing=smoothing, class_prior=class_prior,
                robust=robust,
            )
        else:
            self.classifier = NaiveBayesClassifier(
                n_bins=n_bins, smoothing=smoothing, class_prior=class_prior,
                robust=robust,
            )
        self._trained = False

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    @property
    def trained(self) -> bool:
        return self._trained

    def invalidate(self) -> None:
        """Forget the trained state (used when fault localization no
        longer implicates this VM in any buffered anomaly — a model
        trained on evidence that has since been reinterpreted must not
        keep raising alerts)."""
        self._trained = False

    @property
    def history_needed(self) -> int:
        """Trailing samples required to condition a prediction."""
        return MARKOV_CHAINS[self.markov_kind].history_needed

    def _new_markov(self) -> MarkovModel:
        return MARKOV_CHAINS[self.markov_kind](
            self.n_bins, smoothing=self.smoothing)

    def train(
        self,
        values: np.ndarray,
        labels: Sequence[int],
        segment_ids: Optional[Sequence[int]] = None,
    ) -> "AnomalyPredictor":
        """(Re)train from a labelled window of raw metric vectors.

        ``values`` has shape (n_samples, n_attributes); ``labels`` are
        the matching SLO states (1 = violated).  Both classes must be
        present — callers gate on
        :meth:`~repro.core.labeling.TrainingBuffer.has_both_classes`.

        ``segment_ids`` marks contiguous monitoring runs: when the
        training window has gaps (samples filtered out by regime,
        monitoring restarts), state transitions must not be counted
        across a gap.  Rows sharing an id form one unbroken sequence.
        """
        values = np.asarray(values, dtype=float)
        labels = np.asarray(labels, dtype=np.intp)
        if values.ndim != 2 or values.shape[1] != len(self.attributes):
            raise ValueError(
                f"expected (n, {len(self.attributes)}) values, got {values.shape}"
            )
        if labels.shape != (values.shape[0],):
            raise ValueError("labels must match values rows")
        if segment_ids is None:
            segments = [np.arange(values.shape[0])]
        else:
            ids = np.asarray(segment_ids)
            if ids.shape != (values.shape[0],):
                raise ValueError("segment_ids must match values rows")
            segments = [np.flatnonzero(ids == seg) for seg in np.unique(ids)]
        # Fit into locals and commit together: a window that cannot be
        # trained on must leave the previous model scoring as it did.
        discretizer = Discretizer(
            n_bins=self.n_bins, strategy=self.discretizer.strategy
        ).fit(values)
        binned = discretizer.transform(values)
        chains: List[MarkovModel] = []
        for j in range(len(self.attributes)):
            model = self._new_markov()
            for rows in segments:
                model.update(binned[rows, j])
            chains.append(model)
        if not all(m._trained for m in chains):
            raise ValueError(
                "training window yields no state transitions (every "
                "segment shorter than the chain history); need longer "
                "contiguous runs"
            )
        batched = BatchedAttributeChains(chains)
        # The classifier validates before it mutates, so it goes first.
        self.classifier.fit(binned, labels)
        self.discretizer, self.value_models = discretizer, chains
        self._batched = batched
        self._trained = True
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _require_trained(self) -> None:
        if not self._trained:
            raise RuntimeError("predictor is not trained")

    def classify_current(self, values: Sequence[float]) -> PredictionResult:
        """Classify the *observed* current state (the reactive path)."""
        self._require_trained()
        bins = self.discretizer.transform(np.asarray(values, dtype=float))
        return self._classify(tuple(int(b) for b in bins), steps=0)

    def _check_recent(self, recent_values: np.ndarray, steps: int) -> np.ndarray:
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        recent = np.asarray(recent_values, dtype=float)
        if recent.ndim != 2 or recent.shape[1] != len(self.attributes):
            raise ValueError(
                f"expected (n, {len(self.attributes)}) recent values, "
                f"got {recent.shape}"
            )
        if recent.shape[0] < self.history_needed:
            raise ValueError(
                f"need {self.history_needed} recent samples, got {recent.shape[0]}"
            )
        return recent

    def _distributions_all(self, binned: np.ndarray, steps: int) -> np.ndarray:
        """(steps, n_attrs, n_bins) attribute distributions at every
        horizon, through the stacked-tensor operator."""
        batched = self._batched
        if (
            batched is None
            or not batched.fresh()
            or batched.n_attrs != len(self.value_models)
        ):
            # A chain was updated behind the operator's back: re-stack
            # from the live models rather than propagate stale rows.
            batched = self._batched = BatchedAttributeChains(self.value_models)
        return batched.predict_all(binned, steps)

    def predict(self, recent_values: np.ndarray, steps: int) -> PredictionResult:
        """Classify the *predicted* state ``steps`` samples ahead.

        ``recent_values`` is a (>= history_needed, n_attributes) matrix
        of the most recent raw samples, oldest first.
        """
        self._require_trained()
        recent = self._check_recent(recent_values, steps)
        binned = self.discretizer.transform(recent)
        final = self._distributions_all(binned, steps)[-1]
        predicted_bins = tuple(int(b) for b in expected_bins(final))
        if self.prediction_mode == "hard":
            return self._classify(predicted_bins, steps=steps)
        return self._classify_soft(list(final), predicted_bins, steps)

    def predict_horizons(
        self, recent_values: np.ndarray, steps: int
    ) -> List[PredictionResult]:
        """Classify the predicted state at *every* horizon ``1..steps``.

        One chain propagation plus one batched classifier evaluation
        covers the whole look-ahead sweep; entry ``k`` equals
        ``predict(recent_values, k + 1)`` (iterative propagation visits
        the same intermediate distributions, and the batched classifier
        scores each horizon with the same tensors as the single-sample
        path).
        """
        self._require_trained()
        recent = self._check_recent(recent_values, steps)
        binned = self.discretizer.transform(recent)
        dists = self._distributions_all(binned, steps)  # (steps, a, n)
        bins = expected_bins(dists)                      # (steps, a)
        if self.prediction_mode == "hard":
            scores = self.classifier.log_odds_batch(bins)
            strengths = self.classifier.strengths_batch(bins)
        else:
            strengths = self.classifier.expected_strengths_batch(dists)
            scores = self.classifier.expected_log_odds_batch(dists)
        return [
            PredictionResult.from_score(
                scores[k], bins[k], strengths[k], self.attributes, k + 1
            )
            for k in range(steps)
        ]

    def predict_reference(
        self, recent_values: np.ndarray, steps: int
    ) -> PredictionResult:
        """The pre-vectorization prediction path, preserved verbatim.

        Recomputes each chain's transition matrix from raw counts,
        propagates attribute-by-attribute in Python, and scores with
        the classifiers' scalar reference loops.  Ground truth for the
        equivalence tests and the baseline the
        ``benchmarks/perf_prediction.py`` speedups are measured
        against.
        """
        self._require_trained()
        recent = self._check_recent(recent_values, steps)
        binned = self.discretizer.transform(recent)
        distributions: List[np.ndarray] = []
        predicted_bins: List[int] = []
        for j, model in enumerate(self.value_models):
            history = binned[:, j].tolist()
            dist = model._predict_reference(history, steps)
            distributions.append(dist)
            expected = float(np.dot(np.arange(self.n_bins), dist))
            predicted_bins.append(int(np.clip(round(expected), 0, self.n_bins - 1)))
        bins = tuple(predicted_bins)
        if self.prediction_mode == "hard":
            score = self.classifier.log_odds_reference(bins)
            strengths = tuple(self.classifier.strengths_reference(bins))
        else:
            strengths = tuple(
                self.classifier.expected_strengths_reference(distributions)
            )
            score = self.classifier.expected_log_odds_reference(distributions)
        return PredictionResult(
            abnormal=score > 0.0,
            probability=float(1.0 / (1.0 + np.exp(-score))),
            score=float(score),
            bins=bins,
            strengths=strengths,
            attributes=self.attributes,
            steps=steps,
        )

    def _classify_soft(
        self,
        distributions: List[np.ndarray],
        bins: Tuple[int, ...],
        steps: int,
    ) -> PredictionResult:
        return PredictionResult.from_score(
            self.classifier.expected_log_odds(distributions), bins,
            self.classifier.expected_strengths(distributions),
            self.attributes, steps,
        )

    def _classify(self, bins: Tuple[int, ...], steps: int) -> PredictionResult:
        return PredictionResult.from_score(
            self.classifier.log_odds(bins), bins,
            self.classifier.attribute_strengths(bins), self.attributes, steps,
        )

    # ------------------------------------------------------------------
    # Snapshot / restore (model registry hooks)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable snapshot of the full per-VM pipeline.

        Bundles the discretizer bins, every per-attribute chain's raw
        transition counts and the classifier's fitted tables.  All
        derived scoring state (stacked chain operator, classifier diff
        tensors, transition-matrix caches) is rebuilt deterministically
        by :meth:`from_dict`, so the restored predictor's
        :meth:`predict` output is bitwise-identical to this one's.
        """
        return {
            "kind": "predictor",
            "attributes": list(self.attributes),
            "n_bins": self.n_bins,
            "markov": self.markov_kind,
            "classifier": self.classifier_kind,
            "smoothing": self.smoothing,
            "class_prior": self.classifier.class_prior,
            "prediction_mode": self.prediction_mode,
            "robust": self.robust,
            "trained": self._trained,
            "discretizer": self.discretizer.to_dict(),
            "value_models": [m.to_dict() for m in self.value_models],
            "classifier_model": (
                self.classifier.to_dict() if self._trained else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "AnomalyPredictor":
        """Rebuild a predictor saved by :meth:`to_dict`."""
        if payload.get("kind") != "predictor":
            raise ValueError(
                f"not a predictor snapshot: kind={payload.get('kind')!r}"
            )
        predictor = cls(
            attributes=[str(a) for a in payload["attributes"]],
            n_bins=int(payload["n_bins"]),
            markov=str(payload["markov"]),
            classifier=str(payload["classifier"]),
            smoothing=float(payload["smoothing"]),
            class_prior=str(payload["class_prior"]),
            prediction_mode=str(payload["prediction_mode"]),
            robust=bool(payload["robust"]),
        )
        predictor.discretizer = Discretizer.from_dict(payload["discretizer"])
        models = [MarkovModel.from_dict(m) for m in payload["value_models"]]
        expected_chain = MARKOV_CHAINS[predictor.markov_kind]
        for model in models:
            if not isinstance(model, expected_chain):
                raise ValueError(
                    f"chain variant does not match markov={predictor.markov_kind!r}"
                )
        trained = bool(payload["trained"])
        if trained:
            if len(models) != len(predictor.attributes):
                raise ValueError(
                    f"expected {len(predictor.attributes)} chains, "
                    f"got {len(models)}"
                )
            clf_payload = payload["classifier_model"]
            if clf_payload is None:
                raise ValueError("trained snapshot is missing its classifier")
            if predictor.classifier_kind == "tan":
                predictor.classifier = TANClassifier.from_dict(clf_payload)
            else:
                predictor.classifier = NaiveBayesClassifier.from_dict(
                    clf_payload
                )
            predictor.value_models = models
            predictor._batched = BatchedAttributeChains(models)
            predictor._trained = True
        else:
            predictor.value_models = models
        return predictor

    # ------------------------------------------------------------------
    # Monolithic-model helper
    # ------------------------------------------------------------------
    @staticmethod
    def concat_histories(per_vm_values: Sequence[np.ndarray]) -> np.ndarray:
        """Column-concatenate per-VM value matrices for the monolithic
        baseline (all matrices must share the row count)."""
        if not per_vm_values:
            raise ValueError("no value matrices given")
        rows = {np.asarray(v).shape[0] for v in per_vm_values}
        if len(rows) != 1:
            raise ValueError(f"per-VM matrices disagree on rows: {sorted(rows)}")
        return np.concatenate([np.asarray(v, dtype=float) for v in per_vm_values], axis=1)
