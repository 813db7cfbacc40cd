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

This module fits the models and stacks their chains.
:meth:`AnomalyPredictor.train` fits in one pass per model: every
chain from one ``np.bincount`` (:meth:`MarkovModel.fit_columns`), every
discretizer column at once, the TAN without per-attribute loops; the
loops it replaced are oracles in ``tests/core/oracles.py``.  There is one
scoring path, :class:`~repro.core.fleet.FleetScorer`: the
controller and the servers score whole fleets through it, and
:meth:`AnomalyPredictor.predict`, :meth:`~AnomalyPredictor.
predict_horizons` and :meth:`~AnomalyPredictor.classify_current`
answer through a cached one-VM scorer.  The scorer propagates stacked
chains with :class:`BatchedAttributeChains` (see
``docs/performance.md``).  The pre-vectorization code path is the test
oracle ``oracle_predict`` in ``tests/core/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import refits
from repro.core.bayes import NaiveBayesClassifier
from repro.core.discretization import DEFAULT_BINS, Discretizer
from repro.core.markov import (
    MarkovModel,
    SimpleMarkovModel,
    TwoDependentMarkovModel,
    propagate,
)
from repro.core.tan import TANClassifier

if TYPE_CHECKING:
    from repro.core.fleet import FleetScorer

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
    """Many same-shaped Markov chains as one tensor operator.

    Stacks the chains' :meth:`~repro.core.markov.MarkovModel.operator`
    rows into one ``(n_attrs, [prev,] cur, next)`` tensor and
    propagates any subset of them with one contraction per look-ahead
    step (:func:`~repro.core.markov.propagate`) instead of one matrix
    product per chain per step.

    The operator snapshots each model's training version at build
    time; :meth:`fresh` reports whether any underlying chain has been
    refit/updated since, in which case callers rebuild (or
    :meth:`restack`) before propagating.
    """

    def __init__(self, models: Sequence[MarkovModel]) -> None:
        if not models:
            raise ValueError("need at least one chain")
        self._check(models, type(models[0]), models[0].n_states)
        self._models = tuple(models)
        self.n_states = models[0].n_states
        self.two_dependent = isinstance(models[0], TwoDependentMarkovModel)
        self.history_needed = models[0].history_needed
        #: (n_attrs, [prev,] cur, next)
        self._tensor = np.stack([m.operator() for m in models])
        self._versions = tuple(m._version for m in models)

    @staticmethod
    def _check(models: Sequence[MarkovModel], variant: type, n_states: int) -> None:
        """Every chain must be a trained ``variant`` chain of ``n_states``."""
        for m in models:
            if type(m) is not variant:
                raise ValueError(f"variant mismatch: {type(m)} vs {variant}")
            if m.n_states != n_states:
                raise ValueError(f"n_states mismatch: {m.n_states} vs {n_states}")
            if not m._trained:
                raise ValueError("chains must be trained")

    @property
    def n_attrs(self) -> int:
        return len(self._models)

    def fresh(self) -> bool:
        """True while no underlying chain has been refit/updated."""
        return self.fresh_slice(0, len(self._models))

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
        stop = start + len(models)
        if start < 0 or stop > len(self._models):
            raise ValueError(
                f"restack [{start}, {stop}) outside 0..{len(self._models)}"
            )
        self._check(models, type(self._models[0]), self.n_states)
        self._tensor[start:stop] = [m.operator() for m in models]
        self._models = self._models[:start] + tuple(models) + self._models[stop:]
        self._versions = (self._versions[:start]
                          + tuple(m._version for m in models)
                          + self._versions[stop:])

    def predict_subset(
        self, histories: np.ndarray, attrs_idx: np.ndarray, steps: int
    ) -> np.ndarray:
        """Distributions of the stacked chains ``attrs_idx`` at every
        horizon ``1..steps``, ``(steps, len(attrs_idx), n_states)``.

        ``histories`` is a ``(>= history_needed, len(attrs_idx))``
        integer matrix of trailing observed states, oldest first.  The
        recurrence is independent along the chain axis, so slice ``[k,
        i]`` does not depend on which other chains are in the subset.
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
        return propagate(self._tensor[attrs_idx], histories, steps)


#: The VM key a predictor's one-VM scorer files it under.
_ONE_VM = "vm"


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
        #: This predictor as a one-VM fleet (see :meth:`_one_vm`).
        self._scorer: Optional["FleetScorer"] = None
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

    def __setattr__(self, name: str, value) -> None:
        # Setting a model object or the trained flag is a refit to any
        # scorer stacked over this predictor (see repro.core.refits).
        if name in ("classifier", "discretizer", "value_models", "_trained"):
            refits.bump()
        object.__setattr__(self, name, value)

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
        across a gap.  Rows sharing an id form one unbroken sequence,
        in row order; they need not be adjacent.  Every value must be
        finite: a ``ValueError`` names the first column that is not.
        """
        values = np.asarray(values, dtype=float)
        labels = np.asarray(labels, dtype=np.intp)
        if values.ndim != 2 or values.shape[1] != len(self.attributes):
            raise ValueError(
                f"expected (n, {len(self.attributes)}) values, got {values.shape}"
            )
        if labels.shape != (values.shape[0],):
            raise ValueError("labels must match values rows")
        finite = np.isfinite(values).all(axis=0)
        if not finite.all():
            raise ValueError(
                f"attribute {self.attributes[int(np.argmin(finite))]!r} "
                f"has non-finite training values"
            )
        # Fit into locals and commit together: a window that cannot be
        # trained on must leave the previous model scoring as it did.
        discretizer = Discretizer(
            n_bins=self.n_bins, strategy=self.discretizer.strategy
        ).fit(values)
        binned = discretizer.transform(values)
        if segment_ids is None:
            segments = np.zeros(values.shape[0], dtype=np.intp)
            sequence = binned
        else:
            ids = np.asarray(segment_ids)
            if ids.shape != (values.shape[0],):
                raise ValueError("segment_ids must match values rows")
            # Each segment's rows, segments in id order, as one stream.
            order = np.argsort(ids, kind="stable")
            segments, sequence = ids[order], binned[order]
        chains = MARKOV_CHAINS[self.markov_kind].fit_columns(
            sequence, segments, self.n_bins, smoothing=self.smoothing
        )
        if not chains[0]._trained:
            raise ValueError(
                "training window yields no state transitions (every "
                "segment shorter than the chain history); need longer "
                "contiguous runs"
            )
        # The classifier validates before it mutates, so it goes first.
        self.classifier.fit(binned, labels)
        self.discretizer, self.value_models = discretizer, chains
        self._trained = True
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _require_trained(self) -> None:
        if not self._trained:
            raise RuntimeError("predictor is not trained")

    def _one_vm(self) -> "FleetScorer":
        """This predictor as a one-VM :class:`~repro.core.fleet.
        FleetScorer`, the one scoring path.  Built on first use and
        kept: the scorer's staleness rule repairs it after a refit (a
        shallow copy of the predictor builds its own)."""
        self._require_trained()
        if self._scorer is None or self._scorer.predictors[_ONE_VM] is not self:
            # fleet imports this module, so import it on first use.
            from repro.core.fleet import FleetScorer

            self._scorer = FleetScorer({_ONE_VM: self})
        return self._scorer

    def classify_current(self, values: Sequence[float]) -> PredictionResult:
        """Classify the *observed* current state (the reactive path)."""
        return self._one_vm().classify_batch([(_ONE_VM, values)])[0]

    def predict(self, recent_values: np.ndarray, steps: int) -> PredictionResult:
        """Classify the *predicted* state ``steps`` samples ahead.

        ``recent_values`` is a (>= history_needed, n_attributes) matrix
        of the most recent raw samples, oldest first.
        """
        return self._one_vm().score([(_ONE_VM, recent_values, steps)])[0]

    def predict_horizons(
        self, recent_values: np.ndarray, steps: int
    ) -> List[PredictionResult]:
        """Classify the predicted state at *every* horizon ``1..steps``.

        One chain propagation covers the whole look-ahead sweep; entry
        ``k`` equals ``predict(recent_values, k + 1)`` (see
        :meth:`~repro.core.fleet.FleetScorer.score_horizons`).
        """
        return self._one_vm().score_horizons(_ONE_VM, recent_values, steps)

    # ------------------------------------------------------------------
    # Snapshot / restore (model registry hooks)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable snapshot of the full per-VM pipeline.

        Bundles the discretizer bins, every per-attribute chain's raw
        transition counts and the classifier's fitted tables.  All
        derived scoring state (classifier diff tensors, transition-matrix
        caches, the one-VM scorer) is rebuilt deterministically by
        :meth:`from_dict`, so the restored predictor's :meth:`predict`
        output is bitwise-identical to this one's.
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
        predictor.value_models = models
        if payload["trained"]:
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
            predictor._trained = True
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
