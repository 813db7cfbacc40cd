"""Fleet-wide batched scoring: the one scoring path of the predictor.

PREPARE's per-tick work (Sec. II-B) is the Markov look-ahead of every
attribute followed by the TAN Eq. (1)/(2) statistic with its L_i
attribution.  :class:`FleetScorer` is the only code that computes it,
for every consumer:

* the **online serving layer** (:mod:`repro.serve.service`), whose
  micro-batching dispatcher coalesces samples from many connections
  into one :class:`FleetScorer` call;
* the **offline controller** (:mod:`repro.core.controller`), whose
  predictive and reactive paths score every monitored VM each tick in
  one fleet contraction;
* the **per-VM API** (:meth:`AnomalyPredictor.predict` /
  :meth:`~AnomalyPredictor.predict_horizons` /
  :meth:`~AnomalyPredictor.classify_current`), which answers through a
  one-VM scorer the predictor caches.

:class:`FleetScorer` concatenates every VM's per-attribute Markov
chains into a single :class:`~repro.core.predictor.
BatchedAttributeChains` (``total_attrs = Σ n_attrs``), stacks the
discretizer edges and classifier tensors along the same attribute
axis, and keeps a lazily filled *horizon table* per look-ahead depth,
so a mixed-VM batch is scored with a handful of fleet-wide gathers and
einsums instead of one full pipeline pass per sample.  Naive Bayes and
TAN stack alike: naive Bayes is the TAN whose every attribute is a root
(:class:`~repro.core.bayes.BayesClassifier`).

A VM's result does not depend on which other VMs share the stack or
the batch: the stacked einsum reductions are independent along the
attribute axis, and per-VM reductions keep their shapes.  So a fleet
scorer answers bitwise what each VM's own one-VM scorer answers.  The
independent reference is the pre-vectorization loop
``tests/core/oracles.py::oracle_predict``.  The scorer's one
precondition is that the fleet's chains stack: every VM must share one
chain variant and ``n_bins``.  A fleet that does not raises
:class:`ValueError` naming the VMs of each group — at construction, or
from :meth:`FleetScorer.sync` after a refit that breaks the rule.  Any
other refit is repaired before the next call.  ``serve_check.py``, the
replay harness and the golden decision digests assert the parity end
to end.

Staleness rule: current = the objects the predictor holds now, not
refit since — chains, classifier and discretizer are each compared by
identity with what the predictor holds *and* by the marker a refit
replaces (chain version, ``_diff_soft``, the ``_edges`` array) — but
only after the refit counter (:mod:`repro.core.refits`) has moved.
A batch's rows are classified in one pass, results built from
``.tolist()``; the per-item loop is ``oracles.py::oracle_classify_rows``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core import refits
from repro.core.bayes import ABNORMAL, NORMAL
from repro.core.markov import MarkovModel, expected_bins
from repro.core.predictor import (
    AnomalyPredictor,
    BatchedAttributeChains,
    PredictionResult,
)

__all__ = ["FleetScorer"]

#: Look-ahead depths a scorer keeps a horizon table for (LRU by
#: ``steps``; a controller or service uses one or two).
HORIZON_TABLES = 4


@dataclass
class _FleetTensors:
    """Fleet-stacked discretizer and classifier state.

    Everything an arriving batch needs besides the chains,
    concatenated along one global attribute axis (``A = Σ per-VM
    attrs``): discretizer edges for the batched transform, and the
    per-attribute difference tensors and tree metadata for stacked
    classification.
    """

    edges: np.ndarray        # (A, n_bins - 1)
    diff_soft: np.ndarray    # (A, b, b) clipped Eq. (2) tensors
    diff_hard: np.ndarray    # (A, b, b) unclipped variant
    rel_parent: np.ndarray   # (A,) parent index *within* the VM
    is_root: np.ndarray      # (A,) bool
    mask: np.ndarray         # (A,) attribute-selection mask
    prior_diff: Dict[str, float]          # vm -> log-prior difference


class _Source(NamedTuple):
    """What one VM's rows were stacked from (the staleness rule)."""

    predictor: AnomalyPredictor
    chains: List[MarkovModel]
    classifier: object
    diff_soft: np.ndarray
    discretizer: object
    edges: np.ndarray

    @classmethod
    def of(cls, predictor: AnomalyPredictor) -> "_Source":
        clf, disc = predictor.classifier, predictor.discretizer
        return cls(
            predictor, list(predictor.value_models),
            clf, clf._diff_soft, disc, disc._edges,
        )

    def mirrors(self, predictor: AnomalyPredictor) -> bool:
        """True while ``predictor`` holds the objects these rows came
        from.  (Chains compare by identity, so list equality is "same
        objects"; an in-place chain update is caught by the stack's
        versions instead.)"""
        _, chains, clf, diff_soft, disc, edges = self
        return (
            predictor.value_models == chains
            and predictor.classifier is clf and clf._diff_soft is diff_soft
            and predictor.discretizer is disc and disc._edges is edges
        )


class FleetScorer:
    """Scores samples from many VMs through one stacked fleet operator.

    See the module docstring for the parity guarantee and the one-variant
    rule.
    """

    def __init__(self, predictors: Dict[str, AnomalyPredictor]) -> None:
        if not predictors:
            raise ValueError("need at least one predictor")
        self.predictors = dict(predictors)
        self._build()

    def _build(self) -> None:
        """Stack the fleet from the predictors' current models."""
        count = refits.count()
        for vm, predictor in self.predictors.items():
            if not predictor.trained:
                raise ValueError(f"predictor for VM {vm!r} is not trained")
        order = sorted(self.predictors)
        groups: Dict[Tuple[str, int], List[str]] = {}
        for vm in order:
            predictor = self.predictors[vm]
            groups.setdefault(
                (predictor.markov_kind, predictor.n_bins), []
            ).append(vm)
        if len(groups) > 1:
            raise ValueError(
                "a fleet's predictors must share one chain variant and "
                "n_bins; got " + "; ".join(
                    f"markov={markov!r}, n_bins={n_bins}: {', '.join(vms)}"
                    for (markov, n_bins), vms in groups.items()
                )
            )
        self._order = order
        self._slices: Dict[str, np.ndarray] = {}
        chains = []
        offset = 0
        for vm in self._order:
            models = self.predictors[vm].value_models
            self._slices[vm] = np.arange(offset, offset + len(models))
            chains.extend(models)
            offset += len(models)
        self._stacked = BatchedAttributeChains(chains)
        self._sources = [_Source.of(self.predictors[vm]) for vm in self._order]
        self._tensors = self._build_tensors()
        #: steps -> (table (A * start states, x), valid (A * start
        #: states,)); see :meth:`_horizon_rows`.
        self._horizon_cache: OrderedDict = OrderedDict()
        #: The refit count the stack was last checked against.
        self._refits = count

    @property
    def n_vms(self) -> int:
        return len(self.predictors)

    @property
    def n_states(self) -> int:
        return self._stacked.n_states

    @property
    def stacked(self) -> bool:
        """True while every stacked chain is the one its predictor
        holds, not refit since."""
        return self._stacked.fresh() and all(
            source.predictor.value_models == source.chains
            for source in self._sources
        )

    def _build_tensors(self) -> _FleetTensors:
        predictors = [self.predictors[vm] for vm in self._order]
        classifiers = [p.classifier for p in predictors]
        return _FleetTensors(
            edges=np.concatenate([p.discretizer._edges for p in predictors]),
            diff_soft=np.concatenate([c._diff_soft for c in classifiers]),
            diff_hard=np.concatenate([c._diff_hard for c in classifiers]),
            rel_parent=np.concatenate(
                [c._parent_or_self for c in classifiers]),
            is_root=np.concatenate([c.parents < 0 for c in classifiers]),
            mask=np.concatenate([c.attribute_mask for c in classifiers]),
            prior_diff={
                vm: float(clf._log_prior[ABNORMAL] - clf._log_prior[NORMAL])
                for vm, clf in zip(self._order, classifiers)
            },
        )

    def sync(self) -> None:
        """Bring a stale stack up to date before it is scored with.

        Repairs just the refit VMs' rows when :meth:`refresh` can, and
        re-stacks the whole fleet otherwise — which raises
        :class:`ValueError` if the refit left the fleet without one
        chain variant and ``n_bins``.  O(1) while no model anywhere has
        been refit since the last call.
        """
        count = refits.count()
        if count == self._refits:
            return
        if not self.refresh():
            self._build()
        self._refits = count

    def refresh(self) -> bool:
        """Incrementally re-stack VMs whose models were refit in place.

        The online controller retrains a handful of VMs every few
        ticks; rebuilding the whole fleet stack each time would cost
        more than the batching saves.  This repairs only the stale
        VMs' tensor rows — chains, discretizer edges and classifier
        slices — clears their horizon-table mask rows, and returns
        ``True`` when the scorer is fully current afterwards.
        ``False`` means incremental repair is impossible (membership,
        shape or variant changed) and the stack must be rebuilt
        (:meth:`sync` does both).
        """
        if sorted(self.predictors) != self._order:
            return False
        stale: List[int] = []
        for i, vm in enumerate(self._order):
            predictor = self.predictors[vm]
            sl = self._slices[vm]
            if self._sources[i].mirrors(predictor) and (
                # Identity alone misses in-place updates: update()
                # mutates the chain (same object, bumped version),
                # leaving the stacked tensor rows stale.
                self._stacked.fresh_slice(int(sl[0]), int(sl[-1]) + 1)
            ):
                continue
            if not predictor.trained:
                return False
            if len(predictor.value_models) != sl.shape[0]:
                return False
            stale.append(i)
        for i in stale:
            vm = self._order[i]
            predictor = self.predictors[vm]
            sl = self._slices[vm]
            start, stop = int(sl[0]), int(sl[-1]) + 1
            try:
                self._stacked.restack(start, predictor.value_models)
            except ValueError:
                return False
            if not self._refresh_rows(vm, predictor, start, stop):
                return False
            self._sources[i] = _Source.of(predictor)
            # Whatever the tables hold for this VM came from chains it
            # no longer has; the next batch refills what it visits.
            for _table, valid in self._horizon_cache.values():
                valid.reshape(self._stacked.n_attrs, -1)[start:stop] = False
        return True

    def _refresh_rows(
        self, vm: str, predictor: AnomalyPredictor, start: int, stop: int
    ) -> bool:
        """Repair one VM's rows of the fleet tensors in place."""
        tensors = self._tensors
        clf = predictor.classifier
        edges = predictor.discretizer._edges
        if (
            edges.shape != tensors.edges[start:stop].shape
            or clf._diff_soft.shape != tensors.diff_soft[start:stop].shape
        ):
            return False
        tensors.edges[start:stop] = edges
        tensors.diff_soft[start:stop] = clf._diff_soft
        tensors.diff_hard[start:stop] = clf._diff_hard
        tensors.rel_parent[start:stop] = clf._parent_or_self
        tensors.is_root[start:stop] = clf.parents < 0
        tensors.mask[start:stop] = clf.attribute_mask
        tensors.prior_diff[vm] = float(
            clf._log_prior[ABNORMAL] - clf._log_prior[NORMAL]
        )
        return True

    def _horizon_rows(
        self, steps: int, sel: np.ndarray, bins: np.ndarray
    ) -> np.ndarray:
        """State distributions ``steps`` ticks ahead, ``(len(sel), n)``,
        for stacked chains ``sel`` observed in states ``bins``
        (``(history_needed, len(sel))``, oldest first).

        A per-``steps`` table remembers the row of every ``(chain,
        start state)`` already propagated, behind a validity mask.
        Rows this batch visits and the table lacks are filled by one
        :meth:`BatchedAttributeChains.predict_subset` call, so a
        gathered row is bitwise what propagating live gives.
        :meth:`refresh` only clears a refit VM's mask rows; nothing is
        recomputed until a batch asks for it.
        """
        shape = self._stacked._tensor.shape   # (A, [p0,] c0, x)
        entry = self._horizon_cache.get(steps)
        if entry is None:
            total = int(np.prod(shape[:-1]))
            entry = (np.empty((total, shape[-1])), np.zeros(total, dtype=bool))
            self._horizon_cache[steps] = entry
            if len(self._horizon_cache) > HORIZON_TABLES:
                self._horizon_cache.popitem(last=False)
        else:
            self._horizon_cache.move_to_end(steps)
        table, valid = entry
        rows = np.ravel_multi_index((sel, *bins), shape[:-1])
        seen = valid.take(rows)
        if not seen.all():
            missing = np.flatnonzero(~seen)
            table[rows[missing]] = self._stacked.predict_subset(
                bins[:, missing], sel[missing], steps
            )[-1]
            valid[rows[missing]] = True
        return table.take(rows, axis=0)

    def score(
        self, batch: Sequence[Tuple[str, np.ndarray, int]]
    ) -> List[PredictionResult]:
        """Score ``(vm, recent_values, steps)`` items, preserving order.

        ``recent_values`` is an ``(n >= history_needed, a)`` history of
        raw samples, oldest first.  Each same-``steps`` group costs one
        batched transform, one horizon-table gather and the row
        classification of :meth:`_classify_rows`.
        """
        self.sync()
        results: List[Optional[PredictionResult]] = [None] * len(batch)
        by_steps: Dict[int, List[int]] = {}
        for i, (_, _, steps) in enumerate(batch):
            by_steps.setdefault(steps, []).append(i)
        for steps, positions in by_steps.items():
            if steps < 1:
                raise ValueError(f"steps must be >= 1, got {steps}")
            items = [batch[i] for i in positions]
            bins, sel, bounds = self._gather(
                items, self._stacked.history_needed
            )
            group = self._classify_rows(
                [(vm, steps) for vm, *_ in items],
                self._horizon_rows(steps, sel, bins), sel, bounds,
            )
            for i, result in zip(positions, group):
                results[i] = result
        return results  # type: ignore[return-value]

    def score_horizons(
        self, vm: str, recent_values: np.ndarray, steps: int
    ) -> List[PredictionResult]:
        """Score ``vm``'s predicted state at every horizon ``1..steps``.

        Entry ``k`` is bitwise ``score([(vm, recent_values, k + 1)])``'s
        result, from one propagation: the recurrence visits every
        intermediate horizon, and each horizon's rows go through the
        same :meth:`_classify_rows` as an item of :meth:`score`.
        (Sweeping through :meth:`score` would fill one horizon table
        per depth and thrash the table LRU.)
        """
        self.sync()
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        bins, sel, _ = self._gather(
            [(vm, recent_values)], self._stacked.history_needed
        )
        dists = self._stacked.predict_subset(bins, sel, steps)
        a = sel.shape[0]
        return self._classify_rows(
            [(vm, k + 1) for k in range(steps)],
            dists.reshape(steps * a, -1), np.tile(sel, steps),
            np.arange(steps + 1) * a,
        )

    def classify_batch(
        self, batch: Sequence[Tuple[str, np.ndarray]]
    ) -> List[PredictionResult]:
        """Classify ``(vm, observed_values)`` items, preserving order.

        The observed-state (``steps=0``) companion of :meth:`score`,
        used by the controller's reactive path and
        :meth:`AnomalyPredictor.classify_current`.  The batched
        transform counts ``edges <= value`` exactly like the
        discretizer's ``searchsorted(side="right")`` for every finite
        value, and each VM's strengths sum as one contiguous row, like
        the point ``log_odds`` (Eq. 1) of its classifier.
        """
        self.sync()
        if not batch:
            return []
        bins, sel, bounds = self._gather(batch, 0)
        bins = bins[0]
        tensors = self._tensors
        parent_local = tensors.rel_parent[sel] + np.repeat(
            bounds[:-1], bounds[1:] - bounds[:-1]
        )
        raw = tensors.diff_hard[sel, bins[parent_local], bins]
        return self._results(
            [(vm, 0) for vm, _ in batch],
            np.where(tensors.mask[sel], raw, 0.0), bins, bounds,
        )

    def _gather(
        self, items: Sequence[Tuple], need: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Binned states, global attribute indices and item bounds for
        ``(vm, values, ...)`` items, concatenated along the fleet
        attribute axis.

        With ``need == 0`` each item's values are one observed ``(a,)``
        row and the states are ``(1, Σ a)``; otherwise they are an
        ``(n, a)`` history whose trailing ``need`` rows are kept, and
        the states are ``(need, Σ a)``, oldest first.
        """
        values = []
        attr_idx = []
        bounds = [0]
        for vm, recent, *_ in items:
            recent = np.asarray(recent, dtype=float)
            sl = self._slices[vm]
            if need == 0:
                if recent.shape != (sl.shape[0],):
                    raise ValueError(
                        f"expected {sl.shape[0]} observed values for "
                        f"{vm!r}, got {recent.shape}"
                    )
                recent = recent[None]
            elif recent.ndim != 2 or recent.shape[1] != sl.shape[0]:
                raise ValueError(
                    f"expected (n, {sl.shape[0]}) recent values for "
                    f"{vm!r}, got {recent.shape}"
                )
            elif recent.shape[0] < need:
                raise ValueError(
                    f"need {need} recent samples for {vm!r}, "
                    f"got {recent.shape[0]}"
                )
            else:
                recent = recent[-need:]
            values.append(recent)
            attr_idx.append(sl)
            bounds.append(bounds[-1] + sl.shape[0])
        values = np.concatenate(values, axis=1)
        sel = np.concatenate(attr_idx)
        # searchsorted(side="right") == count of edges <= value.
        bins = (
            self._tensors.edges[sel][None, :, :] <= values[:, :, None]
        ).sum(axis=2)
        return bins, sel, np.asarray(bounds, dtype=np.intp)

    def _classify_rows(
        self,
        items: Sequence[Tuple[str, int]],
        final: np.ndarray,
        sel: np.ndarray,
        bounds: np.ndarray,
    ) -> List[PredictionResult]:
        """Eq. (1)/(2) results for ``(vm, steps)`` items from predicted
        distributions.

        Item ``j`` owns rows ``bounds[j]:bounds[j + 1]`` of ``final``
        (``(rows, n)``, its VM's attributes in order); ``sel`` is each
        row's global attribute index.  Soft strengths are two
        fleet-wide einsums over every row; a ``"hard"`` predictor's rows
        instead gather the unclipped ratio at their expected bins.
        """
        tensors = self._tensors
        parent_local = tensors.rel_parent[sel] + np.repeat(
            bounds[:-1], bounds[1:] - bounds[:-1]
        )
        is_root = tensors.is_root[sel]
        roots = np.flatnonzero(is_root)
        children = np.flatnonzero(~is_root)
        strengths_all = np.zeros(sel.shape[0])
        if roots.size:
            strengths_all[roots] = np.einsum(
                "ac,ac->a", final[roots], tensors.diff_soft[sel[roots], 0]
            )
        if children.size:
            strengths_all[children] = np.einsum(
                "ap,apc,ac->a",
                final[parent_local[children]],
                tensors.diff_soft[sel[children]],
                final[children],
            )
        predicted = expected_bins(final)
        hard = [
            self.predictors[vm].prediction_mode == "hard" for vm, _ in items
        ]
        if any(hard):
            strengths_all = np.where(
                np.repeat(hard, bounds[1:] - bounds[:-1]),
                tensors.diff_hard[sel, predicted[parent_local], predicted],
                strengths_all,
            )
        return self._results(
            items, np.where(tensors.mask[sel], strengths_all, 0.0),
            predicted, bounds,
        )

    def _results(
        self,
        items: Sequence[Tuple[str, int]],
        strengths: np.ndarray,
        bins: np.ndarray,
        bounds: np.ndarray,
    ) -> List[PredictionResult]:
        """One result per ``(vm, steps)`` item from its rows of
        ``strengths`` and ``bins``; Eq. (1) sums each item's strengths
        as one contiguous row, as the point ``log_odds`` does."""
        sizes = bounds[1:] - bounds[:-1]
        scores = np.empty(sizes.shape[0])
        for size in set(sizes.tolist()):
            which = np.flatnonzero(sizes == size)
            scores[which] = strengths[
                bounds[which][:, None] + np.arange(size)
            ].sum(axis=1)
        scores += [self._tensors.prior_diff[vm] for vm, _ in items]
        probabilities = (1.0 / (1.0 + np.exp(-scores))).tolist()
        bins, strengths = bins.tolist(), strengths.tolist()
        bounds = bounds.tolist()
        return [
            PredictionResult(
                abnormal=score > 0.0, probability=probability,
                score=score, bins=tuple(bins[lo:hi]),
                strengths=tuple(strengths[lo:hi]),
                attributes=self.predictors[vm].attributes, steps=steps,
            )
            for (vm, steps), score, probability, lo, hi in zip(
                items, scores.tolist(), probabilities, bounds, bounds[1:]
            )
        ]
