"""Fleet-wide batched scoring: one stacked operator for many VMs.

This is the shared engine behind both consumers of fleet batching:

* the **online serving layer** (:mod:`repro.serve.service`), whose
  micro-batching dispatcher coalesces samples from many connections
  into one :class:`FleetScorer` call, and
* the **offline controller** (:mod:`repro.core.controller`), whose
  predictive and reactive paths score every monitored VM each tick and
  batch those per-VM pipeline calls into a single fleet contraction.

:class:`FleetScorer` concatenates every VM's per-attribute Markov
chains into a single :class:`~repro.core.predictor.
BatchedAttributeChains` (``total_attrs = Σ n_attrs``) and — when every
VM carries a TAN classifier — also stacks the discretizer edges and
classifier tensors and keeps a lazily filled *horizon table* per
look-ahead depth, so a mixed-VM batch is scored with a handful of
fleet-wide gathers and einsums instead of one full pipeline pass per
sample.

Every tier is bitwise-identical to the per-VM code path
(:meth:`AnomalyPredictor.predict` / :meth:`AnomalyPredictor.
classify_current`): the stacked einsum reductions are independent
along the attribute axis, and per-VM reductions keep their shapes.
The tier is chosen from the fleet's contents — stacked chains with
per-VM classification when a classifier is not TAN, fully sequential
when chain variants are mixed.  A model refit since stacking never
demotes the tier: :meth:`FleetScorer.sync` repairs the stack before
every call.  ``serve_check.py``, the replay harness and the golden
decision digests assert the parity end to end.

Staleness rule: current = the objects the predictor holds now, not
refit since — chains, classifier and discretizer are each compared by
identity with what the predictor holds *and* by the marker a refit
replaces (chain version, ``_diff_soft``, the ``_bins`` list).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bayes import ABNORMAL as TAN_ABNORMAL, NORMAL as TAN_NORMAL
from repro.core.markov import expected_bins
from repro.core.predictor import (
    AnomalyPredictor,
    BatchedAttributeChains,
    PredictionResult,
)
from repro.core.tan import TANClassifier

__all__ = ["FleetScorer"]

#: Look-ahead depths a scorer keeps a horizon table for (LRU by
#: ``steps``; a controller or service uses one or two).
HORIZON_TABLES = 4


@dataclass
class _FastTensors:
    """Fleet-stacked scoring state for the TAN fast path.

    Everything an arriving batch needs, concatenated along one global
    attribute axis (``A = Σ per-VM attrs``): discretizer edges for the
    batched transform, the per-attribute TAN difference tensors and
    tree metadata for stacked classification, and the identity of the
    source objects and arrays (see the module's staleness rule).
    """

    edges: np.ndarray        # (A, n_bins - 1)
    diff_soft: np.ndarray    # (A, b, b) clipped Eq. (2) tensors
    diff_hard: np.ndarray    # (A, b, b) unclipped variant
    root_row: np.ndarray     # (A, b) root rows of diff_soft
    rel_parent: np.ndarray   # (A,) parent index *within* the VM
    is_root: np.ndarray      # (A,) bool
    mask: np.ndarray         # (A,) attribute-selection mask
    prior_diff: Dict[str, float]          # vm -> log-prior difference
    clf_refs: List[Tuple[object, object]]  # (classifier, _diff_soft)
    disc_refs: List[Tuple[object, object]]  # (discretizer, _bins)

    def stale(self, predictors: Iterable[AnomalyPredictor]) -> List[int]:
        """Row blocks that no longer mirror their predictor (given in
        fleet order)."""
        return [
            i for i, (p, (clf, diff_soft), (disc, bins)) in enumerate(
                zip(predictors, self.clf_refs, self.disc_refs)
            )
            if not (
                clf is p.classifier and clf._diff_soft is diff_soft
                and disc is p.discretizer and disc._bins is bins
            )
        ]


class FleetScorer:
    """Scores samples from many VMs through one stacked fleet operator.

    See the module docstring for the tiering and parity guarantees.
    """

    def __init__(self, predictors: Dict[str, AnomalyPredictor]) -> None:
        if not predictors:
            raise ValueError("need at least one predictor")
        self.predictors = dict(predictors)
        self._build()

    def _build(self) -> None:
        """Stack the fleet from the predictors' current models."""
        for vm, predictor in self.predictors.items():
            if not predictor.trained:
                raise ValueError(f"predictor for VM {vm!r} is not trained")
        self._slices: Dict[str, np.ndarray] = {}
        chains = []
        offset = 0
        for vm in sorted(self.predictors):
            models = self.predictors[vm].value_models
            self._slices[vm] = np.arange(offset, offset + len(models))
            chains.extend(models)
            offset += len(models)
        try:
            self._stacked: Optional[BatchedAttributeChains] = (
                BatchedAttributeChains(chains)
            )
        except ValueError:
            self._stacked = None
        # fresh() only catches in-place chain updates; a retrain swaps
        # in brand-new model objects, so identity must be tracked too.
        # (Chains compare by identity, so list equality is "same objects".)
        self._chain_refs = [
            (self.predictors[vm], list(self.predictors[vm].value_models))
            for vm in sorted(self.predictors)
        ]
        self._fast = self._build_fast() if self._stacked is not None else None
        #: steps -> (table (A * start states, x), valid (A * start
        #: states,)); see :meth:`_horizon_rows`.
        self._horizon_cache: OrderedDict = OrderedDict()

    @property
    def n_vms(self) -> int:
        return len(self.predictors)

    @property
    def n_states(self) -> int:
        if self._stacked is None:
            raise RuntimeError("fleet is not stacked")
        return self._stacked.n_states

    @property
    def stacked(self) -> bool:
        """True while the fleet-wide chain operator is usable."""
        return (
            self._stacked is not None
            and self._stacked.fresh()
            and all(
                predictor.value_models == ref
                for predictor, ref in self._chain_refs
            )
        )

    def _build_fast(self) -> Optional[_FastTensors]:
        order = sorted(self.predictors)
        classifiers = [self.predictors[vm].classifier for vm in order]
        if not all(isinstance(clf, TANClassifier) for clf in classifiers):
            return None
        discretizers = [self.predictors[vm].discretizer for vm in order]
        diff_soft = np.concatenate([clf._diff_soft for clf in classifiers])
        return _FastTensors(
            edges=np.stack([
                bins.edges
                for disc in discretizers for bins in disc._bins
            ]),
            diff_soft=diff_soft,
            diff_hard=np.concatenate(
                [clf._diff_hard for clf in classifiers]
            ),
            root_row=np.ascontiguousarray(diff_soft[:, 0, :]),
            rel_parent=np.concatenate(
                [clf._parent_or_self for clf in classifiers]
            ),
            is_root=np.concatenate(
                [clf.parents < 0 for clf in classifiers]
            ),
            mask=np.concatenate(
                [clf.attribute_mask for clf in classifiers]
            ),
            prior_diff={
                vm: float(clf._log_prior[TAN_ABNORMAL]
                          - clf._log_prior[TAN_NORMAL])
                for vm, clf in zip(order, classifiers)
            },
            clf_refs=[(clf, clf._diff_soft) for clf in classifiers],
            disc_refs=[(disc, disc._bins) for disc in discretizers],
        )

    def sync(self) -> None:
        """Bring a stale stack up to date before it is scored with.

        Repairs just the refit VMs' rows when :meth:`refresh` can, and
        re-stacks the whole fleet otherwise.  A fleet that never
        stacked (mixed chain variants) reads its predictors live and
        has nothing to repair.
        """
        if self._stacked is None:
            return
        if self.stacked and not (self._fast and self._fast.stale(
            predictor for predictor, _chains in self._chain_refs
        )):
            return
        if not self.refresh():
            self._build()

    def refresh(self) -> bool:
        """Incrementally re-stack VMs whose models were refit in place.

        The online controller retrains a handful of VMs every few
        ticks; rebuilding the whole fleet stack each time would cost
        more than the batching saves.  This repairs only the stale
        VMs' tensor rows — chains and fast-tier classifier slices —
        clears their horizon-table mask rows, and returns ``True``
        when the scorer is fully current afterwards.
        ``False`` means incremental repair is impossible (membership,
        shape or variant changed, or the fleet was never stacked) and
        the stack must be rebuilt (:meth:`sync` does both).
        """
        if self._stacked is None:
            return False
        order = sorted(self.predictors)
        stale: List[int] = []
        fast_stale = self._fast.stale(
            self.predictors[vm] for vm in order
        ) if self._fast is not None else ()
        for i, vm in enumerate(order):
            predictor = self.predictors[vm]
            _, chain_ref = self._chain_refs[i]
            sl_vm = self._slices[vm]
            chains_current = (
                predictor.value_models == chain_ref
                # Identity alone misses in-place updates: update()
                # mutates the chain (same object, bumped version),
                # leaving the stacked tensor rows stale.
                and self._stacked.fresh_slice(
                    int(sl_vm[0]), int(sl_vm[-1]) + 1
                )
            )
            if chains_current and i not in fast_stale:
                continue
            if not predictor.trained:
                return False
            sl = self._slices[vm]
            if len(predictor.value_models) != sl.shape[0]:
                return False
            stale.append(i)
        for i in stale:
            vm = order[i]
            predictor = self.predictors[vm]
            sl = self._slices[vm]
            start, stop = int(sl[0]), int(sl[-1]) + 1
            try:
                self._stacked.restack(start, predictor.value_models)
            except ValueError:
                return False
            self._chain_refs[i] = (predictor, list(predictor.value_models))
            if self._fast is not None and not self._refresh_fast(
                i, vm, predictor, start, stop
            ):
                return False
            # Whatever the tables hold for this VM came from chains it
            # no longer has; the next batch refills what it visits.
            for _table, valid in self._horizon_cache.values():
                valid.reshape(self._stacked.n_attrs, -1)[start:stop] = False
        return True

    def _refresh_fast(
        self,
        i: int,
        vm: str,
        predictor: AnomalyPredictor,
        start: int,
        stop: int,
    ) -> bool:
        """Repair one VM's rows of the fast-tier tensors in place."""
        fast = self._fast
        clf = predictor.classifier
        if not isinstance(clf, TANClassifier):
            return False
        disc = predictor.discretizer
        edges = np.stack([bins.edges for bins in disc._bins])
        if (
            edges.shape != fast.edges[start:stop].shape
            or clf._diff_soft.shape != fast.diff_soft[start:stop].shape
        ):
            return False
        fast.edges[start:stop] = edges
        fast.diff_soft[start:stop] = clf._diff_soft
        fast.diff_hard[start:stop] = clf._diff_hard
        fast.root_row[start:stop] = clf._diff_soft[:, 0, :]
        fast.rel_parent[start:stop] = clf._parent_or_self
        fast.is_root[start:stop] = clf.parents < 0
        fast.mask[start:stop] = clf.attribute_mask
        fast.prior_diff[vm] = float(
            clf._log_prior[TAN_ABNORMAL] - clf._log_prior[TAN_NORMAL]
        )
        fast.clf_refs[i] = (clf, clf._diff_soft)
        fast.disc_refs[i] = (disc, disc._bins)
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
        :meth:`BatchedAttributeChains.predict_subset` call — the live
        recurrence :meth:`AnomalyPredictor.predict` itself runs, so a
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

        Each result is bitwise-identical to
        ``predictors[vm].predict(recent, steps)``.
        """
        self.sync()
        if self._stacked is None:
            return [
                self.predictors[vm].predict(recent, steps)
                for vm, recent, steps in batch
            ]
        results: List[Optional[PredictionResult]] = [None] * len(batch)
        by_steps: Dict[int, List[int]] = {}
        for i, (_, _, steps) in enumerate(batch):
            by_steps.setdefault(steps, []).append(i)
        for steps, positions in by_steps.items():
            if steps < 1:
                raise ValueError(f"steps must be >= 1, got {steps}")
            if self._fast is not None:
                self._score_fast(batch, positions, steps, results)
            else:
                self._score_stacked(batch, positions, steps, results)
        return results  # type: ignore[return-value]

    def classify_batch(
        self, batch: Sequence[Tuple[str, np.ndarray]]
    ) -> List[PredictionResult]:
        """Classify ``(vm, observed_values)`` items, preserving order.

        The observed-state (``steps=0``) companion of :meth:`score`,
        used by the controller's reactive path.  Each result is
        bitwise-identical to
        ``predictors[vm].classify_current(values)``: the batched
        transform counts ``edges <= value`` exactly like
        ``searchsorted(side="right")``, and the per-VM strength sums
        reduce the same contiguous 13-element rows the scalar
        ``log_odds`` path reduces.
        """
        self.sync()
        fast = self._fast
        if fast is None:
            return [
                self.predictors[vm].classify_current(values)
                for vm, values in batch
            ]
        values = []
        attr_idx = []
        bounds = [0]
        for vm, observed in batch:
            observed = np.asarray(observed, dtype=float)
            sl = self._slices[vm]
            if observed.shape != (sl.shape[0],):
                raise ValueError(
                    f"expected {sl.shape[0]} observed values for "
                    f"{vm!r}, got {observed.shape}"
                )
            values.append(observed)
            attr_idx.append(sl)
            bounds.append(bounds[-1] + sl.shape[0])
        flat = np.concatenate(values)
        sel = np.concatenate(attr_idx)
        bounds = np.asarray(bounds, dtype=np.intp)
        bins = (fast.edges[sel] <= flat[:, None]).sum(axis=1)
        parent_local = fast.rel_parent[sel] + np.repeat(
            bounds[:-1], np.diff(bounds)
        )
        raw = fast.diff_hard[sel][
            np.arange(sel.shape[0]), bins[parent_local], bins
        ]
        strengths_all = np.where(fast.mask[sel], raw, 0.0)
        results: List[PredictionResult] = []
        for j, (vm, _) in enumerate(batch):
            lo, hi = bounds[j], bounds[j + 1]
            strengths = strengths_all[lo:hi]
            score = float(strengths.sum() + fast.prior_diff[vm])
            results.append(PredictionResult(
                abnormal=score > 0.0,
                probability=float(1.0 / (1.0 + np.exp(-score))),
                score=score,
                bins=tuple(int(b) for b in bins[lo:hi]),
                strengths=tuple(float(v) for v in strengths),
                attributes=self.predictors[vm].attributes,
                steps=0,
            ))
        return results

    def _gather_group(
        self,
        batch: Sequence[Tuple[str, np.ndarray, int]],
        positions: List[int],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (histories, global attr indices, item bounds)
        for one same-steps group of the batch."""
        need = self._stacked.history_needed
        values = []
        attr_idx = []
        bounds = [0]
        for i in positions:
            vm, recent, _ = batch[i]
            recent = np.asarray(recent, dtype=float)
            sl = self._slices[vm]
            if recent.ndim != 2 or recent.shape[1] != sl.shape[0]:
                raise ValueError(
                    f"expected (n, {sl.shape[0]}) recent values for "
                    f"{vm!r}, got {recent.shape}"
                )
            if recent.shape[0] < need:
                raise ValueError(
                    f"need {need} recent samples for {vm!r}, "
                    f"got {recent.shape[0]}"
                )
            values.append(recent[-need:])
            attr_idx.append(sl)
            bounds.append(bounds[-1] + sl.shape[0])
        return (
            np.concatenate(values, axis=1),
            np.concatenate(attr_idx),
            np.asarray(bounds, dtype=np.intp),
        )

    def _score_fast(
        self,
        batch: Sequence[Tuple[str, np.ndarray, int]],
        positions: List[int],
        steps: int,
        results: List[Optional[PredictionResult]],
    ) -> None:
        """TAN fast tier: one batched transform, one horizon-table
        gather, and two fleet-wide classifier einsums per group."""
        fast = self._fast
        values, sel, bounds = self._gather_group(batch, positions)
        # searchsorted(side="right") == count of edges <= value.
        bins = (fast.edges[sel][None, :, :] <= values[:, :, None]).sum(axis=2)
        final = self._horizon_rows(steps, sel, bins)
        rel_parent = fast.rel_parent[sel]
        parent_local = rel_parent + np.repeat(
            bounds[:-1], np.diff(bounds)
        )
        is_root = fast.is_root[sel]
        mask = fast.mask[sel]
        roots = np.flatnonzero(is_root)
        children = np.flatnonzero(~is_root)
        strengths_all = np.zeros(sel.shape[0])
        if roots.size:
            strengths_all[roots] = np.einsum(
                "ac,ac->a", final[roots], fast.root_row[sel][roots]
            )
        if children.size:
            strengths_all[children] = np.einsum(
                "ap,apc,ac->a",
                final[parent_local[children]],
                fast.diff_soft[sel][children],
                final[children],
            )
        strengths_all = np.where(mask, strengths_all, 0.0)
        diff_hard = fast.diff_hard[sel]
        for j, i in enumerate(positions):
            vm = batch[i][0]
            predictor = self.predictors[vm]
            lo, hi = bounds[j], bounds[j + 1]
            dists = final[lo:hi]
            predicted = expected_bins(dists)
            if predictor.prediction_mode == "hard":
                clipped = np.clip(predicted, 0, predictor.n_bins - 1)
                raw = diff_hard[lo:hi][
                    np.arange(hi - lo), clipped[rel_parent[lo:hi]], clipped
                ]
                strengths = np.where(mask[lo:hi], raw, 0.0)
            else:
                strengths = strengths_all[lo:hi]
            score = float(strengths.sum() + fast.prior_diff[vm])
            results[i] = PredictionResult(
                abnormal=score > 0.0,
                probability=float(1.0 / (1.0 + np.exp(-score))),
                score=score,
                bins=tuple(int(b) for b in predicted),
                strengths=tuple(float(v) for v in strengths),
                attributes=predictor.attributes,
                steps=steps,
            )

    def _score_stacked(
        self,
        batch: Sequence[Tuple[str, np.ndarray, int]],
        positions: List[int],
        steps: int,
        results: List[Optional[PredictionResult]],
    ) -> None:
        """Middle tier: stacked chain propagation, per-VM transform
        and classification (used when classifiers cannot be stacked)."""
        histories = []
        attr_idx = []
        bounds = [0]
        for i in positions:
            vm, recent, _ = batch[i]
            predictor = self.predictors[vm]
            binned = predictor.discretizer.transform(
                np.asarray(recent, dtype=float)
            )
            histories.append(binned[-self._stacked.history_needed:])
            attr_idx.append(self._slices[vm])
            bounds.append(bounds[-1] + len(self._slices[vm]))
        final = self._stacked.predict_subset(
            np.concatenate(histories, axis=1),
            np.concatenate(attr_idx),
            steps,
        )[-1]
        for j, i in enumerate(positions):
            vm = batch[i][0]
            predictor = self.predictors[vm]
            dists = final[bounds[j]:bounds[j + 1]]
            bins = tuple(int(b) for b in expected_bins(dists))
            if predictor.prediction_mode == "hard":
                results[i] = predictor._classify(bins, steps=steps)
            else:
                results[i] = predictor._classify_soft(
                    list(dists), bins, steps
                )
