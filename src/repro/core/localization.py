"""Fault localization for training-label assignment.

The paper does not train every per-VM model on every SLO violation:
"to maintain per-VM anomaly prediction models, PREPARE relies on
previously developed fault localization techniques [13], [14] to
identify the faulty VMs and train the corresponding per-VM anomaly
predictors" (Sec. II-B).  Without this, every VM's classifier learns
the application-wide violation label and every VM alerts during every
anomaly, destroying the faulty-VM pinpointing.

:class:`DeviationLocalizer` is a compact stand-in for PAL [13]: for
each contiguous violation epoch it scores every VM by how far its
metric means deviate from that VM's own normal profile (in units of
the normal-period spread) and implicates the VMs whose deviation is
within a factor of the most deviant one.  Samples of non-implicated
VMs keep their *normal* label for that epoch.  Each epoch is scored for
the whole fleet at once, from one ``(vm, rows, attr)`` block.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DeviationLocalizer", "violation_epochs"]

#: Samples before an epoch where the onset scan starts.
ONSET_LEAD = 24


def violation_epochs(y: np.ndarray) -> List[Tuple[int, int]]:
    """Half-open index ranges [start, end) of contiguous ``y == 1`` runs."""
    flags = np.asarray(y, dtype=np.intp) != 0
    padded = np.concatenate(([False], flags, [False])).view(np.int8)
    edges = np.flatnonzero(np.diff(padded)).tolist()
    return list(zip(edges[::2], edges[1::2]))


def _mean_std(rows: np.ndarray, keep) -> Tuple[np.ndarray, np.ndarray]:
    """Per-VM mean/std over axis 1 of a ``(vm, rows, attr)`` block.

    ``keep`` is True or a ``(vm, rows)`` mask of the rows that count.
    ``attr`` stays innermost, so each VM's column sums add its rows
    sequentially — what ``matrix[kept].mean(axis=0)`` does for one VM.
    """
    if keep is True:
        count = rows.shape[1]
    else:
        count = keep.sum(axis=1)[:, np.newaxis]
        keep = keep[:, :, np.newaxis]
    mean = np.add.reduce(rows, axis=1, where=keep) / count
    dev = rows - mean[:, np.newaxis, :]
    dev *= dev
    return mean, np.sqrt(np.add.reduce(dev, axis=1, where=keep) / count)


def _floor(mean: np.ndarray) -> np.ndarray:
    """Relative scale floor: a flat metric must not make noise astronomic."""
    return 1e-3 * np.maximum(np.abs(mean), 1.0)


def _deviation(epoch, reference) -> np.ndarray:
    """Max-over-attributes z of epoch means against reference stats."""
    (epoch_mean, epoch_std), (mean, std) = epoch, reference
    scale = np.maximum(np.maximum(std, epoch_std), _floor(mean))
    return (np.abs(epoch_mean - mean) / scale).max(axis=-1)


def _same_allocation(alloc: np.ndarray, at: int) -> np.ndarray:
    """``(vm, rows)`` mask: rows within 2 % of each VM's allocation at
    row ``at`` (``max(a, 1e-9)`` spelled so NaN behaves as in Python)."""
    base = alloc[:, at, np.newaxis]
    tol = 0.02 * np.where(1e-9 > base, 1e-9, base)
    return np.abs(alloc - base) <= tol


class DeviationLocalizer:
    """Implicates faulty VMs per violation epoch by metric deviation.

    ``share_of_max`` controls how close to the most-deviant VM another
    VM must be to also be implicated (1.0 = strictly the single most
    deviant; 0.0 = everyone).  ``min_score`` additionally requires an
    absolute deviation of that many normal-period standard deviations
    for *secondary* VMs; the most deviant VM is always implicated so
    every anomaly trains at least one model.
    """

    def __init__(
        self,
        share_of_max: float = 0.6,
        min_score: float = 2.0,
        reference_window: int = 12,
        reference_gap: int = 12,
    ) -> None:
        if not 0.0 <= share_of_max <= 1.0:
            raise ValueError(f"share_of_max must be in [0, 1], got {share_of_max}")
        if min_score < 0:
            raise ValueError(f"min_score must be >= 0, got {min_score}")
        if reference_window < 3:
            raise ValueError(f"reference_window must be >= 3, got {reference_window}")
        if reference_gap < 0:
            raise ValueError(f"reference_gap must be >= 0, got {reference_gap}")
        self.share_of_max = share_of_max
        self.min_score = min_score
        #: Reference window size (samples) and how far before the epoch
        #: it ends.  The gap skips the pre-violation build-up of a
        #: gradually manifesting fault, which would otherwise
        #: contaminate the reference with the anomaly's own trend.
        self.reference_window = reference_window
        self.reference_gap = reference_gap
        #: Per-sample z a VM must sustain (2 consecutive samples) to
        #: register a manifestation *onset*, and how close (samples) to
        #: the earliest onset another VM must be to co-implicate.  The
        #: slack must comfortably cover noise jitter in *simultaneous*
        #: manifestations (a workload ramp hits every component at
        #: once) while staying below the tens of samples by which a
        #: propagated effect lags its root cause.
        self.onset_threshold = 4.0
        self.onset_slack = 6

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    @staticmethod
    def deviation_score(
        epoch_values: np.ndarray,
        normal_mean: np.ndarray,
        normal_std: np.ndarray,
    ) -> float:
        """Max-over-attributes z-distance of the epoch's metric means.

        The scale pools the reference and epoch spreads (with a small
        relative floor): a reference window where a clipped-at-zero
        metric happens to read all zeros must not make ordinary noise
        look like an astronomic deviation.
        """
        if epoch_values.size == 0:
            return 0.0
        epoch = _mean_std(np.asarray(epoch_values)[np.newaxis], True)
        return float(_deviation(epoch, (normal_mean, normal_std))[0])

    def localize(
        self,
        per_vm_values: Mapping[str, np.ndarray],
        labels: np.ndarray,
        per_vm_allocations: Optional[
            Mapping[str, Tuple[np.ndarray, np.ndarray]]
        ] = None,
    ) -> Dict[str, np.ndarray]:
        """Per-VM training labels from application-level SLO labels.

        ``per_vm_values`` maps VM name to a (n_samples, n_attributes)
        matrix; all matrices share the row axis (common timestamps)
        matching ``labels``.  Returns one label vector per VM in which
        a violation epoch stays abnormal only for implicated VMs.

        ``per_vm_allocations`` optionally maps VM name to per-sample
        (CPU, memory) allocation arrays.  When given, an epoch's
        evidence is restricted to samples taken under the epoch's
        *starting* allocation: prevention actions landing mid-epoch
        shift allocation-dependent metrics (free memory jumps when the
        balloon grows) and would otherwise register as enormous
        deviations on whichever VM was scaled — including the wrong
        one.
        """
        labels = np.asarray(labels, dtype=np.intp)
        names = list(per_vm_values)
        matrices = []
        for name in names:
            matrix = np.asarray(per_vm_values[name], dtype=float)
            if matrix.shape[0] != labels.shape[0]:
                raise ValueError(
                    f"{name}: {matrix.shape[0]} samples vs {labels.shape[0]} labels"
                )
            matrices.append(matrix)
        if not names:
            return {}
        allocations = None if per_vm_allocations is None else tuple(
            np.stack([per_vm_allocations[name][k] for name in names])
            for k in (0, 1)
        )
        return self.localize_block(
            names, np.stack(matrices), labels, allocations
        )

    def localize_block(
        self,
        names: Sequence[str],
        values: np.ndarray,
        labels: np.ndarray,
        allocations: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """:meth:`localize` over one ``(vm, rows, attr)`` block.

        Row ``k`` of ``values`` belongs to ``names[k]``; ``allocations``
        is the matching ``(cpu, mem)`` pair of ``(vm, rows)`` arrays.
        Each epoch reads a ``[:, lo:end]`` slice of the block.
        """
        labels = np.asarray(labels, dtype=np.intp)
        if values.shape[1] != labels.shape[0]:
            raise ValueError(
                f"{values.shape[1]} samples vs {labels.shape[0]} labels"
            )
        out = dict(zip(names, np.zeros((len(names), labels.size), np.intp)))
        epochs = violation_epochs(labels)
        if not epochs:
            return out

        matrices = dict(zip(names, values))
        per_vm_allocations = None if allocations is None else dict(
            zip(names, zip(*allocations))
        )
        for start, end in epochs:
            score_row, onset_row = self._epoch_evidence(
                values, allocations, start, end
            )
            scores = dict(zip(names, score_row.tolist()))
            # Propagation awareness (the heart of PAL [13]): the root
            # cause manifests *before* the components it starves, so
            # among sufficiently deviant VMs prefer the earliest onset.
            finite = {
                n: o for n, o in zip(names, onset_row.tolist()) if o >= 0
            }
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
                # Within the epoch, mark only samples that actually
                # deviate from the VM's *global normal profile*.  An
                # SLO violation outlives its cause (smoothed metrics,
                # queue draining, thrash decay): tail samples whose
                # system metrics have already returned to normal must
                # not teach the model that healthy-looking states are
                # abnormal.  The local pre-epoch reference is the wrong
                # yardstick here — for a gradual fault it sits mid-
                # decline, so even recovered states "deviate" from it.
                profile = self._normal_profile(
                    matrices[name], labels,
                    None if per_vm_allocations is None
                    else (per_vm_allocations[name], start),
                )
                if profile is None:
                    out[name][start:end] = 1
                    continue
                mean, std = profile
                scale = np.maximum(std, _floor(mean))
                z = np.abs(matrices[name][start:end] - mean) / scale
                per_sample = z.max(axis=1)
                # Gate relative to the epoch's own peak: a sample whose
                # deviation is a tiny fraction of what the fault showed
                # at full strength (e.g. an incidental workload wiggle
                # during the recovery tail) is not anomaly evidence.
                cutoff = max(self.min_score, 0.1 * float(per_sample.max()))
                deviant = per_sample >= cutoff
                out[name][start:end] = deviant.astype(out[name].dtype)
        return out

    @staticmethod
    def _normal_profile(matrix, labels, alloc_and_epoch_start):
        """Mean/std over normal-labelled rows, allocation-matched."""
        normal = labels == 0
        if alloc_and_epoch_start is not None:
            (cpu, mem), start = alloc_and_epoch_start
            normal = normal & (
                np.abs(cpu - cpu[start]) <= 0.02 * max(cpu[start], 1e-9)
            ) & (
                np.abs(mem - mem[start]) <= 0.02 * max(mem[start], 1e-9)
            )
        if normal.sum() < 6:
            return None
        rows = matrix[normal]
        return rows.mean(axis=0), rows.std(axis=0)

    def _epoch_evidence(
        self,
        values: np.ndarray,
        allocations: Optional[Tuple[np.ndarray, np.ndarray]],
        start: int,
        end: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Deviation score and onset index (-1: none) of every VM.

        One ``[:, lo:end]`` slice of the ``(vm, rows, attr)`` block holds
        the rows the epoch needs: the reference window, the onset scan
        and the epoch itself.
        """
        # Reference: a window shortly before the epoch, separated by a
        # gap that skips the gradual pre-violation build-up.  This is
        # deliberately *local* (a change-point view, as in PAL [13]):
        # global normal statistics would mix measurements from
        # different allocation regimes and dilute the z-score of
        # exactly the VM that was recently scaled.
        ref_end = max(0, start - self.reference_gap)
        ref_start = max(0, ref_end - self.reference_window)
        if ref_end - ref_start < 3:
            n_vms = values.shape[0]
            return np.full(n_vms, np.inf), np.full(n_vms, -1)
        # The onset scan starts ONSET_LEAD samples early: faults
        # manifest in system metrics before the SLO breaks.
        scan_start = max(0, start - ONSET_LEAD)
        lo = min(ref_start, scan_start)
        block = values[:, lo:end]
        ref_rows = slice(ref_start - lo, ref_end - lo)
        ref_keep = epoch_keep = True
        if allocations is not None:
            # Evidence counts only under the epoch's *starting*
            # allocation — where enough rows of it are left to count.
            cpu, mem = (a[:, lo:end] for a in allocations)
            same = _same_allocation(cpu, start - lo) & _same_allocation(
                mem, start - lo
            )
            epoch_same, ref_same = same[:, start - lo:], same[:, ref_rows]
            epoch_keep = epoch_same | ~epoch_same.any(axis=1)[:, np.newaxis]
            ref_keep = ref_same | (ref_same.sum(axis=1) < 3)[:, np.newaxis]
        mean, std = reference = _mean_std(block[:, ref_rows], ref_keep)
        scores = _deviation(
            _mean_std(block[:, start - lo:], epoch_keep), reference
        )
        # Onset: the first row whose max-z against the reference stays
        # above onset_threshold for two consecutive samples.  The z
        # block is laid out (attr, vm, rows) so the max — exact in any
        # order — runs over whole planes, not 13-element rows.
        scale = np.maximum(std, _floor(mean)).T[:, :, np.newaxis]
        z = np.subtract(
            block[:, scan_start - lo:].transpose(2, 0, 1),
            mean.T[:, :, np.newaxis], order="C",
        )
        z = np.abs(z, out=z)
        z /= scale
        above = np.maximum.reduce(z, axis=0) > self.onset_threshold
        sustained = above[:, :-1] & above[:, 1:]
        onsets = np.where(
            sustained.any(axis=1), scan_start + sustained.argmax(axis=1), -1
        )
        return scores, onsets
