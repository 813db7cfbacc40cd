"""Automatic runtime data labeling (paper Sec. II-B).

"PREPARE supports automatic runtime data labeling by matching the
timestamps of system-level metric measurements and SLO violation
logs."  A :class:`TrainingRing` accumulates a fleet's measured rows and
pairs each with the application's SLO state at the row's timestamp,
yielding the labelled matrices the supervised models train on.

The ring holds the whole fleet in contiguous arrays: values
``(vm, 2 * max_samples, attr)``, allocation and imputed flags
``(vm, 2 * max_samples)``, and one time vector shared by every VM — a
monitoring round is one column for all of them, ingested with one
assignment per array.  A VM's rows run from its first contact to the
shared tail, so each VM's window is a C-contiguous ``[i, lo:hi]``
slice, and VMs with windows of one length share one ``[:, lo:hi]``
block.  Storage is grow-and-compact: rows append at the tail, a window
holds at most ``max_samples`` rows, and when the tail hits physical
capacity the live rows are copied back to the front (amortized O(1)
per round).  A :class:`TrainingBuffer` is one VM's view of a ring; a
standalone buffer is a one-VM ring.  Views handed out are consumed
synchronously within a controller tick, before any later round can
compact the storage under them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.apps.slo import SLOTracker
from repro.sim.monitor import ATTRIBUTES, MetricSample

__all__ = ["TrainingBuffer", "TrainingRing", "label_samples"]

#: First-row marker of a VM that has no rows yet.
_NO_ROWS = 1 << 62


def label_samples(
    samples: Sequence[MetricSample], slo: SLOTracker,
    attributes: Sequence[str] = ATTRIBUTES,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label a sample list against an SLO log.

    Returns ``(X, y, t)``: the value matrix (n_samples, n_attributes),
    binary labels (1 = SLO violated at the sample's timestamp), and the
    timestamps.
    """
    if not samples:
        return (
            np.empty((0, len(attributes))),
            np.empty(0, dtype=np.intp),
            np.empty(0),
        )
    X = np.stack([s.vector(attributes) for s in samples])
    t = np.array([s.timestamp for s in samples])
    y = slo.violated_at_many(t).astype(np.intp)
    return X, y, t


class TrainingRing:
    """Sliding labelled training windows of a fleet, one row per VM per
    round.

    :meth:`push` appends one round.  Every VM that already has rows gets
    a row in every later round (the controller imputes what did not
    arrive), so each VM's rows are a contiguous run ending at the shared
    tail; a VM's run starts at its first row.  Labels are resolved
    lazily, so late-arriving SLO records still label earlier rows
    correctly.
    """

    def __init__(
        self,
        slo: SLOTracker,
        vms: Sequence[str],
        attributes: Sequence[str] = ATTRIBUTES,
        max_samples: int = 2000,
    ) -> None:
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.slo = slo
        self.vms: Tuple[str, ...] = tuple(vms)
        self.attributes = tuple(attributes)
        self.max_samples = max_samples
        n_vms, capacity = len(self.vms), 2 * max_samples
        self.values = np.empty((n_vms, capacity, len(self.attributes)))
        self.times = np.empty(capacity)
        self.cpu = np.empty((n_vms, capacity))
        self.mem = np.empty((n_vms, capacity))
        self.imputed = np.empty((n_vms, capacity), dtype=bool)
        #: One past the newest row, shared by every VM.
        self.end = 0
        self._first = [_NO_ROWS] * n_vms
        self._waiting = n_vms > 0

    def push(
        self,
        timestamp: float,
        values: np.ndarray,
        cpu: np.ndarray,
        mem: np.ndarray,
        imputed,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        """Append one round: row ``i`` of each argument goes to VM ``i``.

        ``rows`` marks the VMs that get a row (``None``: all of them);
        it must include every VM that already has rows.  The other
        VMs' rows are written but never read.
        """
        end = self.end
        if end == self.times.shape[0]:
            end = self._compact()
        self.values[:, end] = values
        self.times[end] = timestamp
        self.cpu[:, end] = cpu
        self.mem[:, end] = mem
        self.imputed[:, end] = imputed
        if self._waiting:
            first = self._first
            joined = range(len(first)) if rows is None else np.flatnonzero(rows)
            for i in joined:
                if first[i] == _NO_ROWS:
                    first[i] = end
            self._waiting = _NO_ROWS in first
        self.end = end + 1

    def _compact(self) -> int:
        """Copy the newest ``max_samples`` rows back to the front.

        Only called with the tail at physical capacity (``2 *
        max_samples``), where the rows kept cannot overlap their
        destination.  Returns the new tail.
        """
        shift = self.end - self.max_samples
        kept = slice(shift, self.end)
        n = self.max_samples
        self.values[:, :n] = self.values[:, kept]
        self.times[:n] = self.times[kept]
        self.cpu[:, :n] = self.cpu[:, kept]
        self.mem[:, :n] = self.mem[:, kept]
        self.imputed[:, :n] = self.imputed[:, kept]
        self._first = [
            f if f == _NO_ROWS else max(f - shift, 0) for f in self._first
        ]
        self.end = n
        return n

    def window(self, i: int) -> Tuple[int, int]:
        """``(lo, hi)`` ring rows of VM ``i``'s current window."""
        end = self.end
        lo = max(self._first[i], end - self.max_samples)
        return min(lo, end), end

    def lengths(self) -> np.ndarray:
        """Rows in each VM's window."""
        end = self.end
        first = np.array(self._first)
        return np.clip(end - np.maximum(first, end - self.max_samples), 0, None)

    def has_rows(self) -> np.ndarray:
        """Which VMs have a row yet."""
        return np.array(self._first) != _NO_ROWS

    def latest(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the newest row's ``(values, cpu, mem)``, zero for
        VMs without rows."""
        newest = self.end - 1  # before the first round every VM is blank
        blank = ~self.has_rows()
        out = (self.values[:, newest].copy(), self.cpu[:, newest].copy(),
               self.mem[:, newest].copy())
        for column in out:
            column[blank] = 0.0
        return out

    def buffers(self) -> Dict[str, "TrainingBuffer"]:
        """One :class:`TrainingBuffer` view per VM."""
        return {
            name: TrainingBuffer.view(self, i) for i, name in enumerate(self.vms)
        }


class TrainingBuffer:
    """Sliding labelled-training-set for one VM's prediction model.

    A view of one VM's row of a :class:`TrainingRing`; constructed
    directly it owns a one-VM ring and fills through :meth:`append`.
    Labels are resolved lazily at :meth:`matrices` time so
    late-arriving SLO records still label earlier samples correctly.
    ``max_samples`` bounds memory (oldest samples are dropped), matching
    the paper's periodically-updated models.
    """

    def __init__(
        self,
        slo: SLOTracker,
        attributes: Sequence[str] = ATTRIBUTES,
        max_samples: int = 2000,
    ) -> None:
        self._bind(TrainingRing(slo, ("",), attributes, max_samples), 0)

    @classmethod
    def view(cls, ring: TrainingRing, index: int) -> "TrainingBuffer":
        """VM ``index``'s window of ``ring``."""
        buffer = cls.__new__(cls)
        buffer._bind(ring, index)
        return buffer

    def _bind(self, ring: TrainingRing, index: int) -> None:
        self._ring = ring
        self._i = index
        self._slo = ring.slo
        self.attributes = ring.attributes
        self.max_samples = ring.max_samples

    def __len__(self) -> int:
        lo, hi = self._ring.window(self._i)
        return hi - lo

    def append(self, sample: MetricSample) -> None:
        """Add one sample to a standalone (one-VM) buffer."""
        if len(self._ring.vms) != 1:
            raise TypeError(
                "append() fills a standalone buffer; a fleet ring "
                "ingests whole rounds through TrainingRing.push"
            )
        self._ring.push(
            sample.timestamp, sample.vector(self.attributes),
            sample.cpu_allocated, sample.mem_allocated_mb, sample.imputed,
        )

    def recent_values(self, count: int) -> np.ndarray:
        """Value matrix of the most recent ``count`` samples (a view)."""
        lo, hi = self._ring.window(self._i)
        if count > 0:
            lo = max(lo, hi - count)
        else:
            # Mirror list[-count:] semantics for the degenerate cases
            # (0 selects the whole window).
            lo = min(hi, lo - count)
        return self._ring.values[self._i, lo:hi]

    def matrices(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Labelled ``(X, y, t)`` for everything currently buffered."""
        lo, hi = self._ring.window(self._i)
        t = self._ring.times[lo:hi]
        y = self._slo.violated_at_many(t).astype(np.intp)
        return self._ring.values[self._i, lo:hi], y, t

    def allocations(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample (CPU cores, memory MB) allocations at sample time."""
        lo, hi = self._ring.window(self._i)
        return self._ring.cpu[self._i, lo:hi], self._ring.mem[self._i, lo:hi]

    def regime_mask(
        self, cpu_allocated: float, mem_allocated_mb: float,
        rel_tol: float = 0.02,
    ) -> np.ndarray:
        """Boolean mask of samples taken under the given allocation.

        Allocation-dependent attributes (free memory, residual CPU,
        utilization percentages) mean different things under different
        allocations; training a *normal* profile on samples from a
        scaled-up regime dilutes the current regime's profile and
        produces chronic false alarms once the allocation returns to
        baseline.
        """
        cpu, mem = self.allocations()
        cpu_ok = np.abs(cpu - cpu_allocated) <= rel_tol * max(cpu_allocated, 1e-9)
        mem_ok = np.abs(mem - mem_allocated_mb) <= rel_tol * max(
            mem_allocated_mb, 1e-9
        )
        return cpu_ok & mem_ok

    def imputed_mask(self) -> np.ndarray:
        """Boolean mask of samples synthesized by downstream imputation
        (controller last-known-good repair) rather than measured —
        training must exclude them, or frozen repeats of one reading
        masquerade as a stable regime."""
        lo, hi = self._ring.window(self._i)
        return self._ring.imputed[self._i, lo:hi]

    def has_both_classes(self) -> bool:
        """True once the buffer holds normal *and* abnormal samples —
        the precondition for training the supervised classifier."""
        lo, hi = self._ring.window(self._i)
        y = self._slo.violated_at_many(self._ring.times[lo:hi])
        return bool(y.any()) and bool((~y).any())
