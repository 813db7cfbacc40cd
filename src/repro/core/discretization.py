"""Metric discretization.

Both building blocks of the paper's predictor operate on *discrete*
attribute states: the (2-dependent) Markov chains transition between
"single states" obtained by discretizing each attribute's value range
(Fig. 2 shows an attribute discretized into three states), and the TAN
classifier's CPTs are over the same discrete bins.

:class:`Discretizer` learns per-attribute bin edges from training data
(equal-width by default, equal-frequency optionally) and maps values to
bin indices and back to representative bin centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.arrays import pack_array, unpack_array

__all__ = ["Discretizer", "DEFAULT_BINS"]

#: Default number of single states per attribute.
DEFAULT_BINS = 8

#: Interior-edge sentinel for constant-trained attributes: finite (so
#: canonical-JSON snapshots stay valid) but above any real metric
#: value, which clamps every input to bin 0 as the docstring promises.
_CONSTANT_EDGE = np.finfo(float).max


@dataclass
class _AttributeBins:
    """Learned binning for one attribute."""

    edges: np.ndarray    # interior edges, length n_bins - 1
    centers: np.ndarray  # representative value per bin, length n_bins


class Discretizer:
    """Per-attribute value <-> bin-index mapping.

    Values outside the training range clamp to the first/last bin, so
    the Markov models never see an out-of-range state at prediction
    time.
    """

    def __init__(self, n_bins: int = DEFAULT_BINS, strategy: str = "width") -> None:
        if n_bins < 2:
            raise ValueError(f"need at least 2 bins, got {n_bins}")
        if strategy not in ("width", "quantile"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.n_bins = n_bins
        self.strategy = strategy
        self._bins: Optional[List[_AttributeBins]] = None

    @property
    def fitted(self) -> bool:
        return self._bins is not None

    @property
    def n_attributes(self) -> int:
        if self._bins is None:
            raise RuntimeError("discretizer is not fitted")
        return len(self._bins)

    def fit(self, data: np.ndarray) -> "Discretizer":
        """Learn bin edges from ``data`` of shape (n_samples, n_attrs)."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 2:
            raise ValueError(
                f"expected 2-D training data with >= 2 rows, got shape {data.shape}"
            )
        bins: List[_AttributeBins] = []
        for col in data.T:
            bins.append(self._fit_column(col))
        self._bins = bins
        return self

    def _fit_column(self, col: np.ndarray) -> _AttributeBins:
        lo, hi = float(np.min(col)), float(np.max(col))
        if hi - lo < 1e-12:
            # Constant attribute: single informative bin.  Push every
            # interior edge above any representable metric value so the
            # whole real line maps to bin 0 — an attribute that was
            # idle during training cannot invent states 1..n-1 when it
            # later becomes active.
            edges = np.full(self.n_bins - 1, _CONSTANT_EDGE)
            centers = np.full(self.n_bins, lo)
            return _AttributeBins(edges=edges, centers=centers)
        if self.strategy == "width":
            all_edges = np.linspace(lo, hi, self.n_bins + 1)
        else:
            quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)
            all_edges = np.quantile(col, quantiles)
            # Guard against duplicate quantile edges on spiky data.
            all_edges = np.maximum.accumulate(
                all_edges + np.arange(self.n_bins + 1) * 1e-9
            )
        edges = all_edges[1:-1]
        centers = 0.5 * (all_edges[:-1] + all_edges[1:])
        return _AttributeBins(edges=edges, centers=centers)

    # ------------------------------------------------------------------
    # Transform
    # ------------------------------------------------------------------
    def transform(self, data: np.ndarray) -> np.ndarray:
        """Map values to bin indices; shape-preserving for 1-D / 2-D."""
        if self._bins is None:
            raise RuntimeError("discretizer is not fitted")
        arr = np.asarray(data, dtype=float)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[np.newaxis, :]
        if arr.shape[1] != len(self._bins):
            raise ValueError(
                f"expected {len(self._bins)} attributes, got {arr.shape[1]}"
            )
        out = np.empty(arr.shape, dtype=np.intp)
        for j, bins in enumerate(self._bins):
            out[:, j] = np.searchsorted(bins.edges, arr[:, j], side="right")
        return out[0] if squeeze else out

    def transform_value(self, attribute_index: int, value: float) -> int:
        """Bin index for a single attribute value."""
        if self._bins is None:
            raise RuntimeError("discretizer is not fitted")
        bins = self._bins[attribute_index]
        return int(np.searchsorted(bins.edges, value, side="right"))

    def center(self, attribute_index: int, bin_index: int) -> float:
        """Representative value of a bin (for reports and round-trips)."""
        if self._bins is None:
            raise RuntimeError("discretizer is not fitted")
        centers = self._bins[attribute_index].centers
        return float(centers[int(np.clip(bin_index, 0, self.n_bins - 1))])

    # ------------------------------------------------------------------
    # Snapshot / restore (model registry hooks)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable snapshot of the learned binning.

        Edges and centers are packed as raw bytes
        (:func:`~repro.core.arrays.pack_array`), so :meth:`from_dict`
        rebuilds a discretizer whose transforms are bitwise-identical
        to this one's.
        """
        return {
            "kind": "discretizer",
            "n_bins": self.n_bins,
            "strategy": self.strategy,
            "bins": None if self._bins is None else [
                {
                    "edges": pack_array(b.edges),
                    "centers": pack_array(b.centers),
                }
                for b in self._bins
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Discretizer":
        """Rebuild a discretizer saved by :meth:`to_dict`.

        Older snapshots carry a per-attribute ``"range"`` entry; it is
        ignored.
        """
        if payload.get("kind") != "discretizer":
            raise ValueError(
                f"not a discretizer snapshot: kind={payload.get('kind')!r}"
            )
        disc = cls(n_bins=int(payload["n_bins"]),
                   strategy=str(payload["strategy"]))
        raw = payload.get("bins")
        if raw is not None:
            bins: List[_AttributeBins] = []
            for i, entry in enumerate(raw):
                edges = unpack_array(entry["edges"], "<f8")
                centers = unpack_array(entry["centers"], "<f8")
                if edges.shape != (disc.n_bins - 1,):
                    raise ValueError(
                        f"attribute {i}: expected {disc.n_bins - 1} edges, "
                        f"got {edges.shape}"
                    )
                if centers.shape != (disc.n_bins,):
                    raise ValueError(
                        f"attribute {i}: expected {disc.n_bins} centers, "
                        f"got {centers.shape}"
                    )
                bins.append(_AttributeBins(edges=edges, centers=centers))
            disc._bins = bins
        return disc
