"""Metric discretization.

Both building blocks of the paper's predictor operate on *discrete*
attribute states: the (2-dependent) Markov chains transition between
"single states" obtained by discretizing each attribute's value range
(Fig. 2 shows an attribute discretized into three states), and the TAN
classifier's CPTs are over the same discrete bins.

:class:`Discretizer` learns per-attribute bin edges from training data
(equal-width by default, equal-frequency optionally) and maps values to
bin indices and back to representative bin centers.  Every column is
fitted and transformed at once; the per-column loops they replaced are
the test oracle ``OracleDiscretizer`` in ``tests/core/oracles.py``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core import refits
from repro.core.arrays import pack_array, unpack_array

__all__ = ["Discretizer", "DEFAULT_BINS"]

#: Default number of single states per attribute.
DEFAULT_BINS = 8

#: Interior-edge sentinel for constant-trained attributes: finite (so
#: canonical-JSON snapshots stay valid) but above any real metric
#: value, which clamps every input to bin 0 as the docstring promises.
_CONSTANT_EDGE = np.finfo(float).max


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
        #: Interior edges ``(n_attrs, n_bins - 1)`` and representative
        #: values ``(n_attrs, n_bins)``, one row per attribute.
        self._edges: Optional[np.ndarray] = None
        self._centers: Optional[np.ndarray] = None

    @property
    def fitted(self) -> bool:
        return self._edges is not None

    @property
    def n_attributes(self) -> int:
        return self._require_fitted().shape[0]

    def fit(self, data: np.ndarray) -> "Discretizer":
        """Learn bin edges from ``data`` of shape (n_samples, n_attrs).

        A constant attribute gets a single informative bin: every
        interior edge sits above any representable metric value, so the
        whole real line maps to bin 0 — an attribute that was idle
        during training cannot invent states 1..n-1 when it later
        becomes active.  Constant columns stay out of the one
        ``linspace`` call over the others: a zero step in any column
        switches its formula for every column.
        """
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 2:
            raise ValueError(
                f"expected 2-D training data with >= 2 rows, got shape {data.shape}"
            )
        n = self.n_bins
        lo, hi = data.min(axis=0), data.max(axis=0)
        edges = np.full((data.shape[1], n - 1), _CONSTANT_EDGE)
        centers = np.repeat(lo[:, None], n, axis=1)
        live = np.flatnonzero(~(hi - lo < 1e-12))
        if live.size:
            if self.strategy == "width":
                all_edges = np.linspace(lo[live], hi[live], n + 1, axis=1)
            else:
                all_edges = np.quantile(
                    data[:, live], np.linspace(0.0, 1.0, n + 1), axis=0
                ).T
                # Guard against duplicate quantile edges on spiky data.
                all_edges = np.maximum.accumulate(
                    all_edges + np.arange(n + 1) * 1e-9, axis=1
                )
            edges[live] = all_edges[:, 1:-1]
            centers[live] = 0.5 * (all_edges[:, :-1] + all_edges[:, 1:])
        self._edges, self._centers = edges, centers
        refits.bump()
        return self

    # ------------------------------------------------------------------
    # Transform
    # ------------------------------------------------------------------
    def _require_fitted(self) -> np.ndarray:
        if self._edges is None:
            raise RuntimeError("discretizer is not fitted")
        return self._edges

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Map values to bin indices; shape-preserving for 1-D / 2-D.

        A value's bin is the count of its attribute's edges ``<=`` it:
        ``searchsorted(edges, value, side="right")`` for every non-NaN
        value (NaN lands in bin 0).
        """
        edges = self._require_fitted()
        arr = np.asarray(data, dtype=float)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[np.newaxis, :]
        if arr.shape[1] != edges.shape[0]:
            raise ValueError(
                f"expected {edges.shape[0]} attributes, got {arr.shape[1]}"
            )
        out = np.zeros(arr.shape, dtype=np.intp)
        for edge in edges.T:  # one pass per interior edge, every column
            out += edge <= arr
        return out[0] if squeeze else out

    def transform_value(self, attribute_index: int, value: float) -> int:
        """Bin index for a single attribute value."""
        edges = self._require_fitted()[attribute_index]
        return int((edges <= value).sum())

    def center(self, attribute_index: int, bin_index: int) -> float:
        """Representative value of a bin (for reports and round-trips)."""
        self._require_fitted()
        centers = self._centers[attribute_index]
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
            "bins": None if self._edges is None else [
                {"edges": pack_array(edges), "centers": pack_array(centers)}
                for edges, centers in zip(self._edges, self._centers)
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
            edges_rows, centers_rows = [], []
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
                edges_rows.append(edges)
                centers_rows.append(centers)
            disc._edges = np.array(edges_rows).reshape(-1, disc.n_bins - 1)
            disc._centers = np.array(centers_rows).reshape(-1, disc.n_bins)
            refits.bump()
        return disc
