"""Attribute-value prediction with Markov chain models.

The paper's predictor estimates each attribute's value distribution at
a future time (Sec. II-B).  Two models are implemented:

* :class:`SimpleMarkovModel` — the first-order chain of the authors'
  earlier work [10]: the next state depends only on the current state.
* :class:`TwoDependentMarkovModel` — the paper's contribution (Fig. 2):
  every pair of consecutive single states forms a *combined* state, so
  transitions depend on the current **and** the previous value.  This
  converts slope information (rising vs falling) into the state itself,
  which is what lets the model extrapolate gradually trending
  attributes (memory leaks, workload ramps) across multi-step
  look-ahead windows.

Both models share the same interface: train on a discrete state
sequence, then predict the state distribution ``steps`` transitions
ahead.  Counts are Laplace-smoothed; :meth:`update` adds new
observations so the model can "periodically update with new data
measurements to adapt to dynamic systems".

Performance notes (see ``docs/performance.md``): the smoothed
transition matrix is cached with dirty-flag invalidation on
:meth:`fit`/:meth:`update`, multi-step propagation runs as tensor
contractions over the combined-state distribution, and
:meth:`predict_distributions` returns *every* intermediate horizon of
one propagation so look-ahead sweeps do the O(steps) work once.
:meth:`~MarkovModel._build_transition_matrix` is the uncached builder
behind :meth:`~MarkovModel.transition_matrix`.  The pre-vectorization
propagation is preserved verbatim as ``_predict_reference`` — the
ground truth for the equivalence tests and the baseline for the
``benchmarks/perf_prediction.py`` speedup measurements.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.arrays import pack_array, unpack_array

__all__ = [
    "MarkovModel",
    "SimpleMarkovModel",
    "TwoDependentMarkovModel",
    "expected_bin",
    "expected_bins",
]


def expected_bins(distributions: np.ndarray) -> np.ndarray:
    """Expectation-rounded bin per distribution (rows of the input).

    The shared expectation-rounding rule of the predictor stack: the
    distribution mean, rounded to the nearest bin and clipped into
    range.  Using the expectation rather than the mode keeps multi-step
    predictions of trending attributes from collapsing onto the
    most-visited state.  Accepts any ``(..., n_states)`` array.
    """
    distributions = np.asarray(distributions, dtype=float)
    n_states = distributions.shape[-1]
    expected = distributions @ np.arange(n_states)
    return np.clip(np.rint(expected), 0, n_states - 1).astype(np.intp)


def expected_bin(distribution: np.ndarray) -> int:
    """Expectation-rounded bin of one state distribution."""
    return int(expected_bins(distribution))


class MarkovModel:
    """Common machinery for the two chain variants."""

    #: How many trailing observations the predictor needs to condition on.
    history_needed = 1

    def __init__(
        self, n_states: int, smoothing: float = 0.05, persistence: float = 3.0
    ) -> None:
        if n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {n_states}")
        if smoothing <= 0:
            raise ValueError(f"smoothing must be positive, got {smoothing}")
        if persistence < 0:
            raise ValueError(f"persistence must be >= 0, got {persistence}")
        self.n_states = n_states
        self.smoothing = smoothing
        #: Pseudo-count mass on "stay in the current state".  Rarely or
        #: never visited conditioning states then predict persistence
        #: instead of a near-uniform distribution — physically sensible
        #: for system metrics and essential for stable multi-step
        #: prediction from sparse training data.
        self.persistence = persistence
        self._counts = np.zeros(
            (self._n_condition_states(), n_states), dtype=float
        )
        self._trained = False
        #: Cached smoothed transition matrix; None = dirty (counts have
        #: changed since it was last built).
        self._matrix_cache: Optional[np.ndarray] = None
        #: Monotonic training version; bumped whenever the counts
        #: change so stacked multi-model operators (see
        #: :class:`~repro.core.predictor.BatchedAttributeChains`) can
        #: detect staleness.
        self._version = 0

    # -- subclass hooks -------------------------------------------------
    def _n_condition_states(self) -> int:
        raise NotImplementedError

    def _condition_index(self, history: Sequence[int]) -> int:
        """Row index for the conditioning state given trailing history."""
        raise NotImplementedError

    def _extract_transitions(self, seq: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(condition indices, next states) pairs from a state sequence."""
        raise NotImplementedError

    # -- training --------------------------------------------------------
    def fit(self, sequence: Sequence[int]) -> "MarkovModel":
        """Train from scratch on a discrete state sequence."""
        self._counts[:] = 0.0
        self._trained = False
        self._invalidate_cache()
        return self.update(sequence)

    def update(self, sequence: Sequence[int]) -> "MarkovModel":
        """Accumulate transition counts from an additional sequence.

        The sequence is an *independent* stream (e.g. a new training
        segment): no transition is counted across the boundary from
        previously seen data.  A model becomes trained only once at
        least one transition has actually been observed — a sequence
        too short to yield a transition leaves the trained flag alone,
        so a fresh chain fed only empty/degenerate segments still
        raises ``RuntimeError`` at prediction time instead of emitting
        pure smoothing/persistence noise.
        """
        seq = self._validate(sequence)
        if seq.size > self.history_needed:
            rows, nxt = self._extract_transitions(seq)
            np.add.at(self._counts, (rows, nxt), 1.0)
            self._invalidate_cache()
            self._trained = True
        return self

    def _invalidate_cache(self) -> None:
        self._matrix_cache = None
        self._version += 1

    def _validate(self, sequence: Sequence[int]) -> np.ndarray:
        seq = np.asarray(sequence, dtype=np.intp)
        if seq.ndim != 1:
            raise ValueError("state sequence must be 1-D")
        if seq.size:
            lo, hi = int(seq.min()), int(seq.max())
            if lo < 0 or hi >= self.n_states:
                raise ValueError(
                    f"states must lie in [0, {self.n_states}), "
                    f"got range [{lo}, {hi}]"
                )
        return seq

    def _persistence_targets(self) -> np.ndarray:
        """For each conditioning state, the 'stay put' next state."""
        raise NotImplementedError

    def _build_transition_matrix(self) -> np.ndarray:
        """Smoothed row-stochastic transition matrix, built from the raw
        counts on every call (:meth:`transition_matrix` caches it)."""
        smoothed = self._counts + self.smoothing
        if self.persistence > 0:
            rows = np.arange(smoothed.shape[0])
            smoothed[rows, self._persistence_targets()] += self.persistence
        return smoothed / smoothed.sum(axis=1, keepdims=True)

    def transition_matrix(self) -> np.ndarray:
        """Smoothed row-stochastic transition matrix.

        Rows get Laplace smoothing plus a persistence pseudo-count on
        the stay-put target, so unseen conditioning states predict "no
        change" rather than uniform noise.

        The matrix is rebuilt only when :meth:`fit`/:meth:`update` have
        touched the counts since the last call; the returned array is
        the (read-only) cache, shared across calls.
        """
        if self._matrix_cache is None:
            matrix = self._build_transition_matrix()
            matrix.flags.writeable = False
            self._matrix_cache = matrix
        return self._matrix_cache

    # -- prediction --------------------------------------------------------
    def _check_prediction_inputs(self, history: Sequence[int], steps: int) -> None:
        if not self._trained:
            raise RuntimeError("model is not trained")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if len(history) < self.history_needed:
            raise ValueError(
                f"need {self.history_needed} trailing states, got {len(history)}"
            )

    def predict_distribution(self, history: Sequence[int], steps: int = 1) -> np.ndarray:
        """Distribution over single states ``steps`` transitions ahead.

        ``history`` is the trailing observed states (at least
        :attr:`history_needed` of them; extra leading entries are
        ignored).
        """
        self._check_prediction_inputs(history, steps)
        return self._predict_all(list(history), steps)[-1]

    def predict_distributions(self, history: Sequence[int], steps: int) -> np.ndarray:
        """State distributions at *every* horizon ``1..steps``.

        Returns a ``(steps, n_states)`` array whose row ``k`` is the
        distribution ``k + 1`` transitions ahead.  One propagation
        produces all horizons, so a look-ahead sweep costs the same as
        a single prediction at the farthest horizon; row ``k`` is
        bitwise-identical to ``predict_distribution(history, k + 1)``.
        """
        self._check_prediction_inputs(history, steps)
        return self._predict_all(list(history), steps)

    def _predict_all(self, history: Sequence[int], steps: int) -> np.ndarray:
        raise NotImplementedError

    def _predict_reference(self, history: Sequence[int], steps: int) -> np.ndarray:
        """The pre-vectorization prediction path (kept for equivalence
        tests and as the benchmark baseline)."""
        raise NotImplementedError

    def predict_state(self, history: Sequence[int], steps: int = 1) -> int:
        """Expected state ``steps`` ahead (distribution mean, rounded).

        See :func:`expected_bin` for the shared rounding rule.
        """
        return expected_bin(self.predict_distribution(history, steps))

    # ------------------------------------------------------------------
    # Snapshot / restore (model registry hooks)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable snapshot of the trained chain.

        Only the raw transition counts are persisted — the smoothed
        matrix and every prediction are deterministic functions of
        them, so a chain restored by :meth:`from_dict` predicts
        bitwise-identically to this one.
        """
        return {
            "kind": _MARKOV_KIND[type(self)],
            "n_states": self.n_states,
            "smoothing": self.smoothing,
            "persistence": self.persistence,
            "trained": self._trained,
            "counts": pack_array(self._counts),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "MarkovModel":
        """Rebuild a chain saved by :meth:`to_dict` (either variant)."""
        kind = payload.get("kind")
        model_cls = _MARKOV_CLASS.get(kind)
        if model_cls is None:
            raise ValueError(f"not a Markov-chain snapshot: kind={kind!r}")
        model = model_cls(
            int(payload["n_states"]),
            smoothing=float(payload["smoothing"]),
            persistence=float(payload["persistence"]),
        )
        counts = unpack_array(payload["counts"], "<f8")
        if counts.shape != model._counts.shape:
            raise ValueError(
                f"counts shape {counts.shape} does not match "
                f"{model._counts.shape} for a {kind!r} chain with "
                f"{model.n_states} states"
            )
        if not np.isfinite(counts).all():
            raise ValueError(
                "corrupt Markov snapshot: counts contain NaN/inf values"
            )
        if (counts < 0.0).any():
            raise ValueError(
                "corrupt Markov snapshot: counts contain negative values"
            )
        model._counts = counts
        model._trained = bool(payload["trained"])
        return model


class SimpleMarkovModel(MarkovModel):
    """First-order chain: ``P(next | current)``."""

    history_needed = 1

    def _n_condition_states(self) -> int:
        return self.n_states

    def _condition_index(self, history: Sequence[int]) -> int:
        return int(history[-1])

    def _extract_transitions(self, seq: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return seq[:-1], seq[1:]

    def _persistence_targets(self) -> np.ndarray:
        return np.arange(self.n_states)

    def _predict_all(self, history: Sequence[int], steps: int) -> np.ndarray:
        matrix = self.transition_matrix()
        dist = np.zeros(self.n_states)
        dist[self._condition_index(history)] = 1.0
        out = np.empty((steps, self.n_states))
        for k in range(steps):
            # einsum rather than `dist @ matrix`: the stacked operator
            # (BatchedAttributeChains) advances with the same einsum
            # kernel plus a batch axis, which keeps the two paths
            # bitwise-identical; BLAS matmul orders the accumulation
            # differently in the last ulp.
            dist = np.einsum("c,cx->x", dist, matrix)
            out[k] = dist
        return out

    def _predict_reference(self, history: Sequence[int], steps: int) -> np.ndarray:
        matrix = self._build_transition_matrix()
        dist = np.zeros(self.n_states)
        dist[self._condition_index(history)] = 1.0
        for _ in range(steps):
            dist = dist @ matrix
        return dist


@functools.lru_cache(maxsize=None)
def _stay_put_targets(n_states: int) -> np.ndarray:
    """Stay-put next state of each combined state ``(prev, cur)``: it
    persists by emitting ``cur`` again.  Depends on ``n_states`` only,
    so every chain of that size shares one read-only array."""
    targets = np.tile(np.arange(n_states), n_states)
    targets.flags.writeable = False
    return targets


class TwoDependentMarkovModel(MarkovModel):
    """Second-order chain over combined states (Fig. 2).

    Combined state ``(prev, cur)`` is encoded as ``prev * n + cur``; a
    transition emits the next single state, moving to combined state
    ``(cur, next)``.  With ``n`` single states there are ``n**2``
    combined states — nine in the paper's three-state example.
    """

    history_needed = 2

    def _n_condition_states(self) -> int:
        return self.n_states * self.n_states

    def encode(self, prev: int, cur: int) -> int:
        """Combined-state index for a (previous, current) pair."""
        return int(prev) * self.n_states + int(cur)

    def _condition_index(self, history: Sequence[int]) -> int:
        return self.encode(history[-2], history[-1])

    def _extract_transitions(self, seq: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        rows = seq[:-2] * self.n_states + seq[1:-1]
        return rows, seq[2:]

    def _persistence_targets(self) -> np.ndarray:
        return _stay_put_targets(self.n_states)

    def _predict_all(self, history: Sequence[int], steps: int) -> np.ndarray:
        n = self.n_states
        # tensor[prev, cur, next] = P(next | combined state (prev, cur)).
        tensor = self.transition_matrix().reshape(n, n, n)
        combined = np.zeros((n, n))  # combined[prev, cur]
        combined[int(history[-2]), int(history[-1])] = 1.0
        out = np.empty((steps, n))
        for k in range(steps):
            # One contraction advances (prev, cur) -> (cur, next):
            # combined'[c, x] = sum_p combined[p, c] * tensor[p, c, x],
            # and marginalizing the new "previous" axis gives the
            # single-state distribution at this horizon.
            combined = np.einsum("pc,pcx->cx", combined, tensor)
            out[k] = combined.sum(axis=0)
        return out

    def _predict_reference(self, history: Sequence[int], steps: int) -> np.ndarray:
        matrix = self._build_transition_matrix()  # (n^2, n)
        n = self.n_states
        combined = np.zeros(n * n)
        combined[self._condition_index(history)] = 1.0
        single = np.zeros(n)
        for _ in range(steps):
            # P(next single state) given the combined-state distribution.
            single = combined @ matrix
            # Advance the combined distribution: (prev, cur) -> (cur, next).
            next_combined = np.zeros(n * n)
            rows = combined.reshape(n, n)  # rows[prev, cur]
            cur_mass = rows.sum(axis=0)    # P(cur = c)
            for cur in range(n):
                if cur_mass[cur] <= 0.0:
                    continue
                # Distribution of next given cur, weighted over prev;
                # combined rows for (prev, cur) live at index prev*n+cur.
                weights = rows[:, cur]
                row_indices = np.arange(n) * n + cur
                next_given = weights @ matrix[row_indices]
                next_combined[cur * n: (cur + 1) * n] += next_given
            combined = next_combined
        return single


#: Snapshot tags for the two chain variants (see ``to_dict``).
_MARKOV_KIND = {SimpleMarkovModel: "simple", TwoDependentMarkovModel: "2dep"}
_MARKOV_CLASS = {kind: cls for cls, kind in _MARKOV_KIND.items()}
