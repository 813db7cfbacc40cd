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
:meth:`fit`/:meth:`update`, and multi-step propagation is one
recurrence, :func:`propagate`, over a stack of chains: the predictor's
fleet-stacked operator runs it over every chain it holds, and a single
chain's :meth:`~MarkovModel.predict_distributions` runs it as a one-row
stack.  :meth:`~MarkovModel._build_transition_matrix` is the uncached
builder behind :meth:`~MarkovModel.transition_matrix`.  The
pre-vectorization propagation is a test oracle in
``tests/core/oracles.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import refits
from repro.core.arrays import pack_array, unpack_array

__all__ = [
    "MarkovModel",
    "SimpleMarkovModel",
    "TwoDependentMarkovModel",
    "expected_bin",
    "expected_bins",
    "propagate",
    "transition_counts",
    "transition_matrices",
]


def expected_bins(distributions: np.ndarray) -> np.ndarray:
    """Expectation-rounded bin per distribution (rows of the input).

    The shared expectation-rounding rule of the predictor stack: the
    distribution mean, rounded to the nearest bin and clipped into
    range.  Using the expectation rather than the mode keeps multi-step
    predictions of trending attributes from collapsing onto the
    most-visited state.  Accepts any ``(..., n_states)`` array.  Each
    mean is a fixed-order row reduction, not a BLAS product, so a row's
    bin does not depend on which other rows share the call.
    """
    distributions = np.asarray(distributions, dtype=float)
    n_states = distributions.shape[-1]
    expected = (distributions * np.arange(n_states)).sum(axis=-1)
    return np.clip(np.rint(expected), 0, n_states - 1).astype(np.intp)


def expected_bin(distribution: np.ndarray) -> int:
    """Expectation-rounded bin of one state distribution."""
    return int(expected_bins(distribution))


def propagate(
    tensor: np.ndarray, histories: np.ndarray, steps: int
) -> np.ndarray:
    """The look-ahead recurrence over a stack of ``a`` chains.

    ``tensor`` is ``(a, cur, next)`` for first-order chains and ``(a,
    prev, cur, next)`` for 2-dependent ones; ``histories`` is an
    integer ``(>= history_needed, a)`` matrix of trailing states, oldest
    first.  Returns ``(steps, a, n)``: slice ``[k, j]`` is chain ``j``'s
    distribution ``k + 1`` transitions ahead.  The einsum reductions
    are independent along the chain axis, so any row subset of a stack
    (one chain included) propagates to the same bits as the full stack.

    The first step is a gather: contracting a one-hot start with the
    tensor adds only exact zeros to the start state's row.
    """
    a, n = tensor.shape[0], tensor.shape[-1]
    out = np.empty((steps, a, n))
    chains = np.arange(a)
    if tensor.ndim == 4:
        out[0] = tensor[chains, histories[-2], histories[-1]]
        combined = np.zeros((a, n, n))  # combined[a, prev, cur]
        combined[chains, histories[-1]] = out[0]
        for k in range(1, steps):
            # One contraction advances (prev, cur) -> (cur, next):
            # combined'[a, c, x] = sum_p combined[a, p, c] *
            # tensor[a, p, c, x], and marginalizing the new "previous"
            # axis gives the single-state distribution at this horizon.
            # (einsum, not BLAS matmul, whose accumulation order would
            # depend on the stack's shape in the last ulp.)
            combined = np.einsum("apc,apcx->acx", combined, tensor)
            out[k] = combined.sum(axis=1)
    else:
        dist = out[0] = tensor[chains, histories[-1]]
        for k in range(1, steps):
            dist = np.einsum("ac,acx->ax", dist, tensor)
            out[k] = dist
    return out


def transition_counts(
    states: np.ndarray, segments: np.ndarray, n_states: int, history: int
) -> np.ndarray:
    """Integer ``(a, n**history, n)`` transition counts of each column
    of ``(rows, a)`` ``states``, from one ``np.bincount`` over an
    ``(attr, condition, next)`` index.  A transition counts only when
    every row it spans shares one (non-decreasing) ``segments`` id."""
    t, a = states.shape[0] - history, states.shape[1]
    cond = states[:max(t, 0)]
    for k in range(1, history):
        cond = cond * n_states + states[k:t + k]
    conditions = n_states ** history
    index = (np.arange(a) * conditions + cond) * n_states + states[history:]
    valid = segments[history:] == segments[:max(t, 0)]
    return np.bincount(
        index[valid].ravel(), minlength=a * conditions * n_states
    ).reshape(a, conditions, n_states)


def transition_matrices(
    counts: np.ndarray, smoothing: float, persistence: float
) -> np.ndarray:
    """Smoothed row-stochastic ``(a, C, n)`` matrices from counts, each
    row normalised along the contiguous last axis as one chain's is.
    The persistence mass goes to each condition's stay-put next state,
    its current state (the condition index modulo ``n``)."""
    smoothed = counts + smoothing
    if persistence > 0:
        conditions = np.arange(counts.shape[1])
        smoothed[:, conditions, conditions % counts.shape[2]] += persistence
    return smoothed / smoothed.sum(axis=2, keepdims=True)


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

    def _n_condition_states(self) -> int:
        return self.n_states ** self.history_needed

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
            self._counts += transition_counts(
                seq[:, None], np.zeros(seq.size), self.n_states,
                self.history_needed,
            )[0]
            self._invalidate_cache()
            self._trained = True
        return self

    @classmethod
    def fit_columns(
        cls, states: np.ndarray, segments: np.ndarray, n_states: int,
        **params,
    ) -> List["MarkovModel"]:
        """One chain per column of ``(rows, a)`` ``states``, counted and
        normalised in one pass each (the matrices become the chains'
        caches): bitwise :meth:`update` fed once per segment.  The
        chains are untrained when no segment yields a transition."""
        counts = transition_counts(
            states, segments, n_states, cls.history_needed
        )
        chains = [cls(n_states, **params) for _ in range(counts.shape[0])]
        if counts.any():
            counts = counts.astype(float)
            matrix = transition_matrices(
                counts, chains[0].smoothing, chains[0].persistence
            )
            matrix.flags.writeable = False
            for chain, chain_counts, chain_matrix in zip(chains, counts, matrix):
                chain._counts, chain._matrix_cache = chain_counts, chain_matrix
                chain._trained = True
            refits.bump()
        return chains

    def _invalidate_cache(self) -> None:
        self._matrix_cache = None
        self._version += 1
        refits.bump()

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

    def _build_transition_matrix(self) -> np.ndarray:
        """Smoothed row-stochastic transition matrix, built from the raw
        counts on every call (:meth:`transition_matrix` caches it)."""
        return transition_matrices(
            self._counts[None], self.smoothing, self.persistence
        )[0]

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

    def operator(self) -> np.ndarray:
        """The transition matrix as a :func:`propagate` tensor row:
        ``(cur, next)``, or ``(prev, cur, next)`` for a 2-dependent
        chain."""
        n = self.n_states
        return self.transition_matrix().reshape(
            (n,) * (self.history_needed + 1)
        )

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
        return self.predict_distributions(history, steps)[-1]

    def predict_distributions(self, history: Sequence[int], steps: int) -> np.ndarray:
        """State distributions at *every* horizon ``1..steps``.

        Returns a ``(steps, n_states)`` array whose row ``k`` is the
        distribution ``k + 1`` transitions ahead.  One propagation
        produces all horizons, so a look-ahead sweep costs the same as
        a single prediction at the farthest horizon; row ``k`` is
        bitwise-identical to ``predict_distribution(history, k + 1)``.
        """
        self._check_prediction_inputs(history, steps)
        histories = np.asarray(history, dtype=np.intp)[-self.history_needed:]
        return propagate(
            self.operator()[None], histories[:, None], steps
        )[:, 0]

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
        refits.bump()
        return model


class SimpleMarkovModel(MarkovModel):
    """First-order chain: ``P(next | current)``."""

    history_needed = 1


class TwoDependentMarkovModel(MarkovModel):
    """Second-order chain over combined states (Fig. 2).

    Combined state ``(prev, cur)`` is encoded as ``prev * n + cur``; a
    transition emits the next single state, moving to combined state
    ``(cur, next)``.  With ``n`` single states there are ``n**2``
    combined states — nine in the paper's three-state example.
    """

    history_needed = 2

    def encode(self, prev: int, cur: int) -> int:
        """Combined-state index for a (previous, current) pair."""
        return int(prev) * self.n_states + int(cur)


#: Snapshot tags for the two chain variants (see ``to_dict``).
_MARKOV_KIND = {SimpleMarkovModel: "simple", TwoDependentMarkovModel: "2dep"}
_MARKOV_CLASS = {kind: cls for cls, kind in _MARKOV_KIND.items()}
