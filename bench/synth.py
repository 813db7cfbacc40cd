"""Seeded fleet, traffic and parity oracle for the serving workloads.

The fleet is synthetic but shaped like the paper's monitor output: 13
attributes per VM, 8 bins, 2-dependent Markov chains, 300 training
rows in which contiguous anomaly episodes push a few attributes away
from baseline, so both classes are learnable and the served scores are
a mix of normal and abnormal.

Every VM streams a fixed cycle of ``TRACE_ROWS`` rows.  A score depends
only on the VM and its trailing ``history_needed`` rows, so the oracle
is one :meth:`AnomalyPredictor.predict` per (VM, cycle position) —
every reply of a 20 000-sample run is checked against 1 600 offline
predictions.  The servers keep no per-input cache, so repeating rows
buys them nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.predictor import AnomalyPredictor

__all__ = ["Fleet", "Stream", "build_fleet", "reply_matches",
           "N_VMS", "N_ATTRS", "N_BINS", "TRAIN_ROWS", "TRACE_ROWS", "STEPS"]

N_VMS = 100
N_ATTRS = 13
N_BINS = 8
TRAIN_ROWS = 300
TRACE_ROWS = 16
#: ``repro serve`` / ``repro fabric`` default look-ahead; requests carry
#: no ``steps`` of their own.
STEPS = 4


@dataclass
class Fleet:
    """Trained per-VM predictors and the row cycle each VM streams."""

    predictors: Dict[str, AnomalyPredictor]
    rows: Dict[str, np.ndarray]
    #: training windows, kept for the layer probes
    training: Dict[str, Tuple[np.ndarray, np.ndarray]]
    #: ``(vm, cycle position) -> expected score reply``, see
    #: :meth:`build_oracle`
    oracle: Dict[Tuple[str, int], Dict] = field(default_factory=dict)

    @property
    def vms(self) -> List[str]:
        return sorted(self.predictors)

    def build_oracle(self) -> None:
        """Score every (VM, cycle position) offline, once."""
        for vm, predictor in self.predictors.items():
            rows = self.rows[vm]
            need = predictor.history_needed
            for r in range(TRACE_ROWS):
                recent = rows[[(r - need + 1 + i) % TRACE_ROWS
                               for i in range(need)]]
                result = predictor.predict(recent, STEPS)
                self.oracle[vm, r] = {
                    "kind": "score",
                    "abnormal": bool(result.abnormal),
                    "probability": result.probability,
                    "score": result.score,
                }


def _vm_series(rng: np.random.Generator, n_rows: int
               ) -> Tuple[np.ndarray, np.ndarray]:
    """One VM's metric rows and SLO labels, anomaly episodes included."""
    baseline = rng.uniform(20.0, 80.0, N_ATTRS)
    noise = rng.uniform(2.0, 6.0, N_ATTRS)
    values = baseline + rng.normal(0.0, 1.0, (n_rows, N_ATTRS)) * noise
    labels = np.zeros(n_rows, dtype=int)
    hit = rng.choice(N_ATTRS, size=3, replace=False)
    start = int(rng.integers(10, 40))
    while start < n_rows:
        length = int(rng.integers(8, 20))
        ramp = np.linspace(0.3, 1.0, min(length, n_rows - start))
        values[start:start + length, hit] += (
            ramp[:, None] * 6.0 * noise[hit])
        labels[start:start + length] = 1
        start += length + int(rng.integers(30, 70))
    return values, labels


def build_fleet(seed: int, n_vms: int = N_VMS) -> Fleet:
    """Synthesise and train the fleet for ``seed``."""
    rng = np.random.default_rng([seed, 0x5E21E])
    attrs = [f"a{i:02d}" for i in range(N_ATTRS)]
    predictors: Dict[str, AnomalyPredictor] = {}
    rows: Dict[str, np.ndarray] = {}
    training: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for i in range(n_vms):
        vm = f"vm{i:03d}"
        values, labels = _vm_series(rng, TRAIN_ROWS + TRACE_ROWS)
        train_values, train_labels = values[:TRAIN_ROWS], labels[:TRAIN_ROWS]
        predictors[vm] = AnomalyPredictor(
            attrs, n_bins=N_BINS, markov="2dep",
        ).train(train_values, train_labels)
        rows[vm] = values[TRAIN_ROWS:]
        training[vm] = (train_values, train_labels)
    return Fleet(predictors, rows, training)


class Stream:
    """A round-robin sample stream over some of a fleet's VMs.

    Position ``k`` is VM ``vms[k % n]``'s ``k // n``-th sample, which
    carries row ``(k // n) % TRACE_ROWS`` of that VM's cycle.  Two
    streams over disjoint VM sets (the closed loop's two connections)
    keep per-VM order because each VM lives in exactly one of them.
    """

    def __init__(self, fleet: Fleet, vms: Optional[Sequence[str]] = None
                 ) -> None:
        self.fleet = fleet
        self.vms = list(vms) if vms is not None else fleet.vms
        if not self.vms:
            raise ValueError("a stream needs at least one VM")
        self._fragments: Dict[Tuple[str, int], bytes] = {}
        for vm in self.vms:
            for r, row in enumerate(fleet.rows[vm]):
                self._fragments[vm, r] = (
                    '"op": "sample", "vm": "%s", "values": %s'
                    % (vm, json.dumps(row.tolist()))
                ).encode()

    def sample_at(self, k: int) -> Tuple[str, int]:
        """``(vm, j)``: position ``k`` is ``vm``'s ``j``-th sample."""
        n = len(self.vms)
        return self.vms[k % n], k // n

    def values_at(self, k: int) -> List[float]:
        vm, j = self.sample_at(k)
        return self.fleet.rows[vm][j % TRACE_ROWS].tolist()

    def line(self, k: int, msg_id: int) -> bytes:
        """The ``sample`` request line for position ``k``."""
        vm, j = self.sample_at(k)
        return b'{"id": %d, %s}\n' % (
            msg_id, self._fragments[vm, j % TRACE_ROWS])

    def lines(self, start: int, count: int, first_id: int = 0
              ) -> List[bytes]:
        return [self.line(start + i, first_id + i) for i in range(count)]

    def frame(self, start: int, count: int, msg_id: int) -> bytes:
        """One ``batch`` request carrying positions ``start..+count``."""
        samples = []
        for k in range(start, start + count):
            vm, j = self.sample_at(k)
            samples.append(b"{%s}" % self._fragments[vm, j % TRACE_ROWS])
        return b'{"id": %d, "op": "batch", "samples": [%s]}\n' % (
            msg_id, b", ".join(samples))

    def expected(self, k: int) -> Dict:
        """What a correct server answers at position ``k``: ``warmup``
        until the VM's trailing history is full, then the offline
        score for that history."""
        vm, j = self.sample_at(k)
        need = self.fleet.predictors[vm].history_needed
        if j + 1 < need:
            return {"kind": "warmup", "have": j + 1, "need": need}
        return self.fleet.oracle[vm, j % TRACE_ROWS]


def reply_matches(expected: Dict, reply: Optional[Dict]) -> bool:
    """Is ``reply`` the answer the oracle expects?  Scores must agree
    to the last bit: the servers' batched path is specified to be
    bitwise-identical to one ``predict`` call."""
    if reply is None:
        return False
    return all(reply.get(key) == value for key, value in expected.items())
