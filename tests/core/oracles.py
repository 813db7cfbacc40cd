"""The loops the refit and diagnosis paths replaced, kept verbatim as
test oracles.

``src/`` counts with one integer ``np.bincount`` and fills the horizon
table lazily; these are the one-hot TAN fit, the per-pair CMI, the
per-attribute naive-Bayes counts and the eager k-step horizon operator
as they stood before.  ``test_refit_kernels.py`` demands bitwise
equality with them.

``src/`` scans change points as one ``(component, attribute, time)``
stack and scores each violation epoch from one ``(vm, rows, attr)``
block; the per-column scan, the per-VM localizer epoch loop and the
looped ``violation_epochs`` below are what it replaced.
``test_diagnosis_kernels.py`` demands bitwise equality with them.

``src/`` hands the controller one ``(vm, attr)`` block per monitoring
round and keeps the fleet's training windows in one ring;
:class:`ListMonitor`, :class:`OracleTrainingBuffer` and
:class:`OracleIngest` are the per-sample collection, the per-VM buffer
and ``_sanitize_batch`` it replaced.  ``test_ingest_kernels.py``
demands bitwise equality with them.
"""

import dataclasses
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.bayes import (
    ABNORMAL,
    NORMAL,
    ORDINAL_KERNEL_WEIGHT,
    _class_log_prior_from_counts,
    check_training_data,
    ordinal_smooth,
    select_attributes,
)
from repro.core.localization import DeviationLocalizer
from repro.core.tan import CPT_BACKOFF, TANClassifier
from repro.sim.monitor import ATTRIBUTES, MetricSample, VMMonitor


def oracle_cmi_per_pair(X, y, n_bins, smoothing) -> np.ndarray:
    """The pre-vectorization per-pair CMI loop."""
    n_attrs = X.shape[1]
    b = n_bins
    cmi = np.zeros((n_attrs, n_attrs))
    for label in (NORMAL, ABNORMAL):
        rows = X[y == label]
        if rows.shape[0] == 0:
            continue
        class_weight = rows.shape[0] / X.shape[0]
        # Per-attribute marginals under this class.
        marg = np.empty((n_attrs, b))
        for i in range(n_attrs):
            counts = np.bincount(rows[:, i], minlength=b) + smoothing
            marg[i] = counts / counts.sum()
        for i in range(n_attrs):
            for j in range(i + 1, n_attrs):
                joint = np.full((b, b), smoothing, dtype=float)
                np.add.at(joint, (rows[:, i], rows[:, j]), 1.0)
                joint /= joint.sum()
                denom = np.outer(marg[i], marg[j])
                term = float(np.sum(joint * (np.log(joint) - np.log(denom))))
                contribution = class_weight * max(term, 0.0)
                cmi[i, j] += contribution
                cmi[j, i] += contribution
    return cmi


class OneHotTAN(TANClassifier):
    """:class:`TANClassifier` with the one-hot einsum fit it used to
    have; scoring, ``to_dict`` and the spanning tree are inherited."""

    def _onehot_cmi(self, X, y, onehot) -> np.ndarray:
        n_attrs = X.shape[1]
        cmi = np.zeros((n_attrs, n_attrs))
        upper = np.triu(np.ones((n_attrs, n_attrs), dtype=bool), k=1)
        for label in (NORMAL, ABNORMAL):
            oh = onehot[y == label]
            if oh.shape[0] == 0:
                continue
            class_weight = oh.shape[0] / X.shape[0]
            marg = oh.sum(axis=0) + self.smoothing            # (a, b)
            marg /= marg.sum(axis=1, keepdims=True)
            joint = np.einsum("mip,mjq->ijpq", oh, oh) + self.smoothing
            joint /= joint.sum(axis=(2, 3), keepdims=True)
            denom = np.einsum("ip,jq->ijpq", marg, marg)
            terms = np.sum(
                joint * (np.log(joint) - np.log(denom)), axis=(2, 3)
            )
            contribution = class_weight * np.maximum(terms, 0.0)
            contribution = np.where(upper, contribution, 0.0)
            cmi += contribution + contribution.T
        return cmi

    def fit(self, X, y) -> "OneHotTAN":
        X, y = check_training_data(np.asarray(X), np.asarray(y), self.n_bins)
        n_attrs = X.shape[1]
        self.n_attributes = n_attrs
        onehot = (X[:, :, None] == np.arange(self.n_bins)).astype(float)
        self.parents = self._maximum_spanning_tree(
            self._onehot_cmi(X, y, onehot)
        )
        counts = np.array(
            [np.sum(y == NORMAL), np.sum(y == ABNORMAL)], dtype=float
        )
        self._log_prior = _class_log_prior_from_counts(
            counts, y.size, self.class_prior, self.smoothing
        )
        parent_or_self = np.where(
            self.parents >= 0, self.parents, np.arange(n_attrs)
        )
        marg_counts = np.zeros((2, n_attrs, self.n_bins))
        pair_counts = np.zeros((2, n_attrs, self.n_bins, self.n_bins))
        for label in (NORMAL, ABNORMAL):
            oh = onehot[y == label]
            if oh.shape[0]:
                marg_counts[label] = oh.sum(axis=0)
                pair_counts[label] = np.einsum(
                    "map,mac->apc", oh[:, parent_or_self], oh
                )
        self._fit_tables(parent_or_self, marg_counts, pair_counts)
        self.attribute_mask = np.ones(n_attrs, dtype=bool)
        if self.robust:
            sample_strengths = self._raw_strengths_batch(X)
            self.attribute_mask = select_attributes(sample_strengths, y)
        return self

    def _fit_tables(self, parent_or_self, marg_counts, pair_counts) -> None:
        n_attrs = self.n_attributes
        cpts: List[np.ndarray] = []
        supports: List[np.ndarray] = []
        for i in range(n_attrs):
            parent = self.parents[i]
            marg_raw = marg_counts[:, i, :].copy()
            if self.robust:
                marg_raw = ordinal_smooth(marg_raw, axis=1)
            marginal = marg_raw + self.smoothing
            marginal /= marginal.sum(axis=1, keepdims=True)
            if parent < 0:
                table = marginal
                if self.robust:
                    supports.append(
                        marg_raw.sum(axis=0) >= ORDINAL_KERNEL_WEIGHT
                    )
                else:
                    supports.append(np.ones(self.n_bins, dtype=bool))
            else:
                raw = pair_counts[:, i, :, :]
                if self.robust:
                    raw = ordinal_smooth(ordinal_smooth(raw, axis=2), axis=1)
                cond = raw + self.smoothing
                cond /= cond.sum(axis=2, keepdims=True)
                row_counts = raw.sum(axis=2, keepdims=True)
                backoff = CPT_BACKOFF if self.robust else 0.0
                lam = row_counts / (row_counts + backoff) if backoff else 1.0
                lam = np.broadcast_to(np.asarray(lam), cond.shape) if np.isscalar(lam) else lam
                table = lam * cond + (1.0 - lam) * marginal[:, np.newaxis, :]
                if self.robust:
                    child_support = (
                        marg_raw.sum(axis=0) >= ORDINAL_KERNEL_WEIGHT
                    )
                else:
                    child_support = np.ones(self.n_bins, dtype=bool)
                supports.append(
                    np.broadcast_to(child_support, (self.n_bins, self.n_bins)).copy()
                )
            cpts.append(np.log(table))
        self._log_cpt = cpts
        self._support = supports
        self._build_scoring_tensors(parent_or_self)


def oracle_naive_counts(X, y, n_bins):
    """Per-class, per-attribute bincount loop of
    ``NaiveBayesClassifier._count``: ``((a, 2, b), (2,))``."""
    n_attrs = X.shape[1]
    raw_counts = np.zeros((n_attrs, 2, n_bins), dtype=float)
    class_counts = np.zeros(2, dtype=float)
    for label in (NORMAL, ABNORMAL):
        rows = X[y == label]
        class_counts[label] += rows.shape[0]
        for j in range(n_attrs):
            if rows.size:
                raw_counts[j, label, :] += np.bincount(
                    rows[:, j], minlength=n_bins
                )
    return raw_counts, class_counts


def oracle_horizon_operator(tensor, steps, n, two_dependent) -> np.ndarray:
    """The eager k-step operator ``FleetScorer._horizon_for`` built for
    every start state of every chain: ``(A, [p0,] c0, x)``."""
    a = tensor.shape[0]
    idx = np.arange(n)
    if two_dependent:
        # G[a, p0, c0, c, x]: the live path's dense combined-state
        # matrix after each step, for every (p0, c0) start.
        combined = np.zeros((a, n, n, n, n))
        combined[:, :, idx, idx, :] = tensor
        for _ in range(steps - 1):
            combined = np.einsum(
                "aspc,apcx->ascx",
                combined.reshape(a, n * n, n, n),
                tensor,
            ).reshape(a, n, n, n, n)
        return combined.sum(axis=3)
    dist = tensor.copy()
    for _ in range(steps - 1):
        dist = np.einsum("asc,acx->asx", dist, tensor)
    return dist


# ----------------------------------------------------------------------
# Diagnosis path
# ----------------------------------------------------------------------
def oracle_detect_change_point(
    window: np.ndarray, threshold: float = 4.5, min_samples: int = 6
) -> bool:
    values = np.asarray(window, dtype=float)
    if values.ndim != 1 or values.size < min_samples:
        return False
    half = values.size // 2
    first, second = values[:half], values[half:]
    pooled = np.sqrt(0.5 * (first.var() + second.var()))
    scale = max(pooled, 1e-3 * max(abs(values.mean()), 1.0))
    shift = abs(second.mean() - first.mean())
    return bool(shift > threshold * scale / np.sqrt(half))


def oracle_boundary(column: np.ndarray) -> float:
    """The threshold at which ``oracle_detect_change_point`` flips for
    this column, in the oracle's own arithmetic."""
    values = np.asarray(column, dtype=float)
    half = values.size // 2
    first, second = values[:half], values[half:]
    pooled = np.sqrt(0.5 * (first.var() + second.var()))
    scale = max(pooled, 1e-3 * max(abs(values.mean()), 1.0))
    shift = abs(second.mean() - first.mean())
    return float(shift * np.sqrt(half) / scale)


def oracle_fraction_changed(
    recent_windows: Mapping[str, np.ndarray],
    threshold: float,
    min_samples: int,
) -> float:
    if not recent_windows:
        return -1.0
    changed = 0
    for window in recent_windows.values():
        matrix = np.asarray(window, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] < min_samples:
            return -1.0
        if any(
            oracle_detect_change_point(matrix[:, j], threshold)
            for j in range(matrix.shape[1])
        ):
            changed += 1
    return changed / len(recent_windows)


def oracle_violation_epochs(y: np.ndarray) -> List[Tuple[int, int]]:
    y = np.asarray(y, dtype=np.intp)
    epochs: List[Tuple[int, int]] = []
    start = None
    for i, label in enumerate(y):
        if label and start is None:
            start = i
        elif not label and start is not None:
            epochs.append((start, i))
            start = None
    if start is not None:
        epochs.append((start, len(y)))
    return epochs


class LoopLocalizer(DeviationLocalizer):
    """:class:`DeviationLocalizer` with the per-VM epoch loop it used to
    have.  ``evidence`` records each epoch's ``(scores, onsets)``; the
    implicated-VM labelling (``_normal_profile``) is inherited."""

    @staticmethod
    def deviation_score(
        epoch_values: np.ndarray,
        normal_mean: np.ndarray,
        normal_std: np.ndarray,
    ) -> float:
        if epoch_values.size == 0:
            return 0.0
        epoch_mean = epoch_values.mean(axis=0)
        epoch_std = epoch_values.std(axis=0)
        scale = np.maximum(
            np.maximum(normal_std, epoch_std),
            1e-3 * np.maximum(np.abs(normal_mean), 1.0),
        )
        z = np.abs(epoch_mean - normal_mean) / scale
        return float(z.max())

    def localize(
        self,
        per_vm_values: Mapping[str, np.ndarray],
        labels: np.ndarray,
        per_vm_allocations: Optional[
            Mapping[str, Tuple[np.ndarray, np.ndarray]]
        ] = None,
    ) -> Dict[str, np.ndarray]:
        self.evidence = []
        labels = np.asarray(labels, dtype=np.intp)
        names = list(per_vm_values)
        matrices = {}
        for name in names:
            matrix = np.asarray(per_vm_values[name], dtype=float)
            if matrix.shape[0] != labels.shape[0]:
                raise ValueError(
                    f"{name}: {matrix.shape[0]} samples vs {labels.shape[0]} labels"
                )
            matrices[name] = matrix
        out = {name: np.zeros_like(labels) for name in names}
        epochs = oracle_violation_epochs(labels)
        if not epochs:
            return out

        for start, end in epochs:
            ref_end = max(0, start - self.reference_gap)
            ref_start = max(0, ref_end - self.reference_window)
            scores = {}
            ref_stats: Dict[str, Optional[Tuple[np.ndarray, np.ndarray]]] = {}
            for name in names:
                matrix = matrices[name]
                epoch_vals = matrix[start:end]
                reference = matrix[ref_start:ref_end]
                if per_vm_allocations is not None:
                    cpu, mem = per_vm_allocations[name]
                    cpu0, mem0 = cpu[start], mem[start]
                    cpu_tol = 0.02 * max(cpu0, 1e-9)
                    mem_tol = 0.02 * max(mem0, 1e-9)
                    same = (
                        np.abs(cpu[start:end] - cpu0) <= cpu_tol
                    ) & (np.abs(mem[start:end] - mem0) <= mem_tol)
                    if same.any() and not same.all():
                        epoch_vals = epoch_vals[same]
                    ref_same = (
                        np.abs(cpu[ref_start:ref_end] - cpu0) <= cpu_tol
                    ) & (np.abs(mem[ref_start:ref_end] - mem0) <= mem_tol)
                    if ref_same.sum() >= 3 and not ref_same.all():
                        reference = reference[ref_same]
                if reference.shape[0] < 3:
                    scores[name] = float("inf")
                    ref_stats[name] = None
                else:
                    ref_stats[name] = (
                        reference.mean(axis=0), reference.std(axis=0)
                    )
                    scores[name] = self.deviation_score(
                        epoch_vals, *ref_stats[name]
                    )
            onsets = {
                name: self._onset_index(
                    matrices[name], ref_stats[name], start, end
                )
                for name in names
            }
            self.evidence.append((scores, onsets))
            finite = {n: o for n, o in onsets.items() if o is not None}
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
                profile = self._normal_profile(
                    matrices[name], labels,
                    None if per_vm_allocations is None
                    else (per_vm_allocations[name], start),
                )
                if profile is None:
                    out[name][start:end] = 1
                    continue
                mean, std = profile
                scale = np.maximum(std, 1e-3 * np.maximum(np.abs(mean), 1.0))
                z = np.abs(matrices[name][start:end] - mean) / scale
                per_sample = z.max(axis=1)
                cutoff = max(self.min_score, 0.1 * float(per_sample.max()))
                deviant = per_sample >= cutoff
                out[name][start:end] = deviant.astype(out[name].dtype)
        return out

    def _onset_index(
        self,
        matrix: np.ndarray,
        ref: Optional[Tuple[np.ndarray, np.ndarray]],
        start: int,
        end: int,
        lead: int = 24,
    ) -> Optional[int]:
        if ref is None:
            return None
        mean, std = ref
        scale = np.maximum(std, 1e-3 * np.maximum(np.abs(mean), 1.0))
        scan_start = max(0, start - lead)
        z = np.abs(matrix[scan_start:end] - mean) / scale
        above = z.max(axis=1) > self.onset_threshold
        sustained = above[:-1] & above[1:]
        hits = np.flatnonzero(sustained)
        return int(scan_start + hits[0]) if hits.size else None


# ----------------------------------------------------------------------
# Ingest path
# ----------------------------------------------------------------------
class ListMonitor(VMMonitor):
    """:class:`VMMonitor` with the per-sample collection it used to have:
    one :class:`MetricSample` per VM per round, kept in per-VM lists
    (``traces``) and dispatched to listeners as a list."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.traces = {vm.name: [] for vm in self._vms}

    def _collect(self, now: float) -> None:
        if self.drop_rate == 0.0 and self._vms:
            self._collect_batched(now)
            return
        batch = []
        for vm in self._vms:
            trace = self.traces[vm.name]
            dropped = (
                self.drop_rate > 0.0
                and trace
                and self._rng.random() < self.drop_rate
            )
            if dropped:
                previous = trace[-1]
                sample = MetricSample(
                    vm=previous.vm,
                    timestamp=now,
                    values=dict(previous.values),
                    cpu_allocated=previous.cpu_allocated,
                    mem_allocated_mb=previous.mem_allocated_mb,
                    stale=True,
                )
            else:
                sample = self.sample_vm(vm, now)
            trace.append(sample)
            batch.append(sample)
        if self._interceptor is None:
            self._dispatch(batch)
        else:
            self._interceptor(batch, self._dispatch)

    def _collect_batched(self, now: float) -> None:
        vms = self._vms
        rows = []
        allocs = []
        for vm in vms:
            row, cpu_allocated, mem_allocated = self._raw_row(vm)
            rows.append(row)
            allocs.append((cpu_allocated, mem_allocated))
        noise = self._noise_mat
        if noise is None or noise.shape[0] != len(vms):
            noise = self._noise_mat = np.broadcast_to(
                self._noise_vec, (len(vms), self._noise_vec.size)
            )
        noisy = np.array(rows) + self._rng.normal(0.0, noise)
        np.maximum(noisy, 0.0, out=noisy)
        cpu_col = noisy[:, 0]
        np.minimum(cpu_col, 100.0, out=cpu_col)
        batch = []
        traces = self.traces
        for vm, (cpu_allocated, mem_allocated), values in zip(
            vms, allocs, noisy.tolist()
        ):
            sample = MetricSample(
                vm=vm.name,
                timestamp=now,
                values=dict(zip(ATTRIBUTES, values)),
                cpu_allocated=cpu_allocated,
                mem_allocated_mb=mem_allocated,
            )
            traces[vm.name].append(sample)
            batch.append(sample)
        if self._interceptor is None:
            self._dispatch(batch)
        else:
            self._interceptor(batch, self._dispatch)


class OracleTrainingBuffer:
    """One VM's own grow-and-compact training window, filled one
    :class:`MetricSample` at a time."""

    def __init__(
        self,
        slo,
        attributes: Sequence[str] = ATTRIBUTES,
        max_samples: int = 2000,
    ) -> None:
        self._slo = slo
        self.attributes = tuple(attributes)
        self.max_samples = max_samples
        capacity = 2 * max_samples
        n_attrs = len(self.attributes)
        self._values_buf = np.empty((capacity, n_attrs))
        self._times_buf = np.empty(capacity)
        self._cpu_buf = np.empty(capacity)
        self._mem_buf = np.empty(capacity)
        self._imputed_buf = np.empty(capacity, dtype=bool)
        self._start = 0
        self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    def append(self, sample: MetricSample) -> None:
        if self._end == self._values_buf.shape[0]:
            self._compact()
        i = self._end
        self._values_buf[i] = sample.vector(self.attributes)
        self._times_buf[i] = sample.timestamp
        self._cpu_buf[i] = sample.cpu_allocated
        self._mem_buf[i] = sample.mem_allocated_mb
        self._imputed_buf[i] = sample.imputed
        self._end = i + 1
        if self._end - self._start > self.max_samples:
            self._start = self._end - self.max_samples

    def _compact(self) -> None:
        n = self._end - self._start
        sl = slice(self._start, self._end)
        self._values_buf[:n] = self._values_buf[sl]
        self._times_buf[:n] = self._times_buf[sl]
        self._cpu_buf[:n] = self._cpu_buf[sl]
        self._mem_buf[:n] = self._mem_buf[sl]
        self._imputed_buf[:n] = self._imputed_buf[sl]
        self._start = 0
        self._end = n

    def window(self) -> Tuple[np.ndarray, ...]:
        """``(values, times, cpu, mem, imputed)`` of the live window."""
        sl = slice(self._start, self._end)
        return (self._values_buf[sl], self._times_buf[sl], self._cpu_buf[sl],
                self._mem_buf[sl], self._imputed_buf[sl])


class OracleIngest:
    """The controller's per-sample ingest: ``_sanitize_batch`` repairs a
    list of samples, then each lands in its VM's own buffer.  The
    counters stand in for ``prepare_imputed_samples_total`` and
    ``prepare_samples_ingested_total``."""

    def __init__(self, slo, names: Sequence[str], max_samples: int = 2000):
        self.buffers = {
            name: OracleTrainingBuffer(slo, max_samples=max_samples)
            for name in names
        }
        self._last_real: Dict[str, float] = {}
        self._last_values: Dict[str, Dict[str, float]] = {}
        self._last_alloc: Dict[str, Tuple[float, float]] = {}
        self.resilience_stats = {"imputed_samples": 0}
        self.imputed_by_vm: Dict[str, int] = {}
        self.ingested = 0

    def on_samples(self, batch: List[MetricSample], now: float) -> None:
        batch = self._sanitize_batch(batch, now)
        for sample in batch:
            buffer = self.buffers.get(sample.vm)
            if buffer is not None:
                buffer.append(sample)
        self.ingested += len(batch)

    def _count_imputed(self, vm: str) -> None:
        self.imputed_by_vm[vm] = self.imputed_by_vm.get(vm, 0) + 1

    def _sanitize_batch(
        self, batch: List[MetricSample], now: float
    ) -> List[MetricSample]:
        ts = batch[0].timestamp if batch else now
        out: List[MetricSample] = []
        seen = set()
        buffers = self.buffers
        last_values = self._last_values
        for sample in batch:
            vm = sample.vm
            if vm in buffers:
                seen.add(vm)
                if math.isfinite(sum(sample.values.values())):
                    self._last_real[vm] = sample.timestamp
                else:
                    last = last_values.get(vm, {})
                    fixed = {
                        name: value if math.isfinite(value)
                        else last.get(name, 0.0)
                        for name, value in sample.values.items()
                    }
                    sample = dataclasses.replace(
                        sample, values=fixed, imputed=True
                    )
                    self.resilience_stats["imputed_samples"] += 1
                    self._count_imputed(vm)
                last_values[vm] = sample.values
                self._last_alloc[vm] = (
                    sample.cpu_allocated, sample.mem_allocated_mb
                )
            out.append(sample)
        for name in self.buffers:
            if name in seen:
                continue
            last = self._last_values.get(name)
            if last is None:
                continue  # no real contact yet: nothing to impute from
            cpu, mem = self._last_alloc[name]
            out.append(
                MetricSample(
                    vm=name, timestamp=ts, values=dict(last),
                    cpu_allocated=cpu, mem_allocated_mb=mem,
                    stale=True, imputed=True,
                )
            )
            self.resilience_stats["imputed_samples"] += 1
            self._count_imputed(name)
        return out
