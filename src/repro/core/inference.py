"""Online anomaly cause inference (paper Sec. II-C).

After an alert survives the k-of-W filter, PREPARE answers two
questions before acting:

1. **Which VMs are faulty?**  Because prediction models are per-VM,
   the faulty components are simply the VMs whose models raised the
   (confirmed) alert.
2. **Which metrics on those VMs relate to the anomaly?**  The TAN
   attribute-impact strengths L_i of Eq. (2), ranked descending
   (Fig. 3) — the list the prevention actuator walks down.

Additionally, a **workload change** (an external cause) is told apart
from an internal fault by checking whether *all* application components
exhibit simultaneous change points in some system metric (Sec. II-C,
citing the PAL localization work [13]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.predictor import PredictionResult

__all__ = [
    "Diagnosis",
    "CauseInference",
    "detect_change_point",
]


def detect_change_point(
    window: np.ndarray, threshold: float = 4.5, min_samples: int = 6
) -> bool:
    """Mean-shift change-point test on one attribute's recent window.

    Splits the window in half and flags a change when the means differ
    by more than ``threshold`` standard errors of the pooled per-half
    spread.  Small and cheap — the role it plays in PREPARE is a
    coarse simultaneity check, not precise localization.
    """
    values = np.asarray(window, dtype=float)
    if values.ndim != 1 or values.size < min_samples:
        return False
    return bool(_mean_shift(values, threshold))


def _mean_shift(columns: np.ndarray, threshold: float) -> np.ndarray:
    """The half-split mean-shift test along the last (time) axis.

    ``columns`` must keep time innermost and contiguous: every
    reduction then sums one 1-D run pairwise, exactly as a lone column
    does, so a stacked ``(component, attribute, time)`` array decides
    bitwise what each column would alone.  The ``np.where`` forms are
    Python's ``max(a, b)`` (``a`` unless ``b > a``), NaN included.
    """
    half = columns.shape[-1] // 2
    first, second = columns[..., :half], columns[..., half:]
    pooled = np.sqrt(0.5 * (first.var(axis=-1) + second.var(axis=-1)))
    level = np.abs(columns.mean(axis=-1))
    floor = 1e-3 * np.where(1.0 > level, 1.0, level)
    scale = np.where(floor > pooled, floor, pooled)
    shift = np.abs(second.mean(axis=-1) - first.mean(axis=-1))
    return shift > threshold * scale / np.sqrt(half)


@dataclass(frozen=True)
class Diagnosis:
    """The actionable output of cause inference."""

    timestamp: float
    #: VMs whose models alerted, most anomalous first.
    faulty_vms: Tuple[str, ...]
    #: Per faulty VM: metrics ranked by TAN impact strength (Eq. 2).
    ranked_metrics: Mapping[str, Tuple[Tuple[str, float], ...]]
    #: True when the change-point simultaneity check points at an
    #: external workload change rather than an internal fault.
    workload_change: bool = False

    def top_metric(self, vm: str) -> Optional[str]:
        ranking = self.ranked_metrics.get(vm)
        if not ranking:
            return None
        return ranking[0][0]


class CauseInference:
    """Builds :class:`Diagnosis` objects from per-VM prediction results."""

    def __init__(self, change_threshold: float = 4.5) -> None:
        #: The simultaneity check takes a max over 13 attributes per
        #: VM, so the threshold must sit above the multiple-comparison
        #: noise floor (max-z of 13 independent noise attributes is
        #: routinely 3-3.7) while staying below the shift a genuine
        #: workload ramp produces on every component (z >= ~5).
        self.change_threshold = change_threshold

    def diagnose(
        self,
        timestamp: float,
        results: Mapping[str, PredictionResult],
        recent_windows: Optional[Mapping[str, np.ndarray]] = None,
    ) -> Diagnosis:
        """Identify faulty VMs and their anomaly-related metrics.

        ``results`` maps VM name to that VM's latest prediction;
        ``recent_windows`` optionally maps VM name to a recent raw
        value matrix (n_samples, n_attributes) for the workload-change
        check.
        """
        alerting = [
            (vm, result) for vm, result in results.items() if result.abnormal
        ]
        # Most anomalous first: order by classifier log-odds (the
        # posterior probability saturates at 1.0 and cannot break ties).
        alerting.sort(key=lambda kv: (-kv[1].score, kv[0]))
        ranked: Dict[str, Tuple[Tuple[str, float], ...]] = {}
        for vm, result in alerting:
            ranked[vm] = tuple(result.ranked_attributes())
        workload_change = False
        if recent_windows is not None:
            workload_change = self.is_workload_change(recent_windows)
        return Diagnosis(
            timestamp=timestamp,
            faulty_vms=tuple(vm for vm, _result in alerting),
            ranked_metrics=ranked,
            workload_change=workload_change,
        )

    def is_workload_change(
        self, recent_windows: Mapping[str, np.ndarray]
    ) -> bool:
        """All components show a simultaneous change point in some metric.

        An internal fault perturbs only the faulty VM(s); an external
        workload change flows through every component of the
        application (Sec. II-C).
        """
        return _fraction_changed(
            recent_windows, self.change_threshold, min_samples=6
        ) >= 1.0


def _fraction_changed(
    recent_windows: Mapping[str, np.ndarray],
    threshold: float,
    min_samples: int,
) -> float:
    """Fraction of components showing a change point in some metric.

    Returns -1.0 (never passes a fraction test) when there are no
    windows or any window is too short/misshapen — a partial view must
    not be mistaken for fleet-wide agreement.  Windows of one shape are
    scanned together as one ``(component, attribute, time)`` stack.
    """
    if not recent_windows:
        return -1.0
    groups: Dict[Tuple[int, ...], List[np.ndarray]] = {}
    for window in recent_windows.values():
        matrix = np.asarray(window, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] < min_samples:
            return -1.0
        groups.setdefault(matrix.shape, []).append(matrix)
    changed = 0
    for group in groups.values():
        columns = np.ascontiguousarray(np.stack(group).transpose(0, 2, 1))
        changed += int(_mean_shift(columns, threshold).any(axis=1).sum())
    return changed / len(recent_windows)
