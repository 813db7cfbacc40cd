"""Order statistics the benchmark reports.

Every timed metric is a median over inner repeats or segments (the
host's CPU speed drifts by about a tenth over tens of seconds), and a
tail percentile is only quoted when the sample supports it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

__all__ = ["percentile", "median", "tail_quantile", "segment_medians",
           "spread"]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (``0 <= q <= 1``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def tail_quantile(n: int) -> float:
    """The highest quantile, at most 0.95, with ten samples beyond it.

    A sample of fewer than twenty supports nothing above its median, so
    that is what ``latency_tail_ms`` reads on workloads whose operation
    is a whole cell or a whole restart.
    """
    if n < 20:
        return 0.5
    return min(0.95, 1.0 - 10.0 / n)


def segment_medians(
    values: Sequence[float],
    segments: Sequence[int],
    quantiles: Sequence[float],
) -> Dict[float, float]:
    """Median over segments of each per-segment quantile.

    ``segments[i]`` is the segment ``values[i]`` belongs to.  One slow
    second moves one segment's percentile, not the reported one.
    """
    if len(values) != len(segments):
        raise ValueError("values and segments differ in length")
    groups: Dict[int, List[float]] = {}
    for value, segment in zip(values, segments):
        groups.setdefault(segment, []).append(value)
    if not groups:
        raise ValueError("no segments")
    return {
        q: median([percentile(group, q) for group in groups.values()])
        for q in quantiles
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")
