"""Microbenchmark utilities: timing, result files, regression checks.

The perf work in this repo (cached transition operators, tensorized
look-ahead, batch TAN scoring — see ``docs/performance.md``) is only
trustworthy if its effect is *recorded*: ``benchmarks/perf_prediction.py``
uses these helpers to time the train/predict/classify data path and
emit a ``BENCH_*.json`` snapshot, and ``scripts/bench_compare.py``
diffs two snapshots so CI can fail on regressions.

A result file is plain JSON::

    {
      "meta":    {...free-form context: fleet sizes, shapes, host...},
      "results": {"<name>": {"median_s": .., "min_s": .., "mean_s": ..,
                             "repeats": ..}, ...}
    }

Only ``results.<name>.median_s`` participates in comparisons — medians
are robust to the occasional scheduler hiccup that ruins means.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping

__all__ = [
    "time_call",
    "write_results",
    "read_results",
    "compare_results",
    "format_results",
]

#: Comparison tolerance: a benchmark has regressed when its median
#: grows by more than this fraction over the baseline.
DEFAULT_REGRESSION_THRESHOLD = 0.20


def time_call(
    fn: Callable[[], Any], repeats: int = 5, warmup: int = 1
) -> Dict[str, float]:
    """Wall-clock ``fn()`` and return summary statistics in seconds.

    ``warmup`` un-timed calls absorb one-time costs (cache fills, lazy
    imports) so the repeats measure steady-state behaviour — which is
    what an every-5-seconds data path actually runs in.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return _summarize(samples)


def _summarize(samples: List[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        median = ordered[mid]
    else:
        median = 0.5 * (ordered[mid - 1] + ordered[mid])
    return {
        "median_s": median,
        "min_s": ordered[0],
        "mean_s": sum(samples) / len(samples),
        "repeats": float(len(samples)),
    }


def write_results(
    path: "str | Path",
    results: Mapping[str, Mapping[str, float]],
    meta: Mapping[str, Any],
) -> None:
    """Write a benchmark result file (see module docstring format)."""
    payload = {"meta": dict(meta), "results": {
        name: dict(stats) for name, stats in results.items()
    }}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_results(path: "str | Path") -> Dict[str, Any]:
    """Read and validate a benchmark result file."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "results" not in payload:
        raise ValueError(f"{path}: not a benchmark result file (no 'results')")
    for name, stats in payload["results"].items():
        if "median_s" not in stats:
            raise ValueError(f"{path}: result {name!r} has no 'median_s'")
    return payload


def compare_results(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> List[str]:
    """Diff two result payloads; return regression messages.

    A benchmark present in both files regresses when its candidate
    median exceeds the baseline median by more than ``threshold``
    (fractional).  Benchmarks present in only one file are reported as
    informational, not as regressions.  Empty list = no regressions.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    regressions: List[str] = []
    base, cand = baseline["results"], candidate["results"]
    for name in sorted(set(base) & set(cand)):
        b, c = base[name]["median_s"], cand[name]["median_s"]
        if b <= 0:
            continue
        ratio = c / b
        if ratio > 1.0 + threshold:
            regressions.append(
                f"{name}: {b * 1e3:.3f} ms -> {c * 1e3:.3f} ms "
                f"({(ratio - 1.0) * 100.0:+.1f}%, threshold "
                f"+{threshold * 100.0:.0f}%)"
            )
    return regressions


def format_results(payload: Mapping[str, Any]) -> str:
    """Human-readable table of one result payload."""
    lines = []
    for name in sorted(payload["results"]):
        stats = payload["results"][name]
        lines.append(
            f"{name:<40s} median {stats['median_s'] * 1e3:9.3f} ms   "
            f"min {stats['min_s'] * 1e3:9.3f} ms"
        )
    return "\n".join(lines)
