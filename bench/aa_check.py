#!/usr/bin/env python3
"""A/A check: is the benchmark steady enough to gate on?

Runs every workload ``--k`` times on the same code, exactly as the
driver does (one process per run, each run another ``--seed``), with
the workload order reversed on every other round so a drifting host
does not always hit the same workload.  For each end-to-end metric it
prints the median, the quartiles and the spread — the interquartile
distance as a share of the median — and fails if a spread exceeds the
metric's bound (``setup_s`` is reported but not gated, as in the
driver's rule).  With ``--sets 2`` it does all of that twice and also
fails if the second set's median is worse than the first's by more
than the bound.

    python3 bench/aa_check.py --k 10 --sets 2

Observed spreads go to ``bench/out/aa.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench import spec  # noqa: E402
from bench.stats import spread  # noqa: E402


def _run(workload: str, seed: int, seconds: float) -> Optional[Dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: exit code {done.returncode}")
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} operations failed")
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def run_set(workloads: List[str], k: int, first_seed: int, seconds: float
            ) -> Optional[Dict[str, Dict[str, List[float]]]]:
    values: Dict[str, Dict[str, List[float]]] = {
        w: {m: [] for m, *_ in spec.END_TO_END} for w in workloads}
    for r in range(k):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for workload in order:
            metrics = _run(workload, first_seed + r, seconds)
            if metrics is None:
                return None
            for name, value in metrics.items():
                values[workload][name].append(value)
        print(f"round {r + 1}/{k} done", flush=True)
    return values


def summarise(values: Dict[str, Dict[str, List[float]]]) -> Dict:
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload, metrics in values.items():
        out[workload] = {}
        for name, series in metrics.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            out[workload][name] = {
                "median": statistics.median(series), "q1": q1, "q3": q3,
                "spread": spread(series), "values": series,
            }
    return out


def report(summary: Dict) -> bool:
    """Print the table; True when every gated spread is within bound."""
    ok = True
    for workload, metrics in summary.items():
        print(f"== {workload}")
        for name, unit, _, bound in spec.END_TO_END:
            s = metrics[name]
            gated = name != "setup_s"
            over = gated and s["spread"] > bound
            ok &= not over
            print(f"    {name:<20} median {s['median']:>12.4f} {unit:<4}"
                  f" q1 {s['q1']:>12.4f} q3 {s['q3']:>12.4f}"
                  f" spread {s['spread']:.4f} / bound {bound:.2f}"
                  + ("  OVER" if over else "" if gated else "  (not gated)"))
    return ok


def medians_agree(first: Dict, second: Dict) -> bool:
    ok = True
    for workload in first:
        for name, _, better, bound in spec.END_TO_END:
            a = first[workload][name]["median"]
            b = second[workload][name]["median"]
            worse = (b / a - 1.0) if better == "lower" else (a / b - 1.0)
            if worse > bound:
                ok = False
                print(f"  {workload} {name}: second set's median is "
                      f"{100 * worse:.1f}% worse than the first's "
                      f"(bound {100 * bound:.0f}%)")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=10,
                        help="runs per workload per set (>= 3)")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=float,
                        default=float(spec.RUN_SECONDS))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(spec.WORKLOAD_NAMES))
    parser.add_argument("--out", type=Path,
                        default=ROOT / "bench" / "out" / "aa.json")
    args = parser.parse_args(argv)
    if args.k < 3:
        parser.error("--k must be at least 3")
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(spec.WORKLOAD_NAMES)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")

    ok = True
    summaries = []
    for s in range(args.sets):
        print(f"=== set {s + 1} of {args.sets}", flush=True)
        values = run_set(workloads, args.k, args.first_seed + s * args.k,
                         args.seconds)
        if values is None:
            return 1
        summaries.append(summarise(values))
        ok &= report(summaries[-1])
    if args.sets == 2:
        ok &= medians_agree(*summaries)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"k": args.k, "seconds": args.seconds, "sets": summaries},
        indent=2, sort_keys=True) + "\n")
    print(f"{'steady' if ok else 'NOT steady'}; wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
