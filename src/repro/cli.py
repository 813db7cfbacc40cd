"""Command-line interface.

Exposes the experiment harness without writing Python::

    prepare-repro run --app rubis --fault memory_leak --scheme prepare
    prepare-repro reproduce fig6 --repeats 2
    prepare-repro reproduce table1
    prepare-repro accuracy --app system-s --fault memory_leak
    prepare-repro leadtime
    prepare-repro telemetry --app rubis --output-dir runs/tele
    prepare-repro campaign spec.json --jobs 4 --checkpoint runs/camp
    prepare-repro campaign spec.json --checkpoint runs/camp --resume
    prepare-repro chaos --metric-drop 0.1,0.2 --verb-failure 0.25
    prepare-repro serve --registry runs/registry --name prod --socket /tmp/s
    prepare-repro replay trace.npz --socket /tmp/s --rate 500
    prepare-repro models --registry runs/registry
    prepare-repro models promote --registry runs/registry --name prod --version 2
    prepare-repro models rollback --registry runs/registry --name prod
    prepare-repro models status --registry runs/registry

``telemetry`` runs one scenario with the full observability layer
attached and exports metrics (Prometheus text), the span trace and the
run-telemetry record (JSONL).  ``campaign`` expands a declarative
scenario grid (see ``docs/experiments.md``) into independent jobs,
shards them over a worker pool, and checkpoints per-job results so an
interrupted campaign resumes instead of recomputing.  ``chaos`` builds
and runs such a grid directly from flags: every job is an experiment
under injected infrastructure faults with the resilient control plane
armed (see ``docs/resilience.md``).  ``serve`` / ``replay`` / ``models``
drive the online serving layer: start a streaming scorer from a model
registry snapshot, load-test it with a recorded trace, and manage the
stored snapshots — including the champion pointer that continuous
learning promotes and rolls back (see ``docs/serving.md``).

Also runnable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.faults.base import FaultKind

__all__ = ["main", "build_parser"]

_FIGURES = (
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "table1",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prepare-repro",
        description="PREPARE (ICDCS 2012) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--app", choices=("system-s", "rubis"), default="rubis")
    run.add_argument(
        "--fault", choices=[k.value for k in FaultKind], default="memory_leak"
    )
    run.add_argument(
        "--scheme", choices=("prepare", "reactive", "none"), default="prepare"
    )
    run.add_argument(
        "--mode", choices=("scaling", "migration", "auto"), default="scaling"
    )
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--duration", type=float, default=1500.0)
    run.add_argument("--json", action="store_true",
                     help="print machine-readable output")

    rep = sub.add_parser("reproduce", help="regenerate a paper artifact")
    rep.add_argument("artifact", choices=_FIGURES)
    rep.add_argument("--repeats", type=int, default=2,
                     help="replicates per cell (fig6/fig8)")
    rep.add_argument("--seed", type=int, default=None)

    acc = sub.add_parser("accuracy", help="trace-driven A_T/A_F sweep")
    acc.add_argument("--app", choices=("system-s", "rubis"),
                     default="system-s")
    acc.add_argument(
        "--fault", choices=[k.value for k in FaultKind], default="memory_leak"
    )
    acc.add_argument("--model", choices=("per-vm", "monolithic"),
                     default="per-vm")
    acc.add_argument("--markov", choices=("2dep", "simple"), default="2dep")
    acc.add_argument("--seed", type=int, default=2)

    sub.add_parser("leadtime", help="alert lead time per fault kind")

    tel = sub.add_parser(
        "telemetry",
        help="run one scenario with full observability and export "
             "metrics, trace, and run telemetry",
    )
    tel.add_argument("--app", choices=("system-s", "rubis"), default="rubis")
    tel.add_argument(
        "--fault", choices=[k.value for k in FaultKind], default="memory_leak"
    )
    tel.add_argument(
        "--scheme", choices=("prepare", "reactive", "none"), default="prepare"
    )
    tel.add_argument(
        "--mode", choices=("scaling", "migration", "auto"), default="scaling"
    )
    tel.add_argument("--seed", type=int, default=11)
    tel.add_argument("--duration", type=float, default=1500.0)
    tel.add_argument(
        "--output-dir", default=None,
        help="write metrics.prom, trace.jsonl and telemetry.jsonl here",
    )
    tel.add_argument(
        "--input", default=None, metavar="JSONL",
        help="render an existing telemetry JSONL file instead of running",
    )
    tel.add_argument("--json", action="store_true",
                     help="print the telemetry record(s) as JSON lines")

    camp = sub.add_parser(
        "campaign",
        help="expand a scenario-grid spec into jobs and run them on a "
             "worker pool with checkpoint/resume",
    )
    camp.add_argument("spec", help="campaign spec JSON (see docs/experiments.md)")
    camp.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes (results are identical for any N)")
    camp.add_argument("--checkpoint", default=None, metavar="DIR",
                      help="stream per-job records + manifest here")
    camp.add_argument("--resume", action="store_true",
                      help="skip jobs already completed in the checkpoint")
    camp.add_argument("--limit", type=int, default=None, metavar="N",
                      help="run at most N pending jobs, then stop cleanly")
    camp.add_argument("--expand", action="store_true",
                      help="print the expanded job grid and exit")
    camp.add_argument("--json", action="store_true",
                      help="print the summary (or grid) as JSON")
    camp.add_argument("--quiet", action="store_true",
                      help="suppress the per-job progress line")

    cha = sub.add_parser(
        "chaos",
        help="run a chaos campaign: experiments under injected "
             "infrastructure faults (metric drops, verb failures, host "
             "flaps) with the resilient control plane armed",
    )
    cha.add_argument("--app", choices=("system-s", "rubis"), default="rubis")
    cha.add_argument(
        "--fault", choices=[k.value for k in FaultKind], default="memory_leak"
    )
    cha.add_argument(
        "--scheme", choices=("prepare", "reactive", "none"), default="prepare"
    )
    cha.add_argument(
        "--mode", choices=("scaling", "migration", "auto"), default="auto"
    )
    cha.add_argument(
        "--metric-drop", default="0.1", metavar="R[,R...]",
        help="metric batch drop rate axis (comma-separated floats)",
    )
    cha.add_argument(
        "--verb-failure", default="0.25", metavar="R[,R...]",
        help="hypervisor verb failure rate axis (comma-separated floats)",
    )
    cha.add_argument("--verb-timeout", type=float, default=0.05,
                     help="verb completion-loss rate")
    cha.add_argument("--verb-late", type=float, default=0.05,
                     help="verb late-completion rate")
    cha.add_argument("--corrupt", type=float, default=0.05,
                     help="per-sample NaN corruption rate")
    cha.add_argument("--delay", type=float, default=0.0,
                     help="batch delayed-delivery rate")
    cha.add_argument("--blackout", type=float, default=0.01,
                     help="per-sample VM blackout-start rate")
    cha.add_argument("--flap", type=float, default=0.0,
                     help="per-check host capacity flap rate")
    cha.add_argument("--chaos-seed", type=int, default=5,
                     help="chaos spec seed (fault-sequence identity)")
    cha.add_argument("--seed", type=int, default=11,
                     help="first experiment seed")
    cha.add_argument("--seeds", type=int, default=1, metavar="N",
                     help="seed axis length (seed, seed+101, ...)")
    cha.add_argument(
        "--short", action="store_true",
        help="short protocol (700 s run, 150 s injections) for smokes",
    )
    cha.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (results are identical for any N)")
    cha.add_argument("--checkpoint", default=None, metavar="DIR",
                     help="stream per-job records + manifest here")
    cha.add_argument("--resume", action="store_true",
                     help="skip jobs already completed in the checkpoint")
    cha.add_argument("--limit", type=int, default=None, metavar="N",
                     help="run at most N pending jobs, then stop cleanly")
    cha.add_argument("--expand", action="store_true",
                     help="print the expanded job grid and exit")
    cha.add_argument("--json", action="store_true",
                     help="print the summary (or grid) as JSON")
    cha.add_argument("--quiet", action="store_true",
                     help="suppress the per-job progress line")

    rep_all = sub.add_parser(
        "report", help="regenerate the whole evaluation into a directory"
    )
    rep_all.add_argument("output_dir")
    rep_all.add_argument("--repeats", type=int, default=2)
    rep_all.add_argument("--quick", action="store_true",
                         help="trim replicates and skip the slowest artifacts")

    srv = sub.add_parser(
        "serve",
        help="start the streaming prediction service from a registry "
             "snapshot (newline-JSON over TCP or a unix socket)",
    )
    srv.add_argument("--registry", required=True, metavar="DIR",
                     help="model registry root (see docs/serving.md)")
    srv.add_argument("--name", required=True,
                     help="snapshot name to serve")
    srv.add_argument("--version", type=int, default=None,
                     help="snapshot version (default: latest)")
    srv.add_argument("--socket", default=None, metavar="PATH",
                     help="listen on a unix socket instead of TCP")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7171)
    srv.add_argument("--steps", type=int, default=4,
                     help="default look-ahead steps per sample")
    srv.add_argument("--batch-window", type=float, default=0.002,
                     help="micro-batch accumulation window (seconds)")
    srv.add_argument("--max-batch", type=int, default=128,
                     help="samples per dispatcher flush")
    srv.add_argument("--max-pending", type=int, default=1024,
                     help="queued samples before shedding")

    fab = sub.add_parser(
        "fabric",
        help="start the fault-tolerant sharded serving fabric: N "
             "supervised worker processes behind one scoring endpoint "
             "(crash recovery via per-shard WALs)",
    )
    fab.add_argument("--registry", required=True, metavar="DIR",
                     help="model registry root (see docs/serving.md)")
    fab.add_argument("--name", required=True,
                     help="snapshot name to serve")
    fab.add_argument("--version", type=int, default=None,
                     help="snapshot version (default: champion pointer, "
                          "else latest)")
    fab.add_argument("--run-dir", required=True, metavar="DIR",
                     help="fabric state directory (per-shard WALs and "
                          "worker sockets)")
    fab.add_argument("--workers", type=int, default=3,
                     help="worker processes / shards (default %(default)s)")
    fab.add_argument("--socket", default=None, metavar="PATH",
                     help="listen on a unix socket instead of TCP")
    fab.add_argument("--host", default="127.0.0.1")
    fab.add_argument("--port", type=int, default=7171)
    fab.add_argument("--steps", type=int, default=4,
                     help="default look-ahead steps per sample")
    fab.add_argument("--batch-window", type=float, default=0.002,
                     help="worker micro-batch window (seconds)")
    fab.add_argument("--max-batch", type=int, default=128,
                     help="samples per worker dispatcher flush")
    fab.add_argument("--max-pending", type=int, default=1024,
                     help="queued samples per worker before shedding")

    rpl = sub.add_parser(
        "replay",
        help="stream a saved trace dataset against a running service "
             "and report throughput, tail latency, and alert parity",
    )
    rpl.add_argument("dataset", help="trace dataset .npz "
                     "(see experiments/persistence.py)")
    rpl.add_argument("--socket", default=None, metavar="PATH",
                     help="connect to a unix socket instead of TCP")
    rpl.add_argument("--host", default="127.0.0.1")
    rpl.add_argument("--port", type=int, default=7171)
    rpl.add_argument("--steps", type=int, default=4)
    rpl.add_argument("--rate", type=float, default=0.0,
                     help="target samples/second (0 = as fast as possible)")
    rpl.add_argument("--repeat", type=int, default=1,
                     help="stream the trace this many times")
    rpl.add_argument("--frame", type=int, default=1,
                     help="samples per batch request line (1 = one "
                          "sample per line)")
    rpl.add_argument("--response-timeout", type=float, default=30.0,
                     help="per-reply deadline in seconds; unanswered "
                          "samples are reported as timeouts (0 = wait "
                          "forever)")
    rpl.add_argument("--registry", default=None, metavar="DIR",
                     help="with --name: verify alert parity against the "
                          "snapshot's offline decisions")
    rpl.add_argument("--name", default=None,
                     help="registry snapshot for the parity check")
    rpl.add_argument("--version", type=int, default=None)
    rpl.add_argument("--json", action="store_true",
                     help="print the replay report as JSON")

    mdl = sub.add_parser(
        "models", help="list/promote/rollback model-registry snapshots"
    )
    mdl.add_argument("action", nargs="?", default="list",
                     choices=("list", "promote", "rollback", "status"),
                     help="list snapshots (default), move the champion "
                          "pointer, roll it back, or show the active "
                          "champion per name")
    mdl.add_argument("--registry", required=True, metavar="DIR",
                     help="model registry root")
    mdl.add_argument("--name", default=None,
                     help="model name (required for promote/rollback)")
    mdl.add_argument("--version", type=int, default=None,
                     help="with promote: version to make champion")
    mdl.add_argument("--json", action="store_true",
                     help="print the result as JSON")

    apa = sub.add_parser(
        "api",
        help="start the operator HTTP/WebSocket API (alarms, fleet "
             "health, model status, /metrics) over a registry snapshot",
    )
    apa.add_argument("--registry", required=True, metavar="DIR",
                     help="model registry root")
    apa.add_argument("--name", required=True,
                     help="snapshot name to serve")
    apa.add_argument("--version", type=int, default=None,
                     help="snapshot version (default: champion pointer, "
                          "else latest)")
    apa.add_argument("--host", default="127.0.0.1",
                     help="API bind address (default %(default)s)")
    apa.add_argument("--port", type=int, default=8787,
                     help="API port (default %(default)s)")
    apa.add_argument("--serve-socket", default=None, metavar="PATH",
                     help="also expose the newline-JSON scoring protocol "
                          "on this unix socket")
    apa.add_argument("--serve-port", type=int, default=0,
                     help="also expose the scoring protocol on this TCP "
                          "port (0 = API only)")
    apa.add_argument("--steps", type=int, default=4,
                     help="default look-ahead steps per sample")

    alm = sub.add_parser(
        "alarms",
        help="list and drive alarms on a running operator API "
             "(see `repro api`)",
    )
    alm.add_argument("action", nargs="?", default="list",
                     choices=("list", "ack", "silence", "escalate",
                              "resolve", "raise"),
                     help="list alarms (default) or drive one through "
                          "its lifecycle")
    alm.add_argument("--url", default="http://127.0.0.1:8787",
                     help="operator API base URL (default %(default)s)")
    alm.add_argument("--id", type=int, default=None, dest="alarm_id",
                     help="alarm id (required for ack/silence/escalate/"
                          "resolve)")
    alm.add_argument("--state", default=None,
                     help="with list: only alarms in this state")
    alm.add_argument("--duration", type=float, default=300.0,
                     help="with silence: mute window in seconds "
                          "(default %(default)s)")
    alm.add_argument("--vm", default=None,
                     help="with raise: VM the alarm is about")
    alm.add_argument("--kind", default=None,
                     help="with raise: anomaly type (dedup key with --vm)")
    alm.add_argument("--severity", default="warning",
                     choices=("info", "warning", "critical"))
    alm.add_argument("--message", default="",
                     help="with raise: human-readable context")
    alm.add_argument("--json", action="store_true",
                     help="print the API response as JSON")

    prof = sub.add_parser(
        "profile",
        help="cProfile one campaign cell and report where time goes",
    )
    prof.add_argument("--app", default="fleet50",
                      help="scenario app (default %(default)s)")
    prof.add_argument(
        "--fault", choices=[k.value for k in FaultKind],
        default="memory_leak",
    )
    prof.add_argument(
        "--scheme", choices=("prepare", "reactive", "none"),
        default="prepare",
    )
    prof.add_argument("--seed", type=int, default=7)
    prof.add_argument("--duration", type=float, default=3600.0)
    prof.add_argument("--injections", type=int, default=3,
                      help="fault injections over the run")
    prof.add_argument("--top", type=int, default=25,
                      help="functions shown in the cumulative table")
    prof.add_argument(
        "--output", metavar="FILE", default=None,
        help="also dump raw pstats data for snakeviz/pstats",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        app=args.app,
        fault=FaultKind(args.fault),
        scheme=args.scheme,
        action_mode=args.mode,
        seed=args.seed,
        duration=args.duration,
    ))
    if args.json:
        payload = {
            "violation_time": result.violation_time,
            "per_injection_violation": result.per_injection_violation,
            "proactive_actions": result.proactive_actions,
            "actions": [
                {
                    "t": action.timestamp,
                    "vm": action.vm,
                    "verb": action.verb,
                    "resource": str(action.resource),
                    "metric": action.metric,
                    "proactive": action.proactive,
                }
                for action in result.actions
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"SLO violation time: {result.violation_time:.0f} s "
          f"(per injection: {result.per_injection_violation})")
    print(f"prevention actions: {len(result.actions)} "
          f"({result.proactive_actions} prediction-triggered)")
    for action in result.actions:
        trigger = "predicted" if action.proactive else "reactive"
        print(f"  t={action.timestamp:7.1f}s {action.vm:8s} {action.verb:7s} "
              f"{str(action.resource):6s} metric={action.metric} [{trigger}]")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import (
        fig6_scaling_prevention,
        fig7_scaling_traces,
        fig8_migration_prevention,
        fig9_migration_traces,
        fig10_per_component_vs_monolithic,
        fig11_markov_comparison,
        fig12_alert_filtering,
        fig13_sampling_intervals,
        render_accuracy_series,
        render_overhead_table,
        render_trace_panel,
        render_violation_table,
        table1_overhead,
    )

    seed = args.seed
    if args.artifact == "fig6":
        data = fig6_scaling_prevention(repeats=args.repeats,
                                       seed=seed if seed is not None else 11)
        print(render_violation_table(data, "Fig. 6 (scaling prevention)"))
    elif args.artifact == "fig8":
        data = fig8_migration_prevention(repeats=args.repeats,
                                         seed=seed if seed is not None else 11)
        print(render_violation_table(data, "Fig. 8 (migration prevention)"))
    elif args.artifact in ("fig7", "fig9"):
        generator = (fig7_scaling_traces if args.artifact == "fig7"
                     else fig9_migration_traces)
        panels = generator(seed=seed if seed is not None else 11)
        for label, panel in panels.items():
            print(render_trace_panel(panel, f"{args.artifact}: {label}"))
            print()
    elif args.artifact == "fig10":
        data = fig10_per_component_vs_monolithic(
            seed=seed if seed is not None else 2)
        for label, series in data.items():
            print(render_accuracy_series(series, f"fig10: {label}"))
            print()
    elif args.artifact == "fig11":
        data = fig11_markov_comparison()
        for label, series in data.items():
            print(render_accuracy_series(series, f"fig11: {label}"))
            print()
    elif args.artifact == "fig12":
        data = fig12_alert_filtering(seed=seed if seed is not None else 2)
        print(render_accuracy_series(data, "fig12: k-of-W filtering"))
    elif args.artifact == "fig13":
        data = fig13_sampling_intervals(seed=seed if seed is not None else 2)
        print(render_accuracy_series(data, "fig13: sampling intervals"))
    elif args.artifact == "table1":
        print(render_overhead_table(table1_overhead()))
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from repro.experiments import (
        accuracy_vs_lookahead,
        collect_trace,
        render_accuracy_series,
    )

    dataset = collect_trace(args.app, FaultKind(args.fault), seed=args.seed)
    results = accuracy_vs_lookahead(
        dataset, model=args.model, markov=args.markov,
        prediction_mode="hard", class_prior="empirical",
    )
    series = {
        f"{args.model}/{args.markov}": {
            "lookahead": [r.lookahead for r in results],
            "A_T": [100.0 * r.true_positive_rate for r in results],
            "A_F": [100.0 * r.false_alarm_rate for r in results],
        }
    }
    print(render_accuracy_series(
        series, f"accuracy: {args.fault} on {args.app}"
    ))
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.obs import render_telemetry, read_telemetry_jsonl

    if args.input is not None:
        records = read_telemetry_jsonl(args.input)
        for record in records:
            if args.json:
                print(record.to_json_line())
            else:
                print(render_telemetry(record))
                print()
        return 0

    from pathlib import Path

    from repro.experiments import ExperimentConfig, run_experiment
    from repro.obs import write_telemetry_jsonl

    result = run_experiment(ExperimentConfig(
        app=args.app,
        fault=FaultKind(args.fault),
        scheme=args.scheme,
        action_mode=args.mode,
        seed=args.seed,
        duration=args.duration,
        telemetry=True,
    ))
    telemetry, obs = result.telemetry, result.observability
    if args.json:
        print(telemetry.to_json_line())
    else:
        print(render_telemetry(telemetry))
    if args.output_dir is not None:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.prom").write_text(obs.metrics.render_prometheus())
        obs.tracer.write_jsonl(out / "trace.jsonl")
        write_telemetry_jsonl(out / "telemetry.jsonl", telemetry)
        if not args.json:
            print(f"\nwrote {out / 'metrics.prom'}, {out / 'trace.jsonl'}, "
                  f"{out / 'telemetry.jsonl'}")
    return 0


def _drive_campaign(spec, args: argparse.Namespace) -> int:
    """Shared campaign driver behind ``campaign`` and ``chaos``:
    expand/run ``spec`` honouring the common flags (--expand, --jobs,
    --checkpoint, --resume, --limit, --json, --quiet)."""
    from repro.experiments.campaign import (
        render_campaign_summary,
        run_campaign,
    )

    grid = spec.expand()
    if args.expand:
        if args.json:
            print(json.dumps(
                [{"job_id": job.job_id, "index": job.index,
                  "kind": job.kind, "params": job.params} for job in grid],
                indent=1,
            ))
        else:
            print(f"campaign {spec.name!r}: {len(grid)} jobs "
                  f"(kind={spec.kind})")
            for job in grid:
                print(f"  [{job.index:3d}] {job.job_id} {job.label()}")
        return 0

    def progress(done: int, total: int, job, error) -> None:
        if args.quiet:
            return
        status = f"FAILED: {error}" if error else "ok"
        print(f"[{done}/{total}] {job.job_id} {job.label()} {status}",
              flush=True)

    report = run_campaign(
        spec,
        checkpoint_dir=args.checkpoint,
        jobs=args.jobs,
        resume=args.resume,
        limit=args.limit,
        progress=progress,
    )
    if args.json:
        print(json.dumps(report.summary, indent=1, sort_keys=True))
    else:
        if report.skipped:
            print(f"resumed: {len(report.skipped)} jobs already complete")
        print(render_campaign_summary(report.summary))
        if not report.complete:
            remaining = report.total - len(report.records)
            print(f"{remaining} jobs remaining — rerun with --resume "
                  f"to continue")
    for job_id, error in report.failed.items():
        print(f"FAILED {job_id}: {error}", file=sys.stderr)
    return 1 if report.failed else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import CampaignSpec

    return _drive_campaign(CampaignSpec.from_file(args.spec), args)


def _chaos_campaign_spec(args: argparse.Namespace):
    """Build the chaos campaign grid a ``repro chaos`` invocation asks
    for: scalar policy rates in the base, drop-rate x failure-rate x
    seed as axes."""
    from repro.experiments.campaign import CampaignSpec

    drops = [float(v) for v in str(args.metric_drop).split(",") if v != ""]
    failures = [float(v) for v in str(args.verb_failure).split(",") if v != ""]
    if not drops or not failures:
        raise SystemExit("--metric-drop and --verb-failure need values")
    if args.seeds < 1:
        raise SystemExit("--seeds must be >= 1")
    schedule = (
        # Short smoke protocol: one fast run that still spans two
        # injections so the predictive path gets a training window.
        {"duration": 700.0, "first_injection_at": 200.0,
         "injection_duration": 150.0, "injection_gap": 150.0}
        if args.short else
        # Default: long injections so enough anomalous samples survive
        # metric-stream degradation for the model to train and act.
        {"duration": 1200.0, "first_injection_at": 250.0,
         "injection_duration": 300.0, "injection_gap": 200.0}
    )
    base = {
        "app": args.app,
        "fault": args.fault,
        "scheme": args.scheme,
        "action_mode": args.mode,
        **schedule,
        "chaos": {
            "seed": args.chaos_seed,
            "metric": {
                "drop_batch_rate": 0.0,
                "corrupt_rate": args.corrupt,
                "delay_rate": args.delay,
                "blackout_rate": args.blackout,
            },
            "verbs": {
                "failure_rate": 0.0,
                "timeout_rate": args.verb_timeout,
                "late_rate": args.verb_late,
            },
            "hosts": {"flap_rate": args.flap},
        },
    }
    return CampaignSpec(
        name=f"chaos-{args.app}-{args.fault}",
        kind="chaos",
        base=base,
        axes={
            "chaos.metric.drop_batch_rate": drops,
            "chaos.verbs.failure_rate": failures,
            "seed": [args.seed + 101 * i for i in range(args.seeds)],
        },
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    return _drive_campaign(_chaos_campaign_spec(args), args)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import reproduce_all

    path = reproduce_all(
        args.output_dir, repeats=args.repeats, quick=args.quick
    )
    print(f"report written to {path}")
    return 0


def _graceful_stop_event(what: str):
    """An event set on SIGTERM/SIGINT so servers drain before exit.

    ``kill <pid>`` (systemd, container runtimes, supervisors) then
    triggers the same graceful path as ctrl-c: stop accepting, flush
    queued work, close sockets.  Falls back to KeyboardInterrupt-only
    handling on loops without signal support.
    """
    import asyncio
    import signal

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _request_stop(signame: str) -> None:
        print(f"{signame}: draining {what} before exit", flush=True)
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, _request_stop, sig.name)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    return stop


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import Observability
    from repro.serve.registry import ModelRegistry, RegistryError
    from repro.serve.service import PredictionService, ServiceConfig

    try:
        registry = ModelRegistry(args.registry)
        if args.version is None:
            # Serve the champion pointer when one exists (continuous
            # learning promotes/rolls back through it); otherwise the
            # latest version, as before.
            predictors = registry.load_active(args.name)
        else:
            predictors = registry.load(args.name, args.version)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = ServiceConfig(
        steps=args.steps,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
    )

    async def run() -> None:
        service = PredictionService(predictors, config, obs=Observability())
        stop = _graceful_stop_event("prediction service")
        if args.socket is not None:
            await service.start(path=args.socket)
            where = args.socket
        else:
            await service.start(host=args.host, port=args.port)
            where = f"{args.host}:{args.port}"
        print(f"serving {len(predictors)} VM pipelines on {where} "
              f"(SIGTERM/ctrl-c to stop)", flush=True)
        try:
            await stop.wait()
        finally:
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import Observability
    from repro.serve.alarms import AlarmManager
    from repro.serve.fabric import FabricConfig, FabricError, ServingFabric
    from repro.serve.registry import ModelRegistry, RegistryError

    registry = ModelRegistry(args.registry)
    config = FabricConfig(
        model_name=args.name,
        version=args.version,
        n_workers=args.workers,
        steps=args.steps,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
    )

    async def run() -> int:
        obs = Observability()
        fabric = ServingFabric(
            registry, args.run_dir, config,
            obs=obs, alarms=AlarmManager(obs=obs),
        )
        stop = _graceful_stop_event("serving fabric")
        try:
            if args.socket is not None:
                await fabric.start(path=args.socket)
                where = args.socket
            else:
                await fabric.start(host=args.host, port=args.port)
                where = f"{args.host}:{args.port}"
        except (RegistryError, FabricError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        stats = fabric.stats()
        print(f"fabric: {stats['n_workers']} workers serving "
              f"{args.name} v{fabric.version} on {where} "
              f"(WALs in {args.run_dir}; SIGTERM/ctrl-c to stop)",
              flush=True)
        try:
            await stop.wait()
        finally:
            await fabric.stop()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import asyncio

    from repro.experiments.persistence import (
        PersistenceError,
        load_trace_dataset,
    )
    from repro.serve.replay import replay_dataset
    from repro.serve.registry import ModelRegistry, RegistryError

    try:
        dataset = load_trace_dataset(args.dataset)
    except PersistenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    predictors = None
    if args.name is not None:
        if args.registry is None:
            print("error: --name needs --registry", file=sys.stderr)
            return 2
        try:
            predictors = ModelRegistry(args.registry).load(
                args.name, args.version
            )
        except RegistryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    per_vm_values = dataset.per_vm_values
    if predictors is not None:
        # A snapshot only covers the VMs that were trainable; replay
        # just those so every sample can be scored and parity-checked.
        skipped = sorted(set(per_vm_values) - set(predictors))
        per_vm_values = {
            vm: per_vm_values[vm] for vm in per_vm_values if vm in predictors
        }
        if not per_vm_values:
            print("error: snapshot covers none of the dataset's VMs",
                  file=sys.stderr)
            return 2
        if skipped:
            print(f"note: skipping {len(skipped)} VM(s) not in the "
                  f"snapshot: {', '.join(skipped)}")
    report = asyncio.run(replay_dataset(
        per_vm_values,
        host=None if args.socket else args.host,
        port=None if args.socket else args.port,
        path=args.socket,
        steps=args.steps,
        rate=args.rate,
        repeat=args.repeat,
        frame=args.frame,
        response_timeout=args.response_timeout,
        predictors=predictors,
    ))
    if args.json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(f"sent {report.sent} samples in {report.wall_seconds:.2f} s "
              f"({report.throughput:.0f} scores/s sustained)")
        print(f"replies: {report.scores} score / {report.warmups} warmup / "
              f"{report.sheds} shed / {report.errors} error / "
              f"{report.timeouts} timeout; {report.alerts} alerts")
        print(f"latency ms: p50={report.p50_ms:.2f} p95={report.p95_ms:.2f} "
              f"p99={report.p99_ms:.2f}")
        if predictors is not None:
            verdict = "OK" if report.parity_ok else "MISMATCH"
            print(f"alert parity vs offline controller: "
                  f"{report.parity_checked - report.parity_mismatches}"
                  f"/{report.parity_checked} {verdict}")
    return 0 if (predictors is None or report.parity_ok) else 1


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.serve.registry import ModelRegistry, RegistryError

    registry = ModelRegistry(args.registry)
    try:
        if args.action == "promote":
            if args.name is None or args.version is None:
                print("error: promote needs --name and --version",
                      file=sys.stderr)
                return 2
            active = registry.promote(args.name, args.version)
            return _print_active(active, args.json)
        if args.action == "rollback":
            if args.name is None:
                print("error: rollback needs --name", file=sys.stderr)
                return 2
            active = registry.rollback(args.name)
            return _print_active(active, args.json)
        if args.action == "status":
            names = [args.name] if args.name else registry.names()
            rows = []
            for name in names:
                active = registry.active_info(name)
                versions = registry.versions(name)
                rows.append({
                    "name": name,
                    "active": active.version if active else None,
                    "previous": active.previous if active else None,
                    "latest": versions[-1] if versions else None,
                    "versions": versions,
                })
            if args.json:
                print(json.dumps(rows, indent=1))
                return 0
            print(f"{'name':20s} {'active':>7s} {'previous':>9s} "
                  f"{'latest':>7s}")
            for row in rows:
                def _v(v):
                    return "-" if v is None else f"v{v:04d}"
                print(f"{row['name']:20s} {_v(row['active']):>7s} "
                      f"{_v(row['previous']):>9s} {_v(row['latest']):>7s}")
            return 0
        infos = registry.list()
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([
            {
                "name": info.name,
                "version": info.version,
                "created_at": info.created_at,
                "sha256": info.sha256,
                "n_vms": info.n_vms,
                "vms": list(info.vms),
            }
            for info in infos
        ], indent=1))
        return 0
    if not infos:
        print(f"no snapshots under {args.registry}")
        return 0
    active_by_name = {
        name: registry.active_version(name) for name in registry.names()
    }
    print(f"{'name':20s} {'version':>7s} {'vms':>4s} "
          f"{'created-at':25s} sha256")
    for info in infos:
        champ = " *" if active_by_name.get(info.name) == info.version else ""
        print(f"{info.name:20s} {info.version_label:>7s} {info.n_vms:>4d} "
              f"{info.created_at:25s} {info.sha256[:12]}{champ}")
    return 0


def _cmd_api(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import Observability
    from repro.serve.alarms import AlarmManager
    from repro.serve.api import OperatorAPI
    from repro.serve.registry import ModelRegistry, RegistryError
    from repro.serve.service import PredictionService, ServiceConfig

    try:
        registry = ModelRegistry(args.registry)
        if args.version is None:
            predictors = registry.load_active(args.name)
            version = registry.active_version(args.name)
        else:
            predictors = registry.load(args.name, args.version)
            version = args.version
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def run() -> None:
        obs = Observability()
        alarms = AlarmManager(obs=obs)
        service = PredictionService(
            predictors, ServiceConfig(steps=args.steps),
            obs=obs, alarms=alarms,
        )
        service.champion_version = version
        api = OperatorAPI(
            alarms, service=service, registry=registry,
            model_name=args.name, obs=obs,
        )
        scoring = None
        if args.serve_socket is not None:
            await service.start(path=args.serve_socket)
            scoring = args.serve_socket
        elif args.serve_port:
            await service.start(host=args.host, port=args.serve_port)
            scoring = f"{args.host}:{args.serve_port}"
        stop = _graceful_stop_event("operator API")
        await api.start(host=args.host, port=args.port)
        print(f"operator API for {len(predictors)} VM pipelines on "
              f"http://{args.host}:{api.port} (SIGTERM/ctrl-c to stop)",
              flush=True)
        if scoring is not None:
            print(f"scoring protocol on {scoring}", flush=True)
        try:
            await stop.wait()
        finally:
            await api.stop()
            if scoring is not None:
                await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_alarms(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")
    action = args.action
    if action == "list":
        query = f"?state={args.state}" if args.state else ""
        request = urllib.request.Request(f"{base}/alarms{query}")
    elif action == "raise":
        if args.vm is None or args.kind is None:
            print("error: raise needs --vm and --kind", file=sys.stderr)
            return 2
        request = urllib.request.Request(
            f"{base}/alarms",
            data=json.dumps({
                "vm": args.vm, "kind": args.kind,
                "severity": args.severity, "message": args.message,
            }).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
    else:
        if args.alarm_id is None:
            print(f"error: {action} needs --id", file=sys.stderr)
            return 2
        body = {"duration": args.duration} if action == "silence" else {}
        request = urllib.request.Request(
            f"{base}/alarms/{args.alarm_id}/{action}",
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        try:
            detail = json.loads(detail).get("error", detail)
        except (ValueError, AttributeError):
            pass
        print(f"error: {exc.code}: {detail}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    rows = payload["alarms"] if action == "list" else [payload]
    if not rows:
        print("no alarms")
        return 0
    print(f"{'id':>4s} {'vm':12s} {'kind':20s} {'severity':8s} "
          f"{'state':10s} {'count':>5s} message")
    for row in rows:
        print(f"{row['alarm_id']:>4d} {row['vm']:12s} {row['kind']:20s} "
              f"{row['severity']:8s} {row['state']:10s} "
              f"{row['count']:>5d} {row['message']}")
    if action == "list":
        counts = payload.get("counts", {})
        open_total = sum(
            count for state, count in counts.items() if state != "resolved"
        )
        print(f"{open_total} open / {counts.get('resolved', 0)} resolved")
    return 0


def _print_active(active, as_json: bool) -> int:
    if as_json:
        print(json.dumps({
            "name": active.name,
            "version": active.version,
            "previous": active.previous,
            "promoted_at": active.promoted_at,
        }, indent=1))
        return 0
    previous = "-" if active.previous is None else f"v{active.previous:04d}"
    print(f"{active.name}: champion v{active.version:04d} "
          f"(previous {previous})")
    return 0


def _cmd_leadtime(_args: argparse.Namespace) -> int:
    from repro.experiments.leadtime import lead_time_summary

    data = lead_time_summary()
    print(f"{'app':10s} {'fault':13s} {'lead (s)':>9s} {'proactive':>10s}")
    for app, faults in data.items():
        for fault, cell in faults.items():
            lead = cell["lead_seconds"]
            lead_text = "n/a" if lead is None else f"{lead:.0f}"
            print(f"{app:10s} {fault:13s} {lead_text:>9s} "
                  f"{str(cell['proactive']):>10s}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats
    from pathlib import Path

    from repro.experiments import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        app=args.app,
        fault=FaultKind(args.fault),
        scheme=args.scheme,
        seed=args.seed,
        duration=args.duration,
        injection_count=args.injections,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    run_experiment(config)
    profiler.disable()

    stats = pstats.Stats(profiler)
    total = sum(row[2] for row in stats.stats.values())

    # Per-module rollup: attribute each function's own time (tottime)
    # to its source module so the table answers "which subsystem is
    # hot", not "which tiny helper was called most".
    src_root = str(Path(__file__).resolve().parent)
    by_module: dict = {}
    for (filename, _lineno, _func), row in stats.stats.items():
        if filename.startswith(src_root):
            rel = Path(filename).resolve().relative_to(src_root)
            module = "repro." + ".".join(rel.with_suffix("").parts)
        elif "numpy" in filename:
            module = "<numpy>"
        elif filename.startswith("<") or filename.startswith("~"):
            module = "<builtins>"
        else:
            module = "<stdlib/other>"
        by_module[module] = by_module.get(module, 0.0) + row[2]

    print(
        f"profiled {args.app}/{args.fault} seed={args.seed} "
        f"duration={args.duration:.0f}s: {total:.2f}s total"
    )
    print(f"\n{'module':<40s} {'tottime':>9s} {'share':>7s}")
    for module, seconds in sorted(by_module.items(), key=lambda kv: -kv[1]):
        share = seconds / total * 100.0 if total else 0.0
        if share < 0.5:
            continue
        print(f"{module:<40s} {seconds:9.3f} {share:6.1f}%")

    print(f"\ntop {args.top} by cumulative time:")
    stats.sort_stats("cumulative")
    stats.print_stats(args.top)

    if args.output:
        stats.dump_stats(args.output)
        print(f"wrote pstats data to {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "reproduce": _cmd_reproduce,
        "accuracy": _cmd_accuracy,
        "leadtime": _cmd_leadtime,
        "telemetry": _cmd_telemetry,
        "campaign": _cmd_campaign,
        "chaos": _cmd_chaos,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "fabric": _cmd_fabric,
        "replay": _cmd_replay,
        "models": _cmd_models,
        "api": _cmd_api,
        "alarms": _cmd_alarms,
        "profile": _cmd_profile,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
