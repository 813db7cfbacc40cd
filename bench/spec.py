"""What the benchmark measures: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root is :func:`contract` written
out; ``bench/tests/test_spec.py`` keeps the two equal.  The driver runs
one workload per process and wants every end-to-end metric from every
workload, so the end-to-end names are generic ("one sample", "one
operation") and ``bench/README.md`` says what each means per workload.
A per-layer metric of a layer the workload does not execute reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seconds one driver run measures (``--seconds``).  4 + 22 x 7 runs of
#: ~17 s each fit the driver's 3420 s cap with room to spare.
RUN_SECONDS = 10

#: ``(name, why)`` — order is the order a full pass runs them in.
WORKLOADS: List[Tuple[str, str]] = [
    ("campaign_fleet50",
     "fleet50 memory-leak cells under scheme prepare: the whole offline "
     "loop at campaign scale, where retrain and predict are most of the "
     "wall, so controller/model work shows here"),
    ("sim_fleet200_none",
     "fleet200 cells under scheme none: only sim/apps/faults/monitor run; "
     "a simulator change must move this and a controller/model change "
     "must not"),
    ("campaign_paper6",
     "the six paper cells (rubis, system-s x leak, hog, bottleneck) under "
     "prepare: 4-7 VMs, tiny batches, short training windows; a "
     "fleet-batching gain that taxes small fleets shows here"),
    ("serve_open",
     "one repro serve, 100-VM fleet, open loop, 1 connection, one sample "
     "op per line, Poisson arrivals at 1000/s: per-line framing, "
     "connection handling and the micro-batch window dominate"),
    ("fabric_open",
     "byte-identical traffic to serve_open through repro fabric "
     "--workers 2: adds router parse/route, WAL append and the worker "
     "hop; the difference to serve_open is the fabric's tax"),
    ("fabric_batch_closed",
     "closed loop, 2 connections, one outstanding 64-sample batch frame "
     "each, through the 2-worker fabric: framing is amortised, so JSON "
     "re-encode, journal appends and large-batch scoring dominate"),
    ("fabric_restart",
     "cold-start repro fabric on a populated run-dir, then stream "
     "samples: reads the WAL where the other fabric workloads write it, "
     "plus registry load, worker spawn and hydration"),
]

#: ``(name, unit, better, bound)``.  ``bound`` is the share of the
#: parent's median by which the metric may get worse.  A bound holds
#: for every workload, so it is set by the noisiest one: across ten
#: seeds the timed metrics spread by 0.03-0.05 of their median in a
#: calm minute of the reference host and by 0.10-0.15 in a busy one
#: (bench/README.md, "Noise"), and the driver refuses a benchmark whose
#: spread exceeds its bound.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("cpu_us_per_sample", "us", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

_STAGES = ("ingest", "retrain", "predict", "classify", "diagnosis",
           "actuate", "validate")

#: ``(name, unit, better)`` — layer = module name.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("host.nproc", "count", "higher"),
    ("host.load1", "count", "lower"),
    ("host.calib_numpy_ms", "ms", "lower"),
    ("host.calib_python_ms", "ms", "lower"),
    ("host.calib_json_ms", "ms", "lower"),
    ("host.calib_drift_share", "share", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.latency_p99_ms", "ms", "lower"),
    ("loadgen.latency_max_ms", "ms", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.answered", "count", "higher"),
    ("loadgen.backlog_growth", "count", "lower"),
    ("protocol.decode_sample_us", "us", "lower"),
    ("protocol.decode_batch_us_per_sample", "us", "lower"),
    ("protocol.encode_reply_us", "us", "lower"),
    ("protocol.request_bytes_per_sample", "B", "lower"),
    ("protocol.reply_bytes_per_sample", "B", "lower"),
    ("fleet.score_us_per_sample.b1", "us", "lower"),
    ("fleet.score_us_per_sample.b8", "us", "lower"),
    ("fleet.score_us_per_sample.b64", "us", "lower"),
    ("fleet.build_ms", "ms", "lower"),
    ("service.batch_size_mean", "count", "higher"),
    ("service.enqueue_to_reply_p50_ms", "ms", "lower"),
    ("service.enqueue_to_reply_p95_ms", "ms", "lower"),
    ("service.flush_busy_share", "share", "lower"),
    ("service.pending_max", "count", "lower"),
    ("service.sheds", "count", "lower"),
    ("service.closed_scores_per_s", "1/s", "higher"),
    ("service.unattributed_us_per_sample", "us", "lower"),
    ("journal.append_us", "us", "lower"),
    ("journal.compact_ms", "ms", "lower"),
    ("journal.open_us_per_record", "us", "lower"),
    ("journal.bytes_per_record", "B", "lower"),
    ("journal.compactions", "count", "lower"),
    ("fabric.hop_tax_p50_ms", "ms", "lower"),
    ("fabric.hop_tax_p95_ms", "ms", "lower"),
    ("fabric.router_cpu_us_per_sample", "us", "lower"),
    ("fabric.worker_cpu_us_per_sample", "us", "lower"),
    ("fabric.shard_skew", "share", "lower"),
    ("fabric.outq_max", "count", "lower"),
    ("fabric.inflight_max", "count", "lower"),
    ("fabric.shard_ring_ms", "ms", "lower"),
    ("fabric.vs_service_throughput", "ratio", "higher"),
    ("supervisor.worker_ready_s", "s", "lower"),
    ("supervisor.restarts", "count", "lower"),
    ("registry.save_ms", "ms", "lower"),
    ("registry.load_ms", "ms", "lower"),
    ("registry.snapshot_bytes", "B", "lower"),
    ("sim.none_scheme_share", "share", "lower"),
    ("sim.engine.noop_event_us", "us", "lower"),
    ("sim.monitor.sample_vm_us", "us", "lower"),
    ("experiments.build_testbed_ms", "ms", "lower"),
    *[(f"controller.{stage}.{leaf}", unit, "lower")
      for stage in _STAGES
      for leaf, unit in (("total_ms", "ms"), ("count", "count"))],
    ("hypervisor.scale.total_ms", "ms", "lower"),
    ("controller.stage_sum_share", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
    ("predictor.train_ms_per_vm", "ms", "lower"),
    ("predictor.predict_us", "us", "lower"),
    ("actuation.actions", "count", "lower"),
    ("actuation.proactive", "count", "higher"),
    ("actuation.slo_violation_s", "s", "lower"),
]

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]
#: Run by ``bench/campaign.py``; the rest by ``bench/serving.py``.
OFFLINE = frozenset(
    {"campaign_fleet50", "sim_fleet200_none", "campaign_paper6"})
END_TO_END_UNITS: Dict[str, str] = {n: u for n, u, _, _ in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {n: u for n, u, _ in PER_LAYER}


def contract() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
