"""Scalability of the per-VM model architecture.

The paper argues (Sec. III-B, overhead discussion) that "since PREPARE
maintains per-VM anomaly prediction models, different anomaly
prediction models can be distributed on different cloud nodes for
scalability".  This analysis quantifies the claim's premise on one
node: the per-monitoring-round cost of PREPARE's data path —
sampling, per-VM look-ahead prediction, periodic retraining — as the
number of managed VMs grows, and the per-VM slice of it, which is the
unit of work that distribution would spread.

Each fleet size is an independent measurement
(:func:`scalability_cell`, self-seeded from ``(seed, n_vms)``), so the
sweep submits through the campaign engine when ``jobs > 1`` — the
measured quantity is host wall-time, so parallel cells contend for
cores; use ``jobs > 1`` for quick shape checks, serial for clean
numbers.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.predictor import AnomalyPredictor
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.monitor import ATTRIBUTES, VMMonitor
from repro.sim.resources import ResourceSpec

__all__ = ["scalability_cell", "scalability_sweep"]


def _build_fleet(n_vms: int, seed: int):
    sim = Simulator()
    cluster = Cluster(sim)
    names = [f"vm{i}" for i in range(n_vms)]
    vms = cluster.place_one_vm_per_host(names, ResourceSpec(1.0, 1024.0),
                                        spares=0)
    for vm in vms:
        vm.set_cpu_demand("app", 0.5)
        vm.set_mem_demand("app", 500.0)
    monitor = VMMonitor(sim, vms, rng=np.random.default_rng(seed))
    return vms, monitor


def _trained_predictor(rng) -> AnomalyPredictor:
    values = rng.normal(50.0, 10.0, (300, len(ATTRIBUTES)))
    labels = (rng.random(300) < 0.2).astype(int)
    predictor = AnomalyPredictor(ATTRIBUTES)
    predictor.train(values, labels)
    return predictor


def scalability_cell(
    n_vms: int, seed: int = 7, rounds: int = 5
) -> Dict[str, float]:
    """Measure one fleet size's per-round data-path cost.

    Self-contained: the RNG derives from ``(seed, n_vms)``, so a cell
    measures the same fleet no matter which worker (or which sweep)
    runs it.  Returns ``{"round_ms", "per_vm_ms"}`` where a round is
    one sampling interval's work — sample every VM and run each VM's
    look-ahead prediction.
    """
    rng = np.random.default_rng([seed, n_vms])
    vms, monitor = _build_fleet(n_vms, seed)
    predictors = [_trained_predictor(rng) for _ in range(n_vms)]
    # Warm per-VM histories (two samples each).
    histories: List[np.ndarray] = []
    for vm in vms:
        a = monitor.sample_vm(vm, 0.0).vector()
        b = monitor.sample_vm(vm, 5.0).vector()
        histories.append(np.stack([a, b]))

    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        for vm, predictor, history in zip(vms, predictors, histories):
            monitor.sample_vm(vm, 10.0)
            predictor.predict(history, steps=6)
        samples.append(1000.0 * (time.perf_counter() - start))
    round_ms = float(np.median(samples))
    return {"round_ms": round_ms, "per_vm_ms": round_ms / n_vms}


def scalability_sweep(
    fleet_sizes: Sequence[int] = (5, 20, 50, 100),
    seed: int = 7,
    rounds: int = 5,
    jobs: int = 1,
    checkpoint_dir=None,
    resume: bool = False,
) -> Dict[int, Dict[str, float]]:
    """Per-round and per-VM data-path cost vs fleet size.

    Returns ``out[n_vms] = {"round_ms": .., "per_vm_ms": ..}`` where a
    round is one sampling interval's work: sample every VM and run each
    VM's look-ahead prediction.  ``jobs > 1`` spreads the fleet sizes
    over campaign workers (cells then contend for cores — fine for
    shape checks, not for publication-grade timings).
    """
    if jobs <= 1 and checkpoint_dir is None:
        return {
            n_vms: scalability_cell(n_vms, seed=seed, rounds=rounds)
            for n_vms in fleet_sizes
        }

    from repro.experiments.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="scalability-sweep",
        kind="scalability",
        base={"seed": seed, "rounds": rounds},
        axes={"n_vms": [int(n) for n in fleet_sizes]},
    )
    report = run_campaign(
        spec, checkpoint_dir=checkpoint_dir, jobs=jobs, resume=resume
    )
    if report.failed:
        job_id, error = next(iter(report.failed.items()))
        raise RuntimeError(f"scalability job {job_id} failed: {error}")
    return {
        int(record["params"]["n_vms"]): record["result"]
        for record in report.records
    }
