"""Golden decision digests: the control loop's output, pinned.

Each cell below is one complete experiment whose *full decision
record* — violation accounting, the action log (including retry
``attempts``), the SLO trace, the per-sample labels and the telemetry
counters minus wall-clock fields — is hashed and compared against a
SHA-256 constant.  Three cells also pin what the monitor measured
(``result.samples``) and the arrays ``save_result`` writes; one of them
runs under scheme ``none``, so only the simulator produced it.  A
refactor of the simulator or of the predict / classify / deviation
stages is only allowed to change speed: any drift in what the
controller decides, chaos on or off, fails here.

The digests were taken under CPython 3.11.7 / numpy 2.4.6 (the record
hashes float ``repr``s, so a platform whose libm rounds differently
would need them re-taken — compare against the parent commit first).
On mismatch the failure message carries the new digest and the first
action that differs.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.chaos.engine import ChaosEngine
from repro.core.controller import PrepareConfig
from repro.core.events import KINDS, EventLog
from repro.experiments.persistence import save_result
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults.base import FaultKind

CHAOS = {
    "seed": 3,
    "metric": {"corrupt_rate": 0.05, "blackout_rate": 0.01,
               "blackout_duration": 40.0},
    "verbs": {"failure_rate": 0.15, "late_rate": 0.1},
}

#: Every metric-stream fault at once, on top of monitor read drops:
#: whole rounds dropped, rounds delivered late, NaN rows, and blackouts
#: frequent enough that whole rounds arrive empty — some of them late.
DEGRADED = {
    "seed": 5,
    "metric": {"drop_batch_rate": 0.05, "delay_rate": 0.2,
               "delay_seconds": 10.0, "corrupt_rate": 0.05,
               "blackout_rate": 0.15, "blackout_duration": 40.0},
}

CELLS = {
    "fleet8-leak-s7": dict(
        app="fleet8", fault=FaultKind.MEMORY_LEAK, seed=7, duration=1500.0),
    "fleet8-leak-s7-chaos": dict(
        app="fleet8", fault=FaultKind.MEMORY_LEAK, seed=7, duration=1500.0,
        chaos=CHAOS),
    "fleet8-leak-s7-degraded": dict(
        app="fleet8", fault=FaultKind.MEMORY_LEAK, seed=7, duration=1500.0,
        monitor_drop_rate=0.1, chaos=DEGRADED),
    "rubis-leak-s3": dict(app="rubis", fault=FaultKind.MEMORY_LEAK, seed=3),
    "system-s-hog-s7": dict(app="system-s", fault=FaultKind.CPU_HOG, seed=7),
    # The fleet step's competitor ceiling, workload multiplier, and
    # migration factor plus host move.
    "fleet8-hog-s7": dict(
        app="fleet8", fault=FaultKind.CPU_HOG, seed=7, duration=1500.0),
    "fleet8-bottleneck-s7": dict(
        app="fleet8", fault=FaultKind.BOTTLENECK, seed=7, duration=1500.0),
    "fleet8-leak-s7-migration": dict(
        app="fleet8", fault=FaultKind.MEMORY_LEAK, seed=7, duration=1500.0,
        action_mode="migration"),
    # Only the sim, the apps, the faults and the monitor run here.
    "fleet50-leak-s7-none": dict(
        app="fleet50", fault=FaultKind.MEMORY_LEAK, seed=7, duration=1500.0,
        scheme="none"),
    # The naive-Bayes baseline under both prediction modes and both
    # chain variants.
    "rubis-leak-s3-naive": dict(
        app="rubis", fault=FaultKind.MEMORY_LEAK, seed=3,
        controller=PrepareConfig(classifier="naive")),
    "system-s-hog-s7-naive": dict(
        app="system-s", fault=FaultKind.CPU_HOG, seed=7,
        controller=PrepareConfig(classifier="naive")),
    "fleet8-leak-s7-naive-hard": dict(
        app="fleet8", fault=FaultKind.MEMORY_LEAK, seed=7, duration=1500.0,
        controller=PrepareConfig(classifier="naive", prediction_mode="hard")),
    "rubis-bottleneck-s5-naive-simple": dict(
        app="rubis", fault=FaultKind.BOTTLENECK, seed=5,
        controller=PrepareConfig(classifier="naive", markov="simple")),
}

#: cell -> (record digest, first 12 hex digits of each action's digest)
GOLDEN = {
    "fleet8-leak-s7": (
        "7b4f95f80c673bea1076b078d5880445547ebb85d3c9a18c867a799d68360ad6",
        ("b3aa5b20a614", "dab4ea7f8250"),
    ),
    "fleet8-leak-s7-chaos": (
        "6696f15a239894e7b80d46c656615a9fe416a505bde6260ea052d7e21a169d2c",
        ("b55394543b5c", "1c0feb958d11", "fa74a2c31503", "f23e5d617677",
         "dfe09d85b674"),
    ),
    "fleet8-leak-s7-degraded": (
        "4a8b586180d275e16954b40fc097a13f6c7370f2726731d483bcd122010b4c58",
        ("ac07bbb78bc2", "c523b0f2eed0", "bc183f5c4383", "82ac06771ceb",
         "d65918ca813c", "da7ada954380", "0bd86f619d34", "f20ee085aeaa",
         "364572c3cd05", "03915969a507", "5d12ca707a3c", "eb026ebe403f",
         "9896158d41e9", "c28ca0a01d21", "cc0866d4d03a", "fd7257c7ef1d",
         "fe0cce22a4bc"),
    ),
    "rubis-leak-s3": (
        "249982db1898a1f19637bfd4aa6253cbdfdd819b3b4b6828003876a6b7fd22b1",
        ("da34f702e661", "23f243734e48", "568f2f26e995", "21ac995dc890"),
    ),
    "system-s-hog-s7": (
        "d43a3f565f63a3351ecf8cb82a781bc8d13a5da0a42a414659fa5cf746ed43b1",
        ("ef7ceb935e90", "39da960d3658", "4661623560f6", "f5c240d6b3aa",
         "67cb76d8a59b", "236f24db3432", "7b54d71bb1ea", "dc243f9dfb71"),
    ),
    "fleet8-hog-s7": (
        "42808e8c4f3db929a3fd593639f0ec62458c52c71fa3acafbf6f67edccb9fa3a",
        ("7b4af915f6ec", "90cbae5bb378"),
    ),
    "fleet8-bottleneck-s7": (
        "fcc5cae127c347bb0755693304769e30a3cc75d340dc42f7e7c5d26d62613ec5",
        ("6283b8e1e14c", "6af4d9fdfe17", "bfdb1544f5bc", "761e7cc06f01",
         "6ca402b1b50e", "4b6ec5484df8", "dd29d7328698", "b08e90305ab3",
         "ad803b237e3e", "286a5dbe7e2e", "c2967bc5abac", "a1afa6b45e75",
         "e8ad81a6166c", "241c40882d3c", "cd46333d9312", "cd46333d9312"),
    ),
    "fleet8-leak-s7-migration": (
        "fdcd00c507ce8f380f4d83e6e92f6e333df928ce13aa493f90fd650a4530a89e",
        ("7e7f178d86bb", "f4c335450787", "a83aa4946394"),
    ),
    "rubis-leak-s3-naive": (
        "f63f8442909da743dcd78fe8ea6c1a1914c2eb158ddf7229d6a41d5c6dda7d5d",
        ("94c468e0e9d1", "23f243734e48", "b891f4dda342", "2aa451bb45ee",
         "b9b0dd9ad61a"),
    ),
    "system-s-hog-s7-naive": (
        "74fc90643e32c0ae16f47343c386a3a553e8cbe8267736686497fbf18de42c07",
        ("ef7ceb935e90", "39da960d3658", "236f24db3432", "12f21dce94d3"),
    ),
    "fleet8-leak-s7-naive-hard": (
        "1578b1e30dc304364279f3f93dc17ba4381f320f4ab1ddd70589ef2763ce25d8",
        ("b3aa5b20a614", "dab4ea7f8250"),
    ),
    "rubis-bottleneck-s5-naive-simple": (
        "6ed635796200164249c581d4c5b21fd99f2e841384a7060984db407136594646",
        ("68b3558504c8", "477a9b0d2671", "30c8e1683d18", "32e60feed675",
         "f266c16ecf1e"),
    ),
}


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def _actions(result):
    return [
        [a.timestamp, a.vm, a.verb, str(a.resource), a.metric, a.proactive,
         a.completed, a.effective, a.attempts]
        for a in result.actions
    ]


def _record(result):
    telemetry = result.telemetry.to_dict()
    telemetry.pop("trace", None)
    # Stage latencies are host time; how often each stage ran is not.
    telemetry["stage_latency"] = {
        stage: stats["count"]
        for stage, stats in telemetry["stage_latency"].items()
    }
    return {
        "violation_time": result.violation_time,
        "per_injection": list(result.per_injection_violation),
        "proactive": result.proactive_actions,
        "actions": _actions(result),
        "trace": [list(result.trace_times), list(result.trace_values)],
        "labels": [int(v) for v in result.sample_labels],
        "telemetry": telemetry,
    }


def run_cell(name):
    return run_experiment(ExperimentConfig(
        **{"scheme": "prepare", "telemetry": True, **CELLS[name]}
    ))


def _active_dispatch():
    """The CPU dispatch targets numpy built in and this host runs."""
    from numpy._core import _multiarray_umath as umath

    return [target for target in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(target)]


def describe_mismatch(name, result) -> str:
    """The new digests, and the first action that left the golden log."""
    _want, want_actions = GOLDEN[name]
    actions = _actions(result)
    got_actions = tuple(_digest(a)[:12] for a in actions)
    lines = [
        f"{name}: decision record changed",
        f"  new digest: {_digest(_record(result))}",
        f"  new action digests: {got_actions}",
        f"  host: numpy {np.__version__}, active dispatch targets "
        f"{_active_dispatch()} (another numpy or dispatch set than the "
        f"pinning host's can move a last bit with no decision changed)",
    ]
    for i, (got, want) in enumerate(zip(got_actions, want_actions)):
        if got != want:
            lines.append(f"  first differing action: #{i} {actions[i]}")
            break
    else:
        if len(got_actions) != len(want_actions):
            lines.append(
                f"  action log length {len(want_actions)} -> "
                f"{len(got_actions)}; the shared prefix agrees"
            )
        else:
            lines.append(
                "  action log unchanged: the drift is in the trace, "
                "labels, violation accounting or telemetry counters"
            )
    return "\n".join(lines)


class CellRun:
    """One golden cell, run once per session with its probes attached:
    the event kinds it emitted and the rounds the chaos engine delivered
    late with every VM blacked out."""

    def __init__(self, name):
        self.kinds = set()
        self.late_empty_rounds = []
        emit, intercept = EventLog.emit, ChaosEngine._intercept_block

        def recording_emit(log, timestamp, kind, *args, **detail):
            self.kinds.add(kind)
            emit(log, timestamp, kind, *args, **detail)

        def watching_intercept(engine, block, dispatch):
            born = engine._sim.now

            def delivered(out):
                if not out.present.any() and engine._sim.now > born:
                    self.late_empty_rounds.append(born)
                dispatch(out)
            intercept(engine, block, delivered)

        EventLog.emit = recording_emit
        ChaosEngine._intercept_block = watching_intercept
        try:
            self.result = run_cell(name)
        finally:
            EventLog.emit, ChaosEngine._intercept_block = emit, intercept


@pytest.fixture(scope="module")
def cell_runs():
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = CellRun(name)
        return runs[name]
    return get


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_decisions_match_golden_digest(name, cell_runs):
    run = cell_runs(name)
    result = run.result
    # The event vocabulary is closed: every kind a cell records is declared.
    assert run.kinds and run.kinds <= set(KINDS), run.kinds - set(KINDS)
    # Guard against a vacuous pin: every cell must actually act, and
    # chaos must actually have reached the loop.
    assert result.actions
    assert ("chaos" in CELLS[name]) == (result.resilience is not None)
    assert _digest(_record(result)) == GOLDEN[name][0], describe_mismatch(
        name, result
    )


def test_migration_cell_moves_a_vm(cell_runs):
    """The migration cell reaches the in-flight degradation and the
    host move: at least one live migration ran to completion."""
    actions = cell_runs("fleet8-leak-s7-migration").result.actions
    assert any(a.verb == "migrate" and a.completed for a in actions)


def test_degraded_cell_delivers_empty_rounds_late(cell_runs):
    """The degraded cell reaches the imputation corner the others miss:
    a round whose every VM is blacked out, released after its time."""
    run = cell_runs("fleet8-leak-s7-degraded")
    assert run.late_empty_rounds
    assert run.result.resilience["imputed_samples"] > 0


# ----------------------------------------------------------------------
# What the monitor measured, and what a saved run holds
# ----------------------------------------------------------------------
#: cell -> (digest of ``result.samples``, digest of the saved npz arrays)
SAMPLE_GOLDEN = {
    "fleet8-leak-s7": (
        "ba9285c002dd828aed07668b200aaa27bd479b48826031dbbf0bd94552dd969b",
        "996bfed0bb8dab583d6b3b3d09f0969c5065d79f16ed47d31d4cd54e261e731e",
    ),
    "fleet8-leak-s7-degraded": (
        "888d3bd02de8b765fa0825dc47279034515f5fc20a26e02dc8ec6f88707198cf",
        "49ceec691ea6ae7c1a81621bf23264b19910d6f3c03963314fafcb5c0d288e99",
    ),
    "fleet50-leak-s7-none": (
        "c521d11949d0fefb8b47fdf7d372e4c0c4c809164b055b63036fc7112afd30dc",
        "02c1de3c7073d0be5c4e1b53944eb42293740ae24a3c4b81abfe696258be8e1c",
    ),
}


def _samples_digest(samples) -> str:
    h = hashlib.sha256()
    for vm, trace in samples.items():
        h.update(vm.encode())
        for column in (
            [s.timestamp for s in trace],
            [s.vector() for s in trace],
            [s.cpu_allocated for s in trace],
            [s.mem_allocated_mb for s in trace],
        ):
            h.update(np.asarray(column, dtype=np.float64).tobytes())
        h.update(np.asarray([s.stale for s in trace], dtype=bool).tobytes())
    return h.hexdigest()


def _npz_digest(result, tmp_path) -> str:
    npz_path = save_result(result, tmp_path / "run").with_suffix(".npz")
    h = hashlib.sha256()
    with np.load(npz_path) as data:
        for key in sorted(data.files):
            array = data[key]
            h.update(f"{key}:{array.dtype.str}:{array.shape}".encode())
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SAMPLE_GOLDEN))
def test_samples_and_saved_arrays_match_golden_digest(
    name, cell_runs, tmp_path
):
    result = cell_runs(name).result
    got = (_samples_digest(result.samples), _npz_digest(result, tmp_path))
    assert got == SAMPLE_GOLDEN[name], f"{name}: new digests {got}"
