"""Golden decision digests: the control loop's output, pinned.

Each cell below is one complete experiment whose *full decision
record* — violation accounting, the action log (including retry
``attempts``), the SLO trace, the per-sample labels and the telemetry
counters minus wall-clock fields — is hashed and compared against a
SHA-256 constant.  A refactor of the predict / classify / deviation
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

import pytest

from repro.core.events import KINDS, EventLog
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults.base import FaultKind

CHAOS = {
    "seed": 3,
    "metric": {"corrupt_rate": 0.05, "blackout_rate": 0.01,
               "blackout_duration": 40.0},
    "verbs": {"failure_rate": 0.15, "late_rate": 0.1},
}

CELLS = {
    "fleet8-leak-s7": dict(
        app="fleet8", fault=FaultKind.MEMORY_LEAK, seed=7, duration=1500.0),
    "fleet8-leak-s7-chaos": dict(
        app="fleet8", fault=FaultKind.MEMORY_LEAK, seed=7, duration=1500.0,
        chaos=CHAOS),
    "rubis-leak-s3": dict(app="rubis", fault=FaultKind.MEMORY_LEAK, seed=3),
    "system-s-hog-s7": dict(app="system-s", fault=FaultKind.CPU_HOG, seed=7),
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
    "rubis-leak-s3": (
        "249982db1898a1f19637bfd4aa6253cbdfdd819b3b4b6828003876a6b7fd22b1",
        ("da34f702e661", "23f243734e48", "568f2f26e995", "21ac995dc890"),
    ),
    "system-s-hog-s7": (
        "d43a3f565f63a3351ecf8cb82a781bc8d13a5da0a42a414659fa5cf746ed43b1",
        ("ef7ceb935e90", "39da960d3658", "4661623560f6", "f5c240d6b3aa",
         "67cb76d8a59b", "236f24db3432", "7b54d71bb1ea", "dc243f9dfb71"),
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


def run_cell(name, **overrides):
    return run_experiment(ExperimentConfig(
        scheme="prepare", telemetry=True, **CELLS[name], **overrides
    ))


def describe_mismatch(name, result) -> str:
    """The new digests, and the first action that left the golden log."""
    _want, want_actions = GOLDEN[name]
    actions = _actions(result)
    got_actions = tuple(_digest(a)[:12] for a in actions)
    lines = [
        f"{name}: decision record changed",
        f"  new digest: {_digest(_record(result))}",
        f"  new action digests: {got_actions}",
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


@pytest.mark.parametrize("name", sorted(CELLS))
def test_decisions_match_golden_digest(name, monkeypatch):
    recorded = set()
    emit = EventLog.emit

    def recording_emit(log, timestamp, kind, *args, **detail):
        recorded.add(kind)
        emit(log, timestamp, kind, *args, **detail)

    monkeypatch.setattr(EventLog, "emit", recording_emit)
    result = run_cell(name)
    # The event vocabulary is closed: every kind a cell records is declared.
    assert recorded and recorded <= set(KINDS), recorded - set(KINDS)
    # Guard against a vacuous pin: every cell must actually act, and
    # chaos must actually have reached the loop.
    assert result.actions
    assert ("chaos" in CELLS[name]) == (result.resilience is not None)
    assert _digest(_record(result)) == GOLDEN[name][0], describe_mismatch(
        name, result
    )

