"""Online serving layer: model registry + streaming prediction service.

Turns trained per-VM prediction pipelines into a deployable online
scorer, the operational counterpart of the paper's batch simulations:

* :mod:`repro.serve.registry` — versioned, content-hashed snapshot
  store; a controller warm-starts from disk and a snapshot → restore →
  predict round-trip is byte-identical to the in-memory model;
* :mod:`repro.serve.protocol` — the newline-JSON wire protocol
  (requests, replies, encode/decode helpers);
* :mod:`repro.serve.service` — asyncio TCP / unix-socket server with a
  micro-batching dispatcher that coalesces pending samples across VMs
  into single calls to the vectorized batch predictor;
* :mod:`repro.serve.replay` — load harness replaying recorded trace
  datasets against a service and checking alert parity vs the offline
  controller;
* :mod:`repro.serve.alarms` — operator alarm lifecycle (raise → ack →
  silence → escalate → resolve) with dedup, severity latching and
  bounded history;
* :mod:`repro.serve.api` — dependency-free HTTP/1.1 + WebSocket
  operator API: alarms, fleet health, model status, funnel, and a
  Prometheus ``/metrics`` scrape;
* :mod:`repro.serve.fabric` — fault-tolerant sharded serving fabric:
  a front-end router consistent-hashing VMs across supervised worker
  processes, with per-shard WAL crash recovery (bitwise-identical
  scores after a worker restart) and zero-downtime blue/green
  rollover;
* :mod:`repro.serve.journal` — append-only, torn-tail-tolerant
  per-shard write-ahead log of trailing VM samples;
* :mod:`repro.serve.supervisor` — worker processes (``spawn``) plus
  the heartbeat / bounded-lag supervision policy with exponential
  restart backoff and flapping escalation.

See ``docs/serving.md`` for the end-to-end tour and
``docs/operations.md`` for the operator runbook.
"""

from repro._lazy import exports

#: Submodule → the names this package re-exports from it, each imported
#: on first access (PEP 562): the fabric router imports no numpy, and a
#: worker does not import the operator API.
_ORIGINS = {
    "alarms": (
        "SEVERITIES",
        "Alarm",
        "AlarmError",
        "AlarmManager",
        "AlarmState",
        "severity_rank",
    ),
    "api": ("ApiConfig", "OperatorAPI"),
    "fabric": ("FabricConfig", "FabricError", "ServingFabric", "shard_ring"),
    "journal": ("ShardJournal",),
    "protocol": (
        "PROTOCOL_VERSION",
        "ProtocolError",
        "decode_line",
        "encode_message",
    ),
    "registry": (
        "ActiveInfo",
        "ModelRegistry",
        "RegistryError",
        "SnapshotInfo",
        "SnapshotIntegrityError",
    ),
    "replay": ("ReplayReport", "replay_dataset"),
    "service": ("FleetScorer", "PredictionService", "ServiceConfig"),
    "supervisor": ("SupervisorConfig", "WorkerSpec", "WorkerSupervisor"),
}

__all__ = sorted(name for names in _ORIGINS.values() for name in names)

__getattr__, __dir__ = exports(__name__, globals(), _ORIGINS)
