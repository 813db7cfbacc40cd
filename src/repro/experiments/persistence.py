"""Saving and loading experiment artifacts.

Reproduction runs are cheap but not free (a full Fig. 6 sweep is
minutes); persisting results lets analyses iterate without re-running
simulations.  Two artifact kinds are supported:

* :class:`~repro.experiments.runner.ExperimentResult` — summarized to
  JSON (violation times, actions, SLO trace) plus the full per-VM
  metric matrices in a sibling ``.npz``;
* :class:`~repro.experiments.accuracy.TraceDataset` — the labelled
  matrices an accuracy analysis needs, as a single ``.npz``.

Loaders return plain dictionaries / rebuilt dataclasses; simulator
state is intentionally not serialized (runs are reproducible from
their :class:`ExperimentConfig`, which is stored alongside).
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.faults.base import FaultKind
from repro.experiments.accuracy import TraceDataset
from repro.experiments.runner import ExperimentConfig, ExperimentResult

__all__ = [
    "PersistenceError",
    "save_result",
    "load_result_summary",
    "save_trace_dataset",
    "load_trace_dataset",
]

_PathLike = Union[str, Path]


class PersistenceError(RuntimeError):
    """An artifact file is missing, truncated, or not the expected kind.

    ``path`` carries the offending file so callers (CLI, campaign
    resume) can report it without string-parsing the message.
    """

    def __init__(self, path: Path, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = Path(path)
        self.reason = reason


def _config_payload(config: ExperimentConfig) -> Dict:
    payload = dataclasses.asdict(config)
    payload["fault"] = config.fault.value
    payload.pop("controller", None)  # not serialized; defaults assumed
    return payload


def save_result(result: ExperimentResult, path: _PathLike) -> Path:
    """Persist a run: ``<path>.json`` (summary) + ``<path>.npz`` (samples).

    Returns the JSON path.
    """
    base = Path(path)
    json_path = base.with_suffix(".json")
    npz_path = base.with_suffix(".npz")

    summary = {
        "config": _config_payload(result.config),
        "violation_time": result.violation_time,
        "per_injection_violation": list(result.per_injection_violation),
        "proactive_actions": result.proactive_actions,
        "injections": [list(w) for w in result.injections],
        "slo_metric_name": result.slo_metric_name,
        "trace_times": list(result.trace_times),
        "trace_values": list(result.trace_values),
        "actions": [
            {
                "timestamp": a.timestamp,
                "vm": a.vm,
                "verb": a.verb,
                "resource": None if a.resource is None else a.resource.value,
                "metric": a.metric,
                "proactive": a.proactive,
                "effective": a.effective,
            }
            for a in result.actions
        ],
        "samples_file": npz_path.name,
    }
    json_path.write_text(json.dumps(summary, indent=1))

    trace = result.samples
    arrays: Dict[str, np.ndarray] = {
        "sample_labels": np.asarray(result.sample_labels, dtype=np.intp),
    }
    for i, vm in enumerate(trace.vms):
        arrays[f"values::{vm}"] = trace.readings[:, i]
        arrays[f"times::{vm}"] = trace.times
        arrays[f"alloc_cpu::{vm}"] = trace.cpu[:, i]
        arrays[f"alloc_mem::{vm}"] = trace.mem[:, i]
    np.savez_compressed(npz_path, **arrays)
    return json_path


def load_result_summary(path: _PathLike) -> Dict:
    """Load a saved run summary (and lazily locatable sample arrays).

    Returns the JSON dictionary with an extra ``"samples"`` entry
    mapping VM name to its (n, 13) value matrix when the sibling
    ``.npz`` exists.  Raises :class:`PersistenceError` (with the
    offending path attached) when the summary is missing or not a
    saved run.
    """
    json_path = Path(path).with_suffix(".json")
    if not json_path.exists():
        raise PersistenceError(json_path, "no such file")
    try:
        summary = json.loads(json_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(
            json_path, f"not a readable run summary ({exc})"
        ) from None
    if not isinstance(summary, dict) or "violation_time" not in summary:
        raise PersistenceError(
            json_path, "not a run summary (no 'violation_time')"
        )
    samples_file = summary.get("samples_file")
    npz_path = json_path.with_name(samples_file) if samples_file else None
    if npz_path is not None and npz_path.exists():
        with np.load(npz_path) as data:
            summary["samples"] = {
                key.split("::", 1)[1]: data[key]
                for key in data.files if key.startswith("values::")
            }
            summary["sample_labels"] = data["sample_labels"].tolist()
    return summary


def save_trace_dataset(dataset: TraceDataset, path: _PathLike) -> Path:
    """Persist a labelled accuracy trace as one ``.npz``."""
    npz_path = Path(path).with_suffix(".npz")
    arrays: Dict[str, np.ndarray] = {
        "labels": dataset.labels,
        "timestamps": dataset.timestamps,
        "meta": np.array([
            dataset.app, dataset.fault.value,
            str(dataset.sampling_interval), str(dataset.train_end),
        ]),
        "attributes": np.array(list(dataset.attributes)),
    }
    for vm, values in dataset.per_vm_values.items():
        arrays[f"values::{vm}"] = values
    np.savez_compressed(npz_path, **arrays)
    return npz_path


def load_trace_dataset(path: _PathLike) -> TraceDataset:
    """Rebuild a :class:`TraceDataset` saved by :func:`save_trace_dataset`.

    Raises :class:`PersistenceError` (with the offending path attached)
    when the file is missing, truncated, or not a trace-dataset
    archive — never a bare ``zipfile``/``KeyError`` traceback.
    """
    npz_path = Path(path).with_suffix(".npz")
    if not npz_path.exists():
        raise PersistenceError(npz_path, "no such file")
    try:
        archive = np.load(npz_path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise PersistenceError(
            npz_path, f"not a readable .npz archive ({exc})"
        ) from None
    with archive as data:
        try:
            meta = data["meta"]
            if meta.shape != (4,):
                raise PersistenceError(
                    npz_path, f"meta must have 4 entries, got {meta.shape}"
                )
            app, fault, interval, train_end = (str(x) for x in meta)
            per_vm = {
                key.split("::", 1)[1]: data[key]
                for key in data.files if key.startswith("values::")
            }
            if not per_vm:
                raise PersistenceError(
                    npz_path, "no per-VM value matrices (values::<vm>)"
                )
            return TraceDataset(
                app=app,
                fault=FaultKind(fault),
                sampling_interval=float(interval),
                per_vm_values=per_vm,
                labels=data["labels"],
                timestamps=data["timestamps"],
                train_end=float(train_end),
                attributes=tuple(str(a) for a in data["attributes"]),
            )
        except KeyError as exc:
            raise PersistenceError(
                npz_path, f"missing array {exc.args[0]!r}"
            ) from None
        except (ValueError, zipfile.BadZipFile) as exc:
            # Truncated member data or a non-dataset archive.
            raise PersistenceError(npz_path, str(exc)) from None
