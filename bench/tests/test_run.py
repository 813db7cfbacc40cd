"""The command itself: what it prints and when it refuses to run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from bench import spec

ROOT = Path(__file__).resolve().parents[2]


def test_refuses_without_the_program_under_test(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "not at" in done.stderr


def test_unknown_workload_is_a_usage_error():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", "nope"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""


def _last_line(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "campaign_paper6", "--seed", "2", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_result_line_has_exactly_the_contracts_keys():
    result = _last_line(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        spec.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_result_line_has_every_per_layer_metric():
    result = _last_line(1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        spec.PER_LAYER_UNITS
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["controller.retrain.count"] > 0
    assert metrics["controller.predict.total_ms"] > 0
    assert metrics["host.calib_numpy_ms"] > 0
    assert metrics["fabric.hop_tax_p50_ms"] == 0  # layer not on this path
    spans = [json.loads(line) for line in
             (ROOT / "bench" / "out" / "trace-campaign_paper6.jsonl")
             .read_text().splitlines()]
    assert {"id", "parent", "name", "start", "end", "workload"} <= set(spans[0])
    by_id = {s["id"]: s for s in spans}
    stage = next(s for s in spans if s["name"] == "retrain")
    assert by_id[stage["parent"]]["name"] == "sweep.telemetry"
