"""BENCHMARK.json is bench/spec.py written out, and obeys the limits
the driver checks before a single run."""

import json
import re
from pathlib import Path

from bench import spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_equals_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.contract()


def test_contract_limits():
    doc = spec.contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = []
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert len(json.dumps(doc)) < 64 * 1024
    # 4 + 22 x workloads runs must fit the driver's 3420 s.
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 9) < 3420


def test_offline_workloads_are_the_campaign_modules():
    from bench import campaign

    assert set(campaign.WORKLOADS) == spec.OFFLINE
    assert spec.OFFLINE < set(spec.WORKLOAD_NAMES)
