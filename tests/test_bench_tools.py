"""Tests for the microbenchmark utilities and the compare script."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import (
    compare_results,
    format_results,
    read_results,
    time_call,
    write_results,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTimeCall:
    def test_returns_summary_stats(self):
        calls = []
        stats = time_call(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5  # warmup + repeats all execute
        assert set(stats) == {"median_s", "min_s", "mean_s", "repeats"}
        assert stats["repeats"] == 3
        assert 0.0 <= stats["min_s"] <= stats["median_s"]

    def test_validation(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_call(lambda: None, warmup=-1)


class TestResultFiles:
    def test_roundtrip(self, tmp_path):
        results = {"x/predict": {"median_s": 0.5, "min_s": 0.4,
                                 "mean_s": 0.55, "repeats": 5.0}}
        path = tmp_path / "bench.json"
        write_results(path, results, meta={"steps": 8})
        payload = read_results(path)
        assert payload["meta"]["steps"] == 8
        assert payload["results"] == results
        assert "x/predict" in format_results(payload)

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError, match="results"):
            read_results(path)
        path.write_text(json.dumps({"results": {"a": {"min_s": 1.0}}}))
        with pytest.raises(ValueError, match="median_s"):
            read_results(path)


class TestCompare:
    @staticmethod
    def _payload(**medians):
        return {"results": {
            name: {"median_s": m} for name, m in medians.items()
        }}

    def test_identical_has_no_regressions(self):
        p = self._payload(a=1.0, b=2.0)
        assert compare_results(p, p) == []

    def test_detects_regression_over_threshold(self):
        base = self._payload(a=1.0, b=2.0)
        cand = self._payload(a=1.3, b=2.0)
        messages = compare_results(base, cand, threshold=0.20)
        assert len(messages) == 1 and messages[0].startswith("a:")

    def test_respects_threshold(self):
        base = self._payload(a=1.0)
        cand = self._payload(a=1.15)
        assert compare_results(base, cand, threshold=0.20) == []
        assert len(compare_results(base, cand, threshold=0.10)) == 1

    def test_ignores_unshared_and_improvements(self):
        base = self._payload(a=1.0, only_base=9.0)
        cand = self._payload(a=0.5, only_cand=9.0)
        assert compare_results(base, cand) == []

    def test_threshold_validation(self):
        p = self._payload(a=1.0)
        with pytest.raises(ValueError):
            compare_results(p, p, threshold=-0.1)


class TestCompareScript:
    def test_exit_codes(self, tmp_path, capsys):
        script = _load_script(REPO_ROOT / "scripts" / "bench_compare.py")
        base = tmp_path / "base.json"
        write_results(
            base,
            {"a": {"median_s": 1.0, "min_s": 1.0, "mean_s": 1.0,
                   "repeats": 1.0}},
            meta={},
        )
        worse = tmp_path / "worse.json"
        write_results(
            worse,
            {"a": {"median_s": 1.5, "min_s": 1.5, "mean_s": 1.5,
                   "repeats": 1.0}},
            meta={},
        )
        assert script.main([str(base), str(base)]) == 0
        assert script.main([str(base), str(worse)]) == 1
        assert script.main(
            ["--threshold", "0.6", str(base), str(worse)]
        ) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out


class TestPerfPredictionHarness:
    def test_quick_run_emits_valid_snapshot(self, tmp_path):
        script = _load_script(REPO_ROOT / "benchmarks" / "perf_prediction.py")
        out = tmp_path / "BENCH_prediction.json"
        assert script.main(
            ["--quick", "--repeats", "1", "--steps", "3",
             "--output", str(out)]
        ) == 0
        payload = read_results(out)
        assert payload["meta"]["quick"] is True
        assert "fleet5/predict" in payload["results"]
        assert "fleet5/predict_reference" in payload["results"]
        speedup = payload["meta"]["speedup_vs_reference"]["fleet5"]["predict"]
        assert speedup > 0


class TestCompareScriptErrorExits:
    """Missing or malformed inputs exit 2 with a message, no traceback."""

    @pytest.fixture(scope="class")
    def script(self):
        return _load_script(REPO_ROOT / "scripts" / "bench_compare.py")

    @pytest.fixture()
    def good(self, tmp_path):
        path = tmp_path / "good.json"
        write_results(
            path,
            {"a": {"median_s": 1.0, "min_s": 1.0, "mean_s": 1.0,
                   "repeats": 1.0}},
            meta={},
        )
        return path

    def test_missing_baseline(self, script, good, tmp_path, capsys):
        assert script.main([str(tmp_path / "absent.json"), str(good)]) == 2
        err = capsys.readouterr().err
        assert "baseline" in err and "does not exist" in err

    def test_missing_candidate(self, script, good, tmp_path, capsys):
        assert script.main([str(good), str(tmp_path / "absent.json")]) == 2
        assert "candidate" in capsys.readouterr().err

    def test_invalid_json(self, script, good, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        assert script.main([str(bad), str(good)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_document_shape(self, script, good, tmp_path, capsys):
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps({"unrelated": True}))
        assert script.main([str(good), str(bad)]) == 2
        assert "malformed" in capsys.readouterr().err


class TestPerfServingHarness:
    def test_quick_run_emits_valid_snapshot(self, tmp_path):
        script = _load_script(REPO_ROOT / "benchmarks" / "perf_serving.py")
        out = tmp_path / "BENCH_serving.json"
        assert script.main(
            ["--quick", "--repeats", "1", "--output", str(out)]
        ) == 0
        payload = read_results(out)
        assert payload["meta"]["quick"] is True
        assert payload["meta"]["decisions_equal"] is True
        assert "engine10/batched" in payload["results"]
        assert "engine10/single" in payload["results"]
        assert "service10/replay" in payload["results"]
        speedup = payload["meta"]["batched_speedup_vs_single"]["engine10"]
        assert speedup > 1.0
        assert payload["meta"]["service_throughput_per_s"] > 0
