"""Tests for the command-line interface."""

import contextlib
import json
import os
import time

import pytest

from repro.cli import build_parser, main

FAST_RUN = [
    "run", "--app", "rubis", "--fault", "cpu_hog", "--scheme", "reactive",
    "--seed", "5", "--duration", "700",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "rubis"
        assert args.fault == "memory_leak"
        assert args.scheme == "prepare"

    def test_rejects_unknown_fault(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fault", "gremlins"])

    def test_reproduce_artifact_choices(self):
        args = build_parser().parse_args(["reproduce", "table1"])
        assert args.artifact == "table1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig99"])

    def test_help_lists_every_subcommand(self):
        """`prepare-repro --help` must advertise the full command set —
        the telemetry (PR 2) and campaign (PR 3) subcommands included —
        so the help text cannot silently lag the CLI again."""
        text = build_parser().format_help()
        for command in ("run", "reproduce", "accuracy", "leadtime",
                        "telemetry", "campaign", "report", "serve",
                        "replay", "models", "api", "alarms"):
            assert command in text, f"--help omits {command!r}"
        assert "checkpoint/resume" in text

    def test_campaign_help_documents_flags(self):
        parser = build_parser()
        args = parser.parse_args(["campaign", "spec.json", "--jobs", "4",
                                  "--resume", "--limit", "2"])
        assert args.spec == "spec.json"
        assert args.jobs == 4 and args.resume and args.limit == 2


class TestCommands:
    def test_run_prints_outcome(self, capsys):
        # The run duration must still cover the default two-injection
        # schedule (ends at 1250 s) — use the short schedule via
        # duration alone is invalid, so run full default duration only
        # for the fast reactive config.
        code = main([
            "run", "--app", "rubis", "--fault", "cpu_hog",
            "--scheme", "reactive", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "SLO violation time" in out
        assert "prevention actions" in out

    def test_run_json_output(self, capsys):
        code = main([
            "run", "--app", "rubis", "--fault", "cpu_hog",
            "--scheme", "none", "--seed", "5", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["violation_time"] > 0
        assert payload["actions"] == []

    def test_reproduce_table1(self, capsys):
        code = main(["reproduce", "table1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table I" in out
        assert "live_migration_512mb" in out


class TestCampaignCommand:
    @staticmethod
    def write_spec(tmp_path, **overrides):
        spec = {
            "name": "cli-demo",
            "kind": "experiment",
            "base": {"app": "rubis", "scheme": "none", "seed": 5,
                     "duration": 700.0, "first_injection_at": 200.0,
                     "injection_duration": 150.0, "injection_gap": 150.0},
            "axes": {"fault": ["cpu_hog", "memory_leak"]},
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_expand_prints_grid_without_running(self, capsys, tmp_path):
        path = self.write_spec(tmp_path)
        code = main(["campaign", str(path), "--expand"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 jobs" in out
        assert "fault=cpu_hog" in out and "fault=memory_leak" in out

    def test_runs_spec_with_checkpoint(self, capsys, tmp_path):
        path = self.write_spec(tmp_path)
        ckpt = tmp_path / "camp"
        code = main(["campaign", str(path), "--checkpoint", str(ckpt)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[2/2]" in out
        assert "2 jobs completed" in out
        assert (ckpt / "results.jsonl").exists()
        assert (ckpt / "manifest.json").exists()
        assert (ckpt / "summary.json").exists()
        lines = (ckpt / "results.jsonl").read_text().splitlines()
        assert len(lines) == 2

    def test_limit_then_resume(self, capsys, tmp_path):
        path = self.write_spec(tmp_path)
        ckpt = tmp_path / "camp"
        code = main(["campaign", str(path), "--checkpoint", str(ckpt),
                     "--limit", "1", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 jobs remaining" in out
        code = main(["campaign", str(path), "--checkpoint", str(ckpt),
                     "--resume", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed: 1 jobs already complete" in out

    def test_json_summary(self, capsys, tmp_path):
        path = self.write_spec(tmp_path)
        code = main(["campaign", str(path), "--quiet", "--json"])
        stdout = capsys.readouterr().out
        payload = json.loads(stdout)
        assert code == 0
        assert payload["jobs_completed"] == 2
        assert "none" in payload["schemes"]

    def test_failing_job_sets_exit_code(self, capsys, tmp_path):
        path = self.write_spec(
            tmp_path, axes={"duration": [700.0, 100.0]},
            base={"app": "rubis", "fault": "cpu_hog", "scheme": "none",
                  "seed": 5, "first_injection_at": 200.0,
                  "injection_duration": 150.0, "injection_gap": 150.0},
        )
        code = main(["campaign", str(path), "--quiet"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.err


class TestTelemetryCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["telemetry"])
        assert args.app == "rubis"
        assert args.fault == "memory_leak"
        assert args.scheme == "prepare"
        assert args.output_dir is None and args.input is None

    def test_run_writes_exports(self, capsys, tmp_path):
        from repro.obs import (
            LOOP_STAGES,
            parse_prometheus_text,
            read_telemetry_jsonl,
        )

        code = main([
            "telemetry", "--app", "rubis", "--fault", "memory_leak",
            "--seed", "11", "--output-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "alerts" in out and "actions" in out

        families = parse_prometheus_text(
            (tmp_path / "metrics.prom").read_text()
        )
        assert "prepare_samples_ingested_total" in families
        assert "prepare_stage_seconds" in families

        trace_names = {
            json.loads(line)["name"]
            for line in (tmp_path / "trace.jsonl").read_text().splitlines()
        }
        assert set(LOOP_STAGES) <= trace_names

        records = read_telemetry_jsonl(tmp_path / "telemetry.jsonl")
        assert len(records) == 1
        assert records[0].meta["seed"] == 11

    def test_input_mode_renders_existing_jsonl(self, capsys, tmp_path):
        from repro.obs import build_run_telemetry, write_telemetry_jsonl

        path = write_telemetry_jsonl(
            tmp_path / "t.jsonl",
            build_run_telemetry(meta={"app": "rubis", "seed": 3}),
        )
        code = main(["telemetry", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "app=rubis" in out

    def test_input_mode_json(self, capsys, tmp_path):
        from repro.obs import build_run_telemetry, write_telemetry_jsonl

        path = write_telemetry_jsonl(
            tmp_path / "t.jsonl", build_run_telemetry()
        )
        code = main(["telemetry", "--input", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["schema_version"] == 1


class TestServingCommands:
    @staticmethod
    def _snapshot(tmp_path):
        import numpy as np

        from repro.core.predictor import AnomalyPredictor
        from repro.serve.registry import ModelRegistry

        rng = np.random.default_rng(4)
        predictor = AnomalyPredictor([f"m{i}" for i in range(5)], n_bins=6)
        values = np.cumsum(rng.normal(size=(200, 5)), axis=0)
        labels = (rng.random(200) < 0.3).astype(int)
        predictor.train(values, labels)
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("fleet", {"vm1": predictor},
                      created_at="2026-08-01T00:00:00+00:00")
        return tmp_path / "registry"

    def test_serve_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--registry", "r", "--name", "fleet"]
        )
        assert args.port == 7171
        assert args.steps == 4
        assert args.max_batch == 128

    def test_serve_requires_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--registry", "r"])

    def test_models_table(self, capsys, tmp_path):
        registry = self._snapshot(tmp_path)
        assert main(["models", "--registry", str(registry)]) == 0
        out = capsys.readouterr().out
        assert "fleet" in out and "v0001" in out
        assert "2026-08-01T00:00:00+00:00" in out

    def test_models_json(self, capsys, tmp_path):
        registry = self._snapshot(tmp_path)
        assert main(["models", "--registry", str(registry), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1
        assert entries[0]["name"] == "fleet"
        assert entries[0]["version"] == 1
        assert entries[0]["n_vms"] == 1
        assert len(entries[0]["sha256"]) == 64

    def test_models_empty_registry(self, capsys, tmp_path):
        assert main(["models", "--registry", str(tmp_path / "none")]) == 0
        assert "no snapshots" in capsys.readouterr().out

    def test_serve_missing_snapshot_exits_2(self, capsys, tmp_path):
        assert main(["serve", "--registry", str(tmp_path / "none"),
                     "--name", "ghost", "--socket",
                     str(tmp_path / "s.sock")]) == 2
        assert "error" in capsys.readouterr().err

    def test_replay_missing_dataset_exits_2(self, capsys, tmp_path):
        assert main(["replay", str(tmp_path / "absent.npz"),
                     "--socket", str(tmp_path / "s.sock")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_replay_name_without_registry_exits_2(self, capsys, tmp_path):
        import numpy as np

        from repro.experiments.accuracy import collect_trace
        from repro.experiments.persistence import save_trace_dataset
        from repro.faults import FaultKind

        dataset = collect_trace("rubis", FaultKind.CPU_HOG, seed=5)
        path = save_trace_dataset(dataset, tmp_path / "trace")
        assert main(["replay", str(path), "--socket",
                     str(tmp_path / "s.sock"), "--name", "fleet"]) == 2
        assert "--registry" in capsys.readouterr().err

    def test_fabric_parser_defaults(self):
        args = build_parser().parse_args(
            ["fabric", "--registry", "r", "--name", "fleet",
             "--run-dir", "state"]
        )
        assert args.workers == 3
        assert args.port == 7171
        assert args.steps == 4

    def test_fabric_missing_snapshot_exits_2(self, capsys, tmp_path):
        assert main(["fabric", "--registry", str(tmp_path / "none"),
                     "--name", "ghost",
                     "--run-dir", str(tmp_path / "state"),
                     "--socket", str(tmp_path / "f.sock")]) == 2
        assert "error" in capsys.readouterr().err


class TestGracefulShutdown:
    """`repro serve` / `repro api` must drain and exit 0 on SIGTERM —
    the signal path a supervisor or container runtime actually uses —
    exercised against real spawned processes."""

    @staticmethod
    def _spawn(tmp_path, argv):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}:{env.get('PYTHONPATH', '')}"
        return subprocess.Popen(
            [_sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )

    def _assert_sigterm_drains(self, proc, ready_marker):
        import signal

        banner = proc.stdout.readline()
        try:
            assert ready_marker in banner, f"unexpected banner: {banner!r}"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, f"exit {proc.returncode}: {out}"
        assert "SIGTERM" in out and "draining" in out

    def test_serve_sigterm_graceful_exit(self, tmp_path):
        registry = TestServingCommands._snapshot(tmp_path)
        proc = self._spawn(tmp_path, [
            "serve", "--registry", str(registry), "--name", "fleet",
            "--socket", str(tmp_path / "serve.sock"),
        ])
        self._assert_sigterm_drains(proc, "serving")

    @staticmethod
    def _worker_pids(parent):
        """Spawned fabric workers whose parent is ``parent``."""
        import os

        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
                with open(f"/proc/{entry}/cmdline", "rb") as fh:
                    cmdline = fh.read()
            except (OSError, IndexError, ValueError):
                continue
            if ppid == parent and b"spawn_main" in cmdline:
                pids.append(int(entry))
        return pids

    @staticmethod
    def _running(pid):
        """Alive and not a zombie waiting for its new parent to reap."""
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
        except OSError:
            return False

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads the process table from /proc")
    def test_fabric_workers_exit_when_the_router_is_sigkilled(
            self, tmp_path):
        import signal

        import numpy as np

        from repro.core.predictor import AnomalyPredictor
        from repro.serve.registry import ModelRegistry

        rng = np.random.default_rng(4)
        predictor = AnomalyPredictor([f"m{i}" for i in range(5)], n_bins=6)
        values = np.cumsum(rng.normal(size=(200, 5)), axis=0)
        predictor.train(values, (rng.random(200) < 0.3).astype(int))
        # vm1 and vm2 hash to different shards of a 2-worker ring.
        ModelRegistry(tmp_path / "registry").save(
            "fleet", {"vm1": predictor, "vm2": predictor})
        proc = self._spawn(tmp_path, [
            "fabric", "--registry", str(tmp_path / "registry"),
            "--name", "fleet", "--workers", "2",
            "--run-dir", str(tmp_path / "state"),
            "--socket", str(tmp_path / "fabric.sock"),
        ])
        workers = []
        try:
            banner = proc.stdout.readline()
            assert "2 workers serving" in banner, banner
            workers = self._worker_pids(proc.pid)
            assert len(workers) == 2, workers
            proc.send_signal(signal.SIGKILL)        # the router only
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while (any(map(self._running, workers))
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert not [p for p in workers if self._running(p)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            for pid in workers:
                if self._running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.stdout.close()

    def test_api_sigterm_graceful_exit(self, tmp_path):
        registry = TestServingCommands._snapshot(tmp_path)
        proc = self._spawn(tmp_path, [
            "api", "--registry", str(registry), "--name", "fleet",
            "--port", "0",
        ])
        self._assert_sigterm_drains(proc, "operator API")


class TestModelLifecycleCommands:
    @staticmethod
    def _registry(tmp_path, versions=2):
        import numpy as np

        from repro.core.predictor import AnomalyPredictor
        from repro.serve.registry import ModelRegistry

        rng = np.random.default_rng(4)
        predictor = AnomalyPredictor([f"m{i}" for i in range(5)], n_bins=6)
        values = np.cumsum(rng.normal(size=(200, 5)), axis=0)
        labels = (rng.random(200) < 0.3).astype(int)
        predictor.train(values, labels)
        registry = ModelRegistry(tmp_path / "registry")
        for v in range(versions):
            registry.save("fleet", {"vm1": predictor},
                          created_at=f"2026-08-0{v + 1}T00:00:00+00:00")
        return tmp_path / "registry"

    def test_promote_then_status_and_rollback(self, capsys, tmp_path):
        registry = self._registry(tmp_path)
        base = ["models", "--registry", str(registry)]
        assert main(base + ["promote", "--name", "fleet",
                            "--version", "1"]) == 0
        assert "champion v0001" in capsys.readouterr().out

        assert main(base + ["promote", "--name", "fleet",
                            "--version", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "name": "fleet", "version": 2, "previous": 1,
            "promoted_at": payload["promoted_at"],
        }

        assert main(base + ["status", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [{
            "name": "fleet", "active": 2, "previous": 1,
            "latest": 2, "versions": [1, 2],
        }]

        assert main(base + ["rollback", "--name", "fleet"]) == 0
        assert "champion v0001" in capsys.readouterr().out
        assert main(base + ["status"]) == 0
        out = capsys.readouterr().out
        assert "v0001" in out  # active column back on v1

    def test_list_marks_champion(self, capsys, tmp_path):
        registry = self._registry(tmp_path)
        base = ["models", "--registry", str(registry)]
        assert main(base + ["promote", "--name", "fleet",
                            "--version", "1"]) == 0
        capsys.readouterr()
        assert main(base) == 0
        lines = capsys.readouterr().out.splitlines()
        starred = [l for l in lines if l.rstrip().endswith("*")]
        assert len(starred) == 1 and "v0001" in starred[0]

    def test_promote_requires_name_and_version(self, capsys, tmp_path):
        registry = self._registry(tmp_path)
        assert main(["models", "--registry", str(registry),
                     "promote", "--name", "fleet"]) == 2
        assert "--version" in capsys.readouterr().err
        assert main(["models", "--registry", str(registry),
                     "rollback"]) == 2
        assert "--name" in capsys.readouterr().err

    def test_promote_unknown_version_exits_2(self, capsys, tmp_path):
        registry = self._registry(tmp_path)
        assert main(["models", "--registry", str(registry),
                     "promote", "--name", "fleet", "--version", "9"]) == 2
        assert "error" in capsys.readouterr().err

    def test_rollback_without_promotion_exits_2(self, capsys, tmp_path):
        registry = self._registry(tmp_path)
        assert main(["models", "--registry", str(registry),
                     "rollback", "--name", "fleet"]) == 2
        assert "roll back" in capsys.readouterr().err

    def test_serve_uses_champion_pointer(self, tmp_path):
        # With a pointer installed, `serve` resolves the champion, not
        # the latest version.
        from repro.serve.registry import ModelRegistry

        registry_path = self._registry(tmp_path)
        ModelRegistry(registry_path).promote("fleet", 1)
        args = build_parser().parse_args(
            ["serve", "--registry", str(registry_path), "--name", "fleet"]
        )
        assert args.version is None  # default: follow the pointer


class TestOperatorCommands:
    """`repro api` / `repro alarms`, mirroring the models-command tests."""

    @staticmethod
    @contextlib.contextmanager
    def _running_api():
        import asyncio
        import threading

        from repro.serve.alarms import AlarmManager
        from repro.serve.api import OperatorAPI

        alarms = AlarmManager()
        api = OperatorAPI(alarms)
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(api.start(host="127.0.0.1", port=0))
            started.set()
            loop.run_forever()
            loop.run_until_complete(api.stop())
            loop.close()

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert started.wait(5.0)
        try:
            yield alarms, f"http://127.0.0.1:{api.port}"
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(5.0)

    def test_api_defaults(self):
        args = build_parser().parse_args(
            ["api", "--registry", "r", "--name", "fleet"]
        )
        assert args.port == 8787
        assert args.serve_port == 0 and args.serve_socket is None

    def test_api_requires_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["api", "--registry", "r"])

    def test_api_missing_snapshot_exits_2(self, capsys, tmp_path):
        assert main(["api", "--registry", str(tmp_path / "none"),
                     "--name", "fleet"]) == 2
        assert "error" in capsys.readouterr().err

    def test_alarms_defaults(self):
        args = build_parser().parse_args(["alarms"])
        assert args.action == "list"
        assert args.url == "http://127.0.0.1:8787"

    def test_alarms_list_json(self, capsys):
        with self._running_api() as (alarms, url):
            alarms.raise_alarm("vm1", "anomaly:cpu", "critical",
                               message="cpu runaway")
            assert main(["alarms", "--url", url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["active"] == 1
        assert payload["alarms"][0]["vm"] == "vm1"
        assert payload["alarms"][0]["severity"] == "critical"

    def test_alarms_table_and_lifecycle_actions(self, capsys):
        with self._running_api() as (alarms, url):
            alarm = alarms.raise_alarm("vm1", "anomaly:mem", "warning",
                                       message="leak suspected")
            assert main(["alarms", "--url", url]) == 0
            out = capsys.readouterr().out
            assert "anomaly:mem" in out and "1 open" in out

            assert main(["alarms", "--url", url, "ack",
                         "--id", str(alarm.alarm_id)]) == 0
            assert "acked" in capsys.readouterr().out
            # Double-ack surfaces the 409 conflict as exit 1.
            assert main(["alarms", "--url", url, "ack",
                         "--id", str(alarm.alarm_id)]) == 1
            assert "acknowledged" in capsys.readouterr().err

            assert main(["alarms", "--url", url, "resolve",
                         "--id", str(alarm.alarm_id)]) == 0
            assert "resolved" in capsys.readouterr().out

    def test_alarms_raise_roundtrip(self, capsys):
        with self._running_api() as (_alarms, url):
            assert main(["alarms", "--url", url, "raise", "--vm", "vm9",
                         "--kind", "anomaly:net", "--severity", "info",
                         "--message", "synthetic", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vm"] == "vm9" and payload["state"] == "active"

    def test_alarms_action_argument_validation(self, capsys):
        assert main(["alarms", "ack"]) == 2
        assert "--id" in capsys.readouterr().err
        assert main(["alarms", "raise"]) == 2
        assert "--vm" in capsys.readouterr().err

    def test_alarms_unreachable_api_exits_2(self, capsys):
        assert main(["alarms", "--url", "http://127.0.0.1:9",
                     "--json"]) == 2
        assert "cannot reach" in capsys.readouterr().err
