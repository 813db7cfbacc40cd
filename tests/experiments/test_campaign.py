"""Tests for the campaign engine: expansion, determinism, resume.

The two load-bearing guarantees (see `docs/experiments.md`):

* a campaign run on N workers produces byte-identical per-job result
  records to a serial run;
* resuming an interrupted campaign completes the remaining jobs
  without re-running finished ones.
"""

import json

import pytest

from repro.experiments.campaign import (
    CampaignCheckpoint,
    CampaignSpec,
    RESULTS_FILE,
    execute_job,
    read_campaign_records,
    render_campaign_summary,
    run_campaign,
    summarize_campaign,
)
from repro.experiments.pool import iter_job_results, shard_round_robin

#: Short two-injection schedule (ends at 650 s) — runs in ~0.1 s each.
FAST = {
    "duration": 700.0,
    "first_injection_at": 200.0,
    "injection_duration": 150.0,
    "injection_gap": 150.0,
}


def small_spec(scheme="reactive", telemetry=False, seeds=(5, 7)):
    base = {"app": "rubis", "scheme": scheme, **FAST}
    if telemetry:
        base["telemetry"] = True
    return CampaignSpec(
        name="test-grid",
        base=base,
        axes={"fault": ["cpu_hog", "memory_leak"], "seed": list(seeds)},
    )


class TestSpecExpansion:
    def test_grid_is_cartesian_product_in_order(self):
        jobs = small_spec().expand()
        assert len(jobs) == 4
        assert [(j.params["fault"], j.params["seed"]) for j in jobs] == [
            ("cpu_hog", 5), ("cpu_hog", 7),
            ("memory_leak", 5), ("memory_leak", 7),
        ]
        assert [j.index for j in jobs] == [0, 1, 2, 3]

    def test_job_ids_stable_and_unique(self):
        first = small_spec().expand()
        second = small_spec().expand()
        assert [j.job_id for j in first] == [j.job_id for j in second]
        assert len({j.job_id for j in first}) == len(first)

    def test_dotted_axis_assigns_nested_params(self):
        spec = CampaignSpec(
            name="nested",
            base={"app": "rubis", "fault": "cpu_hog"},
            axes={"controller.lookahead_seconds": [10.0, 30.0]},
        )
        jobs = spec.expand()
        assert jobs[0].params["controller"] == {"lookahead_seconds": 10.0}

    def test_mapping_axis_sweeps_parameters_jointly(self):
        spec = CampaignSpec(
            name="joint",
            base={"app": "rubis", "fault": "cpu_hog"},
            axes={"filter": [
                {"controller.filter_k": 1, "controller.filter_w": 4},
                {"controller.filter_k": 3, "controller.filter_w": 4},
            ]},
        )
        jobs = spec.expand()
        assert jobs[0].params["controller"] == {"filter_k": 1, "filter_w": 4}
        assert jobs[1].params["controller"] == {"filter_k": 3, "filter_w": 4}
        assert "filter" not in jobs[0].params

    def test_duplicate_jobs_rejected(self):
        spec = CampaignSpec(
            name="dupes",
            base={"app": "rubis"},
            axes={"seed": [5, 5]},
        )
        with pytest.raises(ValueError, match="identical parameters"):
            spec.expand()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            CampaignSpec(name="bad", axes={"seed": []})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown campaign spec"):
            CampaignSpec.from_dict({"name": "x", "grid": {}})

    def test_unknown_job_kind_fails_at_execution(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            execute_job({"kind": "teleport", "params": {}})


class TestPool:
    def test_round_robin_sharding(self):
        assert shard_round_robin(5, 2) == [[0, 2, 4], [1, 3]]
        assert shard_round_robin(2, 4) == [[0], [1], [], []]

    def test_serial_path_captures_errors(self):
        def worker(payload):
            if payload == "boom":
                raise RuntimeError("exploded")
            return payload.upper()

        outcomes = list(iter_job_results(worker, ["ok", "boom"], jobs=1))
        assert outcomes[0] == (0, None, "OK")
        index, error, result = outcomes[1]
        assert (index, result) == (1, None)
        assert "exploded" in error


@pytest.mark.slow
class TestDeterminism:
    def test_two_workers_byte_identical_to_serial(self, tmp_path):
        """The tentpole guarantee: per-job result records from a
        2-worker campaign are byte-identical to a serial run."""
        spec = small_spec()
        run_campaign(spec, checkpoint_dir=tmp_path / "serial", jobs=1)
        run_campaign(spec, checkpoint_dir=tmp_path / "parallel", jobs=2)

        serial_lines = sorted(
            (tmp_path / "serial" / RESULTS_FILE).read_bytes().splitlines()
        )
        parallel_lines = sorted(
            (tmp_path / "parallel" / RESULTS_FILE).read_bytes().splitlines()
        )
        assert serial_lines == parallel_lines
        assert len(serial_lines) == 4

    def test_telemetry_records_stay_deterministic(self):
        """Telemetry-enabled jobs must not leak wall-clock quantities
        into result records (stage latencies are stripped)."""
        spec = small_spec(telemetry=True, seeds=(5,))
        first = run_campaign(spec)
        second = run_campaign(spec, jobs=2)
        assert first.records == second.records
        telemetry = first.records[0]["result"]["telemetry"]
        assert "stage_latency" not in telemetry
        assert telemetry["alerts"]["confirmed"] >= 0
        assert telemetry["responses"]


@pytest.mark.slow
class TestCheckpointResume:
    def test_resume_completes_without_rerunning(self, tmp_path):
        spec = small_spec()
        ckpt = tmp_path / "camp"
        # Interrupted campaign: stop cleanly after 2 of 4 jobs.
        first = run_campaign(spec, checkpoint_dir=ckpt, limit=2)
        assert len(first.executed) == 2
        assert not first.complete

        second = run_campaign(spec, checkpoint_dir=ckpt, resume=True, jobs=2)
        assert sorted(second.skipped) == sorted(first.executed)
        assert len(second.executed) == 2
        assert set(second.executed).isdisjoint(first.executed)
        assert second.complete

        # The resumed result set matches a fresh serial run exactly.
        reference = run_campaign(spec)
        assert second.records == reference.records
        assert read_campaign_records(ckpt) == reference.records

    def test_resume_of_complete_campaign_runs_nothing(self, tmp_path):
        spec = small_spec(seeds=(5,))
        run_campaign(spec, checkpoint_dir=tmp_path, jobs=2)
        again = run_campaign(spec, checkpoint_dir=tmp_path, resume=True)
        assert again.executed == []
        assert len(again.skipped) == 2
        assert again.complete

    def test_restart_without_resume_flag_is_refused(self, tmp_path):
        spec = small_spec(seeds=(5,))
        run_campaign(spec, checkpoint_dir=tmp_path, limit=1)
        with pytest.raises(ValueError, match="resume"):
            run_campaign(spec, checkpoint_dir=tmp_path)

    def test_checkpoint_rejects_different_spec(self, tmp_path):
        run_campaign(small_spec(seeds=(5,)), checkpoint_dir=tmp_path, limit=1)
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(
                small_spec(seeds=(5, 7)), checkpoint_dir=tmp_path, resume=True
            )

    def test_torn_tail_record_is_dropped_and_rerun(self, tmp_path):
        spec = small_spec(seeds=(5,))
        run_campaign(spec, checkpoint_dir=tmp_path)
        results = tmp_path / RESULTS_FILE
        lines = results.read_text().splitlines()
        # Simulate a kill mid-write: final record truncated.
        results.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        resumed = run_campaign(spec, checkpoint_dir=tmp_path, resume=True)
        assert len(resumed.skipped) == 1
        assert len(resumed.executed) == 1
        assert resumed.complete

    def test_corrupt_interior_record_raises(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, checkpoint_dir=tmp_path)
        results = tmp_path / RESULTS_FILE
        lines = results.read_text().splitlines()
        lines[1] = lines[1][:20]
        results.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt record"):
            CampaignCheckpoint(tmp_path).load_records()

    def test_manifest_pins_job_ids(self, tmp_path):
        spec = small_spec(seeds=(5,))
        run_campaign(spec, checkpoint_dir=tmp_path, limit=0)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["job_ids"] == [j.job_id for j in spec.expand()]
        assert manifest["spec"]["name"] == "test-grid"


@pytest.mark.slow
class TestFailureHandling:
    def test_failing_job_reported_not_checkpointed(self, tmp_path):
        spec = CampaignSpec(
            name="partial-failure",
            base={"app": "rubis", "fault": "cpu_hog", "scheme": "none",
                  **FAST},
            # duration 100 cannot cover the injection schedule -> raises.
            axes={"duration": [700.0, 100.0]},
        )
        report = run_campaign(spec, checkpoint_dir=tmp_path)
        assert len(report.executed) == 1
        assert len(report.failed) == 1
        assert "duration" in next(iter(report.failed.values()))
        assert not report.complete
        # Only the good job was checkpointed; resume retries the bad one.
        assert len(read_campaign_records(tmp_path)) == 1

    def test_bad_controller_sweep_value_fails_job_by_field_name(self):
        spec = CampaignSpec(
            name="bad-sweep-value",
            base={"app": "rubis", "fault": "cpu_hog", "scheme": "prepare",
                  **FAST},
            axes={"controller.retrain_every": [12, 0]},
        )
        report = run_campaign(spec)
        assert len(report.executed) == 1
        # Rejected when the job builds its config, naming the field —
        # not a ZeroDivisionError out of the control loop mid-run.
        assert list(report.failed.values()) == [
            "ValueError: retrain_every must be finite and >= 1, got 0"
        ]

    def test_progress_callback_sees_every_job(self):
        seen = []
        spec = small_spec(scheme="none", seeds=(5,))
        run_campaign(
            spec,
            progress=lambda done, total, job, error:
                seen.append((done, total, job.job_id, error)),
        )
        assert len(seen) == 2
        assert seen[-1][0] == 2 and all(total == 2 for _, total, _, _ in seen)
        assert all(error is None for _, _, _, error in seen)


@pytest.mark.slow
class TestSummary:
    def test_scheme_aggregation_with_telemetry(self):
        spec = CampaignSpec(
            name="summary",
            base={"app": "rubis", "fault": "cpu_hog", "telemetry": True,
                  "seed": 5, **FAST},
            axes={"scheme": ["reactive", "none"]},
        )
        report = run_campaign(spec, jobs=2)
        summary = report.summary
        assert summary["jobs_completed"] == 2
        assert summary["by_kind"] == {"experiment": 2}
        assert set(summary["schemes"]) == {"reactive", "none"}
        reactive = summary["schemes"]["reactive"]
        assert reactive["jobs"] == 1
        assert reactive["violation_time"]["mean"] >= 0.0
        assert "alerts" in reactive
        assert reactive["action_response_s"]["count"] >= 0

        text = render_campaign_summary(summary)
        assert "reactive" in text and "none" in text
        assert "2 jobs completed" in text

    def test_summarize_empty(self):
        summary = summarize_campaign([])
        assert summary["jobs_completed"] == 0
        assert render_campaign_summary(summary)


@pytest.mark.slow
class TestPortedSweeps:
    def test_lookahead_sweep_parallel_matches_serial(self):
        from repro.experiments.sweeps import lookahead_sweep
        from repro.faults import FaultKind

        kwargs = dict(lookaheads=(10.0, 30.0), seed=5)
        serial = lookahead_sweep("rubis", FaultKind.CPU_HOG, **kwargs)
        parallel = lookahead_sweep("rubis", FaultKind.CPU_HOG, jobs=2,
                                   **kwargs)
        assert serial == parallel
        assert set(serial) == {10.0, 30.0}

    def test_scalability_cell_self_seeded(self):
        from repro.experiments.scalability import scalability_cell

        cell = scalability_cell(4, seed=3, rounds=2)
        assert set(cell) == {"round_ms", "per_vm_ms"}
        assert cell["round_ms"] > 0.0
