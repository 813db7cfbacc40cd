"""Tests for the fleet scorer and the micro-batching service."""

import asyncio
import json

import numpy as np
import pytest

from repro.core.predictor import AnomalyPredictor
from repro.serve.fabric import FabricConfig
from repro.serve.protocol import (
    MAX_BATCH_SAMPLES,
    MAX_STEPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_message,
)
from repro.serve.service import FleetScorer, PredictionService, ServiceConfig

N_ATTRS = 9


def train_predictor(seed=0, markov="2dep", classifier="tan", mode="soft",
                    n_attrs=N_ATTRS):
    rng = np.random.default_rng(seed)
    predictor = AnomalyPredictor(
        [f"m{i}" for i in range(n_attrs)], n_bins=6, markov=markov,
        classifier=classifier, prediction_mode=mode,
    )
    values = np.cumsum(rng.normal(size=(250, n_attrs)), axis=0)
    labels = (rng.random(250) < 0.3).astype(int)
    return predictor.train(values, labels), values


def make_fleet(n_vms=6, **kwargs):
    predictors, traces = {}, {}
    for i in range(n_vms):
        p, v = train_predictor(seed=20 + i, **kwargs)
        predictors[f"vm{i}"] = p
        traces[f"vm{i}"] = v
    return predictors, traces


def make_batch(predictors, traces, steps=4):
    return [
        (vm, traces[vm][30 + i:30 + i + predictors[vm].history_needed + 2],
         steps)
        for i, vm in enumerate(sorted(predictors))
    ]


def assert_results_bitwise_equal(batch, results, predictors):
    for (vm, recent, steps), got in zip(batch, results):
        want = predictors[vm].predict(recent, steps)
        assert got.abnormal == want.abnormal
        assert got.score == want.score
        assert got.probability == want.probability
        assert got.bins == want.bins
        assert got.strengths == want.strengths
        assert got.steps == want.steps
        assert got.attributes == want.attributes


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        line = encode_message({"op": "sample", "vm": "a", "values": [1.0]})
        assert line.endswith(b"\n")
        assert decode_line(line)["vm"] == "a"

    def test_rejects_garbage(self):
        for bad in (b"\xff\xfe\n", b"not json\n", b"[1,2]\n",
                    b'{"op": "launch"}\n'):
            with pytest.raises(ProtocolError):
                decode_line(bad)

    def test_sample_validation(self):
        base = {"op": "sample", "vm": "a", "values": [1.0, 2.0]}
        decode_line(encode_message(base))
        for patch in ({"vm": ""}, {"vm": 3}, {"values": []},
                      {"values": [1.0, float("nan")]},
                      {"values": [1.0, True]}, {"steps": 0},
                      {"steps": "four"}):
            with pytest.raises(ProtocolError):
                decode_line(encode_message({**base, **patch}))

    def test_steps_are_bounded_on_the_wire_and_in_configs(self):
        base = {"op": "sample", "vm": "a", "values": [1.0]}
        assert decode_line(encode_message({**base, "steps": MAX_STEPS}))
        for message in (
            {**base, "steps": MAX_STEPS + 1},
            {"op": "batch", "samples": [{**base, "steps": 1_000_000}]},
        ):
            with pytest.raises(ProtocolError, match=str(MAX_STEPS)):
                decode_line(encode_message(message))
        for config in (ServiceConfig, FabricConfig):
            assert config(steps=MAX_STEPS).steps == MAX_STEPS
            for bad in (0, MAX_STEPS + 1, 4.0):
                with pytest.raises(ProtocolError, match=str(MAX_STEPS)):
                    config(steps=bad)

    def test_rejects_nul_bytes(self):
        with pytest.raises(ProtocolError, match="NUL"):
            decode_line(b'{"op": "ping"}\x00\n')
        with pytest.raises(ProtocolError, match="NUL"):
            decode_line('{"op": "ping"}\x00')
        with pytest.raises(ProtocolError, match="NUL"):
            decode_line(json.dumps(
                {"op": "sample", "vm": "a\x00b", "values": [1.0]}))

    def test_observe_validates_like_sample(self):
        message = decode_line(encode_message(
            {"op": "observe", "vm": "a", "values": [1, 2]}))
        assert message["values"] == [1.0, 2.0]
        with pytest.raises(ProtocolError):
            decode_line(encode_message(
                {"op": "observe", "vm": "a", "values": []}))

    def test_batch_validation(self):
        message = decode_line(encode_message({
            "op": "batch", "id": 1,
            "samples": [
                {"vm": "a", "values": [1.0]},
                {"op": "observe", "vm": "b", "values": [2.0]},
            ],
        }))
        # Member ops default to "sample" and are written back.
        assert [s["op"] for s in message["samples"]] == [
            "sample", "observe"]
        for samples in ([], "nope", [{"op": "ping"}],
                        [{"vm": "a", "values": [float("inf")]}],
                        [{}] * (MAX_BATCH_SAMPLES + 1)):
            with pytest.raises(ProtocolError):
                decode_line(encode_message(
                    {"op": "batch", "samples": samples}))
        with pytest.raises(ProtocolError, match="batch sample 1"):
            decode_line(encode_message({
                "op": "batch",
                "samples": [{"vm": "a", "values": [1.0]},
                            {"vm": "", "values": [1.0]}],
            }))


class TestFleetScorerTiers:
    """Every scoring tier must equal AnomalyPredictor.predict bitwise."""

    def test_fast_tier_all_tan(self):
        predictors, traces = make_fleet(6)
        # Mixed soft/hard and mixed steps still take the fast tier.
        predictors["vm1"].prediction_mode = "hard"
        predictors["vm4"].prediction_mode = "hard"
        scorer = FleetScorer(predictors)
        assert scorer._fast is not None
        batch = make_batch(predictors, traces)
        batch[2] = (batch[2][0], batch[2][1], 7)
        assert_results_bitwise_equal(
            batch, scorer.score(batch), predictors
        )

    def test_fast_tier_simple_chains(self):
        predictors, traces = make_fleet(4, markov="simple")
        scorer = FleetScorer(predictors)
        assert scorer._fast is not None
        batch = make_batch(predictors, traces, steps=3)
        assert_results_bitwise_equal(
            batch, scorer.score(batch), predictors
        )

    def test_middle_tier_mixed_classifiers(self):
        predictors, traces = make_fleet(2)
        naive, naive_values = train_predictor(seed=91, classifier="naive")
        predictors["vmN"] = naive
        traces["vmN"] = naive_values
        scorer = FleetScorer(predictors)
        assert scorer._fast is None          # naive blocks the fast tier
        assert scorer.stacked                # chains still stack
        batch = make_batch(predictors, traces)
        assert_results_bitwise_equal(
            batch, scorer.score(batch), predictors
        )

    def test_sequential_tier_mixed_chain_variants(self):
        predictors, traces = make_fleet(2)
        simple, simple_values = train_predictor(seed=92, markov="simple")
        predictors["vmS"] = simple
        traces["vmS"] = simple_values
        scorer = FleetScorer(predictors)
        assert not scorer.stacked
        batch = make_batch(predictors, traces)
        assert_results_bitwise_equal(
            batch, scorer.score(batch), predictors
        )

    def test_vm_subset_and_duplicates(self):
        predictors, traces = make_fleet(5)
        scorer = FleetScorer(predictors)
        batch = [
            ("vm3", traces["vm3"][10:13], 4),
            ("vm1", traces["vm1"][40:42], 2),
            ("vm3", traces["vm3"][80:83], 4),
        ]
        assert_results_bitwise_equal(
            batch, scorer.score(batch), predictors
        )

    def test_retrain_invalidates_stack_but_stays_correct(self):
        predictors, traces = make_fleet(3)
        scorer = FleetScorer(predictors)
        assert scorer.stacked
        retrained, values = train_predictor(seed=93)
        rng = np.random.default_rng(93)
        new_values = 5 + 3 * np.cumsum(
            rng.normal(size=(250, N_ATTRS)), axis=0
        )
        labels = (rng.random(250) < 0.5).astype(int)
        predictors["vm0"].train(new_values, labels)
        traces["vm0"] = new_values
        assert not scorer.stacked
        batch = make_batch(predictors, traces)
        assert_results_bitwise_equal(
            batch, scorer.score(batch), predictors
        )
        # Repaired, not bypassed: the call left the stack current.
        assert scorer.stacked

    def test_rejects_empty_and_untrained(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetScorer({})
        fresh = AnomalyPredictor([f"m{i}" for i in range(N_ATTRS)])
        with pytest.raises(ValueError, match="not trained"):
            FleetScorer({"vm": fresh})

    def test_rejects_bad_batch_items(self):
        predictors, traces = make_fleet(2)
        scorer = FleetScorer(predictors)
        with pytest.raises(ValueError, match="steps"):
            scorer.score([("vm0", traces["vm0"][:3], 0)])
        with pytest.raises(ValueError, match="recent"):
            scorer.score([("vm0", traces["vm0"][:3, :4], 4)])
        with pytest.raises(ValueError, match="recent samples"):
            scorer.score([("vm0", traces["vm0"][:1], 4)])


class _Client:
    """Minimal newline-JSON test client against a unix socket."""

    def __init__(self, path):
        self.path = path

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_unix_connection(
            self.path
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def request(self, message):
        self.writer.write(encode_message(message))
        await self.writer.drain()
        return json.loads(await self.reader.readline())


def run_service_test(coro_factory, predictors, config=None):
    async def main():
        import tempfile
        from pathlib import Path
        service = PredictionService(predictors, config)
        with tempfile.TemporaryDirectory() as tmp:
            sock = str(Path(tmp) / "serve.sock")
            await service.start(path=sock)
            try:
                return await coro_factory(service, sock)
            finally:
                await service.stop()
    return asyncio.run(main())


class TestPredictionService:
    def test_ping_stats_and_unknown_vm(self):
        predictors, _ = make_fleet(2)

        async def scenario(service, sock):
            async with _Client(sock) as client:
                pong = await client.request({"op": "ping"})
                stats = await client.request({"op": "stats"})
                missing = await client.request({
                    "op": "sample", "vm": "ghost",
                    "values": [0.0] * N_ATTRS,
                })
                return pong, stats, missing

        pong, stats, missing = run_service_test(scenario, predictors)
        assert pong["kind"] == "pong"
        assert pong["version"] == PROTOCOL_VERSION
        assert stats["kind"] == "stats" and stats["n_vms"] == 2
        assert stats["stacked"] is True
        assert missing["kind"] == "error"
        assert "ghost" in missing["error"]

    def test_warmup_then_scores_match_offline(self):
        predictors, traces = make_fleet(2)

        async def scenario(service, sock):
            replies = []
            async with _Client(sock) as client:
                for t in range(5):
                    for vm in sorted(predictors):
                        replies.append(await client.request({
                            "op": "sample", "vm": vm, "id": len(replies),
                            "values": traces[vm][t].tolist(), "steps": 3,
                        }))
            return replies

        replies = run_service_test(scenario, predictors)
        assert [r["kind"] for r in replies[:2]] == ["warmup"] * 2
        assert all(r["kind"] == "score" for r in replies[2:])
        # Offline controller replication: same trailing-history rule.
        for vm in sorted(predictors):
            p = predictors[vm]
            vm_scores = [r for r in replies if r.get("vm") == vm
                         and r["kind"] == "score"]
            for t, reply in enumerate(vm_scores, start=2):
                recent = traces[vm][t - 2:t]
                want = p.predict(recent[-p.history_needed:], 3)
                assert reply["abnormal"] == bool(want.abnormal)
                assert reply["score"] == want.score

    def test_wrong_arity_is_an_error_not_a_crash(self):
        predictors, _ = make_fleet(1)

        async def scenario(service, sock):
            async with _Client(sock) as client:
                bad = await client.request({
                    "op": "sample", "vm": "vm0", "values": [1.0, 2.0]})
                pong = await client.request({"op": "ping"})
                return bad, pong

        bad, pong = run_service_test(scenario, predictors)
        assert bad["kind"] == "error" and "expected" in bad["error"]
        assert pong["kind"] == "pong"

    def test_shedding_under_overload(self):
        predictors, traces = make_fleet(1)
        config = ServiceConfig(max_pending=0, batch_window=0.001)

        async def scenario(service, sock):
            async with _Client(sock) as client:
                for t in range(2):
                    reply = await client.request({
                        "op": "sample", "vm": "vm0",
                        "values": traces["vm0"][t].tolist()})
                return reply, service.stats()

        reply, stats = run_service_test(scenario, predictors, config)
        assert reply["kind"] == "shed"
        assert "queue full" in reply["reason"]
        assert stats["sheds"] == 1

    def test_drain_is_a_barrier(self):
        predictors, traces = make_fleet(3)
        # A wide window would leave samples queued without the barrier.
        config = ServiceConfig(batch_window=0.05)

        async def scenario(service, sock):
            async with _Client(sock) as client:
                writer = client.writer
                n = 0
                for t in range(6):
                    for vm in sorted(predictors):
                        writer.write(encode_message({
                            "op": "sample", "vm": vm, "id": n,
                            "values": traces[vm][t].tolist()}))
                        n += 1
                writer.write(encode_message({"op": "drain"}))
                await writer.drain()
                replies = []
                while len(replies) < n + 1:
                    replies.append(
                        json.loads(await client.reader.readline())
                    )
                return replies, service.stats()

        replies, stats = run_service_test(scenario, predictors, config)
        assert replies[-1]["kind"] == "drained"
        kinds = [r["kind"] for r in replies[:-1]]
        assert kinds.count("warmup") == 3
        assert kinds.count("score") == 15
        assert stats["pending"] == 0
        assert stats["samples"] == 18
        assert stats["scores"] == 15

    def test_malformed_line_gets_error_reply(self):
        predictors, _ = make_fleet(1)

        async def scenario(service, sock):
            async with _Client(sock) as client:
                client.writer.write(b"this is not json\n")
                await client.writer.drain()
                return json.loads(await client.reader.readline())

        reply = run_service_test(scenario, predictors)
        assert reply["kind"] == "error"

    def test_unbounded_steps_refused_and_connection_survives(self):
        """``{"op":"sample","steps":1000000}`` used to build a
        million-step operator inside the event loop."""
        predictors, traces = make_fleet(1)

        async def scenario(service, sock):
            async with _Client(sock) as client:
                row = [float(v) for v in traces["vm0"][0]]
                refused = await asyncio.wait_for(client.request({
                    "op": "sample", "vm": "vm0", "values": row,
                    "steps": 1_000_000,
                }), timeout=5.0)
                return refused, await client.request({"op": "ping"})

        refused, pong = run_service_test(scenario, predictors)
        assert refused["kind"] == "error"
        assert str(MAX_STEPS) in refused["error"]
        assert pong["kind"] == "pong"

    def test_observe_extends_history_without_scoring(self):
        predictors, traces = make_fleet(1)
        p = predictors["vm0"]

        async def scenario(service, sock):
            async with _Client(sock) as client:
                observed = []
                for t in range(p.history_needed):
                    observed.append(await client.request({
                        "op": "observe", "vm": "vm0",
                        "values": traces["vm0"][t].tolist()}))
                score = await client.request({
                    "op": "sample", "vm": "vm0",
                    "values": traces["vm0"][p.history_needed].tolist()})
                return observed, score, service.stats()

        observed, score, stats = run_service_test(scenario, predictors)
        assert all(r["kind"] == "observed" for r in observed)
        assert observed[-1]["have"] == p.history_needed
        # The first scored sample is already warm: observe pre-filled
        # the trailing history exactly like scored samples would have.
        assert score["kind"] == "score"
        recent = traces["vm0"][:p.history_needed + 1][-p.history_needed:]
        want = p.predict(recent, 4)
        assert score["score"] == want.score
        assert stats["observed"] == p.history_needed
        assert stats["scores"] == 1

    def test_reset_clears_histories(self):
        predictors, traces = make_fleet(1)
        p = predictors["vm0"]

        async def scenario(service, sock):
            async with _Client(sock) as client:
                for t in range(p.history_needed + 1):
                    await client.request({
                        "op": "sample", "vm": "vm0",
                        "values": traces["vm0"][t].tolist()})
                reset = await client.request({"op": "reset", "id": 9})
                after = await client.request({
                    "op": "sample", "vm": "vm0",
                    "values": traces["vm0"][0].tolist()})
                return reset, after

        reset, after = run_service_test(scenario, predictors)
        assert reset["kind"] == "reset" and reset["id"] == 9
        assert reset["n_vms"] == 1
        assert after["kind"] == "warmup" and after["have"] == 1

    def test_batch_replies_align_and_match_singles(self):
        predictors, traces = make_fleet(2)
        p = predictors["vm0"]

        async def scenario(service, sock):
            async with _Client(sock) as client:
                samples = []
                for t in range(4):
                    for vm in sorted(predictors):
                        samples.append({
                            "op": "sample", "vm": vm,
                            "values": traces[vm][t].tolist()})
                # Mix an observe and an error into the same batch.
                samples.append({
                    "op": "observe", "vm": "vm0",
                    "values": traces["vm0"][4].tolist()})
                samples.append({
                    "op": "sample", "vm": "ghost",
                    "values": [0.0] * N_ATTRS})
                return await client.request({
                    "op": "batch", "id": 42, "samples": samples})

        reply = run_service_test(scenario, predictors)
        assert reply["kind"] == "batch" and reply["id"] == 42
        assert reply["n"] == 10 and len(reply["replies"]) == 10
        kinds = [r["kind"] for r in reply["replies"]]
        assert kinds[:2] == ["warmup", "warmup"]
        assert kinds[2:8] == ["score"] * 6
        assert kinds[8:] == ["observed", "error"]
        # Batched decisions replicate the one-sample-per-line path.
        for t, slot in ((1, 2), (2, 4), (3, 6)):
            recent = traces["vm0"][t - 1:t + 1][-p.history_needed:]
            want = p.predict(recent, 4)
            got = reply["replies"][slot]
            assert got["vm"] == "vm0"
            assert got["score"] == want.score
            assert got["abnormal"] == bool(want.abnormal)

    def test_oversized_line_gets_error_then_close(self):
        predictors, _ = make_fleet(1)
        config = ServiceConfig(max_line_bytes=1024)

        async def scenario(service, sock):
            async with _Client(sock) as client:
                client.writer.write(b'{"op": "ping", "pad": "' +
                                    b"x" * 4096 + b'"}\n')
                await client.writer.drain()
                reply = json.loads(await client.reader.readline())
                eof = await client.reader.readline()
                return reply, eof

        reply, eof = run_service_test(scenario, predictors, config)
        assert reply["kind"] == "error" and "exceeds" in reply["error"]
        assert eof == b""  # connection closed: stream cannot resync

    def test_half_open_connection_times_out(self):
        predictors, _ = make_fleet(1)
        config = ServiceConfig(read_timeout=0.05)

        async def scenario(service, sock):
            async with _Client(sock) as client:
                pong = await client.request({"op": "ping"})
                # Send nothing further; the service must hang up.
                eof = await asyncio.wait_for(
                    client.reader.readline(), timeout=2.0)
                return pong, eof

        pong, eof = run_service_test(scenario, predictors, config)
        assert pong["kind"] == "pong"
        assert eof == b""

    def test_start_twice_and_bad_endpoints(self):
        predictors, _ = make_fleet(1)

        async def scenario(service, sock):
            with pytest.raises(RuntimeError, match="already started"):
                await service.start(path=sock + ".other")
            return True

        assert run_service_test(scenario, predictors)

        async def no_endpoint():
            service = PredictionService(predictors)
            with pytest.raises(ValueError, match="either host"):
                await service.start()

        asyncio.run(no_endpoint())
