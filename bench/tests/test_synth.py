import json

import pytest

from bench.synth import TRACE_ROWS, Stream, build_fleet, reply_matches


@pytest.fixture(scope="module")
def fleet():
    fleet = build_fleet(seed=5, n_vms=6)
    fleet.build_oracle()
    return fleet


def test_same_seed_gives_byte_identical_request_lines(fleet):
    again = build_fleet(seed=5, n_vms=6)
    assert Stream(fleet).lines(0, 200) == Stream(again).lines(0, 200)
    assert Stream(fleet).frame(0, 64, 9) == Stream(again).frame(0, 64, 9)
    other = build_fleet(seed=6, n_vms=6)
    assert Stream(fleet).lines(0, 200) != Stream(other).lines(0, 200)


def test_lines_are_valid_protocol_requests(fleet):
    from repro.serve.protocol import decode_line

    stream = Stream(fleet)
    message = decode_line(stream.line(7, 42))
    vm, j = stream.sample_at(7)
    assert (message["op"], message["vm"], message["id"]) == ("sample", vm, 42)
    assert message["values"] == fleet.rows[vm][j % TRACE_ROWS].tolist()
    batch = decode_line(stream.frame(3, 5, 1))
    assert [s["vm"] for s in batch["samples"]] == [
        stream.sample_at(k)[0] for k in range(3, 8)]


def test_two_connections_keep_per_vm_order(fleet):
    vms = fleet.vms
    halves = [Stream(fleet, vms[0::2]), Stream(fleet, vms[1::2])]
    assert set(halves[0].vms).isdisjoint(halves[1].vms)
    assert sorted(halves[0].vms + halves[1].vms) == vms
    for half in halves:
        seen = {}
        for k in range(10 * len(half.vms)):
            vm, j = half.sample_at(k)
            assert j == seen.get(vm, -1) + 1  # 0, 1, 2, ... per VM
            seen[vm] = j


def test_oracle_is_warmup_then_the_offline_score(fleet):
    stream = Stream(fleet)
    n = len(stream.vms)
    assert stream.expected(0)["kind"] == "warmup"
    assert stream.expected(n - 1)["kind"] == "warmup"
    vm, j = stream.sample_at(n + 2)
    predictor = fleet.predictors[vm]
    want = predictor.predict(fleet.rows[vm][j - 1:j + 1], 4)
    got = stream.expected(n + 2)
    assert got == {"kind": "score", "abnormal": bool(want.abnormal),
                   "probability": want.probability, "score": want.score}
    # The cycle wraps: the sample after the last row pairs it with row 0.
    k = n * TRACE_ROWS + 1
    vm, j = stream.sample_at(k)
    wrap = fleet.predictors[vm].predict(
        fleet.rows[vm][[TRACE_ROWS - 1, 0]], 4)
    assert stream.expected(k)["score"] == wrap.score


def test_reply_matches_is_exact(fleet):
    expected = Stream(fleet).expected(len(fleet.vms))
    good = dict(expected, ok=True, id=3, vm="vm000", steps=4)
    assert reply_matches(expected, json.loads(json.dumps(good)))
    assert not reply_matches(expected, dict(good, score=good["score"] + 1e-12))
    assert not reply_matches(expected, dict(good, kind="shed"))
    assert not reply_matches(expected, None)


def test_decision_digest_repeats_for_a_seed():
    from bench.campaign import Cell, _sweep, decision_digest
    from repro.faults.base import FaultKind

    cells = [Cell("rubis", FaultKind.CPU_HOG, "prepare", 900.0, 1)]
    first, _, _ = _sweep(cells, 4)
    second, _, _ = _sweep(cells, 4)
    other, _, _ = _sweep(cells, 5)
    assert decision_digest(first) == decision_digest(second)
    assert decision_digest(first) != decision_digest(other)
