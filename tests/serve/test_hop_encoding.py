"""WAL lines and worker-hop lines under hostile but valid input.

The router encodes a routed sample's values once: ``ShardJournal.extend``
splices each WAL line from the VM's cached JSON name and the values
text, and hands the line (without its closing brace) back as the
sample's *record*; the hop to the worker is spliced from that record
(``fabric._hop_sample`` / ``_hop_line`` / ``_batch_line``).  These
tests pin both splices against the dict encoders they replaced:

* a WAL line equals ``JSONEncoder(separators=(",", ":"))`` over
  ``{"vm": vm, "values": floats}`` — appended and compacted alike;
* a hop line decodes (``decode_line``) to what the old
  ``encode_message`` dict decoded to, every float compared by
  ``float.hex`` so ``-0.0`` and a subnormal cannot hide.

The VM names carry a quote, a backslash, a tab, a non-ASCII letter and
``</x>``.  Writing the name as ``'"%s"' % vm`` instead of JSON-encoding
it (in ``ShardJournal``'s cached line heads) fails every class here:
the quote, backslash and tab names give undecodable lines and ``vm-é``
loses its ``ensure_ascii`` form ``vm-\\u00e9``.
"""

import asyncio
import json

import pytest

from repro.serve.fabric import (
    ServingFabric,
    _batch_line,
    _hop_line,
    _hop_sample,
    shard_ring,
)
from repro.serve.journal import ShardJournal
from repro.serve.protocol import decode_line, encode_message
from repro.serve.registry import ModelRegistry
from tests.serve.test_fabric import (
    STEPS,
    ExpectedTracker,
    _Client,
    fabric_config,
    train_predictor,
)

HOSTILE_VMS = ['vm"q', "vm\\b", "vm\tt", "vm-é", "</x>"]
#: journaled as floats: the integer 3 becomes 3.0
HOSTILE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 3]

_REFERENCE = json.JSONEncoder(separators=(",", ":"))


def wal_line(vm, values):
    """The WAL line the dict encoder writes for one sample."""
    return _REFERENCE.encode(
        {"vm": vm, "values": [float(v) for v in values]}) + "\n"


def hexed(obj):
    """``obj`` with every float replaced by its ``float.hex``."""
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, list):
        return [hexed(v) for v in obj]
    if isinstance(obj, dict):
        return {k: hexed(v) for k, v in obj.items()}
    return obj


def hexed_tails(tails):
    return {vm: hexed(samples) for vm, samples in tails.items()}


def rows(n):
    """``n`` samples per hostile VM, the hostile values first."""
    out = []
    for t in range(n):
        for i, vm in enumerate(HOSTILE_VMS):
            values = (HOSTILE_VALUES if t == 0
                      else [0.1 * t + i, -2.5, 7, 1e-300])
            out.append((vm, values))
    return out


def journal(tmp_path, need=2, name="s0.wal"):
    return ShardJournal(tmp_path / name,
                        {vm: need for vm in HOSTILE_VMS}, compact_factor=0)


class TestWalLines:
    def test_appended_lines_equal_the_dict_encoding(self, tmp_path):
        records = rows(2)
        with journal(tmp_path) as j:
            texts = j.extend(records)              # a multi-sample frame
            texts += j.extend(records[:1])         # a frame of one
            j.append(*records[1])
            want_tails = j.tails()
        written = records + records[:2]
        data = (tmp_path / "s0.wal").read_bytes()
        assert data.decode("utf-8").splitlines(keepends=True) == [
            wal_line(vm, values) for vm, values in written]
        assert [t + "}\n" for t in texts] == [
            wal_line(vm, values) for vm, values in written[:len(texts)]]
        assert data.isascii() and b"vm-\\u00e9" in data
        assert b"[-0.0,5e-324,1.7976931348623157e+308,3.0]" in data
        reopened = journal(tmp_path)
        assert reopened.open() == len(written)
        assert hexed_tails(reopened.tails()) == hexed_tails(want_tails)
        reopened.close()

    def test_compacted_lines_are_the_append_form_of_the_tails(
            self, tmp_path):
        with journal(tmp_path, need=3) as j:
            j.extend(rows(5))
            tails = j.tails()
            records = j.hydration_records()
            assert j.compact() == len(records) == 3 * len(HOSTILE_VMS)
        want = [wal_line(vm, values)
                for vm in sorted(tails) for values in tails[vm]]
        assert (tmp_path / "s0.wal").read_text("utf-8") == "".join(want)
        assert [r + "}\n" for r in records] == want
        reopened = journal(tmp_path, need=3)
        assert reopened.open() == len(want)
        assert hexed_tails(reopened.tails()) == hexed_tails(tails)
        reopened.close()

    def test_hostile_values_survive_compaction_bitwise(self, tmp_path):
        with journal(tmp_path, need=4) as j:
            j.extend(rows(1))
            j.compact()
        reopened = journal(tmp_path, need=4)
        reopened.open()
        got = reopened.tails()
        reopened.close()
        for vm in HOSTILE_VMS:
            assert hexed(got[vm]) == [hexed([float(v)
                                             for v in HOSTILE_VALUES])]


def old_sender_message(iid, entries):
    """The dict the sender used to encode for queued entries."""
    samples = []
    for op, vm, values, steps in entries:
        s = {"op": op, "vm": vm, "values": [float(v) for v in values]}
        if steps is not None:
            s["steps"] = steps
        samples.append(s)
    if len(samples) == 1:
        return {**samples[0], "id": iid}
    return {"op": "batch", "id": iid, "samples": samples}


def spliced_hop(tmp_path, iid, entries):
    with journal(tmp_path) as j:
        records = j.extend([(vm, values) for _, vm, values, _ in entries])
    return _hop_line(iid, [_hop_sample(record, op, steps)
                           for record, (op, _, _, steps)
                           in zip(records, entries)])


def frame_cases():
    one = ("sample", HOSTILE_VMS[0], HOSTILE_VALUES, None)
    return {
        "sample, no steps": [one],
        "sample with steps": [("sample", "vm\tt", HOSTILE_VALUES, 7)],
        "observe": [("observe", "vm-é", HOSTILE_VALUES, None)],
        "multi-sample frame": [
            (("sample", "observe")[k % 2], vm, values,
             (None, STEPS, 256)[k % 3])
            for k, (vm, values) in enumerate(rows(2))
        ],
    }


class TestHopLines:
    @pytest.mark.parametrize("case", list(frame_cases()))
    def test_hop_decodes_like_the_dict_encoding(self, tmp_path, case):
        entries = frame_cases()[case]
        line = spliced_hop(tmp_path, 41, entries)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert line.isascii()
        got = decode_line(line)
        want = decode_line(encode_message(old_sender_message(41, entries)))
        assert hexed(got) == hexed(want)
        assert got["op"] == ("batch" if len(entries) > 1 else entries[0][0])

    @pytest.mark.parametrize("n", [1, 2, len(HOSTILE_VMS)])
    def test_hydration_batch_decodes_like_the_dict_encoding(
            self, tmp_path, n):
        with journal(tmp_path, need=1) as j:
            j.extend(rows(1)[:n])
            samples = j.hydration_samples()
            line = _batch_line(0, [_hop_sample(record, "observe", None)
                                   for record in j.hydration_records()])
        want = {"op": "batch", "id": 0, "samples": [
            {"op": "observe", "vm": vm, "values": values}
            for vm, values in samples]}
        assert hexed(decode_line(line)) == hexed(
            decode_line(encode_message(want)))


class TestHostileNamesThroughTheFabric:
    def test_scores_and_wal_restart_match_one_service(self, tmp_path):
        predictors, traces = {}, {}
        for i, vm in enumerate(HOSTILE_VMS):
            predictors[vm], traces[vm] = train_predictor(seed=70 + i)
        registry = ModelRegistry(tmp_path / "models")
        registry.save("fleet", predictors)
        run_dir, sock = tmp_path / "run", tmp_path / "fabric.sock"
        tracker = ExpectedTracker(predictors)
        sent = []

        def values_at(vm, t):
            if vm == HOSTILE_VMS[0] and t == 2:
                return HOSTILE_VALUES + [0.5]
            return traces[vm][t].tolist()

        def check(reply, op, vm, values):
            sent.append((vm, values))
            want = tracker.feed(predictors, vm, values)
            assert reply["vm"] == vm
            if op == "observe":
                assert reply["kind"] == "observed"
            elif want is None:
                assert reply["kind"] == "warmup"
            else:
                assert reply["kind"] == "score", reply
                assert reply["score"] == want.score
                assert reply["probability"] == want.probability

        async def frames(client, t_range):
            for t in t_range:
                samples = [{"vm": vm, "values": values_at(vm, t)}
                           for vm in HOSTILE_VMS]
                for k, sample in enumerate(samples):
                    if k % 2:
                        sample["steps"] = STEPS
                reply = await client.request(
                    {"op": "batch", "id": t, "samples": samples})
                assert reply["kind"] == "batch" and reply["id"] == t
                for sample, r in zip(samples, reply["replies"]):
                    check(r, "sample", sample["vm"], sample["values"])

        async def singles(client, t, op="sample"):
            for vm in HOSTILE_VMS:
                values = values_at(vm, t)
                reply = await client.request(
                    {"op": op, "vm": vm, "values": values, "id": t})
                check(reply, op, vm, values)

        async def run(t_frames, t_singles, t_observe):
            fabric = ServingFabric(registry, run_dir, fabric_config(
                n_workers=2, compact_factor=0))
            await fabric.start(path=str(sock))
            try:
                async with _Client(sock) as client:
                    await frames(client, t_frames)
                    await singles(client, t_singles)
                    await singles(client, t_observe, op="observe")
            finally:
                await fabric.stop()

        asyncio.run(run(range(4), 4, 5))
        ring = shard_ring(sorted(HOSTILE_VMS), 2)
        for shard in (0, 1):
            lines = (run_dir / f"shard-{shard}.wal").read_text(
                "utf-8").splitlines(keepends=True)
            assert lines == [wal_line(vm, values) for vm, values in sent
                             if ring[vm] == shard]
        # A new fabric replays the WAL and hydrates its workers through
        # the spliced observe batches: scores continue bitwise.
        asyncio.run(run(range(6, 8), 8, 9))
        for shard in (0, 1):
            for line in (run_dir / f"shard-{shard}.wal").read_text(
                    "utf-8").splitlines(keepends=True):
                record = json.loads(line)
                assert line == wal_line(record["vm"], record["values"])
