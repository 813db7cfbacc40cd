"""Tests for the per-shard WAL: append, replay, compaction, torn tail."""

import json

import pytest

from repro.serve.journal import ShardJournal


NEED = {"web-0": 3, "db-0": 2}


def fill(journal, n=5):
    for t in range(n):
        journal.append("web-0", [float(t), float(t) + 0.5])
        journal.append("db-0", [10.0 + t])


class TestShardJournal:
    def test_append_keeps_only_trailing_window(self, tmp_path):
        with ShardJournal(tmp_path / "s0.wal", NEED) as j:
            fill(j, n=5)
            tails = j.tails()
        assert tails["web-0"] == [[2.0, 2.5], [3.0, 3.5], [4.0, 4.5]]
        assert tails["db-0"] == [[13.0], [14.0]]

    def test_replay_restores_tails_bitwise(self, tmp_path):
        path = tmp_path / "s0.wal"
        with ShardJournal(path, NEED) as j:
            fill(j, n=7)
            want = j.tails()
        fresh = ShardJournal(path, NEED)
        replayed = fresh.open()
        assert replayed == 14
        assert fresh.tails() == want
        fresh.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "s0.wal"
        with ShardJournal(path, NEED) as j:
            fill(j, n=4)
            want = j.tails()
        # Simulate a router killed mid-append: partial final line.
        with open(path, "ab") as fh:
            fh.write(b'{"vm": "web-0", "values": [99.0')
        fresh = ShardJournal(path, NEED)
        fresh.open()
        assert fresh.tails() == want
        assert fresh.stats()["torn_lines"] == 1
        # Appending after recovery starts a fresh line: the journal is
        # opened append-only, so the torn bytes are superseded on the
        # next compaction, and replay keeps stopping at the torn line
        # until then.
        fresh.append("db-0", [55.0])
        kept = fresh.compact()
        assert kept == sum(len(t) for t in fresh.tails().values())
        again = ShardJournal(path, NEED)
        again.open()
        assert again.tails() == fresh.tails()
        assert again.stats()["torn_lines"] == 0
        fresh.close()
        again.close()

    def test_compaction_is_atomic_and_preserves_tails(self, tmp_path):
        path = tmp_path / "s0.wal"
        with ShardJournal(path, NEED) as j:
            fill(j, n=20)
            before = j.tails()
            kept = j.compact()
            assert kept == 5  # 3 + 2 retained samples
            assert j.tails() == before
            # Appends keep working after the swap.
            j.append("web-0", [7.0, 7.5])
        lines = path.read_bytes().splitlines()
        assert len(lines) == 6
        assert all(json.loads(l) for l in lines)
        assert not path.with_suffix(".wal.tmp").exists()

    def test_auto_compaction_bounds_file_growth(self, tmp_path):
        path = tmp_path / "s0.wal"
        with ShardJournal(path, NEED, compact_factor=2) as j:
            fill(j, n=50)
            stats = j.stats()
        assert stats["compactions"] >= 1
        # capacity 5, factor 2 -> never more than ~11 records on disk.
        assert stats["records_on_disk"] <= 2 * 5 + 1

    def test_hydration_samples_replay_order(self, tmp_path):
        with ShardJournal(tmp_path / "s0.wal", NEED) as j:
            fill(j, n=4)
            flat = j.hydration_samples()
        assert [vm for vm, _ in flat] == ["db-0"] * 2 + ["web-0"] * 3
        assert flat[0] == ("db-0", [12.0])

    def test_unknown_vm_and_misuse_rejected(self, tmp_path):
        j = ShardJournal(tmp_path / "s0.wal", NEED)
        with pytest.raises(RuntimeError, match="not open"):
            j.append("web-0", [1.0, 2.0])
        j.open()
        with pytest.raises(RuntimeError, match="already open"):
            j.open()
        with pytest.raises(KeyError, match="ghost"):
            j.append("ghost", [1.0])
        j.close()
        with pytest.raises(ValueError, match="at least one"):
            ShardJournal(tmp_path / "x.wal", {})
        with pytest.raises(ValueError, match=">= 1"):
            ShardJournal(tmp_path / "x.wal", {"a": 0})

    def test_garbage_lines_stop_replay_safely(self, tmp_path):
        path = tmp_path / "s0.wal"
        path.write_bytes(
            b'{"vm": "web-0", "values": [1.0, 2.0]}\n'
            b"\xff\xfe not json\n"
            b'{"vm": "web-0", "values": [3.0, 4.0]}\n'
        )
        j = ShardJournal(path, NEED)
        replayed = j.open()
        # Replay stops at the first bad line: the file is append-only,
        # so nothing after a corrupt record is trusted.
        assert replayed == 1
        assert j.tails()["web-0"] == [[1.0, 2.0]]
        j.close()


def frame(n=5):
    """``n`` rounds of both VMs' samples, in arrival order."""
    return [record for t in range(n) for record in (
        ("web-0", [float(t), float(t) + 0.5]), ("db-0", [10.0 + t]))]


class TestFrameWrites:
    def test_one_call_equals_per_record_appends(self, tmp_path):
        records = frame(7) + [("web-0", [1e-300, -0.0]),
                              ("db-0", [0.1 + 0.2])]
        with ShardJournal(tmp_path / "each.wal", NEED,
                          compact_factor=0) as each:
            for vm, values in records:
                each.append(vm, values)
            each_tails = each.tails()
        with ShardJournal(tmp_path / "frame.wal", NEED,
                          compact_factor=0) as whole:
            whole.extend(records)
            assert whole.tails() == each_tails
            assert whole.stats()["appended"] == len(records)
        assert (tmp_path / "frame.wal").read_bytes() == (
            tmp_path / "each.wal").read_bytes()
        first = (tmp_path / "frame.wal").read_bytes().split(b"\n")[0]
        assert first == b'{"vm":"web-0","values":[0.0,0.5]}'
        reopened = ShardJournal(tmp_path / "frame.wal", NEED)
        assert reopened.open() == len(records)
        assert reopened.tails() == each_tails
        reopened.close()

    def test_truncation_inside_a_frame_keeps_the_complete_prefix(
            self, tmp_path):
        path = tmp_path / "s0.wal"
        records = frame(6)
        with ShardJournal(path, NEED, compact_factor=0) as j:
            j.extend(records)
        data = path.read_bytes()
        ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        for cut in range(1, len(data)):
            path.write_bytes(data[:cut])
            complete = sum(1 for end in ends if end <= cut)
            prefix = ShardJournal(tmp_path / "want.wal", NEED,
                                  compact_factor=0)
            prefix.open()
            prefix.extend(records[:complete])
            prefix.close()
            (tmp_path / "want.wal").unlink()
            torn = ShardJournal(path, NEED, compact_factor=0)
            assert torn.open() == complete
            assert torn.tails() == prefix.tails()
            assert torn.stats()["torn_lines"] == int(cut not in ends)
            torn.close()

    def test_auto_compaction_fires_once_after_the_crossing_frame(
            self, tmp_path):
        # capacity 3 + 2 = 5, factor 2: compaction once past 10 records.
        with ShardJournal(tmp_path / "s0.wal", NEED,
                          compact_factor=2) as j:
            j.extend(frame(4))                  # 8 records on disk
            assert j.stats()["compactions"] == 0
            j.extend(frame(3))                  # 14 > 10, mid-frame
            stats = j.stats()
            assert stats["compactions"] == 1
            assert stats["records_on_disk"] == 5
            assert stats["appended"] == 14
            tails = j.tails()
        reopened = ShardJournal(tmp_path / "s0.wal", NEED)
        assert reopened.open() == 5
        assert reopened.tails() == tails
        reopened.close()

    def test_unknown_vm_writes_nothing(self, tmp_path):
        with ShardJournal(tmp_path / "s0.wal", NEED) as j:
            with pytest.raises(KeyError, match="ghost"):
                j.extend([("web-0", [1.0, 2.0]), ("ghost", [1.0])])
            j.extend([])
            assert j.tail_len("web-0") == 0
            assert j.stats()["appended"] == 0
        assert (tmp_path / "s0.wal").read_bytes() == b""
