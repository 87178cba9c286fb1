"""Write-ahead log: framing, torn tails, replay, checkpointing, auditing.

The WAL contract under test: every mutation is durable in the log before
any in-memory structure changes, so the on-disk state is always *base
generation + logged mutations*; replay is deterministic (recorded ids,
recorded SFC keys, zero distance computations); a checkpoint folds the log
into a fresh generation behind the same atomic catalog rename that PR 1
introduced, and a log left stale by a checkpoint crash is ignored rather
than double-applied.
"""

from __future__ import annotations

import os

import pytest

from repro.core.persist import load_tree, open_tree, save_tree
from repro.core.spbtree import SPBTree
from repro.core.verify import verify_tree
from repro.distance import EditDistance
from repro.storage.wal import (
    OP_DELETE,
    OP_INSERT,
    WAL_FILE,
    WriteAheadLog,
    scan_wal,
)


@pytest.fixture()
def words(small_words):
    return small_words[:120]


@pytest.fixture()
def saved_dir(tmp_path, words, edit):
    """A saved index directory (generation 1) over 120 words."""
    tree = SPBTree.build(words, edit, num_pivots=3, seed=7)
    directory = str(tmp_path / "idx")
    generation = save_tree(tree, directory)
    assert generation == 1
    return directory


def _live(tree) -> list[str]:
    return sorted(obj for _, _, obj in tree.raf.scan())


class TestLogFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / WAL_FILE)
        with WriteAheadLog(path) as wal:
            wal.start(3, 100, 100)
            wal.append_insert(100, 0xDEADBEEF, b"object-bytes")
            wal.append_delete(7, b"victim")
            assert (wal.insert_count, wal.delete_count) == (1, 1)
        header, records, valid_end, torn = scan_wal(path)
        assert header.base_generation == 3
        assert header.base_object_count == 100
        assert header.base_next_id == 100
        assert not torn
        assert valid_end == os.path.getsize(path)
        assert [(r.op, r.obj_id, r.key, r.payload) for r in records] == [
            (OP_INSERT, 100, 0xDEADBEEF, b"object-bytes"),
            (OP_DELETE, -1, 7, b"victim"),
        ]

    def test_append_requires_header(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / WAL_FILE))
        with pytest.raises(ValueError, match="no header"):
            wal.append_insert(0, 1, b"x")
        wal.start(0, 0, 0)
        with pytest.raises(ValueError, match="already has a header"):
            wal.start(0, 0, 0)
        wal.close()

    def test_torn_tail_dropped_and_appendable(self, tmp_path):
        path = str(tmp_path / WAL_FILE)
        with WriteAheadLog(path) as wal:
            wal.start(1, 10, 10)
            wal.append_insert(10, 42, b"kept")
            wal.append_insert(11, 43, b"will-be-torn")
        intact = os.path.getsize(path)
        # Tear the last frame mid-payload, as a crash mid-append would.
        with open(path, "r+b") as fh:
            fh.truncate(intact - 5)
        header, records, valid_end, torn = scan_wal(path)
        assert torn and header is not None
        assert [r.payload for r in records] == [b"kept"]
        # Reopening truncates the tail so new appends stay replayable.
        with WriteAheadLog(path) as wal:
            assert wal.torn_tail
            assert wal.record_count == 1
            wal.append_insert(11, 43, b"retried")
        header, records, _, torn = scan_wal(path)
        assert not torn
        assert [r.payload for r in records] == [b"kept", b"retried"]

    def test_corrupt_byte_stops_scan_cleanly(self, tmp_path):
        path = str(tmp_path / WAL_FILE)
        with WriteAheadLog(path) as wal:
            wal.start(1, 0, 0)
            wal.append_insert(0, 5, b"aaaa")
            first_two = wal.size_in_bytes
            wal.append_insert(1, 6, b"bbbb")
        with open(path, "r+b") as fh:
            fh.seek(first_two + 10)
            fh.write(b"\xff")
        header, records, valid_end, torn = scan_wal(path)
        assert header is not None and torn
        assert [r.payload for r in records] == [b"aaaa"]
        assert valid_end == first_two

    def test_truncate_rebinds_to_new_generation(self, tmp_path):
        path = str(tmp_path / WAL_FILE)
        wal = WriteAheadLog(path)
        wal.start(1, 50, 50)
        wal.append_insert(50, 9, b"folded")
        wal.truncate(2, 51, 51)
        assert wal.header.base_generation == 2
        assert wal.record_count == 0
        wal.append_delete(3, b"fresh")
        wal.close()
        header, records, _, torn = scan_wal(path)
        assert header.base_generation == 2 and not torn
        assert [r.op for r in records] == [OP_DELETE]

    def test_missing_file_scans_empty(self, tmp_path):
        assert scan_wal(str(tmp_path / "absent.log")) == (None, [], 0, False)


class TestReplay:
    def test_load_replays_live_wal(self, saved_dir, edit, words):
        tree = open_tree(saved_dir, edit)
        tree.insert("zzyzx")
        tree.insert("syzygy")
        assert tree.delete(words[5])
        expected = _live(tree)
        tree.wal.close()
        # A reopen (the crash-recovery path) replays the log over the base.
        recovered = load_tree(saved_dir, edit)
        assert _live(recovered) == expected
        assert recovered.object_count == tree.object_count
        assert recovered._next_id == tree._next_id
        assert verify_tree(recovered).ok
        # Replay costs zero distance computations (keys are recorded).
        assert recovered.distance_computations == 0
        # Queries agree with the mutated tree.
        assert sorted(recovered.range_query("zzyzx", 0)) == ["zzyzx"]
        assert recovered.range_query(words[5], 0) == []

    def test_replay_can_be_disabled(self, saved_dir, edit):
        tree = open_tree(saved_dir, edit)
        tree.insert("zzyzx")
        base_count = tree.object_count - 1
        tree.wal.close()
        base_only = load_tree(saved_dir, edit, replay_wal=False)
        assert base_only.object_count == base_count
        assert base_only.range_query("zzyzx", 0) == []

    def test_stale_wal_is_ignored_and_reset(self, saved_dir, edit):
        """A checkpoint that crashed after the catalog rename but before the
        WAL truncation leaves a stale log; replaying it would double-apply."""
        tree = open_tree(saved_dir, edit)
        tree.insert("zzyzx")
        expected = _live(tree)
        # Simulate the crash window: commit generation 2, keep the old log.
        save_tree(tree, saved_dir)
        tree.wal.close()
        loaded = load_tree(saved_dir, edit)  # must NOT replay the stale log
        assert _live(loaded) == expected
        assert loaded.object_count == tree.object_count
        # begin_logging rebinds the stale log instead of double-applying.
        wal = WriteAheadLog(os.path.join(saved_dir, WAL_FILE))
        loaded.begin_logging(wal)
        assert wal.header.base_generation == loaded._generation
        assert wal.record_count == 0
        wal.close()

    def test_future_generation_wal_refused(self, saved_dir, edit):
        wal = WriteAheadLog(os.path.join(saved_dir, WAL_FILE))
        wal.start(99, 120, 120)
        wal.close()
        tree = load_tree(saved_dir, edit, replay_wal=False)
        wal = WriteAheadLog(os.path.join(saved_dir, WAL_FILE))
        with pytest.raises(ValueError, match="newer"):
            tree.begin_logging(wal)
        wal.close()


class TestCheckpoint:
    def test_checkpoint_reload_equals_memory_exactly(self, saved_dir, edit, words):
        tree = open_tree(saved_dir, edit)
        for word in ("zzyzx", "syzygy", "qwerty"):
            tree.insert(word)
        assert tree.delete(words[0])
        assert tree.delete("qwerty")
        generation = tree.checkpoint()
        assert generation == 2
        assert tree.wal.record_count == 0
        assert tree.wal.header.base_generation == 2
        tree.wal.close()
        reloaded = load_tree(saved_dir, edit)
        assert _live(reloaded) == _live(tree)
        assert reloaded.object_count == tree.object_count
        assert reloaded._next_id == tree._next_id
        assert reloaded._generation == 2
        assert sorted(reloaded.btree.items()) == sorted(tree.btree.items())
        assert verify_tree(reloaded).ok

    def test_mutate_checkpoint_mutate_cycle(self, saved_dir, edit):
        tree = open_tree(saved_dir, edit)
        tree.insert("alpha")
        tree.checkpoint()
        tree.insert("beta")  # logged against generation 2
        assert tree.wal.record_count == 1
        expected = _live(tree)
        tree.wal.close()
        recovered = load_tree(saved_dir, edit)
        assert _live(recovered) == expected


class TestVerifyWalAgreement:
    def test_clean_tree_with_wal_verifies(self, saved_dir, edit, words):
        tree = open_tree(saved_dir, edit)
        tree.insert("zzyzx")
        assert tree.delete(words[2])
        report = verify_tree(tree)
        assert report.ok, report.errors
        tree.wal.close()

    def test_unapplied_log_record_is_detected(self, saved_dir, edit):
        tree = open_tree(saved_dir, edit)
        tree.insert("zzyzx")
        # Log a mutation without applying it — the tree and its WAL now
        # disagree, which is exactly the corruption verify must surface.
        payload = tree.raf.serializer.serialize("ghost")
        tree.wal.append_insert(tree._next_id, 12345, payload)
        report = verify_tree(tree)
        assert not report.ok
        assert any("WAL" in err for err in report.errors)
        tree.wal.close()

    def test_lost_update_is_detected(self, saved_dir, edit):
        tree = open_tree(saved_dir, edit)
        tree.insert("zzyzx")
        # Wind back the in-memory apply (a lost update): counts disagree.
        entry = tree._find_live_entry(
            tree.curve.encode(tree.space.grid("zzyzx")),
            tree.raf.serializer.serialize("zzyzx"),
        )
        tree.btree.delete(entry.key, entry.ptr)
        tree.raf.mark_deleted(entry.ptr)
        tree.object_count -= 1
        report = verify_tree(tree)
        assert not report.ok
        tree.wal.close()


class TestBatchFlush:
    """Satellite: WAL-backed inserts batch partial-page flushes."""

    def test_wal_inserts_write_fewer_pages(self, saved_dir, tmp_path, edit):
        import shutil

        plain_dir = str(tmp_path / "plain")
        shutil.copytree(saved_dir, plain_dir)
        walled = open_tree(saved_dir, edit)
        plain = load_tree(plain_dir, edit)
        new_words = [f"zz{chr(97 + i)}q" for i in range(10)]

        before_w = walled.raf.pagefile.counter.total
        before_p = plain.raf.pagefile.counter.total
        for word in new_words:
            walled.insert(word)
            plain.insert(word)
        writes_walled = walled.raf.pagefile.counter.total - before_w
        writes_plain = plain.raf.pagefile.counter.total - before_p
        # Write-through flushes the partial tail page on every insert; the
        # WAL path defers, so it touches strictly fewer pages.
        assert writes_plain >= len(new_words)
        assert writes_walled < writes_plain

        # PA accounting stays correct: the deferred tail is still readable,
        # an explicit flush persists it, and both trees agree exactly.
        assert _live(walled) == _live(plain)
        assert walled.object_count == plain.object_count
        walled.raf.flush()
        assert walled.raf._tail_flushed == len(walled.raf._tail)
        assert _live(walled) == _live(plain)
        assert verify_tree(walled).ok
        walled.wal.close()

    def test_mixed_flush_modes_read_correctly(self, tmp_path):
        """A partially-flushed tail plus unflushed batch appends must read
        back exactly (the _tail_flushed bookkeeping)."""
        from repro.storage.raf import RandomAccessFile
        from repro.storage.serializers import StringSerializer

        raf = RandomAccessFile(StringSerializer())
        offsets = [raf.append(0, "write-through")]  # flushes partial tail
        offsets.append(raf.append(1, "batched-one", flush=False))
        offsets.append(raf.append(2, "batched-two", flush=False))
        got = [raf.read(off) for off in offsets]
        assert got == [(0, "write-through"), (1, "batched-one"), (2, "batched-two")]
        raf.flush()
        assert [raf.read(off) for off in offsets] == got
