"""Replication crash matrix: kill the process at every shipping, ack,
re-sync, and promotion boundary.

Two matrices, same methodology as the rebalance matrix
(`test_cluster_crash.py`): a fault-free probe counts the persistence
boundaries an operation crosses, then the operation is re-run once per
boundary with a :class:`SimulatedCrash` armed at exactly that point, and
recovery is judged **from the disk state alone**:

* **Shipping matrix** — a write workload over a replicated cluster.  An
  insert that returned was acknowledged, so it must survive *every*
  crash point; an in-flight insert may appear or not (it was never
  acked), but nothing else may change, and every member's log must
  replay to a clean prefix.
* **Promotion matrix** — a failover killed at every boundary.  The
  catalog must be the pre-promotion membership or the post-promotion
  one, never a hybrid; no acknowledged write is lost either way; and on
  the post side the demoted ex-primary's WAL is provably fenced (a
  write attempt through it raises :class:`StaleWalError`).
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.cluster import ShardedIndex, load_catalog
from repro.replication import replicate
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.wal import WAL_FILE, StaleWalError, WriteAheadLog

SHARDS = 2
FOLLOWERS = 1


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory, small_words, edit) -> str:
    """A small saved cluster, already replicated — the matrix clones it."""
    cluster = ShardedIndex.build(
        small_words[:120], edit, shards=SHARDS, num_pivots=3, seed=5
    )
    directory = str(tmp_path_factory.mktemp("repl-crash") / "base")
    cluster.save(directory)
    cluster.close()
    replicate(directory, edit, replicas=FOLLOWERS, read_policy="primary-only")
    return directory


def _objects(directory: str, metric) -> "list[str]":
    idx = ShardedIndex.open(directory, metric, wal_fsync=False)
    try:
        return sorted(str(o) for o in idx.objects())
    finally:
        idx.close()


def _member_logs_replay_cleanly(directory: str) -> None:
    """Every member WAL (primary and follower) must open to a valid
    prefix — the torn tail, if any, is silently truncated, never half
    applied."""
    for entry in sorted(os.listdir(directory)):
        wal_path = os.path.join(directory, entry, WAL_FILE)
        if not os.path.isfile(wal_path):
            continue
        wal = WriteAheadLog(wal_path, fsync=False)
        wal.records()  # decodes the full committed prefix or raises
        wal.close()


class TestShippingCrashMatrix:
    """Crash an insert workload at every WAL/ship/ack boundary."""

    BATCH_START, BATCH_END = 120, 128

    def _workload(self, directory, edit, small_words, injector):
        """Run the insert workload; returns the words whose insert
        *returned* (the acknowledged set)."""
        acked = []
        idx = ShardedIndex.open(
            directory, edit, wal_fsync=False, faults=injector
        )
        try:
            for word in small_words[self.BATCH_START:self.BATCH_END]:
                idx.insert(word)
                acked.append(word)
        finally:
            idx.close()
        return acked

    def test_no_acked_write_is_ever_lost(
        self, base_dir, tmp_path, small_words, edit
    ):
        baseline = _objects(base_dir, edit)
        # Fault-free probe: boundary count and the full-batch outcome.
        probe_dir = str(tmp_path / "probe")
        shutil.copytree(base_dir, probe_dir)
        master = FaultInjector()
        all_acked = self._workload(probe_dir, edit, small_words, master)
        total = master.ops
        assert len(all_acked) == self.BATCH_END - self.BATCH_START
        assert total > 3 * len(all_acked), (
            "expected commit+ship+ack boundaries per write"
        )
        batch = set(small_words[self.BATCH_START:self.BATCH_END])
        survived = 0
        for n in range(total + 1):
            directory = str(tmp_path / f"crash-{n}")
            shutil.copytree(base_dir, directory)
            acked: list = []
            try:
                acked = self._workload(
                    directory, edit, small_words, FaultInjector(crash_after=n)
                )
                survived += 1
            except SimulatedCrash:
                # The workload helper's finally-close ran, but the disk
                # state is whatever the crash left; judge only that.
                pass
            _member_logs_replay_cleanly(directory)
            recovered = set(_objects(directory, edit))
            # Every acknowledged write survived …
            lost = (set(baseline) | set(map(str, acked))) - recovered
            assert not lost, f"crash point {n} lost acked writes: {lost}"
            # … and nothing beyond the batch appeared or vanished.
            extra = recovered - set(baseline) - set(map(str, batch))
            assert not extra, f"crash point {n} invented objects: {extra}"
            idx = ShardedIndex.open(directory, edit, wal_fsync=False)
            try:
                assert idx.verify().ok, f"crash point {n} failed verify"
                # Recovery leaves every follower caught up again.
                for rset in idx._sets.values():
                    for rid in rset.member_ids():
                        assert rset.lag(rid) == 0, (
                            f"crash point {n}: replica {rid} still lagging"
                        )
            finally:
                idx.close()
        assert survived == 1  # only the fault-free tail completes


class TestPromotionCrashMatrix:
    """Crash a failover at every boundary: pre or post, never hybrid."""

    def _prepare(self, base_dir, directory, edit, small_words):
        """Clone the base cluster and give it a written history so the
        promotion has real acked state to preserve."""
        shutil.copytree(base_dir, directory)
        idx = ShardedIndex.open(directory, edit, wal_fsync=False)
        try:
            for word in small_words[130:142]:
                idx.insert(word)
            sid = sorted(idx._sets)[0]
        finally:
            idx.close()
        return sid

    def _membership(self, directory):
        cat = load_catalog(directory)
        return [
            (
                s.shard_id,
                s.directory,
                tuple((r.replica_id, r.role) for r in s.replicas),
            )
            for s in cat.shards
        ]

    def _failover(self, directory, edit, sid, injector):
        idx = ShardedIndex.open(
            directory, edit, wal_fsync=False, faults=injector
        )
        try:
            rset = idx._sets[sid]
            idx._sets[sid].mark_down(rset.primary.replica_id)
            return idx.failover(sid, faults=injector)
        finally:
            idx.close()

    def test_catalog_is_pre_or_post_and_fence_holds(
        self, base_dir, tmp_path, small_words, edit
    ):
        master_dir = str(tmp_path / "prepared")
        sid = self._prepare(base_dir, master_dir, edit, small_words)
        pre = self._membership(master_dir)
        expected = _objects(master_dir, edit)
        # Fault-free probe.
        probe_dir = str(tmp_path / "probe")
        shutil.copytree(master_dir, probe_dir)
        master = FaultInjector()
        info = self._failover(probe_dir, edit, sid, master)
        total = master.ops
        post = self._membership(probe_dir)
        assert post != pre
        assert total >= 2, "expected checkpoint and catalog-rename boundaries"
        old_primary_dir = next(
            s.directory for s in load_catalog(master_dir).shards
            if s.shard_id == sid
        )
        survived = 0
        for n in range(total + 1):
            directory = str(tmp_path / f"crash-{n}")
            shutil.copytree(master_dir, directory)
            try:
                got = self._failover(
                    directory, edit, sid, FaultInjector(crash_after=n)
                )
                assert got["promoted"] == info["promoted"]
                survived += 1
            except SimulatedCrash:
                pass
            membership = self._membership(directory)
            assert membership in (pre, post), (
                f"crash point {n} left a hybrid catalog: {membership}"
            )
            if membership == post:
                # The promotion committed: the ex-primary's on-disk WAL
                # still predates the catalog's shard generation — any
                # write attempt through it must be refused.  Checked
                # *before* reopening: the first reopen legitimately
                # re-syncs the demoted member onto the new generation,
                # turning the zombie into an honest follower.
                cat_gen = next(
                    s.generation
                    for s in load_catalog(directory).shards
                    if s.shard_id == sid
                )
                zombie = WriteAheadLog(
                    os.path.join(directory, old_primary_dir, WAL_FILE),
                    fsync=False,
                )
                try:
                    with pytest.raises(StaleWalError):
                        zombie.require_base_generation(cat_gen)
                finally:
                    zombie.close()
            assert _objects(directory, edit) == expected, (
                f"crash point {n} lost acked writes across promotion"
            )
            idx = ShardedIndex.open(directory, edit, wal_fsync=False)
            try:
                assert idx.verify().ok, f"crash point {n} failed verify"
            finally:
                idx.close()
        assert survived == 1
