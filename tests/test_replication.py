"""Functional replication tests: bootstrap, shipping, routing, fencing.

The crash matrix (`test_replication_crash.py`) and chaos suite
(`test_replication_chaos.py`) prove the failure-time guarantees; this
file pins the sunny-day mechanics — replicate a saved cluster, ship
synchronously on every write, route reads by policy, track liveness,
fence zombies — plus the catalog loader's rejection of malformed
replica membership.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.cluster import (
    READ_POLICIES,
    ReplicaSelector,
    ShardedIndex,
    load_catalog,
)
from repro.core.persist import CatalogError
from repro.replication import (
    NoPromotableFollowerError,
    PrimaryDownError,
    ReplicationError,
    replicate,
)
from repro.service.context import QueryContext
from repro.storage.wal import WAL_FILE, StaleWalError, scan_wal
from repro.supervisor import Supervisor


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory, small_words, edit) -> str:
    cluster = ShardedIndex.build(
        small_words[:250], edit, shards=3, num_pivots=3, seed=3
    )
    directory = str(tmp_path_factory.mktemp("repl") / "base")
    cluster.save(directory)
    cluster.close()
    return directory


@pytest.fixture()
def repl_dir(base_dir, tmp_path, edit) -> str:
    directory = str(tmp_path / "cluster")
    shutil.copytree(base_dir, directory)
    replicate(directory, edit, replicas=2, read_policy="round-robin")
    return directory


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------- bootstrap


class TestReplicate:
    def test_creates_follower_dirs_and_catalog_rows(self, repl_dir):
        cat = load_catalog(repl_dir)
        assert cat.read_policy == "round-robin"
        for meta in cat.shards:
            roles = sorted(r.role for r in meta.replicas)
            assert roles == ["follower", "follower", "primary"]
            primary = next(r for r in meta.replicas if r.role == "primary")
            assert primary.directory == meta.directory
            for rep in meta.replicas:
                assert os.path.isdir(os.path.join(repl_dir, rep.directory))

    def test_followers_start_at_primary_position(self, repl_dir, edit):
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            for rset in idx._sets.values():
                for rid in rset.member_ids():
                    assert rset.lag(rid) == 0
                for rep in rset.followers:
                    assert (
                        rep.tree.object_count
                        == rset.primary.tree.object_count
                    )
        finally:
            idx.close()

    def test_rejects_double_replicate_and_bad_policy(self, repl_dir, edit):
        with pytest.raises(ReplicationError, match="already"):
            replicate(repl_dir, edit, replicas=1)
        with pytest.raises(ValueError, match="read policy"):
            replicate(repl_dir, edit, read_policy="nearest-dartboard")

    def test_fills_the_shards_a_rebalance_made(self, tmp_path, edit, small_words):
        """A split retires a replicated shard and makes two without
        followers; ``replicate`` again gives exactly those theirs, and a
        write then reaches every new follower's log byte for byte."""
        directory = str(tmp_path / "cluster")
        cluster = ShardedIndex.build(
            small_words[:240], edit, shards=2, num_pivots=3, seed=3
        )
        cluster.save(directory)
        cluster.close()
        assert replicate(directory, edit, replicas=1) == [0, 1]
        idx = ShardedIndex.open(directory, edit)
        try:
            idx.rebalance(split=0)
            made = sorted(s.shard_id for s in idx.shards if s.shard_id != 1)
        finally:
            idx.close()
        assert len(made) == 2
        with pytest.raises(ReplicationError, match="replicas=1, not 2"):
            replicate(directory, edit, replicas=2)
        assert replicate(directory, edit, replicas=1) == made
        idx = ShardedIndex.open(directory, edit)
        try:
            assert sorted(idx._sets) == sorted(s.shard_id for s in idx.shards)
            before = {i: idx._sets[i].primary.tree.object_count for i in made}
            for word in small_words[240:300]:
                idx.insert(word)
            for shard_id in made:
                rset = idx._sets[shard_id]
                assert [r.replica_id for r in rset.followers] == [1]
                primary, follower = rset.primary, rset.followers[0]
                assert primary.tree.object_count > before[shard_id]
                assert rset.lag(1) == 0
                assert follower.wal.position == primary.wal.position
                with open(primary.wal.path, "rb") as fh:
                    primary_log = fh.read()
                with open(follower.wal.path, "rb") as fh:
                    follower_log = fh.read()
                assert primary_log[: len(follower_log)] == follower_log
                assert follower.tree.object_count == primary.tree.object_count
        finally:
            idx.close()


# ----------------------------------------------------------------- shipping


class TestShipping:
    def test_every_write_is_on_every_follower_before_return(
        self, repl_dir, edit, small_words
    ):
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            for word in small_words[250:300]:
                idx.insert(word)
                # Synchronous contract: zero lag the moment insert returns.
                for rset in idx._sets.values():
                    for rid in rset.member_ids():
                        assert rset.lag(rid) == 0
            for rset in idx._sets.values():
                for rep in rset.followers:
                    assert (
                        rep.tree.object_count
                        == rset.primary.tree.object_count
                    )
        finally:
            idx.close()

    def test_plain_open_ships_before_it_acknowledges(
        self, repl_dir, edit, small_words
    ):
        """The cluster's one writable open attaches every shard's replica
        set, so an insert or delete into any shard is on every follower's
        log, byte for byte, by the time the call returns."""

        def wal_bytes(row_dir: str) -> int:  # a member with no log holds 0
            path = os.path.join(repl_dir, row_dir, WAL_FILE)
            return os.path.getsize(path) if os.path.exists(path) else 0

        def assert_shipped() -> None:
            for meta in load_catalog(repl_dir).shards:
                primary = wal_bytes(meta.directory)
                for row in meta.replicas:
                    assert wal_bytes(row.directory) == primary, (
                        meta.shard_id, row.replica_id
                    )
            for info in idx.replication_status().values():
                assert info["max_lag_bytes"] == 0

        idx = ShardedIndex.open(repl_dir, edit)
        try:
            owner = {}
            for word in small_words[250:]:
                sid = idx.router.shard_for_key(
                    idx.curve.encode(idx.space.grid(word))
                ).shard_id
                owner.setdefault(sid, word + "q")
            assert sorted(owner) == sorted(s.shard_id for s in idx.shards)
            for word in owner.values():
                idx.insert(word)
                assert_shipped()
                assert idx.delete(word)
                assert_shipped()
        finally:
            idx.close()

    def test_delete_ships_too(self, repl_dir, edit, small_words):
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            victim = small_words[0]
            assert idx.delete(victim)
            for rset in idx._sets.values():
                for rep in rset.followers:
                    assert (
                        rep.tree.object_count
                        == rset.primary.tree.object_count
                    )
        finally:
            idx.close()

    def test_down_follower_is_skipped_then_caught_up(
        self, repl_dir, edit, small_words
    ):
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            sid = sorted(idx._sets)[0]
            rset = idx._sets[sid]
            lagger = rset.followers[0]
            idx._sets[sid].mark_down(lagger.replica_id)
            for word in small_words[250:290]:
                idx.insert(word)
            shard_writes = rset.lag(lagger.replica_id)
            other = rset.followers[1]
            assert rset.lag(other.replica_id) == 0
            # Recovery: mark up, pump, caught up.
            idx._sets[sid].mark_up(lagger.replica_id)
            idx.ship_all()
            assert rset.lag(lagger.replica_id) == 0
            if shard_writes:  # at least one write routed to this shard
                assert (
                    lagger.tree.object_count
                    == rset.primary.tree.object_count
                )
        finally:
            idx.close()

    def test_failed_ship_marks_the_follower_down_at_once(
        self, repl_dir, edit, small_words, monkeypatch
    ):
        """A follower whose ship raised is down before the error reaches
        the writer, so the shard's next write is acknowledged by the rest
        of the set instead of failing on it again."""
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            sid = sorted(idx._sets)[0]
            rset = idx._sets[sid]
            broken, other = rset.followers
            real_append = broken.wal.append_frames
            calls = []

            def fail_once(shipment):
                calls.append(shipment)
                if len(calls) == 1:
                    raise OSError("injected: follower log unwritable")
                return real_append(shipment)

            monkeypatch.setattr(broken.wal, "append_frames", fail_once)
            words = iter(small_words[250:])
            with pytest.raises(OSError, match="injected"):
                for word in words:  # until one routes to shard ``sid``
                    idx.insert(word)
            assert not rset.healthy(broken.replica_id)
            assert rset.quarantined() == [broken.replica_id]
            pwal = rset.primary.tree.wal
            before = pwal.size_in_bytes
            for word in words:
                idx.insert(word)  # acknowledged: no exception
                if pwal.size_in_bytes > before:
                    break
            else:
                pytest.fail(f"no write reached shard {sid}")
            assert rset.lag(other.replica_id) == 0
            assert rset.lag(broken.replica_id) > 0
            assert len(calls) == 1  # a down follower is not shipped to
        finally:
            idx.close()

    def test_failed_ship_is_rebuilt_by_the_next_tick(
        self, repl_dir, edit, small_words, monkeypatch
    ):
        """A failed ship may leave a torn tail in the follower's log, so
        it quarantines the follower: one supervisor tick rebuilds it from
        the primary's snapshot and brings it back at lag 0."""
        idx = ShardedIndex.open(repl_dir, edit)
        sup = Supervisor(idx, scrub_interval=None)
        try:
            sid = sorted(idx._sets)[0]
            rset = idx._sets[sid]
            broken = rset.followers[0]
            rid = broken.replica_id
            real_append = broken.wal.append_frames
            calls = []

            def fail_once(shipment):
                calls.append(shipment)
                if len(calls) == 1:
                    raise OSError("injected: follower log unwritable")
                return real_append(shipment)

            monkeypatch.setattr(broken.wal, "append_frames", fail_once)
            with pytest.raises(OSError, match="injected"):
                for word in small_words[250:]:  # until one reaches ``sid``
                    idx.insert(word)
            assert not rset.healthy(rid)
            assert sup.shard_state(sid) == "quarantine"
            actions = sup.tick()
            assert (sid, rid) in actions["repaired"]
            assert sup.shard_state(sid) == "healthy"
            assert "rebuilt" in [e["event"] for e in sup.events(20)]
            rebuilt = next(r for r in rset.followers if r.replica_id == rid)
            pwal = rset.primary.tree.wal
            assert rset.healthy(rid)
            assert rset.lag(rid) == 0
            assert (
                rebuilt.wal.header.base_generation
                == pwal.header.base_generation
            )
            committed = rebuilt.wal.size_in_bytes
            assert committed == pwal.size_in_bytes > 0
            with open(rebuilt.wal.path, "rb") as fh:
                fbytes = fh.read(committed)
            with open(pwal.path, "rb") as fh:
                assert fh.read(committed) == fbytes
        finally:
            sup.close()
            idx.close()

    def test_checkpoint_resyncs_followers_to_new_generation(
        self, repl_dir, edit, small_words
    ):
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            for word in small_words[250:280]:
                idx.insert(word)
            idx.checkpoint()
            for rset in idx._sets.values():
                pwal = rset.primary.tree.wal
                for rep in rset.followers:
                    assert rep.wal.header is not None
                    assert (
                        rep.wal.header.base_generation
                        == pwal.header.base_generation
                    )
                    assert rset.lag(rep.replica_id) == 0
        finally:
            idx.close()

    def test_reopen_preserves_replication(self, repl_dir, edit, small_words):
        idx = ShardedIndex.open(repl_dir, edit)
        for word in small_words[250:270]:
            idx.insert(word)
        count = idx.object_count
        idx.checkpoint()
        idx.close()
        idx2 = ShardedIndex.open(repl_dir, edit)
        try:
            assert idx2.object_count == count
            assert sorted(idx2._sets) == sorted(
                s.shard_id for s in idx2.shards
            )
            idx2.insert("zzyzx")
            for rset in idx2._sets.values():
                for rid in rset.member_ids():
                    assert rset.lag(rid) == 0
        finally:
            idx2.close()


# ------------------------------------------------------------ read routing


class TestReadRouting:
    def _members(self):
        return [0, 1, 2]

    def test_primary_only_sticks_to_primary(self):
        sel = ReplicaSelector("primary-only")
        picks = {
            sel.choose(0, self._members(), lambda m: True, lambda m: 0)
            for _ in range(6)
        }
        assert picks == {0}

    def test_primary_only_falls_back_when_primary_down(self):
        sel = ReplicaSelector("primary-only")
        healthy = lambda m: m != 0
        assert sel.choose(0, self._members(), healthy, lambda m: 0) == 1

    def test_round_robin_rotates_healthy_members(self):
        sel = ReplicaSelector("round-robin")
        picks = [
            sel.choose(0, self._members(), lambda m: True, lambda m: 0)
            for _ in range(6)
        ]
        assert picks == [0, 1, 2, 0, 1, 2]
        # Per-shard counters: another shard starts its own rotation.
        assert sel.choose(1, self._members(), lambda m: True, lambda m: 0) == 0

    def test_round_robin_skips_unhealthy(self):
        sel = ReplicaSelector("round-robin")
        healthy = lambda m: m != 1
        picks = [
            sel.choose(0, self._members(), healthy, lambda m: 0)
            for _ in range(4)
        ]
        assert picks == [0, 2, 0, 2]

    def test_fastest_mind_picks_least_lag(self):
        sel = ReplicaSelector("fastest-mind")
        lag = {0: 0, 1: 512, 2: 64}.__getitem__
        assert sel.choose(0, self._members(), lambda m: True, lag) == 0
        healthy = lambda m: m != 0
        assert sel.choose(0, self._members(), healthy, lag) == 2

    def test_no_healthy_member_falls_back_to_primary(self):
        for policy in READ_POLICIES:
            sel = ReplicaSelector(policy)
            assert (
                sel.choose(0, self._members(), lambda m: False, lambda m: 0)
                == 0
            )

    def test_cluster_reads_agree_across_policies(
        self, base_dir, tmp_path, edit, small_words
    ):
        """Every policy returns the same answer — followers are exact
        copies — so routing is a throughput knob, not a semantics one."""
        answers = {}
        for policy in READ_POLICIES:
            directory = str(tmp_path / policy)
            shutil.copytree(base_dir, directory)
            replicate(directory, edit, replicas=2, read_policy=policy)
            idx = ShardedIndex.open(directory, edit)
            try:
                hits = [
                    sorted(
                        str(o) for o in idx.range_query(small_words[i], 2.0)
                    )
                    for i in range(0, 30, 3)
                ]
                answers[policy] = hits
            finally:
                idx.close()
        assert answers["primary-only"] == answers["round-robin"]
        assert answers["primary-only"] == answers["fastest-mind"]


# --------------------------------------------------------- health & quorum


class TestMonitor:
    """Member health as a replica set keeps it."""

    def test_mark_down_overrides_fresh_beats(self, repl_dir, edit, small_words):
        """A down mark holds until ``mark_up``, whatever happens to the
        member meanwhile — writes shipped around it and reads routed
        around it included."""
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            sid = sorted(idx._sets)[0]
            rset = idx._sets[sid]
            rid = rset.followers[0].replica_id
            assert rset.healthy(rid)
            rset.mark_down(rid)
            for word in small_words[250:270]:
                idx.insert(word)
            for q in small_words[:5]:
                idx.knn_query(q, 3)
            idx.ship_all()
            assert not rset.healthy(rid)
            assert rset.quarantined() == []  # down, not queued for a rebuild
            rset.mark_up(rid)
            assert rset.healthy(rid)
        finally:
            idx.close()

    @pytest.mark.parametrize("supervised", [False, True], ids=["bare", "supervised"])
    @pytest.mark.parametrize("policy", READ_POLICIES)
    def test_idle_cluster_stays_complete_whatever_the_clock(
        self, base_dir, tmp_path, edit, small_words, monkeypatch, policy,
        supervised,
    ):
        """Nothing in one process can go silent: a replicated cluster that
        only reads answers complete after any idle time, under every read
        policy, with or without a supervisor ticking over it."""
        clock = FakeClock()
        # Every default clock reads the fake one, whichever object owns it.
        monkeypatch.setattr("time.monotonic", clock)
        directory = str(tmp_path / "cluster")
        shutil.copytree(base_dir, directory)
        replicate(directory, edit, replicas=2, read_policy=policy)
        idx = ShardedIndex.open(directory, edit, wal_fsync=False)
        sup = Supervisor(idx, scrub_interval=None) if supervised else None
        try:
            for _ in range(20):
                clock.now += 3.0  # 60 idle seconds in all
                if sup is not None:
                    assert sup.tick()["promoted"] == []
                for q in small_words[:3]:
                    out = idx.range_query(q, 2.0, context=QueryContext())
                    assert out.complete, out.reason
                    out = idx.knn_query(q, 3, context=QueryContext())
                    assert out.complete, out.reason
            assert idx.degraded_shards() == {}
            if sup is not None:
                events = [e["event"] for e in sup.events(100)]
                assert "promotion-blocked" not in events
                assert "primary-suspected" not in events
        finally:
            if sup is not None:
                sup.close()
            idx.close()

    def test_unknown_member_is_unhealthy(self, repl_dir, edit):
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            rset = idx._sets[sorted(idx._sets)[0]]
            assert 7 not in rset.member_ids()
            assert not rset.healthy(7)
            rset.mark_up(7)  # a mark does not make a member
            assert not rset.healthy(7)
        finally:
            idx.close()

    def test_degraded_reads_name_the_shard(self, repl_dir, edit, small_words):
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            sid = sorted(idx._sets)[0]
            rset = idx._sets[sid]
            idx._sets[sid].mark_down(rset.primary.replica_id)
            out = idx.range_query(
                small_words[0], 3.0, context=QueryContext()
            )
            assert not out.complete
            assert f"shard {sid}" in str(out.reason)
            assert out.per_shard[sid]["complete"] is False
            # kNN and count degrade the same way.
            out = idx.knn_query(small_words[0], 3, context=QueryContext())
            assert not out.complete and f"shard {sid}" in str(out.reason)
            out = idx.range_count(
                small_words[0], 2.0, context=QueryContext()
            )
            assert not out.complete and f"shard {sid}" in str(out.reason)
        finally:
            idx.close()

    def test_writes_to_down_primary_are_refused(
        self, repl_dir, edit, small_words
    ):
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            for sid, rset in idx._sets.items():
                idx._sets[sid].mark_down(rset.primary.replica_id)
            with pytest.raises(PrimaryDownError, match="shard"):
                for word in small_words[:20]:  # some word hits each shard
                    idx.insert(word)
        finally:
            idx.close()


# ---------------------------------------------------------------- failover


class TestFailover:
    def test_promotes_longest_prefix_and_serves_reads(
        self, repl_dir, edit, small_words
    ):
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            for word in small_words[250:290]:
                idx.insert(word)
            expected = sorted(str(o) for o in idx.objects())
            sid = sorted(idx._sets)[0]
            rset = idx._sets[sid]
            old_primary = rset.primary.replica_id
            idx._sets[sid].mark_down(old_primary)
            info = idx.failover(sid)
            assert info["shard"] == sid
            assert info["promoted"] != old_primary
            assert info["demoted"] == old_primary
            assert rset.primary.replica_id == info["promoted"]
            # No acked write lost; reads are whole again.
            assert sorted(str(o) for o in idx.objects()) == expected
            out = idx.range_query(
                small_words[0], 2.0, context=QueryContext()
            )
            assert out.complete
            # Writes flow through the new primary and ship to survivors.
            idx.insert("postfailover")
            assert idx.verify().ok
        finally:
            idx.close()

    def test_failover_requires_a_healthy_follower(self, repl_dir, edit):
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            sid = sorted(idx._sets)[0]
            for rid in idx._sets[sid].member_ids():
                idx._sets[sid].mark_down(rid)
            with pytest.raises(NoPromotableFollowerError, match=f"shard {sid}"):
                idx.failover(sid)
        finally:
            idx.close()

    def test_unreplicated_shard_cannot_fail_over(self, base_dir, tmp_path, edit):
        directory = str(tmp_path / "plain")
        shutil.copytree(base_dir, directory)
        idx = ShardedIndex.open(directory, edit)
        try:
            with pytest.raises(ReplicationError, match="not replicated"):
                idx.failover(idx.shards[0].shard_id)
        finally:
            idx.close()

    def test_zombie_primary_is_fenced(self, repl_dir, edit, small_words):
        """An ex-primary that missed the promotion must be refused at its
        own WAL the moment it tries to write against the new catalog."""
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            sid = sorted(idx._sets)[0]
            rset = idx._sets[sid]
            shard = next(s for s in idx.shards if s.shard_id == sid)
            zombie_tree = shard.tree
            zombie_wal = shard.tree.wal
            idx._sets[sid].mark_down(rset.primary.replica_id)
            idx.failover(sid)
            # Resurrect the old primary's in-memory state (the zombie):
            # its log predates the promoted generation.
            zombie_tree.wal = zombie_wal
            shard.tree = zombie_tree
            target = next(
                w
                for w in small_words
                if idx.router.shard_for_key(
                    idx.curve.encode(idx.space.grid(w))
                ).shard_id
                == sid
            )
            with pytest.raises(StaleWalError, match="fenced"):
                idx.insert(target + "z" if isinstance(target, str) else target)
        finally:
            idx.close()

    def test_demoted_ex_primary_resyncs_and_discards_tail(
        self, repl_dir, edit, small_words
    ):
        idx = ShardedIndex.open(repl_dir, edit)
        try:
            sid = sorted(idx._sets)[0]
            rset = idx._sets[sid]
            old_primary = rset.primary.replica_id
            idx._sets[sid].mark_down(old_primary)
            idx.failover(sid)
            # The ex-primary comes back as a follower with a stale log.
            idx._sets[sid].mark_up(old_primary)
            demoted = next(
                r for r in rset.followers if r.replica_id == old_primary
            )
            assert (
                demoted.wal.header.base_generation
                < rset.primary.tree.wal.header.base_generation
            )
            idx.ship_all()  # triggers the re-sync
            assert (
                demoted.wal.header.base_generation
                == rset.primary.tree.wal.header.base_generation
            )
            assert rset.lag(old_primary) == 0
            assert (
                demoted.tree.object_count == rset.primary.tree.object_count
            )
        finally:
            idx.close()

    def test_failover_survives_reopen(self, repl_dir, edit, small_words):
        idx = ShardedIndex.open(repl_dir, edit)
        for word in small_words[250:270]:
            idx.insert(word)
        expected = sorted(str(o) for o in idx.objects())
        sid = sorted(idx._sets)[0]
        idx._sets[sid].mark_down(idx._sets[sid].primary.replica_id)
        info = idx.failover(sid)
        idx.close()
        idx2 = ShardedIndex.open(repl_dir, edit)
        try:
            assert sorted(str(o) for o in idx2.objects()) == expected
            assert (
                idx2._sets[sid].primary.replica_id == info["promoted"]
            )
            assert idx2.verify().ok
        finally:
            idx2.close()


# -------------------------------------------------------------- structural


class TestStructuralChanges:
    def test_re_pivot_retires_the_old_shards_members(
        self, base_dir, tmp_path, edit, small_words
    ):
        """Every structural path that retires a shard retires its replica
        set with it: its members stop being tracked, so a complete answer
        from the live shards must not be called degraded in the name of a
        shard that is no longer in the cluster."""
        directory = str(tmp_path / "cluster")
        shutil.copytree(base_dir, directory)
        replicate(directory, edit, replicas=1)
        idx = ShardedIndex.open(directory, edit)
        try:
            retired = {
                (sid, rset, rid)
                for sid, rset in idx._sets.items()
                for rid in rset.member_ids()
            }
            followers = [
                rep for rset in idx._sets.values() for rep in rset.followers
            ]
            assert retired and followers
            idx.rebuild_with_pivots(list(idx.space.pivots)[::-1])
            live = {s.shard_id for s in idx.shards}
            assert not live & {sid for sid, _, _ in retired}
            assert set(idx._sets) <= live
            assert set(idx.replication_status()) <= live
            assert all(rep.wal._file.closed for rep in followers)
            assert not any(rset.healthy(rid) for _, rset, rid in retired)
            out = idx.range_query(small_words[0], 2.0, context=QueryContext())
            assert out.complete, out.reason
            assert set(out.per_shard) <= live
            assert idx.degraded_shards() == {}
        finally:
            idx.close()


# ------------------------------------------------------------------ engine


class TestEngineTasks:
    def test_ship_and_failover_through_the_engine(
        self, repl_dir, edit, small_words
    ):
        from repro.service import QueryEngine

        idx = ShardedIndex.open(repl_dir, edit)
        try:
            with QueryEngine(idx, workers=2) as engine:
                engine.submit("insert", small_words[250]).result()
                shipped = engine.submit("ship").result()
                assert sorted(shipped) == sorted(idx._sets)
                sid = sorted(idx._sets)[0]
                idx._sets[sid].mark_down(idx._sets[sid].primary.replica_id)
                info = engine.submit("failover", sid).result()
                assert info["shard"] == sid
                out = engine.submit(
                    "range", small_words[0], 2.0
                ).result()
                assert out.complete
        finally:
            idx.close()

    def test_replica_tasks_need_a_replicated_cluster(self, small_words, edit):
        from repro.core.spbtree import SPBTree
        from repro.service import QueryEngine

        tree = SPBTree.build(small_words[:60], edit, seed=2)
        with QueryEngine(tree, workers=1) as engine:
            with pytest.raises(ValueError, match="replicated cluster"):
                engine.submit("ship").result()
            with pytest.raises(ValueError, match="replicated cluster"):
                engine.submit("failover", 0).result()


# ------------------------------------------- catalog loader rejections (S4)


class TestCatalogRejections:
    def _mutate(self, directory: str, fn) -> None:
        path = os.path.join(directory, "cluster.json")
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        fn(payload)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def test_replica_dir_missing(self, repl_dir, edit):
        cat = load_catalog(repl_dir)
        victim = cat.shards[0]
        gone = victim.replicas[1].directory
        shutil.rmtree(os.path.join(repl_dir, gone))
        with pytest.raises(
            CatalogError, match=rf"shard {victim.shard_id}.*missing"
        ):
            load_catalog(repl_dir)

    def test_two_primaries_for_one_shard(self, repl_dir, edit):
        cat = load_catalog(repl_dir)
        sid = cat.shards[0].shard_id

        def promote_everyone(payload):
            for row in payload["shards"]:
                if row["id"] == sid:
                    row["replicas"][1]["role"] = "primary"

        self._mutate(repl_dir, promote_everyone)
        with pytest.raises(
            CatalogError, match=rf"shard {sid} has 2 primary"
        ):
            load_catalog(repl_dir)

    def test_zero_primaries_for_one_shard(self, repl_dir, edit):
        cat = load_catalog(repl_dir)
        sid = cat.shards[0].shard_id

        def demote_everyone(payload):
            for row in payload["shards"]:
                if row["id"] == sid:
                    for rep in row["replicas"]:
                        rep["role"] = "follower"

        self._mutate(repl_dir, demote_everyone)
        with pytest.raises(
            CatalogError, match=rf"shard {sid} has 0 primary"
        ):
            load_catalog(repl_dir)

    def test_acked_beyond_primary_wal_length(self, repl_dir, edit):
        """A follower claiming an acked position past the primary's valid
        log is lying about durability — refuse, naming the shard.  The
        generation must match for the check to fire (stale positions are
        legitimately ignored)."""
        # Give shard WALs real content first.
        idx = ShardedIndex.open(repl_dir, edit)
        idx.insert("ackfuzz")
        idx.close()
        cat = load_catalog(repl_dir)
        victim = next(s for s in cat.shards if s.replicas)
        sid = victim.shard_id
        wal_path = os.path.join(repl_dir, victim.directory, WAL_FILE)
        header, _, valid_end, _ = scan_wal(wal_path)
        assert header is not None

        def overclaim(payload):
            for row in payload["shards"]:
                if row["id"] == sid:
                    rep = next(
                        r
                        for r in row["replicas"]
                        if r["role"] == "follower"
                    )
                    rep["acked_gen"] = header.base_generation
                    rep["acked"] = valid_end + 64

        self._mutate(repl_dir, overclaim)
        with pytest.raises(
            CatalogError, match=rf"shard {sid}.*beyond the primary"
        ):
            load_catalog(repl_dir)

    def test_stale_generation_acked_position_is_ignored(self, repl_dir, edit):
        """The same overclaimed offset under a *mismatched* generation is
        stale bookkeeping (checkpoint raced the catalog write) and must
        load fine."""
        cat = load_catalog(repl_dir)
        victim = next(s for s in cat.shards if s.replicas)
        sid = victim.shard_id
        wal_path = os.path.join(repl_dir, victim.directory, WAL_FILE)
        header, _, valid_end, _ = scan_wal(wal_path)

        def stale_overclaim(payload):
            for row in payload["shards"]:
                if row["id"] == sid:
                    rep = next(
                        r
                        for r in row["replicas"]
                        if r["role"] == "follower"
                    )
                    gen = header.base_generation if header else 0
                    rep["acked_gen"] = gen + 7
                    rep["acked"] = valid_end + 4096

        self._mutate(repl_dir, stale_overclaim)
        load_catalog(repl_dir)  # no error

    def test_unknown_role_and_duplicate_ids(self, repl_dir, edit):
        cat = load_catalog(repl_dir)
        sid = cat.shards[0].shard_id

        def bad_role(payload):
            for row in payload["shards"]:
                if row["id"] == sid:
                    row["replicas"][1]["role"] = "observer"

        self._mutate(repl_dir, bad_role)
        with pytest.raises(
            CatalogError, match=rf"shard {sid}.*unknown role"
        ):
            load_catalog(repl_dir)

    def test_unknown_read_policy_rejected(self, repl_dir, edit):
        self._mutate(
            repl_dir,
            lambda payload: payload.__setitem__("read_policy", "psychic"),
        )
        with pytest.raises(CatalogError, match="read policy"):
            load_catalog(repl_dir)
