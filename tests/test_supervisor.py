"""The self-healing control loop's state machine, driven by a fake clock.

Every transition of ``healthy → suspected → promoted → rejoined`` is
pinned here with injected time — no wall-clock sleeps: the grace period
absorbing a flap, automatic promotion after grace, the cooldown
suppressing a promotion storm on a flapping shard, single-flight
promotion, and the zombie ex-primary re-admitted with a byte-identical
WAL prefix.  The thread-safety of a replica set's health marks (down, up
and quarantine marks and ``close`` racing health reads from the
supervisor thread) gets its own hammer.  The loop lifecycle and the event journal are shared with the
tuner and pinned once, in ``tests/test_control_loop.py``.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.cluster import ShardedIndex
from repro.net import NetClient, serve_in_thread
from repro.obs import instruments
from repro.replication import replicate
from repro.service import QueryEngine
from repro.supervisor import Supervisor


class FakeClock:
    def __init__(self, now: float = 500.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def make_cluster(tmp_path, words, edit, replicas=2):
    directory = str(tmp_path / "cluster")
    ShardedIndex.build(
        words[:200], edit, shards=2, num_pivots=3, seed=11
    ).save(directory)
    replicate(directory, edit, replicas=replicas, read_policy="round-robin")
    return directory, ShardedIndex.open(directory, edit, wal_fsync=False)


def supervise(idx, clock, **kwargs):
    """A supervisor ticking once a fake second: grace 2 s, cooldown 8 s."""
    return Supervisor(
        idx, scrub_interval=None, tick_interval=1.0, clock=clock, **kwargs
    )


class TestStateMachine:
    def test_healthy_cluster_ticks_are_noops(self, tmp_path, small_words, edit):
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit)
        sup = supervise(idx, clock)
        try:
            actions = sup.tick()
            assert actions["promoted"] == []
            assert actions["rejoined"] == []
            assert actions["suppressed"] == []
            assert sup.ticks == 1
            assert sup.shard_state(0) == "healthy"
            assert idx.supervisor is sup
        finally:
            sup.close()
            idx.close()
        assert idx.supervisor is None

    def test_defaults_derive_from_heartbeat_timeout(
        self, tmp_path, small_words, edit
    ):
        """Grace is two ticks and cooldown eight: 2.5 s and 10 s at the
        default 1.25 s tick, and a custom tick scales both."""
        _, idx = make_cluster(tmp_path, small_words, edit)
        sup = Supervisor(idx, scrub_interval=None)
        try:
            assert sup.tick_interval == 1.25
            assert sup.grace == 2.5
            assert sup.cooldown == 10.0
        finally:
            sup.close()
        sup = supervise(idx, FakeClock())
        try:
            assert (sup.grace, sup.cooldown) == (2.0, 8.0)
        finally:
            sup.close()
            idx.close()

    def test_grace_absorbs_a_flap(self, tmp_path, small_words, edit):
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit)
        sup = supervise(idx, clock)
        p0 = idx._sets[0].primary.replica_id
        try:
            idx._sets[0].mark_down(p0)
            actions = sup.tick()
            assert actions["promoted"] == []
            assert sup.shard_state(0) == "suspected"
            # The primary comes back inside the grace window: no promotion.
            clock.now += 1.0
            idx._sets[0].mark_up(p0)
            actions = sup.tick()
            assert actions["promoted"] == []
            assert sup.shard_state(0) == "healthy"
            assert idx._sets[0].primary.replica_id == p0
            events = [e["event"] for e in sup.events(20)]
            assert "primary-suspected" in events
            assert "primary-recovered" in events
            assert "promoted" not in events
        finally:
            sup.close()
            idx.close()

    def test_automatic_failover_after_grace(
        self, tmp_path, small_words, edit, obs_enabled
    ):
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit)
        sup = supervise(idx, clock)
        p0 = idx._sets[0].primary.replica_id
        try:
            idx._sets[0].mark_down(p0)
            assert sup.tick()["promoted"] == []  # suspected, inside grace
            clock.now += 1.0
            assert sup.tick()["promoted"] == []  # 1.0 < grace 2.0
            clock.now += 1.5
            actions = sup.tick()
            assert actions["promoted"] == [0]
            assert idx._sets[0].primary.replica_id != p0
            # Detect-to-promote stayed within grace + two ticks.
            promoted = [
                e for e in sup.events(20) if e["event"] == "promoted"
            ][-1]
            assert promoted["detail"]["mttr"] == pytest.approx(2.5)
            assert (
                promoted["detail"]["mttr"]
                <= sup.grace + 2 * sup.tick_interval
            )
            assert sup.promotions == 1
            assert (
                instruments.supervisor().promotions.labels(shard="0").value
                == 1
            )
            # Inside the cooldown window the state label says so.
            assert sup.shard_state(0) == "cooldown"
        finally:
            sup.close()
            idx.close()

    def test_cooldown_suppresses_promotion_storm(
        self, tmp_path, small_words, edit
    ):
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit)
        sup = supervise(idx, clock)
        rset = idx._sets[0]
        p0 = rset.primary.replica_id
        try:
            idx._sets[0].mark_down(p0)
            sup.tick()
            clock.now += 3.0  # past grace
            assert sup.tick()["promoted"] == [0]
            promoted_at = clock.now
            p1 = rset.primary.replica_id
            sup.tick()  # repair pass re-admits the stale survivor
            # The new primary flaps straight back down: inside the
            # cooldown window every tick suppresses, no matter how many.
            idx._sets[0].mark_down(p1)
            sup.tick()  # suspected again
            clock.now += 2.0  # past grace, still deep inside the cooldown
            for _ in range(3):
                clock.now += 1.0
                actions = sup.tick()
                assert clock.now - promoted_at < sup.cooldown
                assert actions["promoted"] == []
                assert actions["suppressed"] == [0]
            assert sup.promotions == 1
            suppressed = [
                e for e in sup.events(50)
                if e["event"] == "promotion-suppressed"
            ]
            assert len(suppressed) == 1  # journalled once, not per tick
            # Once the cooldown expires the shard may promote again.
            clock.now = promoted_at + sup.cooldown + 0.5
            actions = sup.tick()
            assert actions["promoted"] == [0]
            assert sup.promotions == 2
            assert rset.primary.replica_id not in (p0, p1)
        finally:
            sup.close()
            idx.close()

    def test_single_flight_promotion(
        self, tmp_path, small_words, edit, monkeypatch
    ):
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit)
        sup = supervise(idx, clock)
        p0 = idx._sets[0].primary.replica_id
        calls: list[int] = []
        orig = idx.failover

        def reentrant(sid):
            calls.append(sid)
            if len(calls) == 1:
                # Re-enter the loop mid-promotion (the RLock admits the
                # same thread): the in-flight flag must block a second
                # failover attempt.
                inner = sup.tick()
                assert inner["promoted"] == []
            return orig(sid)

        monkeypatch.setattr(idx, "failover", reentrant)
        try:
            idx._sets[0].mark_down(p0)
            sup.tick()
            clock.now += 3.0
            assert sup.tick()["promoted"] == [0]
            assert calls == [0]
        finally:
            sup.close()
            idx.close()

    def test_promotion_blocked_without_followers(
        self, tmp_path, small_words, edit
    ):
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit, replicas=1)
        sup = supervise(idx, clock)
        rset = idx._sets[0]
        try:
            for rid in rset.member_ids():
                idx._sets[0].mark_down(rid)  # nobody left to promote
            sup.tick()
            clock.now += 3.0
            actions = sup.tick()
            assert actions["promoted"] == []
            assert sup.shard_state(0) == "suspected"
            events = [e["event"] for e in sup.events(20)]
            assert "promotion-blocked" in events
        finally:
            sup.close()
            idx.close()


class TestZombieRejoin:
    def test_ex_primary_rejoins_with_byte_identical_wal(
        self, tmp_path, small_words, edit
    ):
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit)
        rset = idx._sets[0]
        p0 = rset.primary.replica_id
        sup = supervise(idx, clock)
        try:
            idx._sets[0].mark_down(p0)
            sup.tick()
            clock.now += 3.0
            assert sup.tick()["promoted"] == [0]
            # The surviving follower is stranded on the old generation;
            # the next repair pass re-admits it too.
            rejoined = sup.tick()["rejoined"]
            assert (0, [r.replica_id for r in rset.followers
                        if r.replica_id != p0][0]) in rejoined
            # New-generation writes land while the zombie is still down.
            for word in small_words[200:230]:
                idx.insert(word)
            # The zombie returns: healthy but generation-fenced — the
            # repair pass demotes it through the snapshot resync path.
            idx._sets[0].mark_up(p0)
            actions = sup.tick()
            assert (0, p0) in actions["rejoined"]
            assert sup.rejoins >= 2
            zombie = next(
                r for r in rset.followers if r.replica_id == p0
            )
            assert rset.healthy(p0)
            assert rset.lag(p0) == 0
            # The WAL invariant holds byte for byte on disk.
            pwal = rset.primary.tree.wal
            committed = zombie.wal.size_in_bytes
            assert zombie.wal.header.base_generation == \
                pwal.header.base_generation
            with open(zombie.wal.path, "rb") as fh:
                zbytes = fh.read(committed)
            with open(pwal.path, "rb") as fh:
                pbytes = fh.read(committed)
            assert zbytes == pbytes
            events = [e["event"] for e in sup.events(50)]
            assert "rejoined" in events
            assert idx.verify().ok
        finally:
            sup.close()
            idx.close()

    def test_follower_a_writer_resynced_is_not_copied_again(
        self, tmp_path, small_words, edit, monkeypatch
    ):
        """The repair pass judges staleness again under the write lock:
        a follower a writer's ``ship()`` re-synced while the supervisor
        waited for that lock is not copied a second time."""
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit)
        rset = idx._sets[0]
        p0 = rset.primary.replica_id
        sup = supervise(idx, clock)
        try:
            idx._sets[0].mark_down(p0)
            sup.tick()
            clock.now += 3.0
            assert sup.tick()["promoted"] == [0]
            # The surviving follower is stranded on the old generation.
            survivor = next(r for r in rset.followers if r.replica_id != p0)
            assert rset.healthy(survivor.replica_id)
            assert rset.is_stale(survivor)
            resyncs = []
            real_resync = rset.resync

            def counting_resync(rep):
                resyncs.append(rep.replica_id)
                return real_resync(rep)

            real_write = idx._lock.write
            writers = []

            def write_after_a_writer():
                if not writers:  # a writer's ship wins the race once
                    writers.append(True)
                    with idx._lock.read():
                        rset.ship()
                return real_write()

            monkeypatch.setattr(rset, "resync", counting_resync)
            monkeypatch.setattr(idx._lock, "write", write_after_a_writer)
            actions = sup.tick()
            assert writers
            assert resyncs == [survivor.replica_id]
            assert (0, survivor.replica_id) not in actions["rejoined"]
            assert rset.healthy(survivor.replica_id)
            assert rset.lag(survivor.replica_id) == 0
            assert not rset.is_stale(survivor)
        finally:
            sup.close()
            idx.close()

    def test_externally_downed_member_is_left_alone(
        self, tmp_path, small_words, edit
    ):
        """A member an operator (or chaos) killed is not resurrected."""
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit)
        rset = idx._sets[0]
        rid = rset.followers[0].replica_id
        sup = supervise(idx, clock)
        try:
            idx._sets[0].mark_down(rid)
            for _ in range(3):
                clock.now += 1.0
                actions = sup.tick()
                assert actions["rejoined"] == []
                assert actions["repaired"] == []
            assert not rset.healthy(rid)
            assert sup.quarantined(0) == []  # held down, not rebuilt
        finally:
            sup.close()
            idx.close()

    def test_checkpoint_copies_each_follower_at_most_once(
        self, tmp_path, small_words, edit, monkeypatch
    ):
        """A checkpoint re-syncs the healthy followers only: a quarantined
        one is rebuilt once, by the next tick, and a killed one is left
        alone by both."""
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit, replicas=3)
        rset = idx._sets[0]
        sick, killed, well = (r.replica_id for r in rset.followers)
        resyncs = []
        real_resync = rset.resync

        def counting_resync(rep):
            resyncs.append(rep.replica_id)
            return real_resync(rep)

        monkeypatch.setattr(rset, "resync", counting_resync)
        sup = supervise(idx, clock)
        try:
            rset.quarantine(sick)
            rset.mark_down(killed)
            for word in small_words[200:220]:
                idx.insert(word)
            idx.checkpoint()
            assert resyncs == [well]
            clock.now += 1.0
            assert sup.tick()["repaired"] == [(0, sick)]
            clock.now += 1.0
            sup.tick()
            assert sorted(resyncs) == sorted([well, sick])
            assert rset.healthy(sick) and not rset.is_stale(rset.followers[0])
            assert not rset.healthy(killed)
        finally:
            sup.close()
            idx.close()


class TestMonitorThreadSafety:
    def test_concurrent_beats_checks_and_kill_switch(
        self, tmp_path, small_words, edit
    ):
        """Regression: worker threads mark members down (a failed ship
        quarantines) and the set closes while the supervisor thread reads
        health — the marks must never be observed mid-mutation."""
        _, idx = make_cluster(tmp_path, small_words, edit)
        rset = idx._sets[0]
        ids = rset.member_ids()
        errors: list[BaseException] = []
        closing = threading.Event()

        def reader() -> None:
            try:
                for _ in range(2000):
                    for rid in ids:
                        rset.healthy(rid)
                    rset.healthy(9)
                    rset.quarantined()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def flipper(rid: int) -> None:
            try:
                for i in range(2000):
                    if i % 2:
                        rset.quarantine(rid)
                    else:
                        rset.mark_down(rid)
                    rset.healthy(rid)
                    rset.mark_up(rid)
                    if i == 1000:
                        closing.set()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def closer() -> None:
            closing.wait(60.0)
            try:
                rset.close()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = (
            [threading.Thread(target=flipper, args=(r,)) for r in ids[1:]]
            + [threading.Thread(target=reader) for _ in range(2)]
            + [threading.Thread(target=closer)]
        )
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors
            # The last flip was mark_up: no mark is left behind.
            assert rset._down == set() and rset.quarantined() == []
            assert not any(rset.healthy(r) for r in ids)  # closed
            assert not rset.healthy(9)  # never a member
        finally:
            sys.setswitchinterval(switch)
            idx.close()


class TestSurfaces:
    def test_status_and_health_summary_shapes(
        self, tmp_path, small_words, edit
    ):
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit)
        sup = supervise(idx, clock)
        try:
            sup.tick()
            status = sup.status()
            assert status["running"] is False
            assert status["ticks"] == 1
            assert set(status["shards"]) == {0, 1}
            assert status["shards"][0]["state"] == "healthy"
            assert status["shards"][0]["quarantined"] == []
            summary = sup.health_summary()
            assert summary["shards"] == {"0": "healthy", "1": "healthy"}
            json.dumps(summary)  # wire-safe
        finally:
            sup.close()
            idx.close()

    def test_net_health_reports_replication_and_supervisor(
        self, tmp_path, small_words, edit
    ):
        clock = FakeClock()
        _, idx = make_cluster(tmp_path, small_words, edit)
        sup = supervise(idx, clock)
        engine = QueryEngine(idx, workers=2).start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        try:
            with NetClient("127.0.0.1", handle.port) as client:
                health = client.health()
            assert health["status"] == "ok"
            rep = health["replication"]
            assert set(rep) == {"0", "1"}
            assert rep["0"]["primary_healthy"] is True
            assert rep["0"]["healthy_members"] == rep["0"]["members"] == 3
            assert rep["0"]["max_lag_bytes"] == 0
            assert rep["0"]["degraded"] is False
            assert health["supervisor"]["shards"]["0"] == "healthy"
            assert health["supervisor"]["running"] is False
        finally:
            handle.stop(2.0)
            engine.stop()
            sup.close()
            idx.close()
