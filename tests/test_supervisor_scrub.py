"""Anti-entropy scrub: divergence detection, quarantine, rebuild.

The invariant under audit: a follower's durable WAL is a byte-identical
prefix of the primary's, and page checksums hold at rest.  These tests
violate both on *disk* — flip a WAL byte, truncate a committed tail,
rot a page behind the checksum — and prove the scrubber detects each,
quarantines the replica **before it can serve a divergent read**,
rebuilds it by snapshot resync, and reconciles every observability
counter exactly.  A corrupt primary takes the other path: quarantine,
fast-tracked failover, rebuild as a follower.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster import ShardedIndex
from repro.obs import instruments
from repro.replication import replicate
from repro.supervisor import Supervisor
from repro.supervisor.scrub import compare_wal_prefix, spot_check_pages


class FakeClock:
    def __init__(self, now: float = 500.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def cluster(tmp_path, small_words, edit):
    """A checksummed, replicated 2-shard cluster with WAL traffic on
    every shard, plus a supervisor with background scrub disabled (the
    tests drive scrubs explicitly)."""
    clock = FakeClock()
    directory = str(tmp_path / "cluster")
    ShardedIndex.build(
        small_words[:200], edit, shards=2, num_pivots=3, seed=11,
        checksums=True,
    ).save(directory)
    replicate(directory, edit, replicas=2, read_policy="round-robin")
    idx = ShardedIndex.open(directory, edit, wal_fsync=False)
    for word in small_words[200:240]:  # WAL bytes on both shards
        idx.insert(word)
    sup = Supervisor(idx, scrub_interval=None, tick_interval=1.0, clock=clock)
    yield idx, sup, clock
    sup.close()
    idx.close()


def flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        b = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([b[0] ^ 0xFF]))


class TestCleanScrub:
    def test_clean_cluster_scrubs_clean(self, cluster):
        idx, sup, _ = cluster
        report = sup.scrub()
        assert report.clean and report.ok
        assert sorted(report.shards) == [0, 1]
        assert report.wal_bytes_compared > 0
        assert report.pages_checked > 0
        assert "clean" in report.summary()
        assert sup.scrub_passes == 1

    def test_rotating_page_cursor_covers_the_store(self, cluster):
        idx, sup, _ = cluster
        rep = idx._sets[0].followers[0]
        total = rep.tree.btree.pagefile.num_pages
        if rep.tree.raf is not None:
            total += rep.tree.raf.pagefile.num_pages
        seen = 0
        cursor = 0
        while seen < total:
            bad, checked, cursor = spot_check_pages(rep.tree, 3, cursor)
            assert bad == []
            assert checked == min(3, total)
            seen += checked
        assert cursor == seen % total

    def test_generation_stale_follower_is_not_divergence(self, cluster):
        """A fenced ex-primary is a rejoin concern, not a scrub finding."""
        idx, sup, clock = cluster
        rset = idx._sets[0]
        p0 = rset.primary.replica_id
        idx.monitor.mark_down(0, p0)
        sup.tick()
        clock.now += 3.0
        assert sup.tick()["promoted"] == [0]
        idx.monitor.mark_up(0, p0)
        zombie = next(r for r in rset.followers if r.replica_id == p0)
        problem, compared = compare_wal_prefix(rset.primary.tree.wal, zombie)
        assert problem is None and compared == 0


class TestFollowerRepair:
    def test_wal_divergence_detected_and_repaired(self, cluster, obs_enabled):
        idx, sup, _ = cluster
        rset = idx._sets[0]
        rep = rset.followers[0]
        rid = rep.replica_id
        committed = rep.wal.size_in_bytes
        assert committed > 0
        flip_byte(rep.wal.path, committed // 2)

        report = sup.scrub(shard_id=0)
        assert not report.clean and report.ok
        [finding] = report.findings
        assert finding.kind == "wal-diverged"
        assert finding.replica == rid
        assert finding.repaired
        assert f"offset {committed // 2}" in finding.detail
        # Rebuilt and back in rotation with a sound prefix.
        assert rset.healthy(rid)
        assert sup.quarantined(0) == []
        fresh = next(r for r in rset.followers if r.replica_id == rid)
        problem, compared = compare_wal_prefix(rset.primary.tree.wal, fresh)
        assert problem is None and compared > 0
        # Exact counter reconciliation, obs and plain tallies agreeing.
        inst = instruments.supervisor()
        assert inst.divergences.labels(kind="wal-diverged").value == 1
        assert inst.quarantines.labels(shard="0").value == 1
        assert inst.repairs.value == 1 == sup.repairs
        assert sup.quarantines == 1
        events = [e["event"] for e in sup.events(20)]
        assert events[-4:] == [
            "divergence", "quarantined", "rebuilt", "scrub-pass",
        ]

    def test_wal_truncation_detected_and_repaired(self, cluster):
        idx, sup, _ = cluster
        rep = idx._sets[0].followers[1]
        committed = rep.wal.size_in_bytes
        os.truncate(rep.wal.path, committed - 5)

        report = sup.scrub(shard_id=0)
        [finding] = report.findings
        assert finding.kind == "wal-truncated"
        assert finding.repaired
        assert f"{committed - 5} bytes" in finding.detail
        assert os.path.getsize(
            next(
                r for r in idx._sets[0].followers
                if r.replica_id == finding.replica
            ).wal.path
        ) >= committed

    def test_page_rot_detected_and_repaired(self, cluster):
        idx, sup, _ = cluster
        rep = idx._sets[1].followers[0]
        pf = rep.tree.btree.pagefile
        pf._store_raw(0, b"\xde\xad" * (pf.page_size // 2))

        report = sup.scrub(shard_id=1)
        [finding] = report.findings
        assert finding.kind == "page"
        assert "btree page 0" in finding.detail
        assert finding.repaired
        assert idx._sets[1].healthy(finding.replica)
        assert idx.verify().ok

    def test_quarantine_excludes_reads_before_rebuild(
        self, cluster, monkeypatch
    ):
        """Mid-quarantine — after detection, before the rebuild lands —
        the read router must never choose the divergent member."""
        idx, sup, _ = cluster
        rset = idx._sets[0]
        rep = rset.followers[0]
        rid = rep.replica_id
        flip_byte(rep.wal.path, rep.wal.size_in_bytes - 1)
        chosen_during_quarantine: list[int] = []
        orig = rset.resync

        def observing_resync(r):
            assert not rset.healthy(rid)
            assert rid in sup.quarantined(0)
            for _ in range(6):  # round-robin never lands on the corpse
                chosen_during_quarantine.append(
                    idx._selector.choose(
                        0, rset.member_ids(), rset.healthy, rset.lag
                    )
                )
            return orig(r)

        monkeypatch.setattr(rset, "resync", observing_resync)
        report = sup.scrub(shard_id=0)
        assert report.ok
        assert chosen_during_quarantine  # the hook really ran
        assert rid not in chosen_during_quarantine
        assert rset.healthy(rid)  # and it is back afterwards

    def test_deep_scrub_runs_structural_verify(self, cluster):
        idx, sup, _ = cluster
        report = sup.scrub(deep=True)
        assert report.clean
        assert report.pages_checked > 0


class TestPrimaryCorruption:
    def test_corrupt_primary_fast_tracks_failover_then_rebuild(
        self, cluster, obs_enabled
    ):
        idx, sup, clock = cluster
        rset = idx._sets[0]
        p0 = rset.primary.replica_id
        pf = rset.primary.tree.btree.pagefile
        pf._store_raw(0, b"\xbe\xef" * (pf.page_size // 2))

        report = sup.scrub(shard_id=0)
        # Unrepairable in-pass: the primary cannot be rebuilt from itself.
        [finding] = report.unrepaired()
        assert finding.kind == "primary-page"
        assert finding.replica == p0
        assert sup.shard_state(0) == "quarantine"
        assert p0 in sup.quarantined(0)
        assert not rset.healthy(p0)
        # Fast track: the next tick promotes without waiting out the
        # grace period (no clock advance at all)...
        actions = sup.tick()
        assert actions["promoted"] == [0]
        assert rset.primary.replica_id != p0
        # ...and the one after rebuilds the deposed primary as a follower
        # (plus re-admits the generation-stranded survivor).
        actions = sup.tick()
        assert (0, p0) in actions["repaired"]
        assert sup.quarantined(0) == []
        status = idx.replication_status()[0]
        assert all(m["healthy"] for m in status["members"])
        assert all(m["lag_bytes"] == 0 for m in status["members"])
        assert sup.promotions == 1
        assert sup.repairs == 1
        assert instruments.supervisor().promotions.labels(shard="0").value == 1
        assert idx.verify().ok

    def test_primary_wal_torn_tail_detected(self, cluster):
        idx, sup, _ = cluster
        rset = idx._sets[1]
        pwal = rset.primary.tree.wal
        with open(pwal.path, "ab") as fh:
            fh.truncate(pwal.size_in_bytes - 3)
        report = sup.scrub(shard_id=1)
        kinds = {f.kind for f in report.findings}
        assert "primary-wal" in kinds
        assert sup.shard_state(1) == "quarantine"


class TestRateLimitingAndRotation:
    def test_background_scrub_respects_interval_and_rotates(
        self, tmp_path, small_words, edit
    ):
        clock = FakeClock()
        directory = str(tmp_path / "cluster")
        ShardedIndex.build(
            small_words[:150], edit, shards=2, num_pivots=3, seed=12
        ).save(directory)
        replicate(directory, edit, replicas=1)
        idx = ShardedIndex.open(directory, edit, wal_fsync=False)
        sup = Supervisor(
            idx, scrub_interval=10.0, scrub_pages=4, tick_interval=1.0,
            clock=clock,
        )
        try:
            assert sup.tick()["scrubbed"] == 0  # first tick always scrubs
            assert sup.tick()["scrubbed"] is None  # interval not elapsed
            clock.now += 9.9
            assert sup.tick()["scrubbed"] is None
            clock.now += 0.1
            assert sup.tick()["scrubbed"] == 1  # rotated to the next shard
            clock.now += 10.0
            assert sup.tick()["scrubbed"] == 0  # wrapped around
            assert sup.scrub_passes == 3
        finally:
            sup.close()
            idx.close()

    def test_page_budget_bounds_one_pass(self, cluster):
        idx, sup, _ = cluster
        report = sup.scrub(shard_id=0, pages=2)
        members = 3  # primary + two followers
        assert report.pages_checked <= 2 * members


class TestNegativeBudget:
    """A negative page budget is bad input, not a clean pass of -n pages."""

    def test_rejected_by_spot_check_scrub_and_supervisor(self, cluster):
        idx, sup, _ = cluster
        tree = idx._sets[0].followers[0].tree
        with pytest.raises(ValueError, match="budget"):
            spot_check_pages(tree, -3, 5)
        with pytest.raises(ValueError, match="budget"):
            sup.scrub(pages=-1)
        assert sup.scrub_passes == 0
        with pytest.raises(ValueError, match="scrub_pages"):
            Supervisor(idx, scrub_interval=None, scrub_pages=-1)

    def test_cli_scrub_exits_one_with_one_line(self, tmp_path, small_words, edit, capsys):
        from repro import cli

        directory = str(tmp_path / "cl")
        ShardedIndex.build(
            small_words[:120], edit, shards=2, num_pivots=3, seed=11,
            checksums=True,
        ).save(directory)
        replicate(directory, edit, replicas=2)
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["scrub", "--dir", directory, "--pages", "-1"])
        assert exc_info.value.code == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line]
        assert err == ["scrub: page budget must be >= 0, got -1"]
