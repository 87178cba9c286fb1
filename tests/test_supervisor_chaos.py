"""Supervisor chaos: kill the primary under sustained load, converge.

The acceptance proof for the self-healing loop: a writer streams inserts
and readers hammer scatter-gather queries while the supervisor runs;
shard 0's primary is hard-killed mid-stream.  The supervisor must
promote automatically within **grace + two ticks** (fake clock — the
bound is exact, not statistical), the refused writes must replay,
the zombie must rejoin as a healthy follower, and the run must end with
zero acknowledged writes lost and every observability counter
reconciling.  CLI round-trips (``serve --supervise``, ``scrub``,
``shard-status``) ride along under the ``slow`` marker, matching CI.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time

import pytest

from repro.cluster import ShardedIndex
from repro.obs import instruments
from repro.replication import PrimaryDownError, replicate
from repro.service.context import QueryContext
from repro.supervisor import SUPERVISOR_JOURNAL, Supervisor, read_journal
from tests.conftest import replicated_cluster, run_cli


class FakeClock:
    def __init__(self, now: float = 500.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def test_kill_primary_under_load_converges(
    tmp_path, small_words, edit, obs_enabled
):
    clock = FakeClock()
    directory = str(tmp_path / "cluster")
    ShardedIndex.build(
        small_words[:200], edit, shards=2, num_pivots=3, seed=11
    ).save(directory)
    replicate(directory, edit, replicas=2, read_policy="round-robin")
    idx = ShardedIndex.open(directory, edit, wal_fsync=False)
    sup = Supervisor(idx, scrub_interval=None, tick_interval=1.0, clock=clock)
    bound = sup.grace + 2 * sup.tick_interval
    baseline = set(str(o) for o in idx.objects())
    rset = idx._sets[0]
    p0 = rset.primary.replica_id

    batch = small_words[200:280]
    acked: list[str] = []
    refused: list[str] = []
    errors: list[BaseException] = []
    killed = threading.Event()
    stop_readers = threading.Event()

    def writer():
        try:
            for i, word in enumerate(batch):
                if i == len(batch) // 3:
                    idx.monitor.mark_down(0, p0)
                    killed.set()
                try:
                    idx.insert(word)
                    acked.append(word)
                except PrimaryDownError:
                    refused.append(word)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def reader():
        try:
            i = 0
            while not stop_readers.is_set():
                idx.range_query(
                    small_words[i % 50], 2.0, context=QueryContext()
                )
                i += 1
                # Hand the interpreter lock over between queries: two
                # readers that never release it can starve the writer (its
                # WAL I/O drops the lock at every call) for seconds on a
                # loaded machine, and it never reaches the kill.
                time.sleep(0)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(2)
    ]
    try:
        for t in threads:
            t.start()
        assert killed.wait(60.0)

        # Drive the control loop against the live workload.  The clock
        # only moves here, so the promotion bound is exact.
        kill_t = clock.now
        promoted_at = None
        for _ in range(30):
            if sup.tick()["promoted"]:
                promoted_at = clock.now
                break
            clock.now += 0.5
        assert promoted_at is not None, "no automatic promotion"
        assert promoted_at - kill_t <= bound
        assert rset.primary.replica_id != p0

        threads[0].join(60.0)
    finally:
        # However this ends, no reader outlives the test.
        stop_readers.set()
        for t in threads:
            if t.is_alive():
                t.join(60.0)
    assert not errors, errors
    assert len(acked) + len(refused) == len(batch)
    assert refused, "no write hit the killed shard"
    assert acked, "the healthy side should have kept accepting"

    # Refused writes go through on retry against the new primary.
    for word in refused:
        idx.insert(word)

    # The stranded survivor rejoined already; now the zombie comes back.
    sup.tick()
    idx.monitor.mark_up(0, p0)
    actions = sup.tick()
    assert (0, p0) in actions["rejoined"]
    status = idx.replication_status()
    for sid, info in status.items():
        assert all(m["healthy"] for m in info["members"]), (sid, info)
        assert all(m["lag_bytes"] == 0 for m in info["members"]), (sid, info)

    # Zero acknowledged writes lost across kill, degradation, promotion.
    survived = set(str(o) for o in idx.objects())
    lost = (baseline | set(acked) | set(refused)) - survived
    assert not lost, f"lost acked writes: {sorted(lost)[:5]}"
    assert idx.verify().ok

    # Every follower's durable log is a byte prefix of the primary's.
    pwal = rset.primary.tree.wal
    with open(pwal.path, "rb") as fh:
        pbytes = fh.read()
    for rep in rset.followers:
        committed = rep.wal.size_in_bytes
        with open(rep.wal.path, "rb") as fh:
            fbytes = fh.read(committed)
        assert fbytes == pbytes[:committed]

    # Exact obs reconciliation: plain tallies and counters agree.
    inst = instruments.supervisor()
    assert inst.ticks.value == sup.ticks
    assert inst.promotions.labels(shard="0").value == 1 == sup.promotions
    # The zombie rejoin is the supervisor's; the stranded survivor may
    # have been re-synced by the write path's own ship instead (the
    # writer kept streaming after the promotion), so >= 1.
    assert inst.rejoins.labels(shard="0").value == sup.rejoins >= 1
    assert inst.repairs.value == sup.repairs == 0
    journal_events = [e["event"] for e in sup.events(100)]
    assert journal_events.count("promoted") == 1
    assert journal_events.count("rejoined") == sup.rejoins
    mttr = [
        e["detail"]["mttr"] for e in sup.events(100)
        if e["event"] == "promoted"
    ][0]
    assert mttr <= bound

    sup.close()
    idx.close()

    # The healed cluster reopens clean.
    reopened = ShardedIndex.open(directory, edit, wal_fsync=False)
    try:
        assert set(str(o) for o in reopened.objects()) == survived
        assert reopened.verify().ok
    finally:
        reopened.close()


@pytest.mark.slow
class TestCliRoundTrips:
    def test_serve_with_supervisor(self, tmp_path):
        directory = str(tmp_path / "cluster")
        replicated_cluster(directory, size=300)
        out = run_cli(
            "serve", "--dir", directory,
            "--num-queries", "10", "--mutations", "4", "--workers", "2",
            "--supervise",
        )
        assert out.returncode == 0, out.stderr
        assert "supervising: tick" in out.stdout
        assert "supervisor :" in out.stdout
        assert "replication:" in out.stdout

    def test_supervised_serve_journals_into_its_directory(self, tmp_path):
        directory = str(tmp_path / "cluster")
        replicated_cluster(directory)
        out = run_cli(
            "serve", "--dir", directory, "--num-queries", "4", "--supervise",
        )
        assert out.returncode == 0, out.stderr
        events = read_journal(os.path.join(directory, SUPERVISOR_JOURNAL))
        assert [events[0]["event"], events[-1]["event"]] == ["started", "stopped"]
        status = run_cli("shard-status", "--dir", directory)
        assert status.returncode == 0, status.stderr
        assert "supervisor events (last" in status.stdout
        assert "] started" in status.stdout and "] stopped" in status.stdout

    def test_serve_supervise_requires_replicas(self, tmp_path):
        unreplicated = str(tmp_path / "cluster")
        assert run_cli(
            "build", "--dataset", "words", "--size", "200",
            "--shards", "2", "--out", unreplicated,
        ).returncode == 0
        for source in (
            ("--dataset", "words", "--size", "200"),  # in memory
            ("--dir", unreplicated),  # a cluster without followers
        ):
            out = run_cli("serve", *source, "--num-queries", "2", "--supervise")
            assert out.returncode == 1
            lines = [line for line in out.stderr.splitlines() if line]
            assert len(lines) == 1, out.stderr
            assert lines[0].startswith(
                "serve: --supervise needs a replicated cluster"
            )
            assert "replicate --dir DIR" in lines[0]

    def test_scrub_detects_page_rot_and_shard_status_reports(
        self, tmp_path
    ):
        directory = str(tmp_path / "cluster")
        out = run_cli(
            "build", "--dataset", "words", "--size", "300",
            "--shards", "2", "--checksums", "--out", directory,
        )
        assert out.returncode == 0, out.stderr
        out = run_cli("replicate", "--dir", directory, "--replicas", "1")
        assert out.returncode == 0, out.stderr

        # A clean cluster scrubs clean.
        out = run_cli("scrub", "--dir", directory)
        assert out.returncode == 0, out.stderr
        assert "clean" in out.stdout
        assert "scrub: OK" in out.stderr

        # Rot one byte of a follower's saved pages *behind* the catalog
        # digest (recomputed, as if the medium decayed after the save):
        # the load-time digest gate passes, only the page CRC knows.
        fdir = os.path.join(directory, "shard-0.r1")
        cat_path = os.path.join(fdir, "spbtree.json")
        with open(cat_path, encoding="utf-8") as fh:
            cat = json.load(fh)
        pages = os.path.join(fdir, cat["files"]["btree"])
        with open(pages, "r+b") as fh:
            fh.seek(64)
            b = fh.read(1)
            fh.seek(64)
            fh.write(bytes([b[0] ^ 0xFF]))
        with open(pages, "rb") as fh:
            cat["digests"]["btree"] = hashlib.sha256(fh.read()).hexdigest()
        with open(cat_path, "w", encoding="utf-8") as fh:
            json.dump(cat, fh)

        out = run_cli("scrub", "--dir", directory)
        assert out.returncode == 0, out.stderr + out.stdout
        assert "page" in out.stdout
        assert "[repaired]" in out.stdout
        assert "scrub: OK" in out.stderr

        # The repair is durable: scrub again, clean; verify passes.
        out = run_cli("scrub", "--dir", directory)
        assert out.returncode == 0
        assert "clean" in out.stdout
        out = run_cli("verify", "--dir", directory)
        assert out.returncode == 0, out.stderr

        # shard-status: one line per shard plus the event journal tail
        # written by the scrub runs above.
        out = run_cli("shard-status", "--dir", directory)
        assert out.returncode == 0, out.stderr
        assert "shard 0: primary r0 up" in out.stdout
        assert "shard 1: primary r0 up" in out.stdout
        assert "supervisor events" in out.stdout
        assert "quarantined" in out.stdout
        assert "shard-status: OK" in out.stderr
        journal = read_journal(os.path.join(directory, SUPERVISOR_JOURNAL))
        assert any(e["event"] == "rebuilt" for e in journal)

    def test_shard_status_fails_on_missing_cluster(self, tmp_path):
        out = run_cli(
            "shard-status", "--dir", str(tmp_path / "nope"),
            "--metric", "edit",
        )
        assert out.returncode == 1
        assert "shard-status: FAILED" in out.stderr
