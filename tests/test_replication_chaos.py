"""Replication chaos: kill the primary mid-workload and keep serving.

The honesty contract under fire: a writer streams inserts while readers
hammer scatter-gather queries; partway through, one shard's primary is
killed.  From that instant, writes routed to the dead shard are refused
(:class:`PrimaryDownError` — never silently dropped), context-carrying
reads keep answering from the survivors but say ``complete=False`` naming
the shard, and a failover restores full service with **zero acknowledged
writes lost**.  The observability layer must tell the same story: the
per-shard lag gauge is exposed, and the promotion counter ticks exactly
once.

The CLI round-trip (``replicate`` → ``shard-failover`` → query/verify)
rides along under the ``slow`` marker, matching the CI chaos job.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.cluster import ShardedIndex
from repro.obs import instruments
from repro.replication import PrimaryDownError, replicate
from repro.service.context import QueryContext
from tests.conftest import replicated_cluster, run_cli


def test_kill_primary_mid_load_loses_no_acked_write(
    tmp_path, small_words, edit, obs_enabled
):
    directory = str(tmp_path / "cluster")
    ShardedIndex.build(
        small_words[:200], edit, shards=2, num_pivots=3, seed=11
    ).save(directory)
    replicate(directory, edit, replicas=2, read_policy="round-robin")
    # Liveness here is mark_down's: no member ages out however slowly
    # the suite runs.
    idx = ShardedIndex.open(directory, edit, wal_fsync=False)
    baseline = sorted(str(o) for o in idx.objects())

    batch = small_words[200:260]
    acked: list = []
    refused: list = []
    writer_errors: list[BaseException] = []
    reader_errors: list[BaseException] = []
    primary_killed = threading.Event()
    stop_load = threading.Event()

    def writer():
        try:
            for i, word in enumerate(batch):
                if stop_load.is_set():
                    break
                if i == len(batch) // 3:
                    # Kill shard 0's primary mid-stream: the workload is
                    # live on both sides of this line.
                    idx.monitor.mark_down(0, idx._sets[0].primary.replica_id)
                    primary_killed.set()
                try:
                    idx.insert(word)
                    acked.append(word)
                except PrimaryDownError:
                    refused.append(word)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            writer_errors.append(exc)

    def reader():
        try:
            i = 0
            while not stop_load.is_set():
                out = idx.range_query(
                    small_words[i % 50], 2.0, context=QueryContext()
                )
                for obj in out:
                    assert edit(obj, small_words[i % 50]) <= 2.0
                i += 1
                # Hand the interpreter lock over between queries: two
                # readers that never release it can starve the writer (its
                # WAL I/O drops the lock at every call) for minutes on a
                # loaded machine.
                time.sleep(0)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            reader_errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(2)
    ]
    try:
        for t in threads:
            t.start()
        threads[0].join()
    finally:
        # However this ends, no load thread outlives the test.
        stop_load.set()
        for t in threads:
            if t.is_alive():
                t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)

    assert not writer_errors, writer_errors
    assert not reader_errors, reader_errors
    assert primary_killed.is_set()
    # The split is honest: every word either acked or refused, and the
    # dead shard did refuse some of the stream.
    assert len(acked) + len(refused) == len(batch)
    assert refused, "no write was routed to the killed shard"
    assert acked, "the healthy shard should have kept accepting writes"

    # Degraded reads: still answering, but saying so — naming the shard.
    out = idx.range_query(small_words[0], 2.0, context=QueryContext())
    assert not out.complete
    assert "shard 0" in str(out.reason)
    assert out.per_shard[0]["complete"] is False

    # Failover restores writes; the refused words go through on retry.
    info = idx.failover(0)
    assert info["shard"] == 0
    for word in refused:
        idx.insert(word)
    out = idx.range_query(small_words[0], 2.0, context=QueryContext())
    assert out.complete, out.reason

    # Zero acknowledged writes lost — across the kill, the degraded
    # window, and the promotion.
    survived = set(str(o) for o in idx.objects())
    lost = (set(baseline) | set(map(str, acked + refused))) - survived
    assert not lost, f"lost acked writes: {lost}"
    assert idx.verify().ok

    # The observability layer tells the same story.
    assert (
        instruments.replication()
        .promotions.labels(shard="0")
        .value
        == 1
    )
    text = obs.render_text()
    assert "repro_replication_lag_bytes" in text
    assert 'shard="0"' in text and 'replica="' in text
    assert "repro_replication_shipped_bytes_total" in text

    # And the whole history is durable.
    idx.close()
    reopened = ShardedIndex.open(directory, edit, wal_fsync=False)
    try:
        assert set(str(o) for o in reopened.objects()) == survived
        assert reopened.verify().ok
    finally:
        reopened.close()


@pytest.mark.slow
class TestCliRoundTrip:
    def test_replicate_failover_query_verify(self, tmp_path):
        directory = str(tmp_path / "cluster")
        built = run_cli(
            "build", "--dataset", "words", "--size", "300",
            "--shards", "2", "--out", directory,
        )
        assert built.returncode == 0, built.stderr

        replicated = run_cli(
            "replicate", "--dir", directory,
            "--replicas", "2", "--read-policy", "round-robin",
        )
        assert replicated.returncode == 0, replicated.stderr
        assert "replicated shards [0, 1]" in replicated.stdout
        assert replicated.stdout.count("follower") >= 4

        again = run_cli("replicate", "--dir", directory)
        assert again.returncode == 1
        assert "already" in again.stderr

        failed_over = run_cli(
            "shard-failover", "--dir", directory, "--shard", "0"
        )
        assert failed_over.returncode == 0, failed_over.stderr
        assert "promoted replica" in failed_over.stdout

        queried = run_cli(
            "query", "--dir", directory, "--mode", "knn", "--k", "4"
        )
        assert queried.returncode == 0, queried.stderr
        assert "status    : complete" in queried.stdout

        verified = run_cli("verify", "--dir", directory)
        assert verified.returncode == 0, (
            verified.stdout + verified.stderr
        )

    def test_serve_with_replicas(self, tmp_path):
        directory = str(tmp_path / "cluster")
        replicated_cluster(directory, "--read-policy", "fastest-mind")
        served = run_cli(
            "serve", "--dir", directory,
            "--num-queries", "9", "--mutations", "4", "--workers", "2",
        )
        assert served.returncode == 0, served.stderr
        assert "max lag 0 bytes" in served.stdout
        assert "degraded shards none" in served.stdout

    def test_write_verbs_on_a_replicated_cluster(self, tmp_path):
        directory = str(tmp_path / "cluster")
        replicated_cluster(directory)
        for verb, *rest in (
            ("insert", "--object", "zzzq"),
            ("insert", "--object", "zzzr"),
            ("delete", "--object", "zzzr"),
            ("checkpoint",),
        ):
            out = run_cli(verb, "--dir", directory, *rest)
            assert out.returncode == 0, out.stderr
        assert "folded 3 WAL records into new shard generations" in out.stdout

        def found(word: str) -> bool:
            out = run_cli(
                "query", "--dir", directory, "--mode", "range",
                "--radius", "0", "--query", word,
            )
            assert out.returncode == 0, out.stderr
            return f"'{word}'" in out.stdout

        assert found("zzzq") and not found("zzzr")
        status = run_cli("shard-status", "--dir", directory)
        assert status.returncode == 0, status.stderr
        assert status.stdout.count("max lag 0 bytes") == 2
        verified = run_cli("verify", "--dir", directory)
        assert verified.returncode == 0, verified.stdout + verified.stderr
        # The insert reached the followers: with both of them promoted,
        # the object is still there.
        for shard in ("0", "1"):
            out = run_cli("shard-failover", "--dir", directory, "--shard", shard)
            assert out.returncode == 0, out.stderr
        assert found("zzzq") and not found("zzzr")
