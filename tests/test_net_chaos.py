"""Wire-level chaos tests: the network front end under a faulty network.

Everything here runs through :class:`repro.net.FaultyTransport`, which
injects delays, dropped frames, truncated frames, corrupted length
prefixes, and connection resets between a real client and a real server.
The invariants under test are the tentpole's safety claims:

* no acknowledged mutation is ever lost, whatever the wire does;
* every degraded kNN payload is a confirmed prefix of the true answer;
* the server outlives misbehaving clients and keeps serving honest
  answers to healthy ones.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.spbtree import SPBTree
from repro.distance import EditDistance
from repro.net import (
    FaultPlan,
    FaultyTransport,
    NetClient,
    NetError,
    ProtocolError,
    RetryPolicy,
    protocol,
    serve_in_thread,
)
from repro.service import QueryEngine


@pytest.fixture()
def served(small_words):
    tree = SPBTree.build(small_words, EditDistance(), seed=7)
    engine = QueryEngine(tree, workers=2, max_queue=16).start()
    handle = serve_in_thread(engine, "127.0.0.1", 0)
    try:
        yield handle, engine, tree, small_words
    finally:
        handle.stop(2.0)
        engine.stop()


def test_close_wakes_the_blocked_accept_thread():
    """No connection ever arrives, so the accept thread is blocked in
    ``accept()`` when ``close()`` runs: it must wake and end promptly."""
    proxy = FaultyTransport("127.0.0.1", 9)
    time.sleep(0.05)  # let the accept thread block
    started = time.monotonic()
    proxy.close()
    assert time.monotonic() - started < 1.0
    assert not proxy._accept_thread.is_alive()


def _client_via(proxy, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(attempts=5, base_delay=0.02, seed=11))
    kwargs.setdefault("op_timeout", 2.0)
    return NetClient("127.0.0.1", proxy.port, **kwargs)


class TestForcedFaults:
    """Each fault kind, injected deterministically, survived by retries."""

    def test_delay_is_just_latency(self, served):
        handle, _, tree, words = served
        plan = FaultPlan(delay_s=0.2)
        with FaultyTransport("127.0.0.1", handle.port, plan_s2c=plan) as proxy:
            proxy.force("delay", "s2c")
            with _client_via(proxy) as client:
                t0 = time.monotonic()
                result = client.knn_query(words[0], 3)
                elapsed = time.monotonic() - t0
        assert result.complete
        assert elapsed >= 0.2
        assert proxy.injected["delay"] == 1

    def test_dropped_response_is_retried_to_success(self, served):
        handle, _, _, words = served
        with FaultyTransport("127.0.0.1", handle.port) as proxy:
            proxy.force("drop", "s2c")
            with _client_via(proxy) as client:
                result = client.knn_query(words[1], 3)
                assert result.complete
                assert client.retries >= 1
        assert proxy.injected["drop"] == 1

    def test_truncated_response_is_garbage_then_retried(self, served):
        handle, _, _, words = served
        with FaultyTransport("127.0.0.1", handle.port) as proxy:
            proxy.force("truncate", "s2c")
            with _client_via(proxy) as client:
                result = client.knn_query(words[2], 3)
                assert result.complete
                assert client.retries >= 1
        assert proxy.injected["truncate"] == 1

    def test_corrupt_length_prefix_never_honoured(self, served):
        handle, _, _, words = served
        with FaultyTransport("127.0.0.1", handle.port) as proxy:
            proxy.force("corrupt", "s2c")
            with _client_via(proxy) as client:
                result = client.knn_query(words[3], 3)
                assert result.complete
                assert client.retries >= 1
        assert proxy.injected["corrupt"] == 1

    def test_reset_mid_conversation_is_survived(self, served):
        handle, _, _, words = served
        with FaultyTransport("127.0.0.1", handle.port) as proxy:
            with _client_via(proxy) as client:
                assert client.knn_query(words[4], 3).complete
                proxy.force("reset", "s2c")
                result = client.knn_query(words[4], 3)
                assert result.complete
                assert client.retries >= 1

    def test_request_side_faults_cannot_crash_the_server(self, served):
        from repro.net import RemoteError

        handle, _, _, words = served
        with FaultyTransport("127.0.0.1", handle.port) as proxy:
            for kind in ("drop", "truncate", "corrupt", "reset"):
                proxy.force(kind, "c2s")
                with _client_via(proxy) as client:
                    try:
                        result = client.knn_query(words[5], 3)
                        assert result.complete
                    except RemoteError as exc:
                        # A corrupted *request* is indistinguishable from
                        # a bad client: the server answers BAD_REQUEST,
                        # and the client rightly does not retry it.
                        assert kind == "corrupt"
                        assert exc.code == "BAD_REQUEST"
        # The server is still fully healthy on a clean connection.
        with NetClient("127.0.0.1", handle.port) as direct:
            assert direct.health()["status"] == "ok"


class TestMutationSafety:
    def test_no_acked_mutation_lost_across_resets(self, served):
        """Inserts acked through a resetting wire must all be durable."""
        handle, _, tree, _ = served
        plan = FaultPlan(reset_rate=0.25)
        acked, unacked = [], []
        with FaultyTransport(
            "127.0.0.1", handle.port, seed=5, plan_s2c=plan
        ) as proxy:
            for i in range(40):
                word = f"chaosmut{i:03d}"
                client = _client_via(proxy, retry=RetryPolicy(attempts=1))
                try:
                    with client:
                        assert client.insert(word) is True
                    acked.append(word)
                except (NetError, ProtocolError, OSError):
                    # The wire ate the request or the ack — the client
                    # correctly did NOT blind-resend a mutation.
                    unacked.append(word)
        assert acked, "chaos plan never let an insert through"
        assert unacked, "chaos plan never fired (rates/seed broken?)"
        for word in acked:
            hits = tree.range_query(word, 0)
            assert list(hits) == [word], f"acked insert {word!r} lost"
        # An unacked mutation may have applied (ack lost) or not (request
        # lost) — both are legal; duplicates are not.
        for word in unacked:
            assert len(tree.range_query(word, 0)) <= 1

    def test_mutations_are_never_auto_retried_through_chaos(self, served):
        handle, _, _, _ = served
        with FaultyTransport("127.0.0.1", handle.port) as proxy:
            proxy.force("reset", "s2c")
            client = _client_via(
                proxy, retry=RetryPolicy(attempts=6, base_delay=0.01)
            )
            with client:
                with pytest.raises((NetError, OSError)):
                    client.insert("neverretried")
            assert client.retries == 0


class TestDegradationHonesty:
    def test_degraded_knn_over_chaos_is_confirmed_prefix(self, small_words):
        class SlowEdit(EditDistance):
            stall_s = 0.0

            def __call__(self, a, b):
                time.sleep(self.stall_s)
                return super().__call__(a, b)

        # The build's ~66k distances run unstalled; only the served
        # queries pay the stall the deadlines have to cut short.
        metric = SlowEdit()
        tree = SPBTree.build(small_words, metric, seed=7)
        true_d = [d for d, _ in tree.knn_query(small_words[3], 10)]
        metric.stall_s = 0.001
        engine = QueryEngine(tree, workers=2).start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        plan = FaultPlan(delay_rate=0.2, delay_s=0.02)
        saw_partial = False
        try:
            with FaultyTransport(
                "127.0.0.1", handle.port, seed=9, plan_s2c=plan
            ) as proxy:
                with _client_via(proxy, op_timeout=10.0) as client:
                    for deadline_ms in (30.0, 60.0, 120.0, 5000.0):
                        result = client.knn_query(
                            small_words[3], 10, deadline_ms=deadline_ms
                        )
                        got = [d for d, _ in result]
                        if not result.complete:
                            saw_partial = True
                            assert result.reason is not None
                        # Complete or degraded: always a prefix of truth.
                        assert got == true_d[: len(got)]
            assert saw_partial
        finally:
            handle.stop(2.0)
            engine.stop()


class TestMisbehavingClients:
    def test_server_survives_a_crowd_of_hostile_clients(self, small_words):
        tree = SPBTree.build(small_words, EditDistance(), seed=7)
        engine = QueryEngine(tree, workers=2, max_queue=16).start()
        handle = serve_in_thread(
            engine, "127.0.0.1", 0, read_timeout=0.5
        )
        stop = threading.Event()
        misbehaviours = []

        def hostile(style: int) -> None:
            while not stop.is_set():
                try:
                    sock = socket.create_connection(
                        ("127.0.0.1", handle.port), timeout=1.0
                    )
                    sock.settimeout(1.0)
                    if style == 0:  # corrupt prefix
                        sock.sendall(protocol._PREFIX.pack(0xFFFFFFF0))
                    elif style == 1:  # half a frame, then hang (loris)
                        sock.sendall(b"\x00\x00")
                        time.sleep(0.3)
                    elif style == 2:  # garbage payload
                        sock.sendall(protocol._PREFIX.pack(5) + b"ha")
                        time.sleep(0.1)
                    else:  # connect and slam
                        pass
                    sock.close()
                except OSError:
                    pass

        threads = [
            threading.Thread(target=hostile, args=(i % 4,), daemon=True)
            for i in range(6)
        ]
        try:
            for t in threads:
                t.start()
            # A healthy client keeps getting correct, complete answers
            # the whole time the crowd is abusing the listener.
            with NetClient(
                "127.0.0.1", handle.port,
                retry=RetryPolicy(attempts=4, base_delay=0.05, seed=2),
            ) as client:
                expected = [
                    d for d, _ in tree.knn_query(small_words[7], 4)
                ]
                for _ in range(15):
                    result = client.knn_query(small_words[7], 4)
                    assert result.complete
                    assert [d for d, _ in result] == expected
                health = client.health()
            assert health["status"] == "ok"
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5.0)
            handle.stop(2.0)
            engine.stop()
        assert not misbehaviours


class TestSeededChaosRun:
    def test_mixed_fault_soak_stays_honest(self, served):
        """A seeded all-faults soak: every answer that comes back is
        either complete-and-correct or an honest partial; the server's
        tallies stay coherent."""
        handle, engine, tree, words = served
        plan = FaultPlan(
            delay_rate=0.05, delay_s=0.01, drop_rate=0.05,
            truncate_rate=0.05, corrupt_rate=0.05, reset_rate=0.05,
        )
        completed = failed = 0
        with FaultyTransport(
            "127.0.0.1", handle.port, seed=1234,
            plan_c2s=plan, plan_s2c=plan,
        ) as proxy:
            for i in range(30):
                q = words[i % len(words)]
                expected = [d for d, _ in tree.knn_query(q, 3)]
                client = _client_via(
                    proxy,
                    retry=RetryPolicy(attempts=4, base_delay=0.02, seed=i),
                    op_timeout=1.0,
                )
                try:
                    with client:
                        result = client.knn_query(q, 3)
                except (NetError, ProtocolError, OSError):
                    failed += 1
                    continue
                completed += 1
                got = [d for d, _ in result]
                if result.complete:
                    assert got == expected
                else:
                    assert got == expected[: len(got)]
            assert completed >= 15, (
                f"chaos ate too much: {completed} completed, {failed} failed, "
                f"injected={proxy.injected}"
            )
            assert sum(proxy.injected.values()) > 0
        # Engine bookkeeping survived: served everything it admitted.
        assert engine.failed == 0
        with NetClient("127.0.0.1", handle.port) as direct:
            assert direct.health()["status"] == "ok"
