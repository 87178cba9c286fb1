"""Distributed tracing end to end: ids, stitching, flight recorder.

The acceptance property is *correlation*: one request id minted at the
edge must resolve, after the fact, to every record the request left
behind — the stitched span tree in the wire reply (whose per-span sums
equal the reply's totals), the slow-query-log entry, the supervisor
journal events of any failover that degraded it, and the flight-recorder
dump the anomaly triggered.  The chaos test at the bottom proves the
whole chain under injected transport faults and a supervisor-driven
failover mid-load.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.cluster import ShardedIndex
from repro.control import JOURNAL_VERSION, EventJournal, read_journal
from repro.core.spbtree import SPBTree
from repro.distance import EditDistance, EuclideanDistance
from repro.net import (
    FaultPlan,
    FaultyTransport,
    NetClient,
    RetryPolicy,
    serve_in_thread,
)
from repro.obs.flight import FLIGHT_VERSION, FlightRecorder
from repro.obs.ids import clean_trace_id, is_local_id, new_trace_id
from repro.obs.trace import QueryTrace, Span, attributed_totals_from_dict
from repro.replication import replicate
from repro.service import QueryContext, QueryEngine
from repro.storage.faults import TransientIOError
from repro.supervisor import Supervisor
from tests.conftest import run_cli


class FakeClock:
    def __init__(self, now: float = 500.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------------- ids


class TestIds:
    def test_new_trace_id_shape_and_uniqueness(self):
        ids = {new_trace_id() for _ in range(256)}
        assert len(ids) == 256  # 64 random bits never collide in 256 draws
        for rid in ids:
            assert is_local_id(rid)
            assert len(rid) == 16

    def test_clean_trace_id_accepts_reasonable_tokens(self):
        assert clean_trace_id("deadbeefdeadbeef") == "deadbeefdeadbeef"
        # Foreign tracer formats pass too, not just our hex.
        assert clean_trace_id("req-123_x.y") == "req-123_x.y"

    def test_clean_trace_id_rejects_hostile_input(self):
        assert clean_trace_id(None) is None
        assert clean_trace_id("") is None
        assert clean_trace_id(12345) is None
        assert clean_trace_id("x" * 65) is None  # log-bloat bound
        assert clean_trace_id("evil\nid") is None
        assert clean_trace_id("a b") is None


# ------------------------------------------------------- trace round-trip


def _sample_trace() -> QueryTrace:
    trace = QueryTrace("range")
    shard = trace.span("shard-0")
    shard.compdists = 40
    shard.page_accesses = 5
    shard.counts["nodes_visited"] = 7
    shard.counts["replica"] = "r2"  # identity annotation: a string
    level = Span("level-0")
    level.compdists = 40
    level.page_accesses = 5
    shard.children.append(level)
    other = trace.span("shard-1")
    other.compdists = 2
    other.page_accesses = 1
    trace.span("queue-wait").elapsed = 0.004
    trace.root.compdists = 42
    trace.root.page_accesses = 6
    trace.complete = False
    trace.reason = "compdists budget exhausted"
    return trace


class TestTraceSerialisation:
    def test_as_dict_from_dict_round_trips(self):
        trace = _sample_trace()
        rebuilt = QueryTrace.from_dict(trace.as_dict())
        assert rebuilt.as_dict() == trace.as_dict()
        assert rebuilt.kind == "range"
        assert rebuilt.complete is False
        assert rebuilt.reason == "compdists budget exhausted"

    def test_string_counts_survive_the_wire(self):
        rebuilt = QueryTrace.from_dict(_sample_trace().as_dict())
        counts = rebuilt.span("shard-0").counts
        assert counts["replica"] == "r2"  # not coerced to int
        assert counts["nodes_visited"] == 7

    def test_rebuilt_trace_reconciles_like_the_original(self):
        trace = _sample_trace()
        rebuilt = QueryTrace.from_dict(trace.as_dict())
        assert rebuilt.attributed_totals() == trace.attributed_totals() == (
            42,
            6,
        )
        assert attributed_totals_from_dict(trace.as_dict()) == (42, 6)

    def test_rebuilt_trace_span_lookup_is_live(self):
        rebuilt = QueryTrace.from_dict(_sample_trace().as_dict())
        # span() must find the deserialised child, not create a duplicate.
        assert rebuilt.span("shard-0") is rebuilt.root.children[0]
        assert len(rebuilt.root.children) == 3

    def test_from_dict_ignores_unknown_fields(self):
        data = _sample_trace().as_dict()
        data["spans"]["children"][0]["future_field"] = {"x": 1}
        data["future_top_level"] = True
        rebuilt = QueryTrace.from_dict(data)
        assert rebuilt.span("shard-0").compdists == 40


# ---------------------------------------------------------- flight recorder


class _Ctx:
    """Minimal stand-in for a QueryContext that finished a traced query."""

    def __init__(self, request_id=None, compdists=10, page_accesses=2):
        self.request_id = request_id or new_trace_id()
        self.compdists = compdists
        self.page_accesses = page_accesses
        self.epoch = None
        self.trace = QueryTrace("knn")
        span = self.trace.span("shard-0")
        span.compdists = compdists
        span.page_accesses = page_accesses
        self.trace.finish(self)


class _Result:
    def __init__(self, complete=True, reason=None):
        self.complete = complete
        self.reason = reason


class TestFlightRecorder:
    def test_untraced_context_is_a_noop(self):
        flight = FlightRecorder()
        assert flight.observe("knn", QueryContext(), _Result()) is None
        assert len(flight) == 0 and flight.recorded == 0

    def test_ring_is_bounded_but_recorded_is_not(self):
        flight = FlightRecorder()
        for _ in range(257):
            flight.observe("knn", _Ctx(), _Result())
        assert len(flight) == 256
        assert flight.recorded == 257

    def test_degraded_result_auto_triggers_a_dump(self, tmp_path):
        flight = FlightRecorder(directory=str(tmp_path))
        ctx = _Ctx()
        flight.observe("knn", _Ctx(), _Result())  # healthy neighbour
        flight.observe(
            "knn", ctx, _Result(complete=False, reason="deadline"),
            elapsed=0.25,
        )
        (name,) = [n for n in os.listdir(tmp_path) if n.startswith("flight-")]
        assert "degraded" in name
        header, entries = obs.read_flight(str(tmp_path / name))
        assert header["v"] == FLIGHT_VERSION
        assert header["reason"] == "degraded"
        assert header["entries"] == len(entries) == 2
        assert header["detail"]["request_id"] == ctx.request_id
        # The anomalous entry carries the whole story: outcome + span tree.
        anomalous = [e for e in entries if e["request_id"] == ctx.request_id]
        (entry,) = anomalous
        assert entry["complete"] is False
        assert entry["reason"] == "deadline"
        assert entry["elapsed_ms"] == pytest.approx(250.0)
        assert attributed_totals_from_dict(entry["trace"]) == (
            entry["compdists"],
            entry["page_accesses"],
        )

    def test_per_reason_cooldown_and_force(self, tmp_path):
        clock = FakeClock(0.0)
        flight = FlightRecorder(directory=str(tmp_path), clock=clock)
        flight.observe("knn", _Ctx(), _Result())
        assert flight.trigger("failover") is not None
        assert flight.trigger("failover") is None  # inside the cooldown
        # A different reason is not throttled by failover's cooldown...
        assert flight.trigger("quarantine") is not None
        # ...force bypasses it entirely...
        assert flight.trigger("failover", force=True) is not None
        # ...and the cooldown expires on schedule.
        clock.now = 20.0
        assert flight.trigger("failover") is not None
        assert flight.triggers == 5 and flight.dumps == 4

    def test_rejection_burst_dumps_once_per_window(self, tmp_path):
        clock = FakeClock(0.0)
        flight = FlightRecorder(directory=str(tmp_path), clock=clock)
        flight.note_rejection()
        clock.now = 2.0  # the first rejection ages out of the window
        for _ in range(19):
            flight.note_rejection()
        assert flight.dumps == 0  # only 19 within any one window
        flight.note_rejection()
        assert flight.dumps == 1
        (name,) = os.listdir(tmp_path)
        assert "rejection-burst" in name

    def test_torn_tail_keeps_complete_prefix(self, tmp_path):
        flight = FlightRecorder(directory=str(tmp_path))
        for _ in range(3):
            flight.observe("range", _Ctx(), _Result())
        path = flight.trigger("manual", force=True)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"request_id": "torn-mid-wri')
        header, entries = obs.read_flight(path)
        assert header["entries"] == 3
        assert len(entries) == 3  # the torn line is dropped, prefix kept

    def test_read_flight_refuses_a_slow_log(self, tmp_path):
        # Slow-log entries also carry "reason"; the header check must not
        # mistake one for a dump and silently swallow the first entry.
        path = str(tmp_path / "slow.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"v": 1, "kind": "knn", "reason": "x"}) + "\n")
        with pytest.raises(ValueError, match="flight header"):
            obs.read_flight(path)

    def test_directory_none_counts_dumps_without_writing(self):
        flight = FlightRecorder(directory=None)
        flight.observe("knn", _Ctx(), _Result(complete=False))
        assert flight.dumps == 1  # the degraded auto-trigger still counted


# ---------------------------------------------------- schema versions (logs)


class TestSchemaVersions:
    def test_slow_log_entries_carry_version_and_request_id(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = FlightRecorder(str(tmp_path), slow_ms=0.0)
        ctx = _Ctx()
        log.observe("knn", ctx, _Result(), elapsed=0.1)
        log.close()
        (entry,) = obs.read_jsonl(path)
        assert entry["v"] == FLIGHT_VERSION
        assert entry["request_id"] == ctx.request_id

    def test_slow_log_reader_tolerates_legacy_and_future_entries(
        self, tmp_path
    ):
        path = str(tmp_path / "slow.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            # Pre-versioning entry: no "v", no request_id.
            fh.write(json.dumps({"kind": "knn", "elapsed_ms": 5.0}) + "\n")
            # Future entry: unknown fields ride along untouched.
            fh.write(
                json.dumps({"v": 99, "kind": "range", "hyper_field": [1]})
                + "\n"
            )
            fh.write('{"torn": ')  # crash mid-append
        entries = obs.read_jsonl(path)
        assert len(entries) == 2
        assert "v" not in entries[0]
        assert entries[1]["hyper_field"] == [1]

    def test_journal_entries_carry_version_and_request_id(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        journal = EventJournal(path=path, clock=FakeClock(1.0))
        rid = new_trace_id()
        journal.record("promoted", shard=0, replica=1, request_id=rid)
        journal.record("scrub-pass")  # request id stays optional
        journal.close()
        first, second = read_journal(path)
        assert first["v"] == JOURNAL_VERSION
        assert first["request_id"] == rid
        assert first["shard"] == 0 and first["replica"] == 1
        assert "request_id" not in second

    def test_journal_reader_tolerates_legacy_entries_and_torn_tail(
        self, tmp_path
    ):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"ts": 1.0, "event": "promoted"}) + "\n")
            fh.write(json.dumps({"v": 1, "ts": 2.0, "event": "rejoined"}))
            fh.write("\n")
            fh.write('{"v": 1, "ts": 3.0, "ev')  # torn tail
        events = read_journal(path)
        assert [e["event"] for e in events] == ["promoted", "rejoined"]


# ------------------------------------------------------- wire stitching


@pytest.fixture()
def traced_server(tmp_path, small_words):
    """An SPB-tree engine behind the wire protocol with slow log + flight."""
    tree = SPBTree.build(small_words[:150], EditDistance(), seed=7)
    flight_dir = str(tmp_path / "flight")
    slow_path = os.path.join(flight_dir, "slow.jsonl")
    flight = FlightRecorder(flight_dir, slow_ms=0.0)
    engine = QueryEngine(tree, workers=2, flight=flight).start()
    handle = serve_in_thread(engine, "127.0.0.1", 0)
    try:
        yield handle, slow_path, flight, flight_dir, small_words
    finally:
        handle.stop(2.0)
        engine.stop()
        flight.close()


class TestWireStitching:
    def test_traced_client_gets_stitched_tree_that_reconciles(
        self, traced_server
    ):
        handle, slow_path, _, _, words = traced_server
        with NetClient("127.0.0.1", handle.port, trace=True) as client:
            result = client.knn_query(words[0], 4)
        assert result.complete
        # The correlation key is the *client's* mint; the server adopted it.
        assert client.last_request_id is not None
        assert is_local_id(client.last_request_id)
        trace = client.last_trace
        assert trace is not None and trace.complete
        totals = (trace.root.compdists, trace.root.page_accesses)
        assert totals[0] > 0
        # Reconciliation across the process boundary: the stitched tree's
        # per-span sums equal the reply's totals.
        assert attributed_totals_from_dict(trace.as_dict()) == totals
        # The engine's queue-wait stage crossed the wire with the tree.
        assert "queue-wait" in {s.name for s in trace.root.children}
        # The same id resolves into the server's slow log.
        entries = obs.read_jsonl(slow_path)
        mine = [
            e for e in entries if e.get("request_id") == client.last_request_id
        ]
        assert mine and mine[0]["compdists"] == totals[0]

    def test_bare_client_gets_a_server_minted_id(self, traced_server):
        handle, slow_path, _, _, words = traced_server
        # trace=False: no trace_id field on the wire (the old protocol);
        # the server mints one itself so the slow log still correlates.
        with NetClient("127.0.0.1", handle.port) as client:
            client.range_query(words[1], 1.0)
            assert client.last_request_id is not None
            assert is_local_id(client.last_request_id)

    def test_degraded_reply_triggers_a_flight_dump(self, traced_server):
        handle, _, flight, flight_dir, words = traced_server
        with NetClient("127.0.0.1", handle.port, trace=True) as client:
            result = client.knn_query(words[2], 4, max_compdists=10)
        assert not result.complete
        assert client.last_trace is not None
        assert not client.last_trace.complete
        rid = client.last_request_id
        # The degraded reply landed in the ring and triggered a dump whose
        # entries include this very request.
        assert any(e["request_id"] == rid for e in flight.tail())
        hits = [
            (path, entry)
            for path in sorted(
                os.path.join(flight_dir, n)
                for n in os.listdir(flight_dir)
                if n.startswith("flight-")
            )
            for entry in obs.read_flight(path)[1]
            if entry["request_id"] == rid
        ]
        assert hits, os.listdir(flight_dir)
        path, entry = hits[0]
        assert "degraded" in os.path.basename(path)
        assert entry["complete"] is False
        assert entry["source"].startswith("net:")


# ----------------------------------- reconciliation under routing + retries


def _traced_range(idx, query, radius, **limits):
    ctx = QueryContext.with_limits(request_id=new_trace_id(), **limits)
    ctx.trace = QueryTrace("range")
    result = idx.range_query(query, radius, context=ctx)
    return ctx, result


def _replica_annotations(trace):
    out = {}
    for span in trace.root.children:
        if span.name.startswith("shard-") and "replica" in span.counts:
            out[span.name] = span.counts["replica"]
    return out


class TestReplicatedReconciliation:
    @pytest.fixture()
    def cluster_dir(self, tmp_path, small_words, edit):
        directory = str(tmp_path / "cluster")
        ShardedIndex.build(
            small_words[:200], edit, shards=2, num_pivots=3, seed=11
        ).save(directory)
        return directory

    def test_fastest_mind_reads_reconcile_and_name_their_replica(
        self, cluster_dir, small_words, edit
    ):
        replicate(cluster_dir, edit, replicas=2, read_policy="fastest-mind")
        idx = ShardedIndex.open(cluster_dir, edit, wal_fsync=False)
        try:
            for word in small_words[:8]:
                ctx, _ = _traced_range(idx, word, 2.0)
                assert ctx.trace.attributed_totals() == (
                    ctx.compdists,
                    ctx.page_accesses,
                ), f"trace does not reconcile for {word!r}"
                annotations = _replica_annotations(ctx.trace)
                assert annotations, "no replica identity on any shard span"
                for name, rid in annotations.items():
                    assert isinstance(rid, str) and rid.startswith("r"), (
                        name,
                        rid,
                    )
        finally:
            idx.close()

    def test_round_robin_rotates_the_recorded_identity(
        self, cluster_dir, small_words, edit
    ):
        replicate(cluster_dir, edit, replicas=2, read_policy="round-robin")
        idx = ShardedIndex.open(cluster_dir, edit, wal_fsync=False)
        try:
            seen = set()
            for word in small_words[:6]:
                ctx, _ = _traced_range(idx, word, 2.0)
                seen.update(_replica_annotations(ctx.trace).values())
            assert len(seen) >= 2, f"round-robin never rotated: {seen}"
        finally:
            idx.close()

    def test_reconciliation_holds_across_a_failover(
        self, cluster_dir, small_words, edit
    ):
        replicate(cluster_dir, edit, replicas=2, read_policy="fastest-mind")
        idx = ShardedIndex.open(cluster_dir, edit, wal_fsync=False)
        try:
            before, _ = _traced_range(idx, small_words[0], 2.0)
            assert before.trace.attributed_totals() == (
                before.compdists,
                before.page_accesses,
            )
            rset = idx._sets[0]
            p0 = rset.primary.replica_id
            idx._sets[0].mark_down(p0)
            info = idx.failover(0, request_id=new_trace_id())
            assert info["promoted"] != p0
            after, result = _traced_range(idx, small_words[1], 2.0)
            assert after.trace.attributed_totals() == (
                after.compdists,
                after.page_accesses,
            )
            # fastest-mind now routes shard 0 to the fresh primary.
            annotations = _replica_annotations(after.trace)
            if "shard-0" in annotations:
                assert annotations["shard-0"] == f"r{info['promoted']}"
        finally:
            idx.close()


class _FlakyOnce:
    """Tree wrapper whose first query attempt does a full traversal's
    worth of work, then fails transiently (the engine retries it)."""

    def __init__(self, tree):
        self._tree = tree
        self.failures_left = 1

    def __getattr__(self, name):
        return getattr(self._tree, name)

    def knn_query(self, *args, **kwargs):
        result = self._tree.knn_query(*args, **kwargs)
        if self.failures_left:
            self.failures_left -= 1
            raise TransientIOError("injected: attempt lost after doing work")
        return result


class TestRetriedAttemptTrace:
    def test_final_trace_describes_only_the_successful_attempt(
        self, small_vectors
    ):
        tree = SPBTree.build(
            small_vectors, EuclideanDistance(), seed=7, cache_pages=0
        )
        q = small_vectors[6]
        clean = QueryContext()
        tree.knn_query(q, 4, context=clean)
        flaky = _FlakyOnce(tree)
        with QueryEngine(
            flaky,
            workers=1,
            retry_attempts=3,
            retry_base_delay=0.0,
            trace_queries=True,
        ) as engine:
            pending = engine.submit("knn", q, 4)
            result = pending.result(timeout=60)
        assert result.complete
        assert engine.retries == 1
        ctx = pending.context
        # The id is minted once at submit and survives the retry...
        assert ctx.request_id is not None and is_local_id(ctx.request_id)
        # ...while the trace was reset with the counters, so the final
        # span tree describes exactly the attempt that succeeded.
        assert ctx.trace.attributed_totals() == (
            ctx.compdists,
            ctx.page_accesses,
        )
        assert (ctx.compdists, ctx.page_accesses) == (
            clean.compdists,
            clean.page_accesses,
        )


# ------------------------------------------------- chaos: end-to-end story


class TestChaosCorrelation:
    def test_every_degraded_reply_resolves_end_to_end(
        self, tmp_path, small_words, edit
    ):
        """Under transport faults and a supervisor failover mid-load, every
        degraded reply's request id resolves to (a) a stitched span tree
        whose per-span sums equal the reply totals, (b) its slow-log
        entry, (c) the journal events of the failover — and the failover's
        flight dump contains the affected requests' traces."""
        clock = FakeClock()
        directory = str(tmp_path / "cluster")
        ShardedIndex.build(
            small_words[:200], edit, shards=2, num_pivots=3, seed=11
        ).save(directory)
        replicate(directory, edit, replicas=2, read_policy="round-robin")
        idx = ShardedIndex.open(directory, edit, wal_fsync=False)
        flight_dir = str(tmp_path / "flight")
        slow_path = os.path.join(flight_dir, "slow.jsonl")
        flight = FlightRecorder(flight_dir, slow_ms=0.0)
        engine = QueryEngine(idx, workers=2, flight=flight).start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        sup = Supervisor(
            idx, scrub_interval=None, tick_interval=1.0, clock=clock,
            flight=flight,
        )
        proxy = FaultyTransport(
            "127.0.0.1", handle.port, seed=3,
            plan_c2s=FaultPlan(drop_rate=0.08),
            plan_s2c=FaultPlan(delay_rate=0.2, delay_s=0.02),
        )
        client = NetClient(
            "127.0.0.1", proxy.port,
            op_timeout=1.0,
            retry=RetryPolicy(attempts=6, base_delay=0.02, seed=5),
            trace=True,
        )
        replies = []  # (request_id, stitched QueryTrace, QueryResult)

        def ask(i):
            result = client.range_query(
                small_words[i % 50], 2.0, max_compdists=40
            )
            assert client.last_request_id is not None
            assert client.last_trace is not None
            replies.append(
                (client.last_request_id, client.last_trace, result)
            )

        try:
            for i in range(6):
                ask(i)
            before_failover = {rid for rid, _, _ in replies}

            # Kill shard 0's primary and let the *supervisor* drive the
            # failover while the client keeps asking through the faults.
            rset = idx._sets[0]
            p0 = rset.primary.replica_id
            idx._sets[0].mark_down(p0)
            promoted = False
            for i in range(30):
                ask(6 + i)
                if sup.tick()["promoted"]:
                    promoted = True
                    break
                clock.now += 0.5
            assert promoted, "supervisor never promoted a follower"
            for i in range(4):
                ask(40 + i)
        finally:
            client.close()
            proxy.close()
            handle.stop(5.0)
            engine.stop()
            sup.close()
            flight.close()
            idx.close()

        degraded = [
            (rid, tr, res) for rid, tr, res in replies if not res.complete
        ]
        assert degraded, "the compdist budget should have degraded replies"
        assert client.retries > 0 or proxy.injected["drop"] == 0

        # (a) Every reply — degraded included — carries a stitched span
        # tree whose per-span sums equal the reply's totals.
        for rid, trace, result in replies:
            totals = (trace.root.compdists, trace.root.page_accesses)
            assert attributed_totals_from_dict(trace.as_dict()) == totals, rid
            assert trace.complete == result.complete, rid
            if not result.complete:
                assert trace.reason, rid

        # (b) Every degraded reply's id resolves into the slow log, and
        # the logged entry reconciles on its own.
        entries = obs.read_jsonl(slow_path)
        by_id = {}
        for entry in entries:
            by_id.setdefault(entry.get("request_id"), []).append(entry)
        for rid, trace, _ in degraded:
            assert rid in by_id, f"degraded {rid} missing from the slow log"
            entry = by_id[rid][-1]
            assert entry["v"] == FLIGHT_VERSION
            assert entry["source"].startswith("net:")
            assert attributed_totals_from_dict(entry["trace"]) == (
                entry["compdists"],
                entry["page_accesses"],
            ), rid

        # (c) The journal holds the failover's own correlated events.
        events = sup.events(200)
        assert all(e.get("v") == JOURNAL_VERSION for e in events)
        promoted_events = [e for e in events if e["event"] == "promoted"]
        assert promoted_events
        failover_rid = promoted_events[0].get("request_id")
        assert failover_rid is not None and is_local_id(failover_rid)

        # The failover triggered a flight dump carrying the requests that
        # were in flight around it — every pre-failover reply included —
        # under the same correlation id the journal recorded.
        dumps = [
            n for n in os.listdir(flight_dir) if n.endswith("-failover.jsonl")
        ]
        assert dumps, os.listdir(flight_dir)
        header, dump_entries = obs.read_flight(
            os.path.join(flight_dir, sorted(dumps)[0])
        )
        assert header["detail"]["request_id"] == failover_rid
        dumped_ids = {e["request_id"] for e in dump_entries}
        missing = before_failover - dumped_ids
        assert not missing, f"pre-failover requests absent from dump: {missing}"


# ------------------------------------------------------------ CLI surfaces


@pytest.mark.slow
class TestCliSurfaces:
    def test_trace_live_renders_and_reconciles(self):
        out = run_cli(
            "query", "--dataset", "words", "--size", "200",
            "--mode", "knn", "--k", "4", "--trace",
        )
        assert out.returncode == 0, out.stderr
        assert "trace knn (complete)" in out.stdout
        assert "request_id=" in out.stdout
        assert "attributed:" in out.stdout
        assert "WARNING" not in out.stderr

    def test_serve_trace_file_and_metrics_diff_round_trip(self, tmp_path):
        snap_dir = str(tmp_path / "snaps")
        flight_dir = str(tmp_path / "flight")
        slow_path = os.path.join(flight_dir, "slow.jsonl")
        out = run_cli(
            "serve", "--dataset", "words", "--size", "200",
            "--num-queries", "8", "--workers", "2", "--metrics",
            "--slow-ms", "0",
            "--snapshot-dir", snap_dir, "--flight-dir", flight_dir,
            "--max-compdists", "40",
        )
        assert out.returncode == 0, out.stderr
        # --metrics without --metrics-out: stdout is the exposition alone.
        assert "flight" in out.stderr

        # Every slow-log entry carries an id; pick one and resolve it.
        entries = obs.read_jsonl(slow_path)
        assert entries
        rid = entries[0]["request_id"]
        out = run_cli("trace", "--file", slow_path, "--request-id", rid)
        assert out.returncode == 0, out.stderr
        assert f"request_id={rid}" in out.stdout
        assert "attributed:" in out.stdout
        out = run_cli("trace", "--file", slow_path, "--request-id", "nope")
        assert out.returncode == 1
        assert "no traces" in out.stderr

        # The budget degraded queries, so a flight dump exists and the
        # trace CLI reads it with the same renderer.
        dumps = sorted(n for n in os.listdir(flight_dir) if n.startswith("flight-"))
        assert dumps, "no flight dump despite degraded queries"
        out = run_cli("trace", "--file", os.path.join(flight_dir, dumps[0]))
        assert out.returncode == 0, out.stderr
        assert "PARTIAL" in out.stdout

        # metrics-diff over the run's first and last snapshots.
        snaps = sorted(os.listdir(snap_dir))
        assert len(snaps) >= 2, snaps
        out = run_cli(
            "metrics-diff",
            os.path.join(snap_dir, snaps[0]),
            os.path.join(snap_dir, snaps[-1]),
            "--changed-only",
        )
        assert out.returncode == 0, out.stderr
        assert "repro_query_latency_seconds" in out.stdout

    def test_final_snapshot_diffs_to_zero_against_metrics_out(self, tmp_path):
        # A snapshot is the exposition itself, so metrics-diff reads a
        # --metrics-out file as readily as a snapshot, and the run's final
        # snapshot is taken at the state --metrics-out records.
        snap_dir = tmp_path / "snaps"
        metrics_out = str(tmp_path / "run.prom")
        out = run_cli(
            "serve", "--dataset", "words", "--size", "200",
            "--num-queries", "8", "--workers", "2", "--metrics",
            "--metrics-out", metrics_out, "--snapshot-dir", str(snap_dir),
        )
        assert out.returncode == 0, out.stderr
        (final,) = [n for n in os.listdir(snap_dir) if n.endswith("-final.prom")]
        out = run_cli(
            "metrics-diff", str(snap_dir / final), metrics_out, "--json"
        )
        assert out.returncode == 0, out.stderr
        delta = json.loads(out.stdout)
        assert delta["repro_buffer_pool_hits_total"]["type"] == "counter"
        assert delta["repro_query_latency_seconds"]["samples"]
        for name, info in delta.items():
            for value in info["samples"].values():
                if info["type"] == "counter":
                    assert value == 0, (name, value)
                elif info["type"] == "histogram":
                    assert value["count"] == 0, (name, value)

    def test_metrics_diff_rejects_a_missing_snapshot(self, tmp_path):
        out = run_cli(
            "metrics-diff",
            str(tmp_path / "a.json"),
            str(tmp_path / "b.json"),
        )
        assert out.returncode == 1
        assert "metrics-diff:" in out.stderr
        # A file that is no exposition (an old JSON snapshot, say) is
        # refused the same way, naming the file and the line.
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1}\n', encoding="utf-8")
        out = run_cli("metrics-diff", str(bad), str(bad))
        assert out.returncode == 1
        (line,) = out.stderr.splitlines()
        assert line.startswith(f"metrics-diff: {bad}: line 1: malformed sample")
