"""Tests for the observability layer (repro.obs).

The load-bearing assertion here is span/shard *reconciliation*: for a
traced query, the per-level span tallies must sum exactly to the query's
``QueryContext`` shard totals.  Buffer-pool state changes a query's page
accesses, so any test that compares two runs of the same query calls
``tree.flush_cache()`` before each run.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.spbtree import SPBTree
from repro.distance import EuclideanDistance
from repro.obs import (
    FlightRecorder,
    QueryTrace,
    SnapshotWriter,
    diff_snapshots,
    parse_text,
    read_jsonl,
    render_text,
)
from repro.obs.registry import Histogram, MetricsRegistry
from repro.service import QueryContext, QueryEngine
from repro.stats import StatsSession
from repro.storage.faults import TransientIOError


@pytest.fixture(scope="module")
def vec_tree(small_vectors):
    return SPBTree.build(small_vectors, EuclideanDistance(), seed=7)


# ------------------------------------------------------------- registry


class TestRegistry:
    def test_counter_only_goes_up(self):
        reg = MetricsRegistry()
        c = reg.counter("t_ups_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_inc_dec_and_callback(self):
        reg = MetricsRegistry()
        g = reg.gauge("t_level", "help")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == 4.0
        backing = {"v": 0.25}
        cb = reg.gauge("t_ratio", "help", fn=lambda: backing["v"])
        assert cb.value == 0.25
        backing["v"] = 0.75
        assert cb.value == 0.75

    def test_histogram_quantiles_and_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_lat_seconds", "help", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.05, 0.5, 2.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(2.6)
        counts = dict(h.bucket_counts())
        assert counts[0.1] == 2  # cumulative
        assert counts[1.0] == 3
        assert counts[float("inf")] == 4

    def test_labeled_family_children_are_distinct(self):
        reg = MetricsRegistry()
        fam = reg.counter("t_ops_total", "help", labelnames=("kind",))
        fam.labels(kind="knn").inc(3)
        fam.labels(kind="range").inc(1)
        assert fam.labels(kind="knn").value == 3
        samples = dict(fam.samples())
        assert set(samples) == {("knn",), ("range",)}
        with pytest.raises(ValueError):
            fam.labels(flavor="knn")

    def test_registration_is_idempotent_but_typed(self):
        reg = MetricsRegistry()
        a = reg.counter("t_same_total", "help")
        b = reg.counter("t_same_total", "help")
        a.inc()
        assert b.value == 1.0  # same underlying child
        with pytest.raises(ValueError):
            reg.gauge("t_same_total", "re-registered as another kind")
        with pytest.raises(ValueError):
            reg.counter("not a valid name!", "help")


# ------------------------------------------------- span/shard reconciliation


def _traced(tree, kind, *args, **limits):
    """Run one traced query on a cold cache; returns (context, result)."""
    ctx = QueryContext.with_limits(**limits) if limits else QueryContext()
    ctx.trace = QueryTrace(kind)
    tree.flush_cache()
    fn = {
        "range": tree.range_query,
        "knn": tree.knn_query,
        "count": tree.range_count,
    }[kind]
    result = fn(*args, context=ctx)
    return ctx, result


class TestTraceReconciliation:
    def test_knn_levels_sum_exactly_to_shard_totals(
        self, vec_tree, small_vectors
    ):
        ctx, result = _traced(vec_tree, "knn", small_vectors[5], 6)
        assert len(result) == 6
        assert ctx.compdists > 0 and ctx.page_accesses > 0
        assert ctx.trace.attributed_totals() == (
            ctx.compdists,
            ctx.page_accesses,
        )
        assert ctx.trace.levels  # per-level spans were recorded

    def test_range_levels_sum_exactly_to_shard_totals(
        self, vec_tree, small_vectors
    ):
        ctx, result = _traced(vec_tree, "range", small_vectors[9], 0.8)
        assert ctx.trace.attributed_totals() == (
            ctx.compdists,
            ctx.page_accesses,
        )

    def test_count_levels_sum_exactly_to_shard_totals(
        self, vec_tree, small_vectors
    ):
        ctx, result = _traced(vec_tree, "count", small_vectors[9], 0.8)
        assert result.count >= 0
        assert ctx.trace.attributed_totals() == (
            ctx.compdists,
            ctx.page_accesses,
        )

    def test_degraded_knn_still_reconciles(self, vec_tree, small_vectors):
        ctx, result = _traced(
            vec_tree, "knn", small_vectors[5], 6, max_compdists=20
        )
        assert not result.complete
        assert not ctx.trace.complete
        assert ctx.trace.reason
        assert ctx.trace.attributed_totals() == (
            ctx.compdists,
            ctx.page_accesses,
        )

    def test_tracing_does_not_change_counters(self, vec_tree, small_vectors):
        q = small_vectors[7]
        vec_tree.flush_cache()
        plain = QueryContext()
        vec_tree.knn_query(q, 5, context=plain)
        ctx, _ = _traced(vec_tree, "knn", q, 5)
        assert (ctx.compdists, ctx.page_accesses) == (
            plain.compdists,
            plain.page_accesses,
        )

    def test_pruning_diagnostics_are_recorded(self, vec_tree, small_vectors):
        ctx, _ = _traced(vec_tree, "range", small_vectors[3], 0.8)
        merged: dict[str, int] = {}
        for span in ctx.trace.root.children:
            for key, amount in span.counts.items():
                merged[key] = merged.get(key, 0) + amount
        assert merged.get("nodes_visited", 0) > 0
        # At least one pruning / verification rule fired on a real workload.
        assert any(
            key in merged
            for key in (
                "children_pruned_lemma1",
                "entries_pruned_lemma1",
                "lemma2_accepts",
                "entries_verified",
            )
        )

    def test_trace_as_dict_is_json_shaped(self, vec_tree, small_vectors):
        import json

        ctx, _ = _traced(vec_tree, "knn", small_vectors[2], 4)
        encoded = json.dumps(ctx.trace.as_dict())
        assert '"level-0"' in encoded


# ------------------------------------------------------ disabled-by-default


class TestDisabledByDefault:
    def test_disabled_unless_enabled(self):
        assert not obs.enabled()

    def test_stats_session_identical_enabled_vs_disabled(
        self, vec_tree, small_vectors
    ):
        q = small_vectors[11]
        vec_tree.flush_cache(reset_stats=True)
        with StatsSession(vec_tree) as off:
            vec_tree.knn_query(q, 4)
        obs.enable()
        try:
            vec_tree.flush_cache(reset_stats=True)
            with StatsSession(vec_tree) as on:
                vec_tree.knn_query(q, 4)
        finally:
            obs.disable()
        assert (
            off.stats.page_accesses,
            off.stats.distance_computations,
        ) == (on.stats.page_accesses, on.stats.distance_computations)

    def test_disabled_queries_move_no_instrument(self, vec_tree, small_vectors):
        from repro.obs import instruments

        # Force the bundles to exist, then show disabled traffic skips them.
        obs.enable()
        obs.disable()
        hits_before = instruments.buffer_pool().hits.value
        vec_tree.flush_cache()
        vec_tree.knn_query(small_vectors[1], 4)
        assert instruments.buffer_pool().hits.value == hits_before


# ------------------------------------------------------------ exposition


class TestExposition:
    def test_render_covers_core_families_and_parses(
        self, obs_enabled, vec_tree, small_vectors
    ):
        vec_tree.flush_cache()
        vec_tree.knn_query(small_vectors[3], 4)
        text = render_text()
        families = parse_text(text)
        for name in (
            "repro_buffer_pool_hits_total",
            "repro_buffer_pool_hit_ratio",
            "repro_pagefile_read_seconds",
            "repro_wal_fsync_seconds",
            "repro_engine_queue_depth",
            "repro_query_latency_seconds",
        ):
            assert name in families, name
        assert families["repro_query_latency_seconds"]["type"] == "histogram"

    def test_histograms_expose_bucket_sum_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_h_seconds", "help", buckets=(0.5, 1.0))
        h.observe(0.2)
        text = render_text(reg)
        assert 't_h_seconds_bucket{le="+Inf"} 1' in text
        assert "t_h_seconds_sum" in text
        assert "t_h_seconds_count 1" in text
        parse_text(text)  # round-trips

    def test_parse_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            parse_text("this is not an exposition\n")

    def test_parse_rejects_incomplete_histogram(self):
        bad = (
            "# HELP t_h broken\n"
            "# TYPE t_h histogram\n"
            't_h_bucket{le="1.0"} 1\n'
        )
        with pytest.raises(ValueError):
            parse_text(bad)


# ------------------------------------------------------------- slow log


class TestSlowQueryLog:
    def test_threshold_filters_and_roundtrips(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = FlightRecorder(str(tmp_path), slow_ms=5.0)
        assert not log.observe("knn", elapsed=0.001)
        assert log.observe("knn", elapsed=0.5)
        log.close()
        entries = read_jsonl(path)
        assert len(entries) == 1
        assert entries[0]["kind"] == "knn"
        assert entries[0]["elapsed_ms"] == pytest.approx(500.0)
        assert log.recorded == 1

    def test_entry_carries_span_tree_and_reason(
        self, tmp_path, vec_tree, small_vectors
    ):
        ctx, result = _traced(
            vec_tree, "knn", small_vectors[5], 6, max_compdists=20
        )
        path = str(tmp_path / "slow.jsonl")
        log = FlightRecorder(str(tmp_path), slow_ms=0.0)
        log.observe("knn", ctx, result, elapsed=0.25)
        log.close()
        (entry,) = read_jsonl(path)
        assert entry["compdists"] == ctx.compdists
        assert entry["complete"] is False
        assert "compdists budget" in entry["reason"]
        assert entry["trace"]["spans"]["children"]  # the per-level span tree

    def test_no_rotation_without_max_bytes(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = FlightRecorder(str(tmp_path), slow_ms=0.0)
        for i in range(50):
            log.observe("knn", elapsed=0.1)
        log.close()
        assert len(read_jsonl(path)) == 50


# ------------------------------------------------------------- snapshots


class TestSnapshots:
    def test_diff_reports_counter_deltas(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help")
        g = reg.gauge("t_depth", "help")
        c.inc(3)
        g.set(7)
        before = parse_text(render_text(reg))
        c.inc(2)
        g.set(4)
        after = parse_text(render_text(reg))
        diff = diff_snapshots(before, after)
        assert diff["t_total"]["samples"][""] == 2
        assert diff["t_depth"]["samples"][""] == {"before": 7.0, "after": 4.0}

    def test_writer_respects_interval_and_final_write(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("t_total", "help").inc()
        writer = SnapshotWriter(
            str(tmp_path), interval_seconds=100.0, registry=reg
        )
        assert writer.maybe_write(now=0.0) is not None
        assert writer.maybe_write(now=50.0) is None  # inside the interval
        assert writer.maybe_write(now=200.0) is not None
        final = writer.write(event="final")
        assert writer.written == 3
        assert final.endswith("metrics-0003-final.prom")
        with open(final, encoding="utf-8") as fh:
            snap = parse_text(fh.read())
        assert snap["t_total"]["samples"] == [("t_total", {}, 1.0)]


# ------------------------------------------------------- engine instruments


class _FlakyOnce:
    """Delegating tree wrapper whose first query attempt does a full
    traversal's worth of work and then fails transiently."""

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


class TestEngineInstruments:
    def test_retried_attempt_visible_in_retries_counter(
        self, obs_enabled, small_vectors
    ):
        from repro.obs import instruments

        tree = SPBTree.build(
            small_vectors, EuclideanDistance(), seed=7, cache_pages=0
        )
        q = small_vectors[6]
        clean = QueryContext()
        tree.knn_query(q, 4, context=clean)
        retries_before = instruments.engine().retries.value
        flaky = _FlakyOnce(tree)
        with QueryEngine(
            flaky, workers=1, retry_attempts=3, retry_base_delay=0.0
        ) as engine:
            pending = engine.submit("knn", q, 4)
            result = pending.result(timeout=60)
        assert result.complete
        # Only the successful attempt's work lands in the query's shard...
        assert pending.context.compdists == clean.compdists
        assert pending.context.page_accesses == clean.page_accesses
        # ...while the retried attempt is visible in the counters.
        assert engine.retries == 1
        assert instruments.engine().retries.value == retries_before + 1

    def test_query_latency_histogram_partitions_by_kind(
        self, obs_enabled, vec_tree, small_vectors
    ):
        from repro.obs import instruments

        fam = instruments.engine().query_latency
        knn_before = fam.labels(kind="knn").count
        range_before = fam.labels(kind="range").count
        with QueryEngine(vec_tree, workers=2) as engine:
            engine.knn(small_vectors[0], 3)
            engine.range(small_vectors[1], 0.5)
        assert fam.labels(kind="knn").count == knn_before + 1
        assert fam.labels(kind="range").count == range_before + 1
        assert isinstance(fam.labels(kind="knn"), Histogram)


class TestSlowQueryLogSource:
    def test_source_defaults_to_inproc(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = FlightRecorder(str(tmp_path), slow_ms=0.0)
        log.observe("knn", elapsed=0.1)
        log.close()
        (entry,) = read_jsonl(path)
        assert entry["source"] == "inproc"

    def test_explicit_source_is_recorded(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = FlightRecorder(str(tmp_path), slow_ms=0.0)
        log.observe("range", elapsed=0.1, source="net:10.0.0.7:55312")
        log.close()
        (entry,) = read_jsonl(path)
        assert entry["source"] == "net:10.0.0.7:55312"

    def test_wire_queries_are_attributed_to_their_peer(
        self, tmp_path, small_vectors
    ):
        """End to end: a slow query arriving over TCP logs source=net:<peer>,
        while the same query submitted in-process logs source=inproc."""
        from repro.core.spbtree import SPBTree
        from repro.distance import EuclideanDistance
        from repro.net import NetClient, serve_in_thread
        from repro.service import QueryEngine

        tree = SPBTree.build(small_vectors[:100], EuclideanDistance(), seed=7)
        path = str(tmp_path / "slow.jsonl")
        log = FlightRecorder(str(tmp_path), slow_ms=0.0)  # record everything
        engine = QueryEngine(tree, workers=1, flight=log).start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        try:
            with NetClient("127.0.0.1", handle.port) as client:
                client.knn_query(small_vectors[0], 3)
            engine.knn(small_vectors[0], 3)
        finally:
            handle.stop(2.0)
            engine.stop()
            log.close()
        entries = read_jsonl(path)
        sources = [e["source"] for e in entries]
        assert any(s.startswith("net:127.0.0.1:") for s in sources)
        assert "inproc" in sources
