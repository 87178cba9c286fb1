"""Tests for ``repro.tuning`` — the pivot-maintenance loop.

* :class:`Tuner` — pivot-drift scheduling and rebuild (its lifecycle and
  journal are the shared loop contract's, ``tests/test_control_loop.py``);
* beside a :class:`~repro.service.QueryEngine` — with a tuner attached
  answers are unchanged, and the engine's per-query compdists/page
  accesses are bit-identical to calling the index directly.
"""

from __future__ import annotations

import types

import pytest

from repro.cluster import ShardedIndex
from repro.control import EventJournal
from repro.core.pivots import select_pivots
from repro.core.spbtree import SPBTree
from repro.service import QueryEngine
from repro.service.context import QueryContext
from repro.tuning import Tuner


@pytest.fixture(scope="module")
def tuned_cluster(small_words, edit):
    return ShardedIndex.build(
        small_words[:300], edit, shards=3, num_pivots=3, seed=1
    )


@pytest.fixture(scope="module")
def reference_tree(small_words, edit):
    return SPBTree.build(small_words[:200], edit, num_pivots=3, seed=5)


class TestPivotMaintenance:
    def test_drift_schedules_rebuild_and_tells_supervisor(
        self, small_words, edit
    ):
        cluster = ShardedIndex.build(
            small_words[:150], edit, shards=2, num_pivots=3, seed=1
        )
        supervisor = types.SimpleNamespace(journal=EventJournal())
        cluster.supervisor = supervisor
        tuner = Tuner(cluster, pivot_drift_threshold=0.15)
        precisions = iter([0.9, 0.5])
        tuner._measure_precision = lambda: next(precisions)
        first = tuner.tick()["pivots"]
        assert first == {"baseline": 0.9}
        second = tuner.tick()["pivots"]
        assert second["drift"] == pytest.approx(0.4444, abs=1e-3)
        assert tuner.pivot_rebuild_due
        drift_events = [
            e for e in tuner.events(20) if e["event"] == "pivot-drift"
        ]
        assert len(drift_events) == 1
        scheduled = [
            e
            for e in supervisor.journal.tail(10)
            if e["event"] == "maintenance-scheduled"
        ]
        assert len(scheduled) == 1
        assert scheduled[0]["request_id"] == drift_events[0]["request_id"]
        assert scheduled[0]["detail"]["kind"] == "pivot-rebuild"
        tuner.close()

    def test_rebuild_pivots_resolves_and_keeps_answers_exact(
        self, small_words, edit, reference_tree
    ):
        words = small_words[:200]
        # Deliberately poor pivots: the first three words, unselected.
        cluster = ShardedIndex.build(
            words, edit, shards=2, pivots=words[:3], seed=1
        )
        tuner = Tuner(cluster)
        tuner.pivot_rebuild_due = True
        tuner.rebuild_pivots()
        assert not tuner.pivot_rebuild_due
        outcomes = {e["event"] for e in tuner.events(20)}
        assert outcomes & {"pivot-rebuilt", "pivot-rebuild-skipped"}
        # Whatever it decided, answers stay metric-exact.
        assert cluster.verify().ok
        for q in words[50:53]:
            assert set(cluster.range_query(q, 2.0)) == set(
                reference_tree.range_query(q, 2.0)
            )
            expect_knn = [d for d, _ in reference_tree.knn_query(q, 5)]
            got_knn = [d for d, _ in cluster.knn_query(q, 5)]
            assert got_knn == expect_knn
        tuner.close()

    def test_rebuild_with_pivots_swaps_pivot_table(
        self, small_words, edit, reference_tree
    ):
        words = small_words[:200]
        cluster = ShardedIndex.build(
            words, edit, shards=2, pivots=words[:3], seed=1
        )
        new_pivots = select_pivots(words, 3, edit, method="hfi", seed=3)
        result = cluster.rebuild_with_pivots(new_pivots)
        assert result["action"] == "re-pivot"
        assert result["objects"] == len(words)
        assert list(cluster.space.pivots) == list(new_pivots)
        assert cluster.verify().ok
        assert cluster.object_count == len(words)
        for q in words[10:13]:
            expect = [d for d, _ in reference_tree.knn_query(q, 4)]
            assert [d for d, _ in cluster.knn_query(q, 4)] == expect


class TestEngineHook:
    def test_tuned_engine_returns_same_answers(
        self, tuned_cluster, small_words
    ):
        queries = small_words[:8]
        expected = [list(tuned_cluster.knn_query(q, 4)) for q in queries]
        with QueryEngine(tuned_cluster, workers=1) as engine:
            tuner = Tuner(tuned_cluster)
            got = [list(engine.knn(q, 4)) for q in queries]
            assert got == expected
            tuner.close()
            # close() detaches the index back-pointer.
            assert tuned_cluster.tuner is None

    def test_untuned_engine_counters_bit_identical(
        self, tuned_cluster, small_words
    ):
        queries = small_words[:10]
        direct = []
        for q in queries:
            ctx = QueryContext()
            tuned_cluster.knn_query(q, 4, context=ctx)
            direct.append((ctx.compdists, ctx.page_accesses))
        engine_counts = []
        with QueryEngine(tuned_cluster, workers=1) as engine:
            for q in queries:
                pending = engine.submit("knn", q, 4)
                pending.result()
                engine_counts.append(
                    (
                        pending.context.compdists,
                        pending.context.page_accesses,
                    )
                )
        assert engine_counts == direct
