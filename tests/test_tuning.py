"""Tests for ``repro.tuning`` — the cost-model-driven self-tuning loop.

Covers the three layers separately and together:

* :class:`TraversalAdvisor` — deterministic coverage, convergence to the
  cheapest arm, the exploration floor, and seed-replay determinism;
* :class:`Tuner` — journal contract (versioned JSONL, torn-tail-tolerant),
  pivot-drift scheduling and rebuild (its lifecycle is the shared loop
  contract's, ``tests/test_control_loop.py``);
* the :class:`~repro.service.QueryEngine` hook — advised queries return
  the same answers, and the *untuned* path stays bit-identical (per-query
  compdists/page-accesses) to calling the index directly.
"""

from __future__ import annotations

import json
import types

import pytest

from repro.cluster import ShardedIndex
from repro.control import EventJournal, read_journal
from repro.core.pivots import select_pivots
from repro.core.spbtree import SPBTree
from repro.service import QueryEngine
from repro.service.context import QueryContext
from repro.tuning import TUNING_JOURNAL, OnlineCalibrator, TraversalAdvisor, Tuner


# --------------------------------------------------------------------------
# Fakes for unit-level advisor / tuner tests (no I/O, fully deterministic).


class _FakeCluster:
    """Just enough surface to count as a cluster for arm selection."""

    router = None


class _FakeTree:
    """A bare tree: no ``router`` attribute, so only the traversal axis."""


_COSTS = {"incremental": 120, "greedy": 40}


def _drive(advisor, n, k=4):
    """Advise/observe ``n`` queries against the fixed cost table."""
    choices = []
    for _ in range(n):
        choice = advisor.advise(_FakeCluster(), "q", k)
        advisor.observe(choice, _COSTS[choice.traversal], 0, 0.001)
        choices.append((choice.traversal, choice.explored))
    return choices


# --------------------------------------------------------------------------
# Real-cluster fixtures.


@pytest.fixture(scope="module")
def tuned_cluster(small_words, edit):
    return ShardedIndex.build(
        small_words[:300], edit, shards=3, num_pivots=3, seed=1
    )


@pytest.fixture(scope="module")
def reference_tree(small_words, edit):
    return SPBTree.build(small_words[:200], edit, num_pivots=3, seed=5)


class TestAdvisorBandit:
    def test_covers_every_arm_before_exploiting(self):
        advisor = TraversalAdvisor(epsilon=0.0, seed=1)
        choices = _drive(advisor, len(_COSTS))
        assert {t for t, _ in choices} == set(_COSTS)
        assert all(explored for _, explored in choices)

    def test_converges_to_cheapest_arm(self):
        advisor = TraversalAdvisor(epsilon=0.0, seed=1)
        choices = _drive(advisor, 30)
        # After coverage, epsilon=0 always exploits the cheapest arm.
        for traversal, explored in choices[len(_COSTS) :]:
            assert traversal == "greedy"
            assert not explored
        assert advisor.policy()["k<=8"] == {"traversal": "greedy"}

    def test_exploration_floor(self):
        advisor = TraversalAdvisor(epsilon=1.0, seed=1)
        choices = _drive(advisor, 20)
        assert all(explored for _, explored in choices)
        assert advisor.explorations == advisor.decisions == 20

    def test_seed_replay_is_deterministic(self):
        a = TraversalAdvisor(epsilon=0.3, seed=42)
        b = TraversalAdvisor(epsilon=0.3, seed=42)
        assert _drive(a, 50) == _drive(b, 50)

    def test_single_tree_gets_no_strategy_axis(self):
        advisor = TraversalAdvisor(epsilon=0.0, seed=1)
        seen = set()
        for _ in range(4):
            choice = advisor.advise(_FakeTree(), "q", 4)
            advisor.observe(choice, 10, 0, 0.001)
            seen.add(choice.traversal)
        assert seen == {"incremental", "greedy"}

    def test_buckets_learn_independently(self):
        advisor = TraversalAdvisor(epsilon=0.0, seed=1)
        _drive(advisor, 10, k=2)
        assert "k<=2" in advisor.policy()
        assert "k>32" not in advisor.policy()
        _drive(advisor, 10, k=64)
        assert "k>32" in advisor.policy()

    def test_feedback_defers_prediction_off_the_query_path(self):
        recorded = []

        class _Calibrator:
            def observe_query(self, query, k, compdists, page_accesses,
                              elapsed):
                recorded.append((query, k, compdists, page_accesses))

            def predict_knn(self, query, k):  # pragma: no cover
                raise AssertionError(
                    "the advisor must never predict on the query path"
                )

        advisor = TraversalAdvisor(calibrator=_Calibrator(), epsilon=0.0,
                                   seed=1)
        for i in range(6):
            choice = advisor.advise(_FakeCluster(), f"q{i}", 4)
            advisor.observe(choice, 10 + i, 3, 0.001)
        assert recorded == [(f"q{i}", 4, 10 + i, 3) for i in range(6)]

    def test_status_surfaces_arm_stats(self):
        advisor = TraversalAdvisor(epsilon=0.0, seed=1)
        _drive(advisor, 8)
        status = advisor.status()
        assert status["decisions"] == 8
        arms = status["arms"]["k<=8"]
        assert arms["greedy"]["n"] >= 1
        assert arms["greedy"]["cost"] == pytest.approx(40, abs=1)


class TestJournalContract:
    def test_advised_queries_journal_versioned_events(
        self, tuned_cluster, small_words, tmp_path
    ):
        path = str(tmp_path / TUNING_JOURNAL)
        tuner = Tuner(tuned_cluster, journal_path=path, pivot_check_every=0)
        for q in small_words[:6]:
            ctx = QueryContext()
            tuner.advisor.run_knn(tuned_cluster, q, 4, ctx)
        # Decisions buffer off the query path; the tick writes them out.
        tuner.tick()
        events = [e for e in tuner.events(50) if e["event"] == "traversal"]
        assert len(events) == 6
        for event in events:
            assert event["v"] == 1
            assert isinstance(event["ts"], float)
            detail = event["detail"]
            assert detail["traversal"] in ("incremental", "greedy")
            assert "strategy" not in detail
            assert detail["compdists"] > 0
        tuner.close()
        # On-disk form: one JSON object per line, torn tail tolerated.
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert len(lines) >= 6
        with open(path, "a") as fh:
            fh.write('{"v": 1, "event": "torn')  # no newline, no close
        recovered = read_journal(path)
        assert len(recovered) == len(lines)
        assert all(e["v"] == 1 for e in recovered)


class TestPivotMaintenance:
    def test_drift_schedules_rebuild_and_tells_supervisor(
        self, small_words, edit
    ):
        cluster = ShardedIndex.build(
            small_words[:150], edit, shards=2, num_pivots=3, seed=1
        )
        supervisor = types.SimpleNamespace(journal=EventJournal())
        cluster.supervisor = supervisor
        tuner = Tuner(
            cluster, pivot_check_every=1, pivot_drift_threshold=0.15
        )
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
        tuner = Tuner(cluster, pivot_check_every=0)
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
    def test_advised_engine_returns_same_answers(
        self, tuned_cluster, small_words
    ):
        queries = small_words[:8]
        expected = [list(tuned_cluster.knn_query(q, 4)) for q in queries]
        with QueryEngine(tuned_cluster, workers=1) as engine:
            tuner = Tuner(tuned_cluster, engine=engine, pivot_check_every=0)
            assert engine.advisor is tuner.advisor
            got = [list(engine.knn(q, 4)) for q in queries]
            assert got == expected
            assert tuner.advisor.decisions == len(queries)
            tuner.close()
            # close() detaches the hook and the index back-pointer.
            assert engine.advisor is None
            assert tuned_cluster.tuner is None

    def test_pinned_traversal_bypasses_the_advisor(
        self, tuned_cluster, small_words
    ):
        with QueryEngine(tuned_cluster, workers=1) as engine:
            tuner = Tuner(tuned_cluster, engine=engine, pivot_check_every=0)
            engine.submit(
                "knn", small_words[0], 4, **{}
            ).result()  # plain: advised
            advised = tuner.advisor.decisions
            engine.submit("knn", small_words[1], 4).result()
            assert tuner.advisor.decisions == advised + 1
            # An operator-pinned traversal is never overridden.
            pinned = engine.submit("knn", small_words[2], 4, "greedy")
            pinned.result()
            assert tuner.advisor.decisions == advised + 1
            tuner.close()

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
            assert engine.advisor is None
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

    def test_calibration_converges_from_advised_traffic(
        self, tuned_cluster, small_words
    ):
        tuner = Tuner(tuned_cluster, pivot_check_every=0)
        for q in small_words[:30]:
            ctx = QueryContext()
            tuner.advisor.run_knn(tuned_cluster, q, 8, ctx)
        actions = tuner.tick()
        fit = actions["calibrated"]
        assert fit is not None
        assert fit["edc_scale"] > 0
        assert fit["error_edc"] >= 0
        status = tuner.status()
        assert status["calibration"]["calibrations"] == 1
        assert status["policy"]  # every arm visited at least once
        assert status["ticks"] == 1
        tuner.close()


class TestLifecycle:
    def test_calibrator_window_and_refresh(self, tuned_cluster, small_words):
        calibrator = OnlineCalibrator(tuned_cluster, window=4)
        predicted = calibrator.predict_knn(small_words[0], 4)
        assert predicted is not None and predicted[0] > 0
        for i in range(6):
            calibrator.observe(predicted, 10 + i, 5, 0.001)
        assert len(calibrator._observations) == 4  # sliding window
        calibrator.refresh()
        assert calibrator._models == {}
        # Models rebuild transparently after a refresh.
        assert calibrator.predict_knn(small_words[0], 4) is not None
