"""Tests for the query-serving robustness layer (repro.service)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.join import similarity_join, similarity_self_join
from repro.core.spbtree import SPBTree
from repro.distance import EditDistance, EuclideanDistance
from repro.obs.trace import QueryTrace
from repro.service import (
    BudgetExceeded,
    CancelToken,
    KnnCollector,
    Overloaded,
    QueryCancelled,
    QueryContext,
    QueryEngine,
    QueryResult,
)
from repro.stats import QueryStats, push_stat_shard
from repro.storage.faults import FaultInjector


@pytest.fixture(scope="module")
def word_tree(small_words):
    return SPBTree.build(small_words, EditDistance(), seed=7), small_words


class TestQueryContext:
    def test_no_limits_never_exhausts(self):
        ctx = QueryContext()
        ctx.compdists = 10**9
        ctx.page_accesses = 10**9
        assert ctx.exhausted() is None

    def test_budget_is_inclusive(self):
        ctx = QueryContext(max_compdists=5)
        ctx.compdists = 5
        assert ctx.exhausted() is None
        ctx.compdists = 6
        reason = ctx.exhausted()
        assert reason is not None and reason.kind == "compdists"
        assert reason.limit == 5 and reason.spent == 6

    def test_page_budget(self):
        ctx = QueryContext(max_page_accesses=3)
        ctx.page_accesses = 4
        assert ctx.exhausted().kind == "page_accesses"

    def test_deadline(self):
        ctx = QueryContext.with_limits(deadline_ms=0.0)
        time.sleep(0.002)
        assert ctx.exhausted().kind == "deadline"

    def test_cancellation(self):
        token = CancelToken()
        ctx = QueryContext(cancel_token=token)
        assert ctx.exhausted() is None
        token.cancel()
        assert ctx.exhausted().kind == "cancelled"

    def test_shard_attribution_is_per_thread(self, small_words):
        tree = SPBTree.build(small_words, EditDistance(), seed=7)
        ctx = QueryContext()
        before = tree.distance_computations
        with ctx.activate():
            tree.range_query(small_words[0], 1)
        # Everything the query spent was credited to the context as well.
        assert ctx.compdists == tree.distance_computations - before
        assert ctx.compdists > 0
        assert ctx.page_accesses > 0


class TestQueryResultContract:
    def test_no_context_returns_plain_list(self, word_tree):
        tree, words = word_tree
        out = tree.range_query(words[0], 1)
        assert isinstance(out, list) and not isinstance(out, QueryResult)
        out = tree.knn_query(words[0], 3)
        assert isinstance(out, list)
        assert isinstance(tree.range_count(words[0], 1), int)

    def test_sequence_protocol(self):
        r = QueryResult([("a", 1), ("b", 2)])
        assert len(r) == 2
        assert r[0] == ("a", 1)
        assert list(r) == [("a", 1), ("b", 2)]
        assert r == [("a", 1), ("b", 2)]
        assert "partial" not in repr(r)


class TestGracefulDegradation:
    def test_knn_partial_is_prefix_of_true_distances(self, word_tree):
        tree, words = word_tree
        q = words[3]
        k = 10
        true_d = [d for d, _ in tree.knn_query(q, k)]
        saw_partial = False
        for budget in (6, 12, 25, 50, 100, 200, 400):
            ctx = QueryContext(max_compdists=budget)
            result = tree.knn_query(q, k, context=ctx)
            assert len(result) <= k
            got = [d for d, _ in result]
            if not result.complete:
                saw_partial = True
                assert result.reason.kind == "compdists"
            # Complete or not, the distances must be a prefix of the truth.
            assert got == true_d[: len(got)]
        assert saw_partial

    def test_knn_partial_under_page_budget(self, word_tree):
        tree, words = word_tree
        q = words[4]
        true_d = [d for d, _ in tree.knn_query(q, 8)]
        ctx = QueryContext(max_page_accesses=2)
        result = tree.knn_query(q, 8, context=ctx)
        got = [d for d, _ in result]
        assert got == true_d[: len(got)]

    def test_cancellation_mid_query(self, word_tree):
        tree, words = word_tree
        token = CancelToken()
        token.cancel()  # cancelled before it starts: nothing gets done
        ctx = QueryContext(cancel_token=token)
        result = tree.knn_query(words[0], 5, context=ctx)
        assert not result.complete
        assert result.reason.kind == "cancelled"
        assert len(result) == 0

    def test_deadline_degrades_not_raises(self, word_tree):
        tree, words = word_tree
        ctx = QueryContext.with_limits(deadline_ms=0.0)
        result = tree.knn_query(words[0], 5, context=ctx)
        assert not result.complete
        assert result.reason.kind == "deadline"

    def test_limit_tripped_before_the_root_confirms_nothing(self, word_tree):
        # A scatter hands every shard the collector the earlier shards
        # filled; a shard that trips before it reads its root has seen
        # none of its objects, so its frontier must bound them all by 0.
        tree, words = word_tree
        token = CancelToken()
        token.cancel()
        collector = KnnCollector(1)
        collector.offer(3.0, "found in an earlier shard")
        out = tree.knn_into(
            words[0], 1, collector, QueryContext(cancel_token=token)
        )
        assert not out.complete and out.frontier == 0.0


READS = ("range", "knn-incremental", "knn-greedy", "count", "join", "self-join")


@pytest.fixture(scope="module")
def read_trees(small_words):
    """Two Z-order trees over one pivot table: every read runs on them."""
    half = len(small_words) // 2
    metric = EditDistance()
    tree_o = SPBTree.build(small_words[half:], metric, curve="z", seed=7)
    tree_q = SPBTree.build(
        small_words[:half],
        metric,
        curve="z",
        pivots=tree_o.space.pivots,
        d_plus=tree_o.space.d_plus,
        delta=tree_o.space.delta,
        seed=7,
    )
    return tree_q, tree_o, small_words[1]


def _read(kind, trees, ctx=None):
    """Run one read; returns ``(raw result, canonical answer)``."""
    tree_q, tree_o, q = trees
    if kind == "range":
        out = tree_o.range_query(q, 3, context=ctx)
        return out, sorted(out)
    if kind.startswith("knn"):
        out = tree_o.knn_query(q, 10, traversal=kind[4:], context=ctx)
        return out, list(out)
    if kind == "count":
        out = tree_o.range_count(q, 3, context=ctx)
        return out, out if ctx is None else out.count
    if kind == "join":
        out = similarity_join(tree_q, tree_o, 2.0, context=ctx)
    else:
        out = similarity_self_join(tree_o, 2.0, context=ctx)
    return out, sorted(map(repr, out.pairs))


def _sound(kind, partial, full):
    """A partial answer only ever lacks items: a subset of the hits or
    pairs, a confirmed prefix of the neighbours, a lower bound of the count."""
    if kind == "count":
        return 0 <= partial <= full
    if kind.startswith("knn"):
        return [d for d, _ in partial] == [d for d, _ in full][: len(partial)]
    return set(partial) <= set(full)


@pytest.mark.parametrize("kind", READS)
class TestReadFrameContract:
    """What ``SPBTree.read_frame`` promises, checked once over every read
    that runs under it."""

    def test_context_free_equals_unlimited_context(self, read_trees, kind):
        plain, expected = _read(kind, read_trees)
        assert not isinstance(plain, QueryResult)
        ctx = QueryContext()
        out, got = _read(kind, read_trees, ctx)
        assert out.complete and out.reason is None
        assert got == expected
        assert ctx.epoch is not None  # the read view it ran under

    def test_context_counters_equal_global_deltas(self, read_trees, kind):
        tree_q, tree_o, _ = read_trees
        ctx = QueryContext()
        pa0 = tree_q.page_accesses + tree_o.page_accesses
        dc0 = tree_o.distance_computations
        out, _ = _read(kind, read_trees, ctx)
        assert ctx.page_accesses == tree_q.page_accesses + tree_o.page_accesses - pa0
        if "join" in kind:  # verification distances go to the join's own counter
            assert ctx.compdists == out.stats.distance_computations > 0
        else:
            assert ctx.compdists == tree_o.distance_computations - dc0 > 0

    def test_compdist_budget_yields_sound_partial(self, read_trees, kind):
        unlimited = QueryContext()
        _, full = _read(kind, read_trees, unlimited)
        for share in (8, 3, 2):
            ctx = QueryContext(max_compdists=unlimited.compdists // share)
            out, partial = _read(kind, read_trees, ctx)
            assert not out.complete
            assert out.reason.kind == "compdists"
            assert _sound(kind, partial, full)

    def test_strict_budget_raises(self, read_trees, kind):
        ctx = QueryContext(max_compdists=1, strict=True)
        with pytest.raises(BudgetExceeded) as exc_info:
            _read(kind, read_trees, ctx)
        assert exc_info.value.reason.kind == "compdists"

    def test_pre_cancelled_strict_raises(self, read_trees, kind):
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            _read(kind, read_trees, QueryContext(cancel_token=token, strict=True))

    def test_traced_run_finishes_and_reconciles(self, read_trees, kind):
        for budget in (None, 20):
            ctx = QueryContext(max_compdists=budget)
            ctx.trace = QueryTrace(kind)
            out, _ = _read(kind, read_trees, ctx)
            assert out.complete == (budget is None)
            assert ctx.trace.complete == out.complete
            assert ctx.trace.reason == (None if out.complete else str(out.reason))
            assert ctx.trace.attributed_totals() == (
                ctx.compdists,
                ctx.page_accesses,
            )


def _same_pairs(got, expected):
    """Compare (distance, object) lists where objects may be numpy arrays."""
    assert len(got) == len(expected)
    for (d1, o1), (d2, o2) in zip(got, expected):
        assert d1 == d2 and repr(o1) == repr(o2)


def _same_objects(got, expected):
    assert [repr(o) for o in got] == [repr(o) for o in expected]


class _GatedMetric(EuclideanDistance):
    """A metric that can be made to block, for backpressure tests."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.gate.set()

    def __call__(self, a, b):
        self.gate.wait(timeout=30)
        return super().__call__(a, b)


class TestQueryEngine:
    def test_submit_requires_started_engine(self, small_vectors):
        tree = SPBTree.build(small_vectors, EuclideanDistance(), seed=7)
        engine = QueryEngine(tree)
        with pytest.raises(RuntimeError):
            engine.submit("range", small_vectors[0], 0.5)

    def test_basic_serving(self, small_vectors):
        tree = SPBTree.build(small_vectors, EuclideanDistance(), seed=7)
        expected = tree.knn_query(small_vectors[0], 4)
        with QueryEngine(tree, workers=2) as engine:
            result = engine.knn(small_vectors[0], 4)
            assert result.complete
            _same_pairs(list(result), expected)
            assert engine.served == 1 and engine.failed == 0

    def test_mixed_kinds(self, small_vectors):
        tree = SPBTree.build(small_vectors, EuclideanDistance(), seed=7)
        q = small_vectors[1]
        with QueryEngine(tree, workers=3) as engine:
            r = engine.range(q, 0.5)
            k = engine.knn(q, 3)
            c = engine.count(q, 0.5)
        _same_objects(list(r), tree.range_query(q, 0.5))
        _same_pairs(list(k), tree.knn_query(q, 3))
        assert c.count == tree.range_count(q, 0.5)

    def test_per_query_budgets_degrade(self, small_vectors):
        tree = SPBTree.build(small_vectors, EuclideanDistance(), seed=7)
        with QueryEngine(tree, workers=2) as engine:
            result = engine.knn(small_vectors[0], 8, max_compdists=10)
            assert not result.complete
            assert engine.degraded == 1

    def test_overloaded_rejection(self, small_vectors):
        metric = _GatedMetric()
        tree = SPBTree.build(small_vectors, metric, seed=7)
        metric.gate.clear()  # every query now blocks inside the metric
        engine = QueryEngine(tree, workers=1, max_queue=2).start()
        try:
            held = [engine.submit("knn", small_vectors[0], 2)]
            deadline = time.monotonic() + 5
            # Fill the worker plus the whole queue, then expect rejection.
            with pytest.raises(Overloaded):
                while time.monotonic() < deadline:
                    held.append(engine.submit("knn", small_vectors[0], 2))
            assert engine.rejected >= 1
        finally:
            metric.gate.set()
            for pending in held:
                pending.result(timeout=30)
            engine.stop()

    def test_cancel_pending_query(self, small_vectors):
        metric = _GatedMetric()
        tree = SPBTree.build(small_vectors, metric, seed=7)
        metric.gate.clear()
        engine = QueryEngine(tree, workers=1, max_queue=4).start()
        try:
            pending = engine.submit("knn", small_vectors[0], 4)
            pending.cancel()
            metric.gate.set()
            result = pending.result(timeout=30)
            assert not result.complete
            assert result.reason.kind == "cancelled"
        finally:
            metric.gate.set()
            engine.stop()

    def test_transient_faults_are_retried(self, small_vectors):
        tree = SPBTree.build(
            small_vectors, EuclideanDistance(), seed=7,
            cache_pages=0, checksums=True,
        )
        q = small_vectors[2]
        expected = tree.knn_query(q, 4)
        injector = FaultInjector(tree.raf.pagefile, seed=11, io_error_rate=0.02)
        tree.raf.pagefile = injector
        tree.raf.buffer_pool.pagefile = injector
        try:
            with QueryEngine(tree, workers=2, retry_attempts=8,
                             retry_base_delay=0.001) as engine:
                for _ in range(5):
                    result = engine.knn(q, 4)
                    assert result.complete
                    _same_pairs(list(result), expected)
            assert injector.injected["io_error"] > 0
        finally:
            tree.raf.pagefile = injector.inner
            tree.raf.buffer_pool.pagefile = injector.inner

    def test_retry_reports_clean_attempt_counters(self, small_vectors):
        """A retried query's counters match a fault-free run of the same
        query (fresh per attempt), with caching disabled for determinism."""
        tree = SPBTree.build(
            small_vectors, EuclideanDistance(), seed=7, cache_pages=0
        )
        q = small_vectors[3]
        clean_ctx = QueryContext()
        tree.knn_query(q, 4, context=clean_ctx)
        injector = FaultInjector(tree.raf.pagefile, seed=2, io_error_rate=0.05)
        tree.raf.pagefile = injector
        tree.raf.buffer_pool.pagefile = injector
        try:
            with QueryEngine(tree, workers=1, retry_attempts=10,
                             retry_base_delay=0.001) as engine:
                pending = engine.submit("knn", q, 4)
                result = pending.result(timeout=60)
                assert result.complete
                assert pending.context.compdists == clean_ctx.compdists
                assert pending.context.page_accesses == clean_ctx.page_accesses
        finally:
            tree.raf.pagefile = injector.inner
            tree.raf.buffer_pool.pagefile = injector.inner


class _ShardLeakingTree:
    """Delegating wrapper that fails its first query mid-flight with a stat
    shard still pushed — simulating a buggy traversal that escapes between
    a push and its matching pop."""

    def __init__(self, tree):
        self._tree = tree
        self._leak_next = True

    def __getattr__(self, name):
        return getattr(self._tree, name)

    def knn_query(self, *args, **kwargs):
        if self._leak_next:
            self._leak_next = False
            push_stat_shard(QueryStats())
            raise ValueError("failed mid-query with a shard still pushed")
        return self._tree.knn_query(*args, **kwargs)


class TestShardLeakGuard:
    def test_leaked_shard_does_not_poison_next_query(self, small_vectors):
        """The worker trims any shard an attempt leaked; the next query on
        the same thread must tally into its own context, not a dead one."""
        tree = SPBTree.build(
            small_vectors, EuclideanDistance(), seed=7, cache_pages=0
        )
        q = small_vectors[4]
        clean_ctx = QueryContext()
        tree.knn_query(q, 4, context=clean_ctx)
        leaky = _ShardLeakingTree(tree)
        with QueryEngine(leaky, workers=1, retry_attempts=2,
                         retry_base_delay=0.0) as engine:
            first = engine.submit("knn", q, 4)
            with pytest.raises(ValueError):
                first.result(timeout=60)
            probe = engine.submit("knn", q, 4)
            result = probe.result(timeout=60)
        assert result.complete
        assert probe.context.compdists == clean_ctx.compdists
        assert probe.context.page_accesses == clean_ctx.page_accesses


class _GatedTree:
    """Delegating wrapper whose queries block until released — for pinning
    the result(timeout=...) contract deterministically."""

    def __init__(self, tree):
        self._tree = tree
        self.gate = threading.Event()

    def __getattr__(self, name):
        return getattr(self._tree, name)

    def knn_query(self, *args, **kwargs):
        assert self.gate.wait(timeout=60)
        return self._tree.knn_query(*args, **kwargs)


class TestPendingResultTimeout:
    def test_timeout_raises_without_cancelling(self, small_vectors):
        """A timed-out result() wait raises TimeoutError but must NOT kill
        the query: it keeps running, and a later result() collects it."""
        tree = SPBTree.build(
            small_vectors[:100], EuclideanDistance(), seed=7, cache_pages=0
        )
        gated = _GatedTree(tree)
        with QueryEngine(gated, workers=1) as engine:
            pending = engine.submit("knn", small_vectors[3], 4)
            with pytest.raises(TimeoutError):
                pending.result(timeout=0.05)
            # The timed-out wait had no side effects on the query.
            assert not pending.done
            assert not pending.context.cancel_token.cancelled
            gated.gate.set()
            result = pending.result(timeout=60)
        assert result.complete
        assert len(result) == 4


class TestStopFailsFastOnUnstartedWork:
    def test_item_behind_stop_tokens_gets_engine_stopped(self, small_vectors):
        """Regression: a query that raced past the stopped check and landed
        behind the _STOP tokens must fail fast with EngineStopped, not
        block its result() caller until timeout."""
        from repro.service import EngineStopped
        from repro.service.engine import PendingQuery

        tree = SPBTree.build(small_vectors[:100], EuclideanDistance(), seed=7)
        engine = QueryEngine(tree, workers=2).start()
        engine.stop(wait=False)
        # Simulate the loser of the submit-vs-stop race: an item enqueued
        # behind the stop tokens, which no worker will ever execute.
        straggler = PendingQuery(
            "knn", (small_vectors[0], 3), QueryContext.with_limits()
        )
        engine._queue.put(straggler)
        engine.stop(wait=True)  # join-and-drain
        assert straggler.done
        with pytest.raises(EngineStopped):
            straggler.result(timeout=0)
        assert engine.stopped_unstarted == 1

    def test_queued_work_still_drains_on_normal_stop(self, small_vectors):
        """The fix must not change the healthy path: work queued before
        stop() executes to completion (pinned also in test_chaos)."""
        tree = SPBTree.build(small_vectors[:100], EuclideanDistance(), seed=7)
        engine = QueryEngine(tree, workers=2).start()
        pendings = [engine.submit("knn", small_vectors[i], 3) for i in range(6)]
        engine.stop(wait=True)
        for pending in pendings:
            assert pending.result(timeout=0).complete
        assert engine.stopped_unstarted == 0


class TestOverloadedHints:
    def test_fields_default_to_none(self):
        exc = Overloaded("queue full")
        assert exc.queue_depth is None and exc.retry_after_ms is None

    def test_rejection_carries_queue_depth_and_backoff_hint(
        self, small_vectors
    ):
        metric = _GatedMetric()
        tree = SPBTree.build(small_vectors, metric, seed=7)
        metric.gate.clear()
        engine = QueryEngine(tree, workers=1, max_queue=2).start()
        held = [engine.submit("knn", small_vectors[0], 2)]
        try:
            deadline = time.monotonic() + 5.0
            while engine.queue_depth > 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            for _ in range(engine._queue.maxsize):
                held.append(engine.submit("knn", small_vectors[0], 2))
            with pytest.raises(Overloaded) as exc_info:
                engine.submit("knn", small_vectors[1], 2)
            exc = exc_info.value
            assert exc.queue_depth == engine._queue.maxsize
            assert exc.retry_after_ms is not None
            assert exc.retry_after_ms >= 1.0
        finally:
            metric.gate.set()
            for pending in held:
                pending.result(timeout=30)
            engine.stop()
