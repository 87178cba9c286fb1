"""The incremental kNN's pop loop against the loop it replaced.

``SPBTree._knn_search`` reads a run head's record from the pool's frame
memo without the pool lock.  The first read of a page replays its pool
moves at once; the reads that follow on that page are queued and replayed
with the next page's first read, before the next read that can miss and
when the search ends.  A twin tree runs the loop as it was before
(``reference.knn_search_by_run``: every record through
``raf.read_object``, one locked read per pop).  Both answer
the same queries on words and vector trees with inserts and deletes, at
every cache size, for k of 1, 8 and past the tree's size, with no context,
with a context with and without a trace, under every compdist and
page-access budget and every deadline from the first checkpoint to past
the last, and must agree on everything ``reference.observe`` sees: the
answer and its order, completeness, reason, frontier, compdists, page
accesses, page-file reads, pool hits, misses and LRU order, and every span
of the trace.

Deadlines run on a clock that ticks once per reading, restarted before
each query, so a deadline of t ticks trips at the same checkpoint on both
trees — mid-run as often as between runs.
"""

from __future__ import annotations

import sys
import threading
from typing import Any

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import generate_words
from repro.distance import EditDistance, MinkowskiDistance
from repro.obs.trace import QueryTrace
from repro.service import context as context_module
from repro.service.context import QueryContext
from repro.storage import RandomAccessFile, StringSerializer
from repro.storage.buffer import BufferPool
from repro.storage.pagefile import PageFile
from tests.reference import (
    knn_search_by_run,
    memo_is_sound,
    mutated_tree,
    observe,
    spans,
    spied,
    tallies,
    twin_trees,
    words_tree,
)

CACHES = (0, 1, 4, 32, 64)


class Ticks:
    """A stand-in for the ``time`` module of ``repro.service.context``:
    ``monotonic()`` counts its readings since the last ``restart()``."""

    def __init__(self) -> None:
        self.now = 0

    def restart(self) -> None:
        self.now = 0

    def monotonic(self) -> float:
        self.now += 1
        return float(self.now)


# ------------------------------------------------------------------ trees


def _corpus(kind: str, n: int, seed: int) -> tuple[list, list, Any]:
    """``(objects, extra, metric)``: the bulk-loaded objects and as many
    again for inserts and queries.  Vectors sit on a coarse integer grid, so
    distances and MINDs tie as often as on words and runs are long."""
    if kind == "words":
        words = generate_words(2 * n, seed=seed)
        return words[:n], words[n:], EditDistance()
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 6, (2 * n, 3)).astype(np.float64)
    return list(rows[:n]), list(rows[n:]), MinkowskiDistance(2)


def _by_run(build):
    """``(tree, twin, live)`` from ``build()``, the twin running the loop by
    run."""
    return twin_trees(build, "_knn_search", knn_search_by_run)


def _twins(spec: dict):
    """The tree under test, its twin running the loop by run, and the
    queries to ask them."""
    objects, extra, metric = _corpus(spec["kind"], spec["n"], spec["seed"])
    steps = [("insert", o) for o in extra[: spec["inserts"]]] + [
        ("delete", o) for o in objects[1 :: 7][: spec["deletes"]]
    ]
    tree, twin, _ = _by_run(
        lambda: mutated_tree(
            objects, metric, steps, num_pivots=3, seed=1,
            page_size=spec["page"], cache_pages=spec["cache"],
        )
    )
    return tree, twin, [objects[0], extra[-1]]


def _agree(ticks: Ticks, tree, twin, q, k: int, limits=None, traced=True) -> dict:
    got = []
    for t in (tree, twin):
        ticks.restart()
        got.append(observe(t, "knn", q, k, limits, traced=traced))
        got[-1]["ticks"] = ticks.now
    assert got[0] == got[1], (k, limits, traced)
    return got[0]


def _sweep(ticks: Ticks, tree, twin, q, k: int, traced: bool) -> None:
    """With no context, then with a context under every compdist budget,
    page-access budget and deadline from 0 to past the full query's cost,
    each from the pool state the query before left."""
    _agree(ticks, tree, twin, q, k)
    full = _agree(ticks, tree, twin, q, k, {}, traced)
    compdists, pa = full["ctx"]
    for budget in range(compdists + 2):
        _agree(ticks, tree, twin, q, k, {"max_compdists": budget}, traced)
    for budget in range(pa + 2):
        _agree(ticks, tree, twin, q, k, {"max_page_accesses": budget}, traced)
    partial = 0
    for deadline in range(full["ticks"] + 2):
        got = _agree(ticks, tree, twin, q, k, {"deadline": float(deadline)}, traced)
        partial += not got["complete"]
    assert partial


TREES = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["words", "vectors"]),
        "n": st.integers(20, 120),
        "seed": st.integers(0, 50),
        "page": st.sampled_from([256, 1024]),
        "cache": st.sampled_from(CACHES),
        "inserts": st.integers(0, 20),
        "deletes": st.integers(0, 10),
    }
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=TREES, k=st.sampled_from([1, 8, 500]), traced=st.booleans())
def test_the_memo_reading_loop_moves_everything_as_the_loop_by_run(spec, k, traced):
    ticks = Ticks()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(context_module, "time", ticks)
        tree, twin, queries = _twins(spec)
        for q in queries:
            _sweep(ticks, tree, twin, q, k, traced)
    memo_is_sound(tree.raf)


@pytest.mark.parametrize("cache", CACHES)
def test_words_tree_at_every_cache_size(cache):
    ticks = Ticks()
    tree, twin, _ = _by_run(lambda: words_tree(cache))
    queries = generate_words(4, seed=77)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(context_module, "time", ticks)
        for q in queries:
            for k in (1, 8, 400):
                _agree(ticks, tree, twin, q, k)
                _agree(ticks, tree, twin, q, k, {}, traced=False)
                _agree(ticks, tree, twin, q, k, {})
        _sweep(ticks, tree, twin, queries[0], 8, True)
    memo_is_sound(tree.raf)


# ------------------------------------------------- what the new loop skips


def test_warm_pops_skip_read_object_and_replay_one_page_at_a_time():
    """On a warm pool the pops read the frame memo, not ``read_object``,
    and a queue handed to ``replay`` holds the reads of one page after its
    first, then at most the next page's first read."""
    tree, twin, _ = _by_run(lambda: words_tree(64))
    queries = generate_words(6, seed=77)
    for t in (tree, twin):
        for q in queries:
            t.knn_query(q, 8)  # warm the pool and its memo
    counts = {}
    for name, t in (("tree", tree), ("twin", twin)):
        queued: list = []
        replay = BufferPool.replay

        def spy(pool, touches):
            queued.append(list(touches))
            replay(pool, touches)

        with spied(
            RandomAccessFile, "read_object"
        ) as reads, pytest.MonkeyPatch.context() as mp:
            mp.setattr(BufferPool, "replay", spy)
            verified = 0
            for q in queries:
                ctx = QueryContext(trace=QueryTrace("knn"))
                t.knn_query(q, 8, context=ctx)
                verified += tallies(spans(ctx.trace.root))["entries_verified"]
        counts[name] = (len(reads), verified, queued)
    (tree_reads, verified, queued), twin_counts = counts["tree"], counts["twin"]
    assert twin_counts[1] == verified
    assert twin_counts[0] == verified  # the twin reads every record
    assert tree_reads < verified / 4
    assert all(len(set(touches[:-1])) <= 1 for touches in queued)
    assert sum(map(len, queued)) + tree_reads == verified


def _lru_at_each_pop(tree, queries) -> list:
    """The pool's LRU order as each pop's distance is taken — after its
    record was read — over kNN-8 queries, each asked twice."""
    pool = tree.raf.buffer_pool
    orders: list = []
    against = tree.distance.against

    def spy(query):
        distance = against(query)

        def noted(obj, bound):
            orders.append(list(pool._cache))
            return distance(obj, bound)

        return noted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree.distance, "against", spy)
        for q in queries + queries:
            tree.knn_query(q, 8)
    return orders


@pytest.mark.parametrize("cache", (1, 4, 16, 64))
def test_a_page_is_most_recently_used_from_its_first_read(cache):
    """The queued moves are those of reads of the page already most
    recently used, so after every pop the LRU order is the one a locked
    read per pop leaves — not only once the queue is replayed."""
    tree, twin, _ = _by_run(lambda: words_tree(cache))
    queries = generate_words(4, seed=77)
    orders = _lru_at_each_pop(tree, queries)
    assert orders == _lru_at_each_pop(twin, queries)
    assert len(orders) > 100


def test_read_object_answers_from_the_memo_with_a_page_read_s_moves():
    """A record already sliced off a cached page is read from the memo by
    ``read_object`` too: no page read, the same two hits and LRU move."""
    raf = RandomAccessFile(StringSerializer(), page_size=64, cache_pages=4)
    words = ["ab", "cd"] * 20
    offsets = [raf.append(i, w, flush=False) for i, w in enumerate(words)]
    raf.finalize()
    raf.flush_cache(reset_stats=True)
    pool = raf.buffer_pool
    first, other = offsets[0], next(o for o in offsets if o // 64 == 1)
    raf.read_object(first)
    raf.read_object(other)  # another page becomes most recent
    hits = pool.hits
    with spied(BufferPool, "read_page") as page_reads:
        assert raf.read_object(first) == "ab"
    assert page_reads == []
    assert pool.hits == hits + 2 and list(pool._cache) == [1, 0]


def test_a_read_object_replaced_on_the_file_sees_every_pop():
    tree, _ = words_tree(64)
    q = generate_words(1, seed=77)[0]
    tree.knn_query(q, 8)
    with spied(tree.raf, "read_object") as reads:
        assert tree.raf.frame_memo() == {}
        ctx = QueryContext(trace=QueryTrace("knn"))
        tree.knn_query(q, 8, context=ctx)
    assert len(reads) == tallies(spans(ctx.trace.root))["entries_verified"] > 0
    assert tree.raf.frame_memo()


# ------------------------------------------------------ the queued touches


def test_replay_counts_a_touch_of_an_evicted_page_and_does_not_move_it():
    pagefile = PageFile(page_size=64)
    for _ in range(3):
        pagefile.write_page(pagefile.allocate(), bytes(64))
    pool = BufferPool(pagefile, capacity=2)
    pool.read_page(0)
    pool.read_page(1)
    touches = [0, 1, 0]
    pool.read_page(2)  # evicts page 0 with two touches of it queued
    pool.replay(touches)
    assert touches == []
    assert (pool.hits, pool.misses) == (6, 3)
    assert list(pool._cache) == [2, 1]


@pytest.mark.parametrize("cache", (1, 2))
def test_threads_evicting_each_others_queued_pages(cache):
    """Threads sharing one pool of one or two pages, more of them than
    cores and switching often, so each one's misses evict pages another
    has touches queued for: no error, every answer and its compdists the
    serial ones, the pool's touches adding up to the serial total, and a
    sound memo."""
    tree, twin, _ = _by_run(lambda: words_tree(cache))
    queries = generate_words(10, seed=77) + generate_words(300, seed=5)[::30]
    serial = {}
    for q in queries:
        ctx = QueryContext()
        serial[q] = (list(twin.knn_query(q, 6, context=ctx)), ctx.compdists)
    twin_pool = twin.raf.buffer_pool
    errors: list = []
    rounds = 3

    def worker(order) -> None:
        try:
            for _ in range(rounds):
                for q in order:
                    ctx = QueryContext()
                    got = tree.knn_query(q, 6, context=ctx)
                    assert (list(got), ctx.compdists) == serial[q]
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    orders = [
        queries, queries[::-1], queries[5:] + queries[:5], queries[::2] + queries[1::2]
    ]
    threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    pool = tree.raf.buffer_pool
    serial_touches = twin_pool.hits + twin_pool.misses
    assert pool.hits + pool.misses == len(orders) * rounds * serial_touches
    memo_is_sound(tree.raf)
