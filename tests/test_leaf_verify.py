"""A leaf verified as arrays against VerifyRQ written entry by entry.

``SPBTree._verify_leaf`` takes a leaf's Lemma 1 survivors and Lemma 2
accepts as arrays: one ``raf.read_many``, one ``distance.batch``.  The
reference below is the same step an entry at a time — a budget
checkpoint before each read, ``read_object``, one distance — swapped in
for it on the same tree.  For range, count and greedy kNN queries, run
in the same order from the same cold pool, both must agree on the answer
and its order, completeness and reason, compdists, page accesses, the RAF
pool's hits, misses and LRU order, and the trace's tallies
(``entries_verified``, ``lemma2_accepts``, ``entries_pruned_lemma1``
among them).  Every answer is also checked against the linear scan.
"""

from __future__ import annotations

import math
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LinearScan
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance, EuclideanDistance
from repro.obs.trace import QueryTrace
from repro.service.context import QueryContext

CACHE_PAGES = (0, 1, 4, 32)
PAGE = 256
TALLIES = ("entries_verified", "lemma2_accepts", "entries_pruned_lemma1")


def verify_by_entry(
    self, ptrs, accepted, query, ctx, tr, bound, take, read_accepts=True
):
    """VerifyRQ an entry at a time: what ``_verify_leaf`` must equal."""
    raf = self.raf
    objs, dists, free, verified, accepts = [], [], 0, 0, 0
    try:
        for ptr, accept in zip(ptrs.tolist(), accepted.tolist()):
            if accept and not read_accepts:
                free += 1
                continue
            if ctx is not None:
                ctx.checkpoint()
            objs.append(raf.read_object(ptr))
            if accept:
                accepts += 1
                dists.append(-math.inf)
            else:
                verified += 1
                dists.append(self.distance(query, objs[-1]))
    finally:
        take(objs, np.array(dists, dtype=np.float64), free)
        if tr is not None:
            if verified:
                tr.bump("entries_verified", verified)
            if accepts + free:
                tr.bump("lemma2_accepts", accepts + free)


def canon(obj):
    return obj if isinstance(obj, str) else tuple(np.asarray(obj).tolist())


def tallies(trace: QueryTrace) -> dict:
    total: Counter = Counter()
    stack = [trace.root]
    while stack:
        span = stack.pop()
        total.update(span.counts)
        stack.extend(span.children)
    return dict(total)


def observe(tree: SPBTree, op: str, query, arg, limits: dict) -> dict:
    ctx = QueryContext(trace=QueryTrace(), **limits)
    if op == "range":
        res = tree.range_query(query, arg, context=ctx)
        answer = [canon(o) for o in res.items]
    elif op == "count":
        res = tree.range_count(query, arg, context=ctx)
        answer = res.count
    else:
        res = tree.knn_query(query, arg, traversal="greedy", context=ctx)
        answer = [(d, canon(o)) for d, o in res.items]
    pool = tree.raf.buffer_pool
    return {
        "answer": answer,
        "complete": res.complete,
        "reason": str(res.reason),
        "compdists": ctx.compdists,
        "pa": ctx.page_accesses,
        "raf_reads": tree.raf.pagefile.counter.reads,
        "hits": pool.hits,
        "misses": pool.misses,
        "lru": list(pool._cache),
        "tallies": tallies(ctx.trace),
    }


def both_paths(tree: SPBTree, queries: list, limits: dict) -> list[dict]:
    """Run ``queries`` in order on each path from a cold pool; return the
    array path's observations once they match the reference's."""
    runs = []
    for reference in (True, False):
        if reference:
            tree._verify_leaf = types.MethodType(verify_by_entry, tree)
        tree.flush_cache(reset_stats=True)
        tree.reset_counters()
        try:
            runs.append([observe(tree, *q, limits) for q in queries])
        finally:
            tree.__dict__.pop("_verify_leaf", None)
    expected, got = runs
    for q, want, have in zip(queries, expected, got):
        assert have == want, (q[0], limits)
    return got


def check_against_scan(scan: LinearScan, queries: list, runs: list[dict]) -> None:
    for (op, query, arg), run in zip(queries, runs):
        if op == "knn":
            true = [d for d, _ in scan.knn_query(query, arg)]
            dists = [d for d, _ in run["answer"]]
            # a partial answer is a confirmed prefix of the true distances
            assert dists == true[: len(dists)]
            assert not run["complete"] or len(dists) == len(true)
            continue
        truth = Counter(canon(o) for o in scan.range_query(query, arg))
        got = Counter(run["answer"]) if op == "range" else None
        size = sum(truth.values())
        if op == "count":
            assert run["answer"] <= size
            assert not run["complete"] or run["answer"] == size
        else:
            assert not got - truth  # every hit is a true hit
            assert not run["complete"] or got == truth


def thinned_tree(objects, metric, cache_pages, use_lemma2, deletes):
    """A small tree with ``deletes`` objects deleted.  Returns the tree
    and its live objects."""
    tree = SPBTree.build(
        objects, metric, num_pivots=3, page_size=PAGE, cache_pages=cache_pages, seed=3
    )
    tree.use_lemma2 = use_lemma2
    live = list(objects)
    for obj in objects[:deletes]:
        assert tree.delete(obj)
        live.remove(obj)
    return tree, live


def vectors(n: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return list(rng.random((n, 4)).round(2))


def radius_for(scan: LinearScan, query, share: float) -> float:
    """A radius that takes in about ``share`` of the objects, on one
    object's distance exactly (a tie at ``d == r``)."""
    dists = sorted(scan.distance(query, o) for o in scan.objects)
    return dists[min(len(dists) - 1, int(share * len(dists)))]


@st.composite
def cases(draw):
    words = draw(st.booleans())
    n = draw(st.integers(8, 140))
    seed = draw(st.integers(0, 1 << 16))
    objects = generate_words(n, seed=seed) if words else vectors(n, seed)
    metric = EditDistance() if words else EuclideanDistance()
    tree, live = thinned_tree(
        objects,
        metric,
        draw(st.sampled_from(CACHE_PAGES)),
        draw(st.booleans()),
        draw(st.integers(0, n // 4)),
    )
    budget = draw(st.sampled_from([None, "max_compdists", "max_page_accesses"]))
    limits = {} if budget is None else {budget: draw(st.integers(0, n))}
    query = objects[draw(st.integers(0, n - 1))]
    share = draw(st.floats(0.0, 0.6))
    k = draw(st.integers(1, 12))
    return tree, LinearScan(live, metric), query, share, k, limits


@given(cases())
@settings(max_examples=60, deadline=None)
def test_array_path_equals_the_entry_reference(case):
    tree, scan, query, share, k, limits = case
    r = radius_for(scan, query, share) if scan.objects else 0.0
    queries = [("range", query, r), ("count", query, r), ("knn", query, k)]
    check_against_scan(scan, queries, both_paths(tree, queries, limits))


@pytest.fixture(scope="module", params=["words", "vectors"])
def fixture_objects(request):
    if request.param == "words":
        return generate_words(150, seed=21), EditDistance()
    return vectors(150, 21), EuclideanDistance()


@pytest.mark.parametrize("use_lemma2", [True, False])
@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
def test_every_budget_trips_where_the_reference_trips(
    fixture_objects, cache_pages, use_lemma2
):
    """Each compdist and page-access budget from zero to past a full
    query's cost, so budgets trip mid-leaf, between leaves and not at all."""
    objects, metric = fixture_objects
    tree, live = thinned_tree(objects, metric, cache_pages, use_lemma2, 20)
    scan = LinearScan(live, metric)
    query = objects[40]
    queries = [
        ("range", query, radius_for(scan, query, 0.3)),
        ("count", query, radius_for(scan, query, 0.5)),
        ("knn", query, 6),
    ]
    full = both_paths(tree, queries, {})
    check_against_scan(scan, queries, full)
    assert all(run["complete"] for run in full)
    seen = {name for run in full for name, n in run["tallies"].items() if n}
    want = set(TALLIES) if use_lemma2 else set(TALLIES) - {"lemma2_accepts"}
    assert seen & set(TALLIES) == want
    partial = 0
    for budget, key in (("max_compdists", "compdists"), ("max_page_accesses", "pa")):
        top = max(run[key] for run in full)
        for limit in range(0, top + 2, max(1, top // 25)):
            runs = both_paths(tree, queries, {budget: limit})
            check_against_scan(scan, queries, runs)
            partial += sum(not run["complete"] for run in runs)
    assert partial
