"""A range query's verification batched per query, against a leaf at a time.

``SPBTree._range_search`` keeps each leaf's Lemma 1 survivors and Lemma 2
accepts pending and verifies everything pending before each checkpoint
and once more when the descent ends: a query with no context makes one
``raf.read_many`` and one ``distance.batch``, while a query with a context
(budgets, a trace) still verifies a leaf at a time.  The reference below
is the descent that verifies every leaf as it reaches it, run on a twin
tree built and mutated the same way.  From the same cold pools, range
and count queries must agree on the answer and its order, compdists,
page accesses, the RAF pool's hits, misses and LRU order; a query with a
context also on completeness, the reason and every span of its trace.
Every context-free answer is checked against the linear scan as well.
"""

from __future__ import annotations

import types
from collections import Counter

import numpy as np
import pytest

from repro.baselines import LinearScan
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance, EuclideanDistance
from repro.obs.trace import QueryTrace
from repro.service.context import QueryContext

CACHE_PAGES = (0, 1, 4, 32, 64)
PAGE = 256
N = 240


def range_search_by_leaf(self, query, radius, ctx, phi_q, take, read_accepts):
    """Algorithm 1's descent verifying each leaf as it is reached."""
    tr, phi_q = self._map_query(query, ctx, phi_q)
    rr = self.space.range_region(phi_q, radius)
    packing = self.btree.packing
    box = packing.box_words(*rr)
    limits = packing.limit_words(
        self.space.lemma2_limits(phi_q, radius) if self.use_lemma2 else ()
    )
    stack = [(self.btree.root_page, 0)]
    while stack:
        if ctx is not None:
            ctx.checkpoint()
        page_id, depth = stack.pop()
        record = tr.enter(tr.level(depth), ctx) if tr is not None else None
        try:
            node = self.btree.read_node(page_id)
            if tr is not None:
                tr.bump("nodes_visited")
            if not node.is_leaf:
                meets = np.flatnonzero(
                    self.space.boxes_meet_region(*self.btree.child_boxes(node), rr)
                )
                for i in meets.tolist():
                    stack.append((node.entries[i].child, depth + 1))
                if tr is not None and len(meets) < node.count:
                    tr.bump("children_pruned_lemma1", node.count - len(meets))
                continue
            inside, accepted = self._range_leaf(node, box, limits, tr)
            self._verify_leaf(
                self.btree.leaf_ptrs(node)[inside], accepted,
                query, ctx, tr, radius, take, read_accepts,
            )
        finally:
            if record is not None:
                tr.exit(record)


def canon(obj):
    return obj if isinstance(obj, str) else tuple(np.asarray(obj).tolist())


def spans(span) -> list:
    """A trace's spans, depth first, without their timings."""
    out = [(span.name, span.compdists, span.page_accesses, dict(span.counts))]
    for child in span.children:
        out.extend(spans(child))
    return out


def long_words(count: int, seed: int) -> list[str]:
    """Words of 150-400 characters: records that cross 256-byte pages."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefgh"))
    return [
        "".join(rng.choice(letters, size=int(rng.integers(150, 400))))
        for _ in range(count)
    ]


def twin(dataset: str, cache_pages: int) -> tuple[SPBTree, list]:
    """A tree after inserts (appended out of SFC order) and deletes, and
    its live objects; the same call builds the same tree."""
    if dataset == "words":
        objects = generate_words(N, seed=5) + long_words(12, seed=5)
        fresh = generate_words(N + 40, seed=6)[N:] + long_words(4, seed=6)
        metric = EditDistance()
    else:
        rng = np.random.default_rng(5)
        objects = list(rng.random((N, 4)).round(2))
        fresh = list(rng.random((40, 4)).round(2))
        metric = EuclideanDistance()
    tree = SPBTree.build(
        objects, metric, num_pivots=3, page_size=PAGE, cache_pages=cache_pages, seed=3
    )
    for obj in objects[::9]:
        assert tree.delete(obj)
    live = [o for i, o in enumerate(objects) if i % 9]
    for obj in fresh:
        tree.insert(obj)
        live.append(obj)
    return tree, live


def workload(dataset: str, live: list) -> list[tuple]:
    """(op, query, radius) triples: range and count at several radii."""
    if dataset == "words":
        radii = (0, 1, 2, 4, 300)
    else:
        radii = (0.0, 0.1, 0.25, 0.5, 2.0)
    picks = live[::23] + live[-3:]
    return [
        (op, query, r)
        for query in picks
        for r in radii
        for op in ("range", "count")
    ]


def calls(tree: SPBTree) -> Counter:
    """Count ``read_many`` and ``batch`` calls on this tree from now on."""
    seen: Counter = Counter()
    for owner, name in ((tree.raf, "read_many"), (tree.distance, "batch")):
        inner = getattr(owner, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            seen[_name] += 1
            return _inner(*args, **kwargs)

        setattr(owner, name, counted)
    return seen


def observe(tree: SPBTree, seen: Counter, op: str, query, radius, limits):
    """One query's observations; ``limits`` None runs it with no context."""
    seen.clear()
    ctx = None if limits is None else QueryContext(trace=QueryTrace(), **limits)
    pa0 = tree.page_accesses
    cd0 = tree.distance_computations
    if op == "range":
        res = tree.range_query(query, radius, context=ctx)
    else:
        res = tree.range_count(query, radius, context=ctx)
    pool = tree.raf.buffer_pool
    out = {
        "compdists": tree.distance_computations - cd0,
        "pa": tree.page_accesses - pa0,
        "hits": pool.hits,
        "misses": pool.misses,
        "lru": list(pool._cache),
    }
    if ctx is None:
        out["answer"] = [canon(o) for o in res] if op == "range" else res
        return out, dict(seen)
    out["answer"] = [canon(o) for o in res.items] if op == "range" else res.count
    out.update(
        complete=res.complete,
        reason=str(res.reason),
        ctx=(ctx.compdists, ctx.page_accesses),
        spans=spans(ctx.trace.root),
    )
    return out, dict(seen)


def run_both(dataset: str, cache_pages: int, limits_for) -> tuple[list, list]:
    """The workload on the reference twin and on the tree under test, from
    cold pools; the observations must match query by query.  Returns the
    tested tree's ``(query, observation, calls)`` triples and its live
    objects."""
    runs = []
    for reference in (True, False):
        tree, live = twin(dataset, cache_pages)
        if reference:
            tree._range_search = types.MethodType(range_search_by_leaf, tree)
        tree.flush_cache(reset_stats=True)
        tree.reset_counters()
        seen = calls(tree)
        queries = workload(dataset, live)
        runs.append(
            [
                (q, *observe(tree, seen, *q, limits_for(i)))
                for i, q in enumerate(queries)
            ]
        )
    for (q, want, _), (_, have, _) in zip(*runs):
        assert have == want, (q[0], q[2], limits_for)
    return runs[1], live


@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
@pytest.mark.parametrize("dataset", ["words", "vectors"])
def test_context_free_query_verifies_once(dataset, cache_pages):
    got, live = run_both(dataset, cache_pages, lambda i: None)
    metric = EditDistance() if dataset == "words" else EuclideanDistance()
    scan = LinearScan(live, metric)
    for (op, query, radius), obs, seen in got:
        assert seen.get("read_many", 0) <= 1 and seen.get("batch", 0) <= 1
        truth = [canon(o) for o in scan.range_query(query, radius)]
        if op == "range":
            assert Counter(obs["answer"]) == Counter(truth)
        else:
            assert obs["answer"] == len(truth)


def budgets(i: int) -> dict:
    """A trace on every query, and a small budget on most of them."""
    kind = ("max_compdists", "max_page_accesses", None)[i % 3]
    return {} if kind is None else {kind: 3 + 7 * (i % 5)}


@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
@pytest.mark.parametrize("dataset", ["words", "vectors"])
def test_query_with_a_context_trips_where_it_did(dataset, cache_pages):
    got, _ = run_both(dataset, cache_pages, budgets)
    # The budgets are small enough to trip on some queries.
    assert any(not obs["complete"] for _, obs, _ in got)
    assert any(obs["complete"] for _, obs, _ in got)


def test_a_leaf_with_no_survivor_is_never_verified():
    """With a context every leaf with Lemma 1 survivors is verified on its
    own, in descent order, and a leaf without one not at all."""
    tree, live = twin("words", 4)
    leaves, verified = [], []
    range_leaf, verify_leaf = tree._range_leaf, tree._verify_leaf

    def spy_leaf(*args):
        inside, accepted = range_leaf(*args)
        leaves.append(inside.size)
        return inside, accepted

    def spy_verify(ptrs, *args):
        verified.append(ptrs.size)
        return verify_leaf(ptrs, *args)

    tree._range_leaf, tree._verify_leaf = spy_leaf, spy_verify
    empty = 0
    for query in live[::31]:
        leaves.clear()
        verified.clear()
        tree.range_query(query, 1, context=QueryContext(trace=QueryTrace()))
        assert verified == [n for n in leaves if n]
        empty += leaves.count(0)
        leaves.clear()
        verified.clear()
        tree.range_query(query, 1)
        assert verified == [sum(leaves)]
    assert empty  # some leaf reached had no survivor
