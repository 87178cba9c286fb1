"""The incremental kNN's heap of leaf runs against the heap it replaced.

``SPBTree._knn_search`` keeps the entries of an expanded leaf that pass
Lemma 3 as one run, sorted by MIND, with only the run's head on the heap;
it keeps the k-th distance in a local and offers a verified entry only
when the collector can take it.  A twin tree runs the loop as it was before
(``reference.knn_search_per_entry``: one heap item per leaf entry, the
bound read at every pop, every verified entry offered).  Both answer the
same queries on words and vector trees with inserts and deletes, at every
cache size, under every compdist and page-access budget from 0 to past a
full query's cost, and as two trees sharing one collector, and must agree
on everything ``reference.assert_twins`` compares and on the sequence of
RAF offsets read.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import generate_words
from repro.distance import EditDistance, MinkowskiDistance
from repro.obs.trace import QueryTrace
from repro.service.context import KnnCollector, QueryContext
from tests.reference import (
    canon,
    knn_search_per_entry,
    mutated_tree,
    observe,
    snapshot,
    spans,
    twin_trees,
)

CACHES = (0, 1, 4, 32, 64)


# ------------------------------------------------------------------ trees


def _corpus(kind: str, n: int, seed: int) -> tuple[list, list, Any]:
    """``(objects, extra, metric)``: the bulk-loaded objects and as many
    again for inserts and queries.  Vectors sit on a coarse integer grid, so
    distances and MINDs tie as often as on words."""
    if kind == "words":
        words = generate_words(2 * n, seed=seed)
        return words[:n], words[n:], EditDistance()
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 6, (2 * n, 3)).astype(np.float64)
    return list(rows[:n]), list(rows[n:]), MinkowskiDistance(2)


def _instrument(tree) -> list:
    """Record every RAF offset the tree's queries read, in order."""
    raf = tree.raf
    reads: list = []
    read_object, read_many = raf.read_object, raf.read_many

    def one(offset):
        reads.append(int(offset))
        return read_object(offset)

    def many(offsets, stop=None):
        reads.append(tuple(np.asarray(offsets).tolist()))
        return read_many(offsets, stop)

    raf.read_object, raf.read_many = one, many
    return reads


def _twins(spec: dict):
    """The tree under test and its twin running the per-entry heap."""
    objects, extra, metric = _corpus(spec["kind"], spec["n"], spec["seed"])
    steps = [("insert", o) for o in extra[: spec["inserts"]]] + [
        ("delete", o)
        for o in objects[:: max(1, spec["n"] // max(1, spec["deletes"]))][: spec["deletes"]]
    ]
    tree, twin, _ = twin_trees(
        lambda: mutated_tree(
            objects, metric, steps, num_pivots=3, seed=1,
            page_size=spec["page"], cache_pages=spec["cache"],
        ),
        "_knn_search",
        knn_search_per_entry,
    )
    for t in (tree, twin):
        t.reads = _instrument(t)
    return tree, twin


def _queries(spec: dict) -> list:
    objects, extra, _ = _corpus(spec["kind"], spec["n"], spec["seed"])
    return [objects[1], objects[spec["n"] // 2], extra[-1], extra[-2]]


# ---------------------------------------------------------------- observing


def _plain(items) -> list:
    return [(d, canon(o)) for d, o in items]


def _state(tree) -> dict:
    return {**snapshot(tree), "offsets": list(tree.reads)}


def _ask(tree, q, k: int, traversal: str, **limits) -> dict:
    """One traced query under ``limits``, and everything it moved."""
    tree.reads.clear()
    return {**observe(tree, "knn", q, k, limits, traversal), "offsets": list(tree.reads)}


def _agree(tree, twin, q, k: int, traversal: str, **limits) -> dict:
    got = _ask(tree, q, k, traversal, **limits)
    assert got == _ask(twin, q, k, traversal, **limits)
    return got


def _sweep(tree, twin, q, k: int, traversal: str) -> None:
    """Every compdist and page-access budget from 0 to past the cost of the
    full query, from the pool state the full query left."""
    full = _agree(tree, twin, q, k, traversal)
    compdists, pa = full["ctx"]
    for budget in range(compdists + 2):
        _agree(tree, twin, q, k, traversal, max_compdists=budget)
    for budget in range(pa + 2):
        _agree(tree, twin, q, k, traversal, max_page_accesses=budget)


TREES = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["words", "vectors"]),
        "n": st.integers(20, 140),
        "seed": st.integers(0, 50),
        "page": st.sampled_from([256, 1024]),
        "cache": st.sampled_from(CACHES),
        "inserts": st.integers(0, 20),
        "deletes": st.integers(0, 12),
    }
)
SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@SETTINGS
@given(spec=TREES, traversal=st.sampled_from(["incremental", "greedy"]))
def test_runs_pop_as_the_per_entry_heap(spec, traversal):
    tree, twin = _twins(spec)
    for q in _queries(spec):
        for k in (1, 4, 9, len(tree) + 3):
            _agree(tree, twin, q, k, traversal)
            assert _plain(tree.knn_query(q, k, traversal=traversal)) == _plain(
                twin.knn_query(q, k, traversal=traversal)
            )
    assert _state(tree) == _state(twin)


@settings(max_examples=12, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    spec=TREES,
    traversal=st.sampled_from(["incremental", "greedy"]),
    k=st.sampled_from([1, 4, 9, 500]),
)
def test_every_budget_trips_where_it_tripped(spec, traversal, k):
    tree, twin = _twins(spec)
    for q in _queries(spec)[:2]:
        _sweep(tree, twin, q, k, traversal)


@pytest.mark.parametrize("cache", CACHES)
@pytest.mark.parametrize("kind", ["words", "vectors"])
def test_budgets_at_every_cache_size(kind, cache):
    spec = {"kind": kind, "n": 120, "seed": 3, "page": 256, "cache": cache,
            "inserts": 15, "deletes": 8}
    tree, twin = _twins(spec)
    q = _queries(spec)[2]
    for k in (4, 9):
        _sweep(tree, twin, q, k, "incremental")


@settings(max_examples=15, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    first=TREES,
    second=TREES,
    k=st.sampled_from([1, 4, 9, 500]),
    budget=st.one_of(st.none(), st.integers(0, 60)),
)
def test_a_collector_shared_by_two_trees(first, second, k, budget):
    """A cluster's scatter: the shards searched one after the other, folding
    into one collector, the second under a compdist budget."""
    second = {**second, "kind": first["kind"]}
    a, a_twin = _twins(first)
    b, b_twin = _twins(second)
    for q in _queries(first)[:2]:
        seen = []
        for pair in ((a, b), (a_twin, b_twin)):
            collector = KnnCollector(k)
            outs = []
            for tree, limit in zip(pair, (None, budget)):
                ctx = QueryContext(max_compdists=limit, trace=QueryTrace("knn"))
                out = tree.knn_into(q, k, collector, ctx)
                outs.append((out.complete, str(out.reason), out.frontier,
                             ctx.compdists, ctx.page_accesses, spans(ctx.trace.root),
                             _state(tree)))
            seen.append((_plain(collector.items()), outs))
        assert seen[0] == seen[1]


def _far(tree, far) -> None:
    """Bind the tree's per-object distance so that ``far`` objects lie at
    infinity — what an extended metric, or one past any cut-off, answers."""
    against = tree.distance.against

    def bound_to(q):
        f = against(q)
        return lambda o, bound: math.inf if far(o) else f(o, bound)

    tree.distance.against = bound_to


@pytest.mark.parametrize("cache", (0, 32))
def test_an_infinite_distance_is_offered_to_a_collector_not_yet_full(cache):
    spec = {"kind": "words", "n": 120, "seed": 8, "page": 256, "cache": cache,
            "inserts": 10, "deletes": 5}
    tree, twin = _twins(spec)
    for t in (tree, twin):
        _far(t, lambda o: "e" in o)
    for q in _queries(spec):
        for k in (4, 60, len(tree) + 3):
            got = _agree(tree, twin, q, k, "incremental")
            if k > len(tree):
                assert math.inf in [d for d, _ in got["answer"]]
