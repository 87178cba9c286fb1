"""A range query's verification batched per query, against a leaf at a time.

``SPBTree._range_search`` keeps each leaf's Lemma 1 survivors and Lemma 2
accepts pending and verifies everything pending before each checkpoint
and once more when the descent ends: a query with no context makes one
``raf.read_many`` and one ``distance.batch``, while a query with a context
(budgets, a trace) still verifies a leaf at a time.  The twin tree, built
and mutated the same way, runs ``reference.range_search_by_leaf``: the
descent that verifies every leaf as it reaches it.  From the same cold
pools, range and count queries must agree on everything
``reference.assert_twins`` compares.  Every context-free answer is
checked against the linear scan as well.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import LinearScan
from repro.datasets import generate_words
from repro.distance import EditDistance, EuclideanDistance
from repro.obs.trace import QueryTrace
from repro.service.context import QueryContext
from tests.reference import (
    assert_twins,
    check_against_scan,
    mutated_tree,
    range_search_by_leaf,
    spied,
    twin_trees,
)

CACHE_PAGES = (0, 1, 4, 32, 64)
PAGE = 256
N = 240


def long_words(count: int, seed: int) -> list[str]:
    """Words of 150-400 characters: records that cross 256-byte pages."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefgh"))
    return [
        "".join(rng.choice(letters, size=int(rng.integers(150, 400))))
        for _ in range(count)
    ]


def twins(dataset: str, cache_pages: int):
    """A tree after inserts (appended out of SFC order) and deletes, its
    twin verifying each leaf as it reaches it, and their live objects."""
    if dataset == "words":
        objects = generate_words(N, seed=5) + long_words(12, seed=5)
        fresh = generate_words(N + 40, seed=6)[N:] + long_words(4, seed=6)
        metric = EditDistance()
    else:
        rng = np.random.default_rng(5)
        objects = list(rng.random((N, 4)).round(2))
        fresh = list(rng.random((40, 4)).round(2))
        metric = EuclideanDistance()
    steps = [("delete", o) for o in objects[::9]] + [("insert", o) for o in fresh]
    return twin_trees(
        lambda: mutated_tree(
            objects, metric, steps,
            num_pivots=3, page_size=PAGE, cache_pages=cache_pages, seed=3,
        ),
        "_range_search",
        range_search_by_leaf,
    )


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


@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
@pytest.mark.parametrize("dataset", ["words", "vectors"])
def test_context_free_query_verifies_once(dataset, cache_pages):
    tree, ref, live = twins(dataset, cache_pages)
    metric = EditDistance() if dataset == "words" else EuclideanDistance()
    scan = LinearScan(live, metric)
    for q in workload(dataset, live):
        with spied(tree.raf, "read_many") as reads, spied(tree.distance, "batch") as batches:
            (obs,) = assert_twins(tree, ref, [q])
        assert len(reads) <= 1 and len(batches) <= 1
        check_against_scan(scan, [q], [obs])


def budgets(i: int) -> dict:
    """A trace on every query, and a small budget on most of them."""
    kind = ("max_compdists", "max_page_accesses", None)[i % 3]
    return {} if kind is None else {kind: 3 + 7 * (i % 5)}


@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
@pytest.mark.parametrize("dataset", ["words", "vectors"])
def test_query_with_a_context_trips_where_it_did(dataset, cache_pages):
    tree, ref, live = twins(dataset, cache_pages)
    got = assert_twins(tree, ref, workload(dataset, live), budgets)
    # The budgets are small enough to trip on some queries.
    assert any(not obs["complete"] for obs in got)
    assert any(obs["complete"] for obs in got)


def test_a_leaf_with_no_survivor_is_never_verified():
    """With a context every leaf with Lemma 1 survivors is verified on its
    own, in descent order, and a leaf without one not at all."""
    tree, _, live = twins("words", 4)
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
