"""A leaf verified as arrays against VerifyRQ written entry by entry.

``SPBTree._verify_leaf`` takes a leaf's Lemma 1 survivors and Lemma 2
accepts as arrays: one ``raf.read_many``, one ``distance.batch``.  Its
twin runs ``reference.verify_by_entry``, the same step an entry at a
time — a budget checkpoint before each read, ``read_object``, one
distance.  For range, count and greedy kNN queries, run in the same order
from the same cold pools, both must agree on everything
``reference.assert_twins`` compares, the trace's tallies
(``entries_verified``, ``lemma2_accepts``, ``entries_pruned_lemma1``
among them) included.  Every answer is also checked against the linear
scan.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LinearScan
from repro.datasets import generate_words
from repro.distance import EditDistance, EuclideanDistance
from tests.reference import (
    assert_twins,
    check_against_scan,
    cold,
    mutated_tree,
    tallies,
    twin_trees,
    vectors,
    verify_by_entry,
)

CACHE_PAGES = (0, 1, 4, 32)
PAGE = 256
TALLIES = ("entries_verified", "lemma2_accepts", "entries_pruned_lemma1")


def both_paths(trees, queries: list, limits: dict) -> list[dict]:
    """Run ``queries`` in order on the tree and its twin from cold pools;
    return the array path's observations once they match the reference's."""
    cold(*trees)
    return assert_twins(*trees, queries, limits, traversal="greedy")


def thinned_tree(objects, metric, cache_pages, use_lemma2, deletes):
    """A small tree with ``deletes`` objects deleted, and its twin verifying
    an entry at a time.  Returns both trees and their live objects."""

    def build():
        tree, live = mutated_tree(
            objects, metric, [("delete", o) for o in objects[:deletes]],
            num_pivots=3, page_size=PAGE, cache_pages=cache_pages, seed=3,
        )
        tree.use_lemma2 = use_lemma2
        return tree, live

    *trees, live = twin_trees(build, "_verify_leaf", verify_by_entry)
    return trees, live


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
    objects = generate_words(n, seed=seed) if words else vectors(n, 4, seed)
    metric = EditDistance() if words else EuclideanDistance()
    trees, live = thinned_tree(
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
    return trees, LinearScan(live, metric), query, share, k, limits


@given(cases())
@settings(max_examples=60, deadline=None)
def test_array_path_equals_the_entry_reference(case):
    trees, scan, query, share, k, limits = case
    r = radius_for(scan, query, share) if scan.objects else 0.0
    queries = [("range", query, r), ("count", query, r), ("knn", query, k)]
    check_against_scan(scan, queries, both_paths(trees, queries, limits))


@pytest.fixture(scope="module", params=["words", "vectors"])
def fixture_objects(request):
    if request.param == "words":
        return generate_words(150, seed=21), EditDistance()
    return vectors(150, 4, 21), EuclideanDistance()


@pytest.mark.parametrize("use_lemma2", [True, False])
@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
def test_every_budget_trips_where_the_reference_trips(
    fixture_objects, cache_pages, use_lemma2
):
    """Each compdist and page-access budget from zero to past a full
    query's cost, so budgets trip mid-leaf, between leaves and not at all."""
    objects, metric = fixture_objects
    trees, live = thinned_tree(objects, metric, cache_pages, use_lemma2, 20)
    scan = LinearScan(live, metric)
    query = objects[40]
    queries = [
        ("range", query, radius_for(scan, query, 0.3)),
        ("count", query, radius_for(scan, query, 0.5)),
        ("knn", query, 6),
    ]
    full = both_paths(trees, queries, {})
    check_against_scan(scan, queries, full)
    assert all(run["complete"] for run in full)
    seen = {name for run in full for name, n in tallies(run["spans"]).items() if n}
    want = set(TALLIES) if use_lemma2 else set(TALLIES) - {"lemma2_accepts"}
    assert seen & set(TALLIES) == want
    partial = 0
    for at, budget in enumerate(("max_compdists", "max_page_accesses")):
        top = max(run["ctx"][at] for run in full)
        for limit in range(0, top + 2, max(1, top // 25)):
            runs = both_paths(trees, queries, {budget: limit})
            check_against_scan(scan, queries, runs)
            partial += sum(not run["complete"] for run in runs)
    assert partial
