"""A vector leaf verified in arrays, against the paths it replaced.

``SPBTree._verify_leaf`` takes a vector batch's hits by the boolean mask
(``SPBTree._select``: one copy of the marked rows, no view made per
record) and its distances as one float64 array (``Metric.batch_array``).
The twin tree, built and mutated the same way, selects with
``itertools.compress`` (``reference.select_by_compress``).  Both answer
range, count and greedy kNN queries on float64 and uint8 vector trees
under L1, L2, L5, L∞ and Hamming, at every cache size, with no context
and under every compdist and page-access budget from 0 to past the full
cost, and must agree on everything ``reference.observe`` sees: the answer
and its order, each answer object's dtype, shape and writability,
completeness, reason, compdists, page accesses, page-file reads, pool
hits, misses and LRU order.

A context-free range or count query, on a string tree as on a vector
tree and at every cache size, still verifies once: one ``read_many`` and
one ``batch_array`` at most, and no list ``batch``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import LinearScan
from repro.datasets import generate_words
from repro.distance import (
    CountingDistance,
    EditDistance,
    HammingDistance,
    MinkowskiDistance,
)
from tests.reference import (
    assert_twins,
    check_against_scan,
    mutated_tree,
    observe,
    select_by_compress,
    spied,
    twin_trees,
    under_shard,
    vectors,
)

CACHES = (0, 1, 4, 32, 64)
METRICS = {
    "L1": lambda: MinkowskiDistance(1),
    "L2": lambda: MinkowskiDistance(2),
    "L5": lambda: MinkowskiDistance(5),
    "Linf": lambda: MinkowskiDistance(math.inf),
    "hamming": HammingDistance,
}


# ------------------------------------------------------------------ trees


def _twins(spec: dict):
    """The tree under test, its twin on the replaced paths, the live
    objects and the metric."""
    rng = np.random.default_rng(spec["seed"])
    n, dim = spec["n"], spec["dim"]
    # A coarse grid: distances tie, and Hamming has rows that differ.
    rows = rng.integers(0, 4, (n + spec["inserts"], dim))
    if spec["dtype"] == "float64":
        rows = rows / 2.0
    rows = rows.astype(spec["dtype"])
    objects, fresh = list(rows[:n]), list(rows[n:])
    steps = [("insert", o) for o in fresh] + [
        ("delete", o) for o in objects[1::5][: spec["deletes"]]
    ]
    metric = METRICS[spec["metric"]]()

    def build():
        return mutated_tree(
            objects, metric, steps, num_pivots=3, seed=2,
            page_size=spec["page"], cache_pages=spec["cache"],
        )

    tree, twin, live = twin_trees(build, "_select", select_by_compress)
    return tree, twin, live, metric


def _queries(live: list, metric, probe) -> list[tuple]:
    """Range and count at a small and a large radius (distances of the
    probe's 3rd and n/3-th neighbours), and greedy kNN at k of 1 and 8."""
    dists = sorted(metric(probe, o) for o in live)
    radii = (dists[min(2, len(dists) - 1)], dists[len(dists) // 3])
    return [(op, probe, r) for r in radii for op in ("range", "count")] + [
        ("knn", probe, k) for k in (1, 8)
    ]


def _sweep(tree, twin, queries) -> None:
    """Each query with no context, then under every compdist and
    page-access budget from 0 to past its full cost."""
    for q in queries:
        assert_twins(tree, twin, [q], traversal="greedy")
        (full,) = assert_twins(tree, twin, [q], {}, traversal="greedy")
        compdists, pa = full["ctx"]
        assert_twins(
            tree, twin, [q] * (compdists + 2),
            lambda i: {"max_compdists": i}, traversal="greedy",
        )
        assert_twins(
            tree, twin, [q] * (pa + 2),
            lambda i: {"max_page_accesses": i}, traversal="greedy",
        )


TREES = st.fixed_dictionaries(
    {
        "dtype": st.sampled_from(["float64", "uint8"]),
        "metric": st.sampled_from(sorted(METRICS)),
        "n": st.integers(20, 120),
        "dim": st.integers(1, 6),
        "inserts": st.integers(0, 15),
        "deletes": st.integers(0, 10),
        "page": st.sampled_from([64, 256, 4096]),
        "cache": st.sampled_from(CACHES),
        "seed": st.integers(0, 2**16),
    }
)


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(spec=TREES, pick=st.integers(0, 2**16))
def test_drawn_trees_agree_with_the_replaced_paths(spec, pick):
    tree, twin, live, metric = _twins(spec)
    probe = live[pick % len(live)]
    _sweep(tree, twin, _queries(live, metric, probe))


@pytest.mark.parametrize("cache", CACHES)
@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("dtype", ["float64", "uint8"])
def test_every_cache_size_and_metric(cache, metric, dtype):
    spec = dict(
        dtype=dtype, metric=metric, n=90, dim=4, inserts=12, deletes=8,
        page=256, cache=cache, seed=7,
    )
    tree, twin, live, m = _twins(spec)
    _sweep(tree, twin, _queries(live, m, live[-1]))


# ------------------------------------------------------------ the leaf path


def test_a_range_hit_pins_only_the_query_s_hits():
    """A context-free range query makes one read and one distance array,
    and its hits are the rows of one array holding nothing else."""
    tree, _, live, metric = _twins(
        dict(dtype="float64", metric="L2", n=120, dim=3, inserts=0, deletes=0,
             page=256, cache=32, seed=3)
    )
    probe = live[5]
    radius = sorted(metric(probe, o) for o in live)[40]
    with spied(tree.raf, "read_many") as reads, spied(
        tree.distance, "batch_array"
    ) as arrays, spied(tree.distance, "batch") as lists:
        hits = tree.range_query(probe, radius)
    assert (len(reads), len(arrays), len(lists)) == (1, 1, 0)
    assert len(hits) > 1
    assert len({id(h.base) for h in hits}) == 1
    assert hits[0].base.shape == (len(hits), 3)


def _grid_tree(dataset: str, cache_pages: int):
    """A words or 4-d vector tree after deletes and inserts (appended out
    of SFC order), on 256-byte pages — some words cross them — with its
    live objects and the metric."""
    if dataset == "words":
        rng = np.random.default_rng(5)
        letters = np.array(list("abcdefgh"))
        long = [
            "".join(rng.choice(letters, size=int(rng.integers(150, 400))))
            for _ in range(16)
        ]
        objects = generate_words(240, seed=5) + long[:12]
        fresh = generate_words(280, seed=6)[240:] + long[12:]
        metric = EditDistance()
    else:
        objects, fresh = vectors(240, 4, seed=5), vectors(40, 4, seed=6)
        metric = MinkowskiDistance(2)
    steps = [("delete", o) for o in objects[::9]] + [("insert", o) for o in fresh]
    tree, live = mutated_tree(
        objects, metric, steps,
        num_pivots=3, page_size=256, cache_pages=cache_pages, seed=3,
    )
    return tree, live, metric


@pytest.mark.parametrize("cache_pages", CACHES)
@pytest.mark.parametrize("dataset", ["words", "vectors"])
def test_a_context_free_query_verifies_once(dataset, cache_pages):
    """At most one ``read_many`` and one ``batch_array`` per context-free
    range or count query, never a list ``batch`` — and the answer is the
    linear scan's."""
    tree, live, metric = _grid_tree(dataset, cache_pages)
    radii = (0, 1, 2, 4, 300) if dataset == "words" else (0.0, 0.1, 0.25, 0.5, 2.0)
    queries = [
        (op, q, r) for q in live[::23] + live[-3:] for r in radii
        for op in ("range", "count")
    ]
    scan = LinearScan(live, metric)
    verified = 0
    for q in queries:
        with spied(tree.raf, "read_many") as reads, spied(
            tree.distance, "batch_array"
        ) as arrays, spied(tree.distance, "batch") as lists:
            run = observe(tree, *q, None)
        assert len(reads) <= 1 and len(arrays) <= 1 and lists == []
        verified += len(arrays)
        check_against_scan(scan, [q], [run])
    assert verified > len(queries) // 2  # most queries do verify


@pytest.mark.parametrize(
    "metric", [MinkowskiDistance(2), HammingDistance(), EditDistance()]
)
def test_the_array_entry_point_is_counted_as_the_list_one(metric):
    if isinstance(metric, EditDistance):
        q, objs = "abc", ["abd", "xbc", "cab", ""]
    else:
        q, objs = np.arange(4.0), [np.arange(4.0) + i for i in range(5)]
    counting = CountingDistance(metric)
    with under_shard() as (shard, _):
        got = counting.batch_array(q, objs, 1.0)
    assert counting.count == len(objs) and shard.compdists == len(objs)
    assert got.dtype == np.float64 and got.tolist() == metric.batch(q, objs, 1.0)
