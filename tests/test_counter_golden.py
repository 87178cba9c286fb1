"""Golden paper counters: compdists and PA pinned to recorded values.

ROADMAP's fixed point — "paper counters stay bit-identical" — as a test
instead of a convention.  The totals below were recorded at the commit
before the decoded-node memo and the array-backed leaves landed (PR 11,
``02dfede``); any change to the query path, the mapping, the curve, the
B+-tree layout, the RAF or ``Metric.max_distance`` (d+ moves δ and with it
every SFC key) that moves a counter fails here.  A change that *means* to
move them re-records with ``PYTHONPATH=src python tests/test_counter_golden.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.spbtree import SPBTree
from repro.datasets import generate_words, load_dataset
from repro.obs.trace import QueryTrace
from repro.service.context import QueryContext

SIZE = 1500
QUERIES = 12

#: tree name -> (dataset, curve)
TREES = {
    "words-hilbert": ("words", "hilbert"),
    "color-hilbert": ("color", "hilbert"),
    "words-z": ("words", "z"),
}

#: Trace counts that are part of the fixed point.  ``entries_pruned_lemma1``
#: is not: the leaf mask counts every entry outside RR, where the per-entry
#: code skipped the count for leaves it handled by enumeration.
PINNED_TRACE_COUNTS = {
    "nodes_visited",
    "children_pruned_lemma1",
    "lemma2_accepts",
    "entries_verified",
    "children_pruned_lemma3",
    "entries_pruned_lemma3",
}

#: [compdists, page accesses] per query kind, summed over the query set;
#: ``pruning`` is the traced runs' counts summed over all four kinds.
GOLDEN = {
    "words-hilbert": {
        "build": [7500, 15],
        "range": [13739, 192],
        "knn-incremental": [7510, 116],
        "knn-greedy": [17128, 113],
        "count": [13739, 192],
        "pruning": {
            "children_pruned_lemma1": 200,
            "nodes_visited": 565,
            "entries_verified": 51696,
            "lemma2_accepts": 3366,
            "entries_pruned_lemma3": 2421,
        },
    },
    "color-hilbert": {
        "build": [7500, 59],
        "range": [3779, 233],
        "knn-incremental": [3851, 110],
        "knn-greedy": [11377, 380],
        "count": [3779, 223],
        "pruning": {
            "children_pruned_lemma1": 136,
            "nodes_visited": 382,
            "entries_verified": 22366,
            "lemma2_accepts": 13280,
            "entries_pruned_lemma3": 1424,
        },
    },
    "words-z": {
        "build": [7500, 15],
        "range": [13739, 172],
        "knn-incremental": [7505, 99],
        "knn-greedy": [14538, 99],
        "count": [13739, 172],
        "pruning": {
            "children_pruned_lemma1": 240,
            "nodes_visited": 495,
            "entries_verified": 49101,
            "lemma2_accepts": 3366,
            "entries_pruned_lemma3": 2001,
        },
    },
}

#: ``range_query(queries[3], r=9)`` under ``max_compdists=200``.
BUDGETED = {
    "items": ["dahockthebrallable", "dahockthebralling"],
    "complete": False,
    "reason": "compdists",
    "compdists": 201,
    "page_accesses": 9,
}


def _build(name: str):
    dataset_name, curve = TREES[name]
    dataset = load_dataset(dataset_name, size=SIZE, num_queries=QUERIES, seed=42)
    # d+ comes from Metric.max_distance over all objects, as SPBTree.build
    # computes it when none is passed.
    tree = SPBTree.build(
        dataset.objects, dataset.metric, num_pivots=5, curve=curve, seed=7
    )
    built = [tree.distance_computations, tree.page_accesses]
    if dataset_name == "words":
        # a mutated tree: leaf splits, unlinked entries, a grown RAF tail
        for word in generate_words(2 * SIZE, seed=5)[SIZE : SIZE + 400]:
            tree.insert(word)
        for word in dataset.objects[100:220]:
            assert tree.delete(word)
    # two pivots as queries: d(q, p) = 0 is where Lemma 2 accepts the most
    queries = list(dataset.queries) + list(tree.space.pivots[:2])
    return tree, queries, built


def _radii(tree) -> tuple[float, float]:
    """A selective radius and one wide enough for Lemma 2 to accept."""
    d_plus = tree.space.d_plus
    if tree.space.exact:
        return 1, 9
    return 0.04 * d_plus, 0.3 * d_plus


def _run(tree, queries, traced: bool) -> dict:
    """Counter totals of each query kind over the seeded query set."""
    small, large = _radii(tree)
    kinds = {
        "range": lambda q, ctx: [
            tree.range_query(q, r, context=ctx()) for r in (small, large)
        ],
        "knn-incremental": lambda q, ctx: tree.knn_query(q, 8, context=ctx()),
        "knn-greedy": lambda q, ctx: tree.knn_query(
            q, 8, traversal="greedy", context=ctx()
        ),
        "count": lambda q, ctx: [
            tree.range_count(q, r, context=ctx()) for r in (small, large)
        ],
    }
    out = {}
    pruning: dict[str, int] = {}
    for kind, run in kinds.items():
        tree.flush_cache()
        tree.reset_counters()
        contexts: list[QueryContext] = []

        def make_context():
            if not traced:
                return None
            ctx = QueryContext()
            ctx.trace = QueryTrace(kind)
            contexts.append(ctx)
            return ctx

        for query in queries:
            run(query, make_context)
        out[kind] = [tree.distance_computations, tree.page_accesses]
        if traced:
            # per-query shards and their span trees add up to the totals
            assert [
                sum(c.compdists for c in contexts),
                sum(c.page_accesses for c in contexts),
            ] == out[kind]
            for ctx in contexts:
                assert ctx.trace.attributed_totals() == (
                    ctx.compdists,
                    ctx.page_accesses,
                )
                for span in ctx.trace.root.children:
                    for key in PINNED_TRACE_COUNTS & span.counts.keys():
                        pruning[key] = pruning.get(key, 0) + span.counts[key]
    if traced:
        out["pruning"] = pruning
    return out


def _budgeted(tree, queries) -> dict:
    """One ``max_compdists``-budgeted range query: the partial answer."""
    tree.flush_cache()
    _, large = _radii(tree)
    ctx = QueryContext(max_compdists=200)
    result = tree.range_query(queries[3], large, context=ctx)
    return {
        "items": list(result.items),
        "complete": result.complete,
        "reason": result.reason.kind if result.reason else None,
        "compdists": ctx.compdists,
        "page_accesses": ctx.page_accesses,
    }


def measure() -> tuple[dict, dict, dict]:
    """(plain totals, totals through traced contexts, the budgeted run)."""
    plain, traced, budgeted = {}, {}, {}
    for name in TREES:
        tree, queries, built = _build(name)
        plain[name] = {"build": built, **_run(tree, queries, traced=False)}
        traced[name] = {"build": built, **_run(tree, queries, traced=True)}
        if name == "words-hilbert":
            budgeted = _budgeted(tree, queries)
    return plain, traced, budgeted


@pytest.fixture(scope="module")
def measured():
    return measure()


@pytest.mark.parametrize("name", sorted(TREES))
def test_counters_match_recorded_values(measured, name):
    plain, traced, _ = measured
    assert traced[name] == GOLDEN[name]
    assert plain[name] == {k: v for k, v in GOLDEN[name].items() if k != "pruning"}
    assert GOLDEN[name]["pruning"]["lemma2_accepts"] > 0


def test_budgeted_partial_answer_matches_recorded(measured):
    assert measured[2] == BUDGETED


if __name__ == "__main__":
    _, recorded, partial = measure()
    print("GOLDEN =", json.dumps(recorded))
    print("BUDGETED =", json.dumps(partial))
