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
import os
import tempfile

import pytest

from repro.cluster import ShardedIndex
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words, load_dataset
from repro.obs.trace import QueryTrace
from repro.replication import replicate
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


# --------------------------------------------------------------------------
# The cluster's read path: one scatter over shards, with and without replicas.

#: cluster name -> (shards, followers per shard, read policy)
CLUSTERS = {
    "sharded-3": (3, 0, None),
    "replicated-primary-only": (2, 1, "primary-only"),
    "replicated-round-robin": (2, 1, "round-robin"),
    "replicated-fastest-mind": (2, 1, "fastest-mind"),
}

#: Recorded at ``f2a85b3``, the commit before the three scatter paths became
#: one loop.  Per kind ``[compdists, PA, shards visited, shards pruned]``
#: summed over the query set (plain runs pin the first two); ``pruning`` is
#: the pinned trace counts under the ``shard-<id>`` spans and ``served`` how
#: many of those spans each replica's last read was annotated on.
CLUSTER_GOLDEN = {
    "sharded-3": {
        "range": [22073, 374, 108, 18],
        "knn-incremental": [11197, 153, 38, 4],
        "knn-greedy": [17721, 150, 38, 4],
        "count": [22073, 374, 108, 18],
        "pruning": {
            "children_pruned_lemma1": 90,
            "nodes_visited": 1007,
            "entries_verified": 72504,
            "lemma2_accepts": 21354,
            "entries_pruned_lemma3": 3028,
            "children_pruned_lemma3": 8,
        },
        "served": {},
    },
    "replicated-primary-only": {
        "range": [22073, 372, 75, 9],
        "knn-incremental": [10317, 145, 26, 2],
        "knn-greedy": [16287, 141, 26, 2],
        "count": [22073, 372, 75, 9],
        "pruning": {
            "children_pruned_lemma1": 128,
            "nodes_visited": 990,
            "entries_verified": 70190,
            "lemma2_accepts": 21354,
            "entries_pruned_lemma3": 3046,
            "children_pruned_lemma3": 14,
        },
        "served": {"r0": 202},
    },
    "replicated-round-robin": {
        "range": [22073, 382, 75, 9],
        "knn-incremental": [10317, 155, 26, 2],
        "knn-greedy": [16287, 151, 26, 2],
        "count": [22073, 382, 75, 9],
        "pruning": {
            "children_pruned_lemma1": 128,
            "nodes_visited": 990,
            "entries_verified": 70190,
            "lemma2_accepts": 21354,
            "entries_pruned_lemma3": 3046,
            "children_pruned_lemma3": 14,
        },
        "served": {"r1": 101, "r0": 101},
    },
    "replicated-fastest-mind": {
        "range": [22073, 372, 75, 9],
        "knn-incremental": [10317, 145, 26, 2],
        "knn-greedy": [16287, 141, 26, 2],
        "count": [22073, 372, 75, 9],
        "pruning": {
            "children_pruned_lemma1": 128,
            "nodes_visited": 990,
            "entries_verified": 70190,
            "lemma2_accepts": 21354,
            "entries_pruned_lemma3": 3046,
            "children_pruned_lemma3": 14,
        },
        "served": {"r0": 202},
    },
}

#: ``max_compdists=600`` on the 3-shard cluster: the first shard completes,
#: a later one trips.
CLUSTER_BUDGETED = {
    "range": {
        "items": 4,
        "complete": False,
        "reason": "shard 1: compdists budget exceeded (199 of 198)",
        "frontier": None,
        "per_shard": {
            "0": {"complete": True, "reason": None, "compdists": 196, "page_accesses": 7},
            "1": {
                "complete": False,
                "reason": "compdists budget exceeded (199 of 198)",
                "compdists": 199,
                "page_accesses": 7,
            },
            "2": {
                "complete": False,
                "reason": "compdists budget exceeded (199 of 198)",
                "compdists": 199,
                "page_accesses": 6,
            },
        },
        "visited": 3,
        "pruned": 0,
        "compdists": 599,
        "page_accesses": 20,
    },
    "knn": {
        "items": 1,
        "complete": False,
        "reason": "shard 0: compdists budget exceeded (114 of 113)",
        "frontier": 1.0,
        "per_shard": {
            "2": {"complete": True, "reason": None, "compdists": 482, "page_accesses": 8},
            "0": {
                "complete": False,
                "reason": "compdists budget exceeded (114 of 113)",
                "compdists": 114,
                "page_accesses": 6,
            },
        },
        "visited": 2,
        "pruned": 0,
        "compdists": 601,
        "page_accesses": 14,
    },
}

#: One follower of shard 0 marked down (2 members, quorum 2), ``strict=True``.
CLUSTER_QUORUM_LOST = {
    "range": {
        "complete": False,
        "reason": "shard 0: replica set degraded (1 healthy members, quorum 2)",
        "per_shard": {
            "0": [False, "shard 0: replica set degraded (1 healthy members, quorum 2)"],
            "1": [True, None],
        },
    },
    "knn": {
        "complete": False,
        "reason": "shard 0: replica set degraded (1 healthy members, quorum 2)",
        "per_shard": {
            "0": [False, "shard 0: replica set degraded (1 healthy members, quorum 2)"],
            "1": [True, None],
        },
    },
    "count": {
        "complete": False,
        "reason": "shard 0: replica set degraded (1 healthy members, quorum 2)",
        "per_shard": {
            "0": [False, "shard 0: replica set degraded (1 healthy members, quorum 2)"],
            "1": [True, None],
        },
    },
}


def _member_trees(index) -> list:
    """Every tree a read can be served from (followers included)."""
    sets = getattr(index, "_sets", {})
    trees = []
    for shard in index.shards:
        rset = sets.get(shard.shard_id)
        if rset is None:
            trees.append(shard.tree)
        else:
            trees.extend(rset.tree_for(rid) for rid in rset.member_ids())
    return trees


def _build_cluster(name: str, workdir: str):
    shards, followers, policy = CLUSTERS[name]
    dataset = load_dataset("words", size=SIZE, num_queries=QUERIES, seed=42)
    built = ShardedIndex.build(
        dataset.objects, dataset.metric, shards=shards, num_pivots=5, seed=7
    )
    if followers:
        directory = os.path.join(workdir, name)
        built.save(directory)
        replicate(directory, dataset.metric, replicas=followers, read_policy=policy)
        index = ShardedIndex.open(directory, dataset.metric, wal_fsync=False)
    else:
        index = built
    # mutations after open: shipped frames applied on the followers
    for word in generate_words(2 * SIZE, seed=5)[SIZE : SIZE + 120]:
        index.insert(word)
    for word in dataset.objects[100:140]:
        assert index.delete(word)
    queries = list(dataset.queries) + list(index.space.pivots[:2])
    # The first plan after a mutation reads each shard's root for its MBB;
    # pay that here so the plain and the traced pass start alike.
    index.range_count(queries[0], 0)
    return index, queries


def _cluster_kinds(index):
    """Query kinds over three radii: selective, wide, and d+ (where Lemma 2
    accepts whole shards for the pivot queries)."""
    radii = (1, 9, index.space.d_plus)
    return {
        "range": lambda q, ctx: [
            index.range_query(q, r, context=ctx()) for r in radii
        ],
        "knn-incremental": lambda q, ctx: [index.knn_query(q, 8, context=ctx())],
        "knn-greedy": lambda q, ctx: [
            index.knn_query(q, 8, traversal="greedy", context=ctx())
        ],
        "count": lambda q, ctx: [
            index.range_count(q, r, context=ctx()) for r in radii
        ],
    }


def _run_cluster(index, queries, traced: bool) -> dict:
    out: dict = {}
    pruning: dict[str, int] = {}
    served: dict[str, int] = {}
    trees = _member_trees(index)
    for kind, run in _cluster_kinds(index).items():
        for tree in trees:
            tree.flush_cache()
            tree.reset_counters()
        index.distance.reset()
        contexts: list[QueryContext] = []

        def make_context():
            if not traced:
                return None
            ctx = QueryContext()
            ctx.trace = QueryTrace(kind)
            contexts.append(ctx)
            return ctx

        results = [r for query in queries for r in run(query, make_context)]
        out[kind] = [
            index.distance.count + sum(t.distance_computations for t in trees),
            sum(t.page_accesses for t in trees),
        ]
        if not traced:
            continue
        assert [
            sum(c.compdists for c in contexts),
            sum(c.page_accesses for c in contexts),
        ] == out[kind]
        out[kind] += [
            sum(r.shards_visited for r in results),
            sum(r.shards_pruned for r in results),
        ]
        for ctx, result in zip(contexts, results):
            assert result.complete and ctx.trace.complete
            assert ctx.trace.attributed_totals() == (
                ctx.compdists,
                ctx.page_accesses,
            )
            spans = [
                s for s in ctx.trace.root.children if s.name.startswith("shard-")
            ]
            assert len(spans) == result.shards_visited == len(result.per_shard)
            for span in spans:
                if "replica" in span.counts:
                    replica = span.counts["replica"]
                    served[replica] = served.get(replica, 0) + 1
                for level in span.children:
                    for key in PINNED_TRACE_COUNTS & level.counts.keys():
                        pruning[key] = pruning.get(key, 0) + level.counts[key]
    if traced:
        out["pruning"] = pruning
        out["served"] = served
    return out


def _cluster_budgeted(index, queries) -> dict:
    """A range and a kNN query whose compdist budget trips mid-scatter."""
    out = {}
    runs = {
        "range": lambda ctx: index.range_query(queries[3], 9, context=ctx),
        "knn": lambda ctx: index.knn_query(queries[3], 8, context=ctx),
    }
    for kind, run in runs.items():
        for tree in _member_trees(index):
            tree.flush_cache()
        ctx = QueryContext(max_compdists=600)
        result = run(ctx)
        out[kind] = {
            "items": len(result.items),
            "complete": result.complete,
            "reason": str(result.reason),
            "frontier": result.frontier,
            "per_shard": {str(k): v for k, v in result.per_shard.items()},
            "visited": result.shards_visited,
            "pruned": result.shards_pruned,
            "compdists": ctx.compdists,
            "page_accesses": ctx.page_accesses,
        }
    return out


def _cluster_quorum_lost(index, queries) -> dict:
    """Strict, traced queries against a shard that lost its majority: the
    survivors answer, nothing raises, reply and trace both say degraded."""
    follower = index._sets[0].followers[0].replica_id
    index.monitor.mark_down(0, follower)
    out = {}
    runs = {
        "range": lambda ctx: index.range_query(queries[3], 1, context=ctx),
        "knn": lambda ctx: index.knn_query(queries[3], 8, context=ctx),
        "count": lambda ctx: index.range_count(queries[3], 1, context=ctx),
    }
    try:
        for kind, run in runs.items():
            ctx = QueryContext(strict=True)
            ctx.trace = QueryTrace(kind)
            result = run(ctx)
            assert ctx.trace.complete == result.complete
            assert ctx.trace.reason == str(result.reason)
            out[kind] = {
                "complete": result.complete,
                "reason": str(result.reason),
                "per_shard": {
                    str(k): [v["complete"], v["reason"]]
                    for k, v in sorted(result.per_shard.items())
                },
            }
    finally:
        index.monitor.mark_up(0, follower)
    return out


def measure_clusters() -> tuple[dict, dict, dict, dict]:
    """(plain, traced, budgeted, quorum-lost) over every cluster shape."""
    plain, traced, budgeted, quorum = {}, {}, {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in CLUSTERS:
            index, queries = _build_cluster(name, workdir)
            try:
                plain[name] = _run_cluster(index, queries, traced=False)
                traced[name] = _run_cluster(index, queries, traced=True)
                if name == "sharded-3":
                    budgeted = _cluster_budgeted(index, queries)
                if name == "replicated-primary-only":
                    quorum = _cluster_quorum_lost(index, queries)
            finally:
                index.close()
    return plain, traced, budgeted, quorum


@pytest.fixture(scope="module")
def measured_clusters():
    return measure_clusters()


@pytest.mark.parametrize("name", sorted(CLUSTERS))
def test_cluster_counters_match_recorded_values(measured_clusters, name):
    plain, traced, _, _ = measured_clusters
    golden = CLUSTER_GOLDEN[name]
    assert traced[name] == golden
    assert plain[name] == {
        kind: totals[:2]
        for kind, totals in golden.items()
        if kind not in ("pruning", "served")
    }
    assert sum(golden[kind][3] for kind in ("range", "knn-incremental")) > 0


def test_round_robin_reads_reach_the_followers():
    assert len(CLUSTER_GOLDEN["replicated-round-robin"]["served"]) == 2
    assert set(CLUSTER_GOLDEN["replicated-primary-only"]["served"]) == {"r0"}


def test_cluster_budget_trips_mid_scatter_as_recorded(measured_clusters):
    budgeted = measured_clusters[2]
    assert budgeted == CLUSTER_BUDGETED
    for run in budgeted.values():
        assert not run["complete"] and len(run["per_shard"]) > 1


def test_quorum_loss_degrades_without_raising_as_recorded(measured_clusters):
    quorum = measured_clusters[3]
    assert quorum == CLUSTER_QUORUM_LOST
    for run in quorum.values():
        assert run["reason"].startswith("shard 0: replica set degraded")
        assert run["per_shard"]["0"] == [False, run["reason"]]


if __name__ == "__main__":
    _, recorded, partial = measure()
    print("GOLDEN =", json.dumps(recorded))
    print("BUDGETED =", json.dumps(partial))
    _, recorded, partial, degraded = measure_clusters()
    print("CLUSTER_GOLDEN =", json.dumps(recorded))
    print("CLUSTER_BUDGETED =", json.dumps(partial))
    print("CLUSTER_QUORUM_LOST =", json.dumps(degraded))
