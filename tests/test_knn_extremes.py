"""kNN at a query every object lies at infinity from.

A query vector of +inf (or with one +inf coordinate) maps to MIND = inf
for every node and leaf entry.  While the collector holds fewer than k
candidates its bound is inf too, and Lemma 3 may prune nothing then: an
entry at MIND inf can still be one of the k nearest.  The tree (both
traversals, with and without a context) and a 2-shard cluster must answer
what the linear scan answers — k objects at distance inf — and a finite
query must not move.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import LinearScan
from repro.cluster import ShardedIndex
from repro.core.spbtree import SPBTree
from repro.datasets import generate_color
from repro.distance import EuclideanDistance
from repro.service.context import QueryContext

N = 400


@pytest.fixture(scope="module")
def built():
    objects = list(generate_color(N, seed=5))
    metric = EuclideanDistance()
    tree = SPBTree.build(
        objects, metric, num_pivots=3, page_size=1024, cache_pages=4, seed=3
    )
    cluster = ShardedIndex.build(
        objects, metric, shards=2, num_pivots=3, page_size=1024, cache_pages=4
    )
    return objects, LinearScan(objects, metric), tree, cluster


def _queries(objects) -> list:
    dim = len(objects[0])
    one = np.array(objects[3], dtype=np.float64)
    one[2] = math.inf
    return [np.full(dim, math.inf), one, objects[3]]


def _answers(tree, cluster, query, k) -> dict:
    out = {"cluster": cluster.knn_query(query, k)}
    for traversal in ("incremental", "greedy"):
        out[traversal] = tree.knn_query(query, k, traversal=traversal)
        ctx = QueryContext()
        res = tree.knn_query(query, k, traversal=traversal, context=ctx)
        assert res.complete
        out[f"{traversal}+context"] = list(res)
    return out


@pytest.mark.parametrize("k", [1, 8, N + 5])
def test_every_index_answers_what_the_scan_answers(built, k):
    objects, scan, tree, cluster = built
    for query in _queries(objects):
        truth = [d for d, _ in scan.knn_query(query, k)]
        assert len(truth) == min(k, N)
        for name, got in _answers(tree, cluster, query, k).items():
            assert [d for d, _ in got] == truth, (name, k)


def test_an_infinite_query_takes_k_objects_at_infinity(built):
    objects, _, tree, cluster = built
    query = _queries(objects)[0]
    for got in _answers(tree, cluster, query, 8).values():
        assert [d for d, _ in got] == [math.inf] * 8
