"""Benchmarks for Fig. 14: SPB-tree query cost vs. cardinality.

Regenerate the full figure with
``python -m repro.experiments.fig14_scalability``.
"""

import pytest

from repro.core.spbtree import SPBTree
from repro.datasets import load_dataset
from repro.experiments.common import radius_for


@pytest.mark.parametrize("n", [400, 800, 1600])
def test_range_query_scaling(benchmark, n):
    ds = load_dataset("synthetic", size=n, num_queries=5)
    tree = SPBTree.build(ds.objects, ds.metric, d_plus=ds.d_plus, seed=7)
    q = ds.queries[0]
    radius = radius_for(ds, 8)
    benchmark(lambda: tree.range_query(q, radius))


@pytest.mark.parametrize("n", [400, 800, 1600])
def test_knn_query_scaling(benchmark, n):
    ds = load_dataset("synthetic", size=n, num_queries=5)
    tree = SPBTree.build(ds.objects, ds.metric, d_plus=ds.d_plus, seed=7)
    q = ds.queries[0]
    result = benchmark(lambda: tree.knn_query(q, 8))
    assert len(result) == 8


# ---------------------------------------------------------------------------
# Sharded-cluster series: the same workload on a ShardedIndex at 1/2/4/8
# shards vs. the single tree, reporting compdists and page accesses in
# ``extra_info`` alongside the wall-clock measurement.  On routable data the
# cluster's pruning keeps compdists within a few percent of the single tree.


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_sharded_range_query_scaling(benchmark, shards):
    from repro.cluster import ShardedIndex

    ds = load_dataset("synthetic", size=800, num_queries=5)
    single = SPBTree.build(ds.objects, ds.metric, d_plus=ds.d_plus, seed=7)
    cluster = ShardedIndex.build(
        ds.objects, ds.metric, shards=shards, d_plus=ds.d_plus, seed=7
    )
    q = ds.queries[0]
    radius = radius_for(ds, 8)
    expected = set(map(repr, single.range_query(q, radius)))
    single.reset_counters()
    single.range_query(q, radius)
    cluster.reset_counters()
    result = benchmark(lambda: cluster.range_query(q, radius))
    assert set(map(repr, result)) == expected
    benchmark.extra_info["shards"] = cluster.num_shards
    benchmark.extra_info["single_tree_compdists"] = (
        single.distance_computations
    )
    cluster.reset_counters()
    cluster.range_query(q, radius)
    benchmark.extra_info["cluster_compdists"] = (
        cluster.distance_computations
    )
    benchmark.extra_info["cluster_page_accesses"] = cluster.page_accesses


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
@pytest.mark.parametrize("strategy", ["best-first"])
def test_sharded_knn_query_scaling(benchmark, shards, strategy):
    from repro.cluster import ShardedIndex

    ds = load_dataset("synthetic", size=800, num_queries=5)
    single = SPBTree.build(ds.objects, ds.metric, d_plus=ds.d_plus, seed=7)
    cluster = ShardedIndex.build(
        ds.objects, ds.metric, shards=shards, d_plus=ds.d_plus, seed=7
    )
    q = ds.queries[0]
    expected = [d for d, _ in single.knn_query(q, 8)]
    single.reset_counters()
    single.knn_query(q, 8)
    result = benchmark(lambda: cluster.knn_query(q, 8))
    assert [d for d, _ in result] == pytest.approx(expected)
    benchmark.extra_info["shards"] = cluster.num_shards
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["single_tree_compdists"] = (
        single.distance_computations
    )
    cluster.reset_counters()
    cluster.knn_query(q, 8)
    benchmark.extra_info["cluster_compdists"] = (
        cluster.distance_computations
    )
    benchmark.extra_info["cluster_page_accesses"] = cluster.page_accesses
