"""Sharded SPB-tree cluster: SFC-range partitioning with scatter-gather.

The package composes everything PRs 1–4 built per-tree — atomic saves,
WALs, budgeted queries, observability — into a multi-shard system::

    from repro.cluster import ShardedIndex

    cluster = ShardedIndex.build(objects, metric, shards=4)
    hits = cluster.range_query(q, radius)          # scatters to few shards
    nn = cluster.knn_query(q, 10)                  # best-shard-first
    cluster.save("cluster_dir")
    cluster = ShardedIndex.open("cluster_dir", metric)   # WAL-backed
    cluster.rebalance()                            # crash-safe split/merge
    assert cluster.verify().ok

Range, count and kNN are one sequential scatter loop; kNN visits shards
best-first by Lemma 3's MIND under one shared bound.

A :class:`Shard` owns its members: ``shard.members`` is None or a replica
set the cluster reaches through six duck-typed methods (``reader``,
``require_writable``, ``after_write``, ``degraded``, ``rows``,
``close``).  Replication (``repro.replication``) supplies that set and
builds on the catalog's replica rows (:class:`ReplicaMeta`), the recorded
read policy (:data:`READ_POLICIES`), and the deterministic
:class:`ReplicaSelector` exported here; this package imports nothing
from it.
"""

from repro.cluster.catalog import (
    CLUSTER_FILE,
    READ_POLICIES,
    ClusterCatalog,
    ReplicaMeta,
    ShardMeta,
    load_catalog,
    save_catalog,
)
from repro.cluster.router import ReplicaSelector, Router
from repro.cluster.sharded import (
    ClusterResult,
    ClusterVerifyReport,
    Shard,
    ShardedIndex,
    ShardExhaustion,
)

__all__ = [
    "CLUSTER_FILE",
    "READ_POLICIES",
    "ClusterCatalog",
    "ClusterResult",
    "ClusterVerifyReport",
    "ReplicaMeta",
    "ReplicaSelector",
    "Router",
    "Shard",
    "ShardExhaustion",
    "ShardMeta",
    "ShardedIndex",
    "load_catalog",
    "save_catalog",
]
