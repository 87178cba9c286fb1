"""Replication & failover: per-shard WAL shipping, replica read-routing,
and crash-proven promotion.

Public surface:

* :func:`replicate` — bootstrap follower directories + catalog rows for
  a saved cluster.  :meth:`~repro.cluster.ShardedIndex.open` then
  attaches a replica set to every shard with replica rows; failover,
  shipping, health, status and the re-syncing checkpoint are
  :class:`~repro.cluster.ShardedIndex` methods too.
* :class:`ReplicaSet` / :class:`Replica` — one shard's membership and
  the shipping pump; the set is what a :class:`~repro.cluster.Shard`
  holds as ``members`` (read routing, fencing, synchronous shipping,
  the quorum reason).
* :class:`Monitor` — liveness: a member is healthy unless marked down.
* Errors: :class:`ReplicationError`, :class:`PrimaryDownError`,
  :class:`NoPromotableFollowerError` (plus the storage layer's
  :class:`~repro.storage.wal.StaleWalError` for fenced writers).
"""

from repro.replication.cluster import replicate
from repro.replication.monitor import Monitor
from repro.replication.replicaset import (
    NoPromotableFollowerError,
    PrimaryDownError,
    Replica,
    ReplicaSet,
    ReplicationError,
)

__all__ = [
    "Monitor",
    "NoPromotableFollowerError",
    "PrimaryDownError",
    "Replica",
    "ReplicaSet",
    "ReplicationError",
    "replicate",
]
