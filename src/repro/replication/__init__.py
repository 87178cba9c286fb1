"""Replication & failover: per-shard WAL shipping, replica read-routing,
and crash-proven promotion.

Public surface:

* :func:`replicate` — bootstrap follower directories + catalog rows for
  a saved cluster.
* :class:`ReplicatedIndex` — a :class:`~repro.cluster.ShardedIndex`
  whose shards hold replica sets.  It adds replication *administration*
  (open, failover, ship, health, status, checkpoint); reads and writes
  are the base class's, which asks each shard's set.
* :class:`ReplicaSet` / :class:`Replica` — one shard's membership and
  the shipping pump; the set is what a :class:`~repro.cluster.Shard`
  holds as ``members`` (read routing, fencing, synchronous shipping,
  the quorum reason).
* :class:`Monitor` — heartbeat liveness with an injectable clock.
* Errors: :class:`ReplicationError`, :class:`PrimaryDownError`,
  :class:`NoPromotableFollowerError` (plus the storage layer's
  :class:`~repro.storage.wal.StaleWalError` for fenced writers).
"""

from repro.replication.cluster import ReplicatedIndex, replicate
from repro.replication.monitor import DEFAULT_TIMEOUT, Monitor
from repro.replication.replicaset import (
    NoPromotableFollowerError,
    PrimaryDownError,
    Replica,
    ReplicaSet,
    ReplicationError,
)

__all__ = [
    "DEFAULT_TIMEOUT",
    "Monitor",
    "NoPromotableFollowerError",
    "PrimaryDownError",
    "Replica",
    "ReplicaSet",
    "ReplicatedIndex",
    "ReplicationError",
    "replicate",
]
