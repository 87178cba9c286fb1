"""Bootstrap replication for a saved cluster.

:func:`replicate` seeds follower directories and writes the replica rows
into the catalog.  From then on :meth:`repro.cluster.ShardedIndex.open`
attaches a :class:`~repro.replication.ReplicaSet` to every shard that has
replica rows, which turns each shard's read/write questions into:

* **Synchronous WAL shipping** — every write commits to the primary's
  log, applies, and is shipped to every healthy follower *before* the
  call returns, so a client-acknowledged write survives losing the
  primary outright (``after_write``).
* **Replica read-routing** — each scatter sub-read is resolved through a
  deterministic :class:`ReplicaSelector` policy (``primary-only`` /
  ``round-robin`` / ``fastest-mind``; ``reader``).  In-process members
  share one interpreter lock, so a replication factor of N adds no
  measured read capacity; no benchmark workload runs a policy other
  than ``primary-only`` (ROADMAP item 8 measures them on processes).
* **Honest degradation** — when a shard's primary is down or its
  replica-set majority is lost, context-carrying queries still answer
  from the surviving members but report ``complete=False`` with a
  reason naming the shard (``degraded``).
* **Fencing** — a zombie ex-primary is refused at its own WAL
  (:class:`~repro.storage.wal.StaleWalError`) the moment it next sees
  the promoted catalog (``require_writable``).

A member is healthy unless it is marked down — by the kill switch, a
supervisor quarantine, or a ship to it that failed; time plays no part.
"""

from __future__ import annotations

import os
import shutil
from typing import Optional

from repro.cluster.catalog import (
    READ_POLICIES,
    ReplicaMeta,
    load_catalog,
    save_catalog,
)
from repro.cluster.sharded import ShardedIndex
from repro.distance.base import Metric
from repro.replication.replicaset import ReplicationError
from repro.storage.wal import WAL_FILE, scan_wal


class ReplicatedIndex:
    """A cluster has one class, :class:`ShardedIndex`.  This name stays
    only because ``bench/workloads.py`` still opens clusters through it
    with a ``heartbeat_timeout`` that no longer exists; it is the one
    place that accepts and drops that keyword, and it goes with ROADMAP
    item 1(g), once that file calls ``ShardedIndex.open`` itself."""

    @staticmethod
    def open(
        directory: str,
        metric: Metric,
        wal_fsync: bool = True,
        heartbeat_timeout: Optional[float] = None,
    ) -> ShardedIndex:
        del heartbeat_timeout
        return ShardedIndex.open(directory, metric, wal_fsync=wal_fsync)


def replicate(
    directory: str,
    metric: Metric,
    replicas: int = 2,
    read_policy: str = "primary-only",
) -> "list[int]":
    """Give a saved cluster's unreplicated shards followers.

    For every shard without replica rows, ``replicas`` follower
    directories ``<shard-dir>.r<k>`` are seeded as byte copies of the
    primary's directory (tree generations, page files, and WAL — so each
    follower starts at the primary's exact position) and the catalog is
    rewritten with the replica membership and ``read_policy``.  Returns the
    shard ids that were replicated.  A shard that already has replica rows
    is left as it is — membership changes are a failover/resync concern —
    so this fills the shards a rebalance made; it is refused when every
    shard already has them, or when ``replicas`` is not the follower count
    the replicated shards have.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if read_policy not in READ_POLICIES:
        raise ValueError(
            f"unknown read policy {read_policy!r}; "
            f"expected one of {READ_POLICIES}"
        )
    cat = load_catalog(directory)
    if cat.metric_name != metric.name:
        raise ValueError(
            f"cluster was built with metric {cat.metric_name!r}, "
            f"got {metric.name!r}"
        )
    replicated = [meta for meta in cat.shards if meta.replicas]
    if replicated and len(replicated) == len(cat.shards):
        meta = replicated[0]
        raise ReplicationError(
            f"shard {meta.shard_id} already has "
            f"{len(meta.replicas)} replicas"
        )
    for meta in replicated:
        if len(meta.replicas) - 1 != replicas:
            raise ReplicationError(
                f"shard {meta.shard_id} is replicated with "
                f"replicas={len(meta.replicas) - 1}, not {replicas}"
            )
    done = []
    for meta in cat.shards:
        if meta.replicas:
            continue
        pdir = os.path.join(directory, meta.directory)
        os.makedirs(pdir, exist_ok=True)
        rows = [ReplicaMeta(0, meta.directory, "primary")]
        for k in range(1, replicas + 1):
            fname = f"{meta.directory}.r{k}"
            fdir = os.path.join(directory, fname)
            shutil.rmtree(fdir, ignore_errors=True)
            shutil.copytree(pdir, fdir)
            header, _, valid_end, _ = scan_wal(os.path.join(fdir, WAL_FILE))
            gen = header.base_generation if header is not None else -1
            rows.append(ReplicaMeta(k, fname, "follower", gen, valid_end))
        meta.replicas = rows
        done.append(meta.shard_id)
    cat.read_policy = read_policy
    save_catalog(directory, cat)
    return done
