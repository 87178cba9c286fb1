"""A sharded SPB-tree where every shard is a replica set.

The cluster's read and write path is :class:`ShardedIndex`'s, unchanged:
a :class:`~repro.cluster.Shard` owns its members, and the base class asks
the shard who serves a read, whether a write may proceed, where a
committed write goes next and whether the shard is degraded.  Opening a
cluster as a :class:`ReplicatedIndex` attaches a
:class:`~repro.replication.ReplicaSet` to every shard that has replica
rows, which is what turns those questions into:

* **Synchronous WAL shipping** — every write commits to the primary's
  log, applies, and is shipped to every healthy follower *before* the
  call returns, so a client-acknowledged write survives losing the
  primary outright (``after_write``).
* **Replica read-routing** — each scatter sub-read is resolved through a
  deterministic :class:`ReplicaSelector` policy (``primary-only`` /
  ``round-robin`` / ``fastest-mind``), so a replication factor of N
  multiplies read capacity (``reader``).
* **Honest degradation** — when a shard's primary is down or its
  replica-set majority is lost, context-carrying queries still answer
  from the surviving members but report ``complete=False`` with a
  reason naming the shard (``degraded``).
* **Fencing** — a zombie ex-primary is refused at its own WAL
  (:class:`~repro.storage.wal.StaleWalError`) the moment it next sees
  the promoted catalog (``require_writable``).

What this class itself adds is replication *administration*: opening the
sets, pumping and probing them, and **crash-proven promotion** —
:meth:`failover` picks the healthy follower with the longest valid WAL
prefix, folds its log into a new generation (the *fence*: the generation
bump outdates the ex-primary's log), and commits the role swap with the
one atomic catalog rename every other structural change already uses.

``reader`` and ``after_write`` are also the two places a member shows it
is alive.  Today only ``after_write`` beats (and ship acknowledgements),
so a read-only index with no supervisor ages out after
``heartbeat_timeout``; a remote member will feed beats from both.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Optional

from repro.cluster.catalog import (
    READ_POLICIES,
    ReplicaMeta,
    load_catalog,
    save_catalog,
)
from repro.cluster.router import ReplicaSelector
from repro.cluster.sharded import ShardExhaustion, ShardedIndex
from repro.distance.base import Metric
from repro.replication.monitor import DEFAULT_TIMEOUT, Monitor
from repro.replication.replicaset import Replica, ReplicaSet, ReplicationError
from repro.storage.faults import FaultInjector
from repro.storage.wal import WAL_FILE, scan_wal


def replicate(
    directory: str,
    metric: Metric,
    replicas: int = 2,
    read_policy: str = "primary-only",
) -> "list[int]":
    """Convert a saved (unreplicated) cluster into a replicated one.

    For every shard, ``replicas`` follower directories
    ``<shard-dir>.r<k>`` are seeded as byte copies of the primary's
    directory (tree generations, page files, and WAL — so each follower
    starts at the primary's exact position) and the catalog is rewritten
    with the replica membership and ``read_policy``.  Returns the shard
    ids that were replicated.  Idempotence: a shard that already has
    replica rows is refused — membership changes are a failover/resync
    concern, not a re-run of this bootstrap.
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
    done = []
    for meta in cat.shards:
        if meta.replicas:
            raise ReplicationError(
                f"shard {meta.shard_id} already has "
                f"{len(meta.replicas)} replicas"
            )
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


class ReplicatedIndex(ShardedIndex):
    """A :class:`ShardedIndex` whose shards are primary+follower sets."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.monitor: Monitor = Monitor()
        self._selector = ReplicaSelector("primary-only")
        #: Attached self-healing loop, if any (set by ``Supervisor``).
        self.supervisor: Optional[Any] = None

    @property
    def _sets(self) -> dict[int, ReplicaSet]:
        """``shard_id -> members`` of every replicated shard: a view
        derived from the shards, which own their sets."""
        return {
            s.shard_id: s.members for s in self.shards if s.members is not None
        }

    # --------------------------------------------------------------- opening

    @classmethod
    def open(
        cls,
        directory: str,
        metric: Metric,
        wal_fsync: bool = True,
        faults: Optional[FaultInjector] = None,
        heartbeat_timeout: float = DEFAULT_TIMEOUT,
        clock: Optional[Any] = None,
    ) -> "ReplicatedIndex":
        """Reopen a replicated cluster for writing.

        Follower trees are loaded from their own directories (their logs
        replaying exactly as a primary's would) and every member starts
        healthy; pass ``clock`` to drive heartbeats deterministically.
        """
        self = super().open(directory, metric, wal_fsync=wal_fsync, faults=faults)
        self.monitor = Monitor(timeout=heartbeat_timeout, clock=clock)
        self._selector = ReplicaSelector(self._read_policy)
        for shard in self.shards:
            rows = shard.rows()
            if not rows:
                continue
            primary_row = next(r for r in rows if r.role == "primary")
            primary = Replica(
                primary_row.replica_id, shard.dirname, shard.tree, shard.tree.wal
            )
            rset = ReplicaSet(
                shard.shard_id,
                directory,
                primary,
                [],
                metric,
                self._empty_tree,
                self.monitor,
                wal_fsync=wal_fsync,
                faults=faults,
            )
            rset.selector = self._selector
            for row in rows:
                if row.role == "follower":
                    rset.add_follower(row.replica_id, row.directory)
            # Catch-up pump: a freshly seeded follower has no log of its
            # own yet (``save`` folds the WAL into the snapshot), so one
            # ship brings every member to lag zero before the first write.
            rset.ship()
            shard.members = rset
        return self

    def degraded_shards(self) -> dict[int, ShardExhaustion]:
        """Shards whose replica set cannot currently honour the write/read
        contract: primary down (no writes, reads possibly stale) or
        majority lost.  Keyed by shard id, valued by the reason a
        degraded result carries."""
        out = {}
        for shard in self.shards:
            lost = shard.degraded()
            if lost is not None:
                out[shard.shard_id] = lost
        return out

    # -------------------------------------------------------------- shipping

    def ship_all(self, request_id: Optional[str] = None) -> dict[int, int]:
        """Pump every replicated shard once; ``shard_id -> bytes shipped``.
        Shards with a down primary are skipped (they need a promotion,
        not a pump).  ``request_id`` is accepted so engine-submitted ship
        tasks stay correlatable; shipping itself records nothing."""
        del request_id  # identity rides on the engine task's context
        with self._lock.read():
            out = {}
            for sid, rset in sorted(self._sets.items()):
                if not rset.healthy(rset.primary.replica_id):
                    continue
                out[sid] = rset.ship()
            return out

    def check_health(self) -> dict[int, "list[int]"]:
        """Probe every replica set; ``shard_id -> unhealthy replica ids``.
        Misses feed the per-shard heartbeat-miss counter."""
        return {
            sid: self.monitor.check(sid, rset.member_ids())
            for sid, rset in sorted(self._sets.items())
        }

    def replication_status(self) -> dict[int, dict]:
        """Operator-facing snapshot: roles, health, lag per member, and
        each shard's rollup of them (``primary_healthy``,
        ``healthy_members``, ``max_lag_bytes``)."""
        out: dict[int, dict] = {}
        degraded = self.degraded_shards()
        for sid, rset in sorted(self._sets.items()):
            primary = rset.primary.replica_id
            members = [
                {
                    "replica": rid,
                    "role": "primary" if rid == primary else "follower",
                    "healthy": rset.healthy(rid),
                    "lag_bytes": rset.lag(rid),
                }
                for rid in rset.member_ids()
            ]
            out[sid] = {
                "primary": primary,
                "members": members,
                "primary_healthy": any(
                    m["healthy"] for m in members if m["role"] == "primary"
                ),
                "healthy_members": sum(m["healthy"] for m in members),
                "max_lag_bytes": max(
                    (m["lag_bytes"] for m in members), default=0
                ),
                "degraded": sid in degraded,
            }
        return out

    # ------------------------------------------------------------- promotion

    def failover(
        self,
        shard_id: int,
        faults: Optional[FaultInjector] = None,
        request_id: Optional[str] = None,
    ) -> dict:
        """Promote the best follower of ``shard_id`` to primary.

        The sequence is crash-proven end to end:

        1. pick the healthy follower with the longest valid WAL prefix
           (every fully-acknowledged write is on it);
        2. fold its log into a new generation in *its own* directory —
           pure preparation: the old catalog still names the old
           primary, so a crash here changes nothing visible;
        3. rewrite the cluster catalog naming the follower's directory
           as the shard's — the atomic rename is the single commit
           point.  Before it: the old membership.  After it: the new.
           Never a hybrid.

        The generation bump in step 2 is the fence — the ex-primary's
        log is now stale, so when it returns it re-syncs as a follower
        and can never take a write against the promoted catalog.
        """
        if faults is None:
            faults = self._faults
        with self._lock.write():
            rset = self._sets.get(shard_id)
            if rset is None:
                raise ReplicationError(
                    f"shard {shard_id} is not replicated; nothing to fail over"
                )
            shard = self._shard_by_id(shard_id)
            candidate = rset.best_follower()
            if candidate.tree.wal is None:
                candidate.tree.begin_logging(candidate.wal)
            assert self.directory is not None
            generation = candidate.tree.checkpoint(
                os.path.join(self.directory, candidate.directory),
                faults=faults,
            )
            old = rset.promote(candidate)
            shard.tree = candidate.tree
            shard.dirname = candidate.directory
            self.router.invalidate(shard_id)  # new tree: drop the cached MBB
            self._write_catalog(faults)  # the commit point
            self._gauge_shard(shard)
            out = {
                "shard": shard_id,
                "promoted": candidate.replica_id,
                "demoted": old.replica_id,
                "generation": generation,
            }
            if request_id is not None:
                # Correlate an engine/CLI-driven promotion with the request
                # that asked for it (supervisor journal detail, flight dump).
                out["request_id"] = request_id
            return out

    # ------------------------------------------------------------ structural

    def checkpoint(self, faults: Optional[FaultInjector] = None) -> None:
        """Ship first, fold every primary's WAL, then re-sync followers.

        Folding starts a new log generation, which makes every
        follower's position stale by design; the re-sync pass re-seeds
        them from the fresh snapshots and a second catalog write records
        the new positions.  A crash between the two leaves stale
        (generation-mismatched) acked rows, which load ignores — the
        followers simply re-sync on their next ship.
        """
        sets = list(self._sets.values())  # a checkpoint swaps no shard
        with self._lock.read():
            for rset in sets:
                if rset.healthy(rset.primary.replica_id):
                    rset.ship()
        super().checkpoint(faults)
        if not sets:
            return
        with self._lock.write():
            for rset in sets:
                rset.resync_all()
            self._write_catalog(faults if faults is not None else self._faults)
