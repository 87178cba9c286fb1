"""One shard's replica set: a primary and its WAL-shipping followers.

The mechanism leans on two properties the storage layer already has:

* WAL frames are **byte-identical and self-validating** (CRC32-framed,
  header-bound to a base generation), so shipping is literally copying
  the committed byte run ``[acked, committed_end)`` of the primary's log
  onto the end of the follower's log — the follower then holds the same
  valid prefix and its durable length *is* its acknowledged position.
  No separate ack file, no sequence numbers.
* WAL replay is **deterministic and compdist-free** (the SFC key is
  recorded, so the pivot mapping is never recomputed), so a follower
  applies shipped records at I/O cost, not metric cost.

Positions are only comparable within one base generation.  When the
primary's log is reborn under a new generation (a checkpoint folded it,
or a promotion bumped it), a follower's position is *stale* and the set
falls back to a full snapshot re-sync: copy the primary's directory,
reload.  That is exactly the stale-WAL rule single-tree recovery already
follows, applied across directories.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from typing import Callable, Optional

from repro.cluster.catalog import CLUSTER_FILE, ReplicaMeta
from repro.cluster.router import ReplicaSelector
from repro.core.spbtree import SPBTree
from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.replication.monitor import Monitor
from repro.service.context import QueryContext, ShardExhaustion
from repro.storage.faults import FaultInjector
from repro.storage.wal import WAL_FILE, ShipPosition, WriteAheadLog


class ReplicationError(RuntimeError):
    """Base class for replication failures."""


class PrimaryDownError(ReplicationError):
    """An operation that needs the primary found it unhealthy."""


class NoPromotableFollowerError(ReplicationError):
    """A failover found no healthy follower to promote."""


class Replica:
    """One member: a tree copy, its own WAL, and a directory to live in."""

    __slots__ = ("replica_id", "directory", "tree", "wal")

    def __init__(
        self,
        replica_id: int,
        directory: str,
        tree: SPBTree,
        wal: WriteAheadLog,
    ) -> None:
        self.replica_id = replica_id
        self.directory = directory
        self.tree = tree
        self.wal = wal

    def __repr__(self) -> str:
        return f"Replica({self.replica_id}, {self.directory!r})"


class ReplicaSet:
    """The primary and followers of one shard, plus the shipping pump.

    The primary's tree and WAL are the shard's own (owned by the
    cluster); follower trees and logs are owned here.  All methods
    assume the cluster-level locking discipline: shipping runs under the
    cluster's read side (it extends one shard's replicas), promotion and
    re-sync under the write side.

    A set is what a :class:`~repro.cluster.Shard` holds as ``members``;
    the cluster's read and write path reaches it through six methods and
    nothing else: :meth:`reader`, :meth:`require_writable`,
    :meth:`after_write`, :meth:`degraded`, :meth:`rows`, :meth:`close`.
    Followers join through :meth:`add_follower`; ``load_tree`` turns a
    member directory into its tree (the cluster's own member loader) and
    ``selector`` is the cluster's read-routing policy, shared by its sets.
    """

    def __init__(
        self,
        shard_id: int,
        cluster_dir: str,
        primary: Replica,
        load_tree: Callable[[str], SPBTree],
        selector: ReplicaSelector,
        monitor: Monitor,
        wal_fsync: bool = True,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.shard_id = shard_id
        self.cluster_dir = cluster_dir
        self.primary = primary
        self.followers: list[Replica] = []
        self.load_tree = load_tree
        self.selector = selector
        self.monitor = monitor
        self.wal_fsync = wal_fsync
        self.faults = faults
        #: Durable acknowledged position per follower id.
        self.acked: dict[int, ShipPosition] = {}
        #: Serialises shipping pumps: writer threads ship synchronously
        #: after each commit while the supervisor's catch-up pass ships
        #: from its own thread, both under the cluster's *read* side —
        #: without this, interleaved pumps ship overlapping frame ranges
        #: and trip the splice check in :meth:`_acknowledge`.
        self._ship_lock = threading.Lock()
        #: ``cluster.json``'s stat signature and this shard's generation
        #: in it, as last read by :meth:`_catalog_generation`.
        self._fence_stamp: Optional[tuple[int, int]] = None
        self._fence_generation: Optional[int] = None
        monitor.register(shard_id, primary.replica_id)

    # ----------------------------------------------------------- membership

    def add_follower(self, replica_id: int, directory: str) -> Replica:
        """Open (or create) a follower from its catalog row."""
        fdir = os.path.join(self.cluster_dir, directory)
        os.makedirs(fdir, exist_ok=True)
        tree = self.load_tree(fdir)
        wal = WriteAheadLog(
            os.path.join(fdir, WAL_FILE),
            fsync=self.wal_fsync,
            faults=self.faults,
        )
        rep = Replica(replica_id, directory, tree, wal)
        self.followers.append(rep)
        self.followers.sort(key=lambda r: r.replica_id)
        self.acked[replica_id] = wal.position
        self.monitor.register(self.shard_id, replica_id)
        return rep

    def member_ids(self) -> "list[int]":
        """Replica ids with the primary first (the selector contract)."""
        return [self.primary.replica_id] + [
            r.replica_id for r in self.followers
        ]

    def tree_for(self, replica_id: int) -> SPBTree:
        if replica_id == self.primary.replica_id:
            return self.primary.tree
        for rep in self.followers:
            if rep.replica_id == replica_id:
                return rep.tree
        raise ReplicationError(
            f"shard {self.shard_id} has no replica {replica_id}"
        )

    def healthy(self, replica_id: int) -> bool:
        return self.monitor.healthy(self.shard_id, replica_id)

    def degraded(self) -> Optional[ShardExhaustion]:
        """The reason a degraded reply carries while the set cannot honour
        the write/read contract — primary down (no writes, reads possibly
        stale) or majority lost — else None."""
        members = self.member_ids()  # primary first
        alive = [m for m in members if self.healthy(m)]
        need = len(members) // 2 + 1
        if members[0] in alive and len(alive) >= need:
            return None
        return ShardExhaustion(
            kind="quorum", limit=float(need), spent=float(len(alive)),
            shard=self.shard_id,
        )

    def lag(self, replica_id: int) -> int:
        """WAL bytes committed on the primary but not acked by ``replica_id``.

        A stale-by-generation position lags by the primary's whole log —
        the follower needs a re-sync before any byte of it counts.
        """
        if replica_id == self.primary.replica_id:
            return 0
        pwal = self.primary.tree.wal
        if pwal is None:
            return 0
        pos = self.acked.get(replica_id)
        if pos is None or pos.base_generation != pwal.position.base_generation:
            return pwal.size_in_bytes
        return max(0, pwal.size_in_bytes - pos.wal_offset)

    # ---------------------------------------------------------------- reads

    def reader(self, ctx: Optional[QueryContext] = None) -> SPBTree:
        """The member tree that serves one read, chosen by the selector.

        With a traced ``ctx`` the sub-read's trace records which member
        served it and how far behind the primary it was at choice time;
        the scatter folds these root counts into the parent's
        ``shard-<id>`` span (last visit wins for identity).
        """
        rid = self.selector.choose(
            self.shard_id, self.member_ids(), self.healthy, self.lag
        )
        if ctx is not None and ctx.trace is not None:
            counts = ctx.trace.root.counts
            counts["replica"] = f"r{rid}"
            counts["replica_lag_bytes"] = int(self.lag(rid))
        return self.tree_for(rid)

    # --------------------------------------------------------------- writes

    def require_writable(self, tree: SPBTree) -> None:
        """Writes always route to the primary: fence a stale one, refuse a
        down one.  ``tree`` is the tree about to take the write."""
        self._fence(tree)
        if not self.healthy(self.primary.replica_id):
            raise PrimaryDownError(
                f"shard {self.shard_id} primary {self.primary.replica_id} "
                "is down; writes require a promotion (shard-failover)"
            )

    def after_write(self) -> None:
        """The primary committed a write: the record goes to every healthy
        follower before the caller is acknowledged."""
        self.ship()

    def _fence(self, tree: SPBTree) -> None:
        """Generation fencing: refuse a primary whose WAL predates the
        catalog's recorded shard generation.

        A promotion folds the new primary's log into generation ``g+1``
        and commits it via the catalog rename; an ex-primary that missed
        the promotion still holds a tree and log at ``g`` and must never
        take another write.  The catalog is re-read only when its
        stat signature changes, so the steady-state cost is one
        ``os.stat`` per write.
        """
        if tree.wal is None:
            return
        gen = self._catalog_generation()
        if gen is None or tree._generation >= gen:
            # In-memory tree is at (or ahead of) the committed catalog:
            # this instance performed or observed the latest commit.
            return
        tree.wal.require_base_generation(gen)

    def _catalog_generation(self) -> Optional[int]:
        path = os.path.join(self.cluster_dir, CLUSTER_FILE)
        try:
            st = os.stat(path)
        except OSError:
            return None
        stamp = (st.st_mtime_ns, st.st_size)
        if stamp != self._fence_stamp:
            try:
                with open(path, "rb") as fh:
                    payload = json.loads(fh.read().decode("utf-8"))
                generations = {
                    int(row["id"]): int(row.get("generation", 0))
                    for row in payload.get("shards", [])
                }
            except (OSError, ValueError, KeyError):
                return None
            self._fence_generation = generations.get(self.shard_id)
            self._fence_stamp = stamp
        return self._fence_generation

    # ------------------------------------------------------------- shipping

    def ship(self) -> int:
        """Pump committed frames to every healthy follower; bytes shipped.

        Called synchronously after each primary write (so a client ack
        implies every healthy follower holds the record durably) and by
        the ``replicate`` CLI / engine task for catch-up.  Unhealthy
        followers are skipped — they re-sync or catch up on recovery.  A
        ship that fails marks its follower down before the error
        propagates, so the next write is not refused on its account.
        """
        if not self.healthy(self.primary.replica_id):
            raise PrimaryDownError(
                f"shard {self.shard_id} primary "
                f"{self.primary.replica_id} is down; promote a follower"
            )
        total = 0
        with self._ship_lock:
            for rep in self.followers:
                if not self.healthy(rep.replica_id):
                    continue
                try:
                    total += self._ship_one(rep)
                except BaseException:
                    self.monitor.mark_down(self.shard_id, rep.replica_id)
                    raise
        return total

    def _ship_one(self, rep: Replica) -> int:
        pwal = self.primary.tree.wal
        if pwal is None or pwal.header is None:
            return 0
        t0 = time.perf_counter()
        if self.is_stale(rep):
            self.resync(rep)
            return 0
        shipment = pwal.ship(rep.wal.size_in_bytes)
        if shipment.frames:
            rep.wal.append_frames(shipment)
            with rep.tree._epoch_lock.write():
                for record in shipment.records:
                    rep.tree._apply_wal_record(record)
        if self.faults is not None:
            self.faults.checkpoint(
                f"ack shard {self.shard_id} replica {rep.replica_id}"
            )
        self._acknowledge(rep, time.perf_counter() - t0, len(shipment.frames))
        return len(shipment.frames)

    def is_stale(self, rep: Replica) -> bool:
        """True when ``rep``'s position does not splice onto the primary's
        log, so only a full re-sync can bring it back."""
        pwal = self.primary.tree.wal
        if pwal is None or pwal.header is None:
            return False
        if rep.wal.header is None:
            # A follower with no log yet (seeded as a bare snapshot copy)
            # can bootstrap from byte offset 0 — but only if its snapshot
            # matches the primary's log base; otherwise the shipped
            # records would replay against the wrong tree state.
            return rep.tree._generation != pwal.header.base_generation
        # New log generation (checkpoint/promotion), or a demoted
        # ex-primary with an unshipped tail.
        return (
            rep.wal.header.base_generation != pwal.header.base_generation
            or rep.wal.size_in_bytes > pwal.size_in_bytes
        )

    def _acknowledge(self, rep: Replica, elapsed: float, nbytes: int) -> None:
        self.acked[rep.replica_id] = rep.wal.position
        if _obsreg.ENABLED:
            inst = _instruments.replication()
            inst.ack_seconds.observe(elapsed)
            if nbytes:
                inst.shipped_bytes.inc(nbytes)
            inst.lag_bytes.labels(
                shard=str(self.shard_id), replica=str(rep.replica_id)
            ).set(self.lag(rep.replica_id))

    # -------------------------------------------------------------- re-sync

    def resync(self, rep: Replica) -> None:
        """Full snapshot re-sync: copy the primary's directory wholesale.

        Used when a follower's log generation no longer matches the
        primary's (post-checkpoint, post-promotion, or a demoted
        ex-primary whose unshipped tail must be discarded).  The
        follower's previous state is dropped — every record it had was
        either folded into the snapshot being copied or was never
        acknowledged to any client.
        """
        pdir = os.path.join(self.cluster_dir, self.primary.directory)
        fdir = os.path.join(self.cluster_dir, rep.directory)
        rep.wal.close()
        if self.faults is not None:
            self.faults.checkpoint(
                f"resync shard {self.shard_id} replica {rep.replica_id}"
            )
        shutil.rmtree(fdir, ignore_errors=True)
        shutil.copytree(pdir, fdir)
        rep.tree = self.load_tree(fdir)
        rep.wal = WriteAheadLog(
            os.path.join(fdir, WAL_FILE),
            fsync=self.wal_fsync,
            faults=self.faults,
        )
        self._acknowledge(rep, 0.0, 0)
        if _obsreg.ENABLED:
            _instruments.replication().resyncs.inc()

    def resync_all(self) -> None:
        for rep in self.followers:
            self.resync(rep)

    # ------------------------------------------------------------ promotion

    def best_follower(self) -> Replica:
        """The healthy follower holding the longest valid WAL prefix.

        Rank is ``(base_generation, committed bytes)`` — a follower on a
        newer log generation strictly dominates, and within a generation
        more committed bytes means more acknowledged writes preserved.
        Every fully-acknowledged write was shipped to *all* healthy
        followers, so the longest prefix is a superset of them.
        """
        candidates = [
            rep
            for rep in self.followers
            if self.healthy(rep.replica_id)
        ]
        if not candidates:
            raise NoPromotableFollowerError(
                f"shard {self.shard_id} has no healthy follower to promote"
            )

        def rank(rep: Replica) -> tuple[int, int, int]:
            gen = (
                rep.wal.header.base_generation
                if rep.wal.header is not None
                else -1
            )
            # Deterministic tie-break: lowest replica id wins.
            return (gen, rep.wal.size_in_bytes, -rep.replica_id)

        return max(candidates, key=rank)

    def promote(self, candidate: Replica) -> Replica:
        """Swap roles after the caller has committed the promotion.

        The caller (the cluster's ``failover``) has already checkpointed the
        candidate's tree (bumping its generation past the ex-primary's
        log — the fence) and rewritten the catalog; this is the
        in-memory role swap.  Returns the demoted ex-primary, now a
        follower whose stale log will force a re-sync on its next ship.
        """
        old = self.primary
        self.followers = [
            r for r in self.followers if r.replica_id != candidate.replica_id
        ]
        old.tree.wal = None  # followers never append to their own log
        self.followers.append(old)
        self.followers.sort(key=lambda r: r.replica_id)
        self.acked[old.replica_id] = old.wal.position  # stale by generation
        self.acked.pop(candidate.replica_id, None)
        self.primary = candidate
        if _obsreg.ENABLED:
            _instruments.replication().promotions.labels(
                shard=str(self.shard_id)
            ).inc()
        return old

    # -------------------------------------------------------------- catalog

    def rows(self) -> "list[ReplicaMeta]":
        """Current membership (roles + acked positions) as catalog rows,
        so every catalog write records it."""
        out = [
            ReplicaMeta(
                replica_id=self.primary.replica_id,
                directory=self.primary.directory,
                role="primary",
            )
        ]
        for rep in self.followers:
            pos = self.acked.get(rep.replica_id, rep.wal.position)
            out.append(
                ReplicaMeta(
                    replica_id=rep.replica_id,
                    directory=rep.directory,
                    role="follower",
                    acked_generation=pos.base_generation,
                    acked_offset=pos.wal_offset,
                )
            )
        out.sort(key=lambda r: r.replica_id)
        return out

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Release the followers' WAL handles and stop tracking the
        members: a closed set (index closed, shard retired by a
        rebalance or re-pivot) must not be counted as a degraded one."""
        for rep in self.followers:
            rep.wal.close()
        for rid in self.member_ids():
            self.monitor.forget(self.shard_id, rid)
