"""A sharded SPB-tree: N full index stacks behind one logical interface.

``ShardedIndex`` partitions one dataset by **disjoint SFC key ranges** —
the property PAPER.md §4 gives us for free: the RAF already stores objects
in ascending SFC order, so cutting the key space at N−1 points yields N
shards that are contiguous runs of the same linear order, and therefore
disjoint regions of pivot space.  Each shard is a complete single-tree
stack (page file + buffer pool + RAF + B+-tree + WAL) with its own
generation; the cluster adds

* a :class:`Router` (shard-level Lemma 1/2/3 pruning over per-shard MBBs),
* an atomically-committed catalog (:mod:`repro.cluster.catalog`),
* one scatter loop (:meth:`ShardedIndex._scatter`) behind range, count and
  kNN — map the query once, plan, visit the planned shards one after the
  other, fold — that splits a :class:`QueryContext` budget into per-shard
  sub-contexts and merges degraded partials honestly; a context-free call
  runs the same loop with no context, and
* crash-safe online rebalancing (split a hot shard at an SFC midpoint,
  merge cold neighbours) committed by one catalog rename.

A :class:`Shard` owns its members.  Unreplicated, its tree is the only
one; replicated, ``shard.members`` is a replica set and the read and
write path asks the shard six things — ``reader(ctx)``,
``require_writable()``, ``after_write()``, ``degraded()``, ``rows()``,
``close()`` — and never looks inside.  :meth:`ShardedIndex.open`, the
one writable open, attaches a :class:`repro.replication.ReplicaSet` to
every shard whose catalog row has replicas, so every write ships before
it is acknowledged.  Replication administration (failover, shipping,
health, status, the re-syncing checkpoint) is the cluster's own and
answers empty on an unreplicated cluster.  :mod:`repro.replication`
builds on this module, so ``open`` and ``failover`` import it when they
run.

Shards are visited sequentially, in plan order.  kNN is best-first by
Lemma 3's MIND with one shared :class:`KnnCollector`, so the k-th-distance
bound found in early shards prunes later ones outright; a scatter that
ran shards side by side would forfeit exactly that, and in one process
the GIL gives nothing back for it.

Consistency model: mutations take the cluster's read side (they touch one
shard, whose own EpochLock serialises them) while structural changes
(rebalance, checkpoint, save) take the write side.  A concurrent query
sees each shard at some epoch of its own — per-shard snapshot
consistency, not a cluster-wide snapshot.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

from repro.cluster.catalog import (
    ClusterCatalog,
    ReplicaMeta,
    ShardMeta,
    _serializer_named,
    load_catalog,
    save_catalog,
)
from repro.cluster.router import ReplicaSelector, Router
from repro.core.mapping import PivotSpace
from repro.core.persist import load_tree, save_tree
from repro.core.pivots import select_pivots
from repro.core.spbtree import _CURVES, SPBTree
from repro.distance.base import CountingDistance, Metric
from repro.storage.faults import FaultInjector
from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.obs.trace import QueryTrace
from repro.service.context import (
    EpochLock,
    ExhaustionReason,
    KnnCollector,
    QueryContext,
    QueryResult,
    ShardExhaustion,
    _Exhausted,
)
from repro.storage.pagefile import DEFAULT_PAGE_SIZE
from repro.storage.serializers import Serializer, serializer_for
from repro.storage.wal import WAL_FILE, WriteAheadLog, scan_wal

if TYPE_CHECKING:
    from repro.replication import ReplicaSet


def _name_shard(reason: ExhaustionReason, shard_id: int) -> ShardExhaustion:
    return ShardExhaustion(
        kind=reason.kind, limit=reason.limit, spent=reason.spent, shard=shard_id
    )


class Shard:
    """One key range of the cluster: its (primary) tree and its members.

    ``members`` is None while ``tree`` is the shard's only member, else the
    shard's replica set: any object with ``reader(ctx)``,
    ``require_writable(tree)``, ``after_write()``, ``degraded()``,
    ``rows()`` and ``close()`` (:class:`repro.replication.ReplicaSet`
    today).  The cluster asks the shard and never looks inside.
    ``replicas`` holds the catalog's replica rows of a shard opened without
    its members, so a plain :class:`ShardedIndex` carries them through
    save/load untouched.
    """

    __slots__ = (
        "shard_id", "key_lo", "key_hi", "tree", "dirname", "members", "replicas",
    )

    def __init__(
        self,
        shard_id: int,
        key_lo: int,
        key_hi: int,
        tree: SPBTree,
        dirname: Optional[str] = None,
    ) -> None:
        self.shard_id = shard_id
        self.key_lo = key_lo
        self.key_hi = key_hi
        self.tree = tree
        self.dirname = dirname if dirname is not None else f"shard-{shard_id}"
        self.members: Optional[Any] = None
        self.replicas: list[ReplicaMeta] = []

    def reader(self, ctx: Optional[QueryContext] = None) -> SPBTree:
        """The tree that serves one read: a member picked under the read
        policy (and named on ``ctx``'s trace), or the shard's own."""
        return self.tree if self.members is None else self.members.reader(ctx)

    def require_writable(self) -> None:
        """Refuse a write the shard's primary must not take (fenced, down)."""
        if self.members is not None:
            self.members.require_writable(self.tree)

    def after_write(self) -> None:
        """A write committed on the primary: carry it to the other members."""
        if self.members is not None:
            self.members.after_write()

    def degraded(self) -> Optional[ShardExhaustion]:
        """The quorum reason when the shard's members cannot honour the
        read/write contract right now, else None."""
        return None if self.members is None else self.members.degraded()

    def rows(self) -> list[ReplicaMeta]:
        """The shard's replica membership as catalog rows."""
        return self.replicas if self.members is None else self.members.rows()

    def close(self) -> None:
        """Release the WAL handle, and the members with theirs."""
        if self.tree.wal is not None:
            self.tree.wal.close()
            self.tree.wal = None
        if self.members is not None:
            self.members.close()

    def __repr__(self) -> str:
        return (
            f"Shard({self.shard_id}, [{self.key_lo}, {self.key_hi}), "
            f"{self.tree.object_count} objects)"
        )


def _stream_all(tree: SPBTree, sub: Optional[QueryContext]) -> "list | QueryResult":
    """Lemma 2 at shard scale: the whole RAF, zero distance computations."""
    items: list[Any] = []

    def stream() -> None:
        for obj in tree.objects():
            if sub is not None:
                sub.checkpoint()
            items.append(obj)

    complete, reason, elapsed = tree.read_frame(sub, stream)
    if sub is None:
        return items
    return QueryResult(
        items,
        complete=complete,
        reason=reason,
        stats=sub.stats(elapsed, len(items)),
    )


class ClusterResult(QueryResult):
    """A :class:`QueryResult` annotated with the scatter that produced it."""

    __slots__ = ("per_shard", "shards_visited", "shards_pruned")

    def __init__(
        self,
        items: list,
        complete: bool = True,
        reason: Optional[ExhaustionReason] = None,
        count: Optional[int] = None,
        stats: Optional[Any] = None,
        frontier: Optional[float] = None,
        per_shard: Optional[dict] = None,
        shards_visited: int = 0,
        shards_pruned: int = 0,
    ) -> None:
        super().__init__(
            items,
            complete=complete,
            reason=reason,
            count=count,
            stats=stats,
            frontier=frontier,
        )
        #: ``shard_id -> {"complete", "reason", "compdists", "page_accesses"}``
        self.per_shard = per_shard if per_shard is not None else {}
        self.shards_visited = shards_visited
        self.shards_pruned = shards_pruned


@dataclass
class ClusterVerifyReport:
    """Outcome of :meth:`ShardedIndex.verify`."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    shards_checked: int = 0
    objects_checked: int = 0
    shard_reports: dict[int, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAILED ({len(self.errors)} errors)"
        lines = [
            f"cluster verify: {status}",
            f"  shards checked:  {self.shards_checked}",
            f"  objects checked: {self.objects_checked}",
        ]
        for err in self.errors:
            lines.append(f"  error: {err}")
        for warn in self.warnings:
            lines.append(f"  warning: {warn}")
        return "\n".join(lines)


class ShardedIndex:
    """One logical metric index served by N SPB-tree shards."""

    def __init__(
        self,
        metric: Metric,
        pivots: Sequence[Any],
        d_plus: float,
        curve: str = "hilbert",
        delta: Optional[float] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 32,
        serializer: Optional[Serializer] = None,
        checksums: bool = False,
    ) -> None:
        #: Cluster-level distance counter: pays the |P| query-mapping
        #: distances once per query, regardless of how many shards run.
        self.distance = CountingDistance(metric)
        self.space = PivotSpace(pivots, self.distance, d_plus, delta)
        try:
            curve_cls = _CURVES[curve]
        except KeyError:
            raise ValueError(
                f"unknown curve {curve!r}; available: {sorted(_CURVES)}"
            ) from None
        self.curve = curve_cls(self.space.num_pivots, self.space.bits)
        self._curve_name = curve
        self._serializer = serializer
        self._page_size = page_size
        self._cache_pages = cache_pages
        self._checksums = checksums
        self.shards: list[Shard] = []
        self.router = Router(self.space, self.curve)
        #: Readers = queries and single-shard mutations; writer = structural
        #: changes (rebalance, checkpoint, save) that swap the shard list.
        self._lock = EpochLock()
        self.directory: Optional[str] = None
        self._wal_fsync = True
        self._logging = False
        self._faults: Optional[FaultInjector] = None
        self.next_shard_id = 0
        #: Read routing under the catalog's recorded policy, shared by
        #: every replica set so an operator can ask it directly.
        self._selector = ReplicaSelector("primary-only")
        #: Attached self-healing loop, if any (set by ``Supervisor``).
        self.supervisor: Optional[Any] = None

    # --------------------------------------------------------- construction

    @classmethod
    def build(
        cls,
        objects: Sequence[Any],
        metric: Metric,
        shards: int = 4,
        num_pivots: int = 5,
        curve: str = "hilbert",
        pivots: Optional[Sequence[Any]] = None,
        delta: Optional[float] = None,
        d_plus: Optional[float] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 32,
        seed: int = 7,
        checksums: bool = False,
    ) -> "ShardedIndex":
        """Bulk-load a cluster: one pivot table, one |O| × |P| mapping pass,
        then the sorted keyed objects cut at object-count quantiles of the
        SFC order (so shards start balanced by population, not key span).
        """
        if len(objects) == 0:
            raise ValueError("cannot build an index over an empty dataset")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if pivots is None:
            pivots = select_pivots(objects, num_pivots, metric, seed=seed)
        if d_plus is None:
            d_plus = metric.max_distance(objects)
        self = cls(
            metric,
            pivots,
            d_plus,
            curve=curve,
            delta=delta,
            page_size=page_size,
            cache_pages=cache_pages,
            serializer=serializer_for(objects[0]),
            checksums=checksums,
        )
        self.shards = self._cut_into_shards(objects, shards)
        self.router.reset(self.shards)
        self._gauge_all()
        return self

    def _cut_into_shards(self, objects: Sequence[Any], count: int) -> list[Shard]:
        """Key ``objects`` under the current pivot space and curve (one
        |O| × |P| mapping pass), sort, and cut the run into at most
        ``count`` fresh shards at population quantiles."""
        phis = self.space.phi_many(objects)
        keys = self.curve.encode_many(self.space.grid_from_phi_many(phis))
        keyed = sorted(zip(keys, objects), key=lambda pair: pair[0])
        bounds = self._split_bounds(keyed, count)
        shards: list[Shard] = []
        start = 0
        for i, lo in enumerate(bounds):
            hi = bounds[i + 1] if i + 1 < len(bounds) else self.curve.max_value
            end = start
            while end < len(keyed) and keyed[end][0] < hi:
                end += 1
            tree = self._tree_from_items(keyed[start:end])
            shards.append(Shard(self.next_shard_id, lo, hi, tree))
            self.next_shard_id += 1
            start = end
        return shards

    @staticmethod
    def _split_bounds(
        keyed: Sequence[tuple[int, Any]], shards: int
    ) -> list[int]:
        """Strictly increasing range starts (first always 0), at most
        ``shards`` of them, cutting ``keyed`` near population quantiles.
        Duplicate keys never straddle a boundary."""
        n = len(keyed)
        bounds = [0]
        start = 0
        for i in range(1, shards):
            j = (i * n) // shards
            if j <= start:
                continue
            if keyed[j][0] <= keyed[start][0]:
                j = start + 1
                while j < n and keyed[j][0] <= keyed[start][0]:
                    j += 1
                if j >= n:
                    break
            bounds.append(keyed[j][0])
            start = j
        return bounds

    def _tree_from_items(self, items: Sequence[tuple[int, Any]]) -> SPBTree:
        return SPBTree.build_keyed(
            items,
            self.distance.metric,
            self.space.pivots,
            self.space.d_plus,
            curve=self._curve_name,
            delta=self.space.delta,
            page_size=self._page_size,
            cache_pages=self._cache_pages,
            serializer=self._serializer,
            checksums=self._checksums,
        )

    def _load_member(self, directory: str, replay_wal: bool = True) -> SPBTree:
        """One member's tree from its directory: its snapshot plus its live
        log, or — never checkpointed, so no page files — a fresh empty stack
        with the cluster's parameters plus the log's generation-0 records.
        A shard's primary and every follower load through here."""
        if os.path.exists(os.path.join(directory, "spbtree.json")):
            return load_tree(directory, self.distance.metric, replay_wal=replay_wal)
        tree = self._tree_from_items([])
        if replay_wal:
            header, records, _, _ = scan_wal(os.path.join(directory, WAL_FILE))
            if header is not None and header.base_generation == tree._generation:
                for record in records:
                    tree._apply_wal_record(record)
        return tree

    # ---------------------------------------------------------- persistence

    @classmethod
    def load(
        cls, directory: str, metric: Metric, replay_wal: bool = True
    ) -> "ShardedIndex":
        """Reopen a cluster read-only from its catalog."""
        cat = load_catalog(directory)
        if cat.metric_name != metric.name:
            raise ValueError(
                f"cluster was built with metric {cat.metric_name!r}, "
                f"got {metric.name!r}"
            )
        self = cls(
            metric,
            cat.pivots,
            cat.d_plus,
            curve=cat.curve,
            delta=cat.delta,
            page_size=cat.page_size,
            cache_pages=cat.cache_pages,
            serializer=_serializer_named(cat.serializer),
            checksums=cat.checksums,
        )
        self.next_shard_id = cat.next_shard_id
        for meta in cat.shards:
            tree = self._load_member(
                os.path.join(directory, meta.directory), replay_wal
            )
            shard = Shard(
                meta.shard_id, meta.key_lo, meta.key_hi, tree, meta.directory
            )
            shard.replicas = list(meta.replicas)
            self.shards.append(shard)
        self.router.reset(self.shards)
        self.directory = directory
        self._selector = ReplicaSelector(cat.read_policy)
        self._cleanup_unreferenced()
        self._gauge_all()
        return self

    @classmethod
    def open(
        cls,
        directory: str,
        metric: Metric,
        wal_fsync: bool = True,
        faults: Optional[FaultInjector] = None,
    ) -> "ShardedIndex":
        """Reopen for writing: load, attach a WAL to every shard, and a
        replica set to every shard whose catalog row has replicas.

        Follower trees load from their own directories (their logs
        replaying exactly as a primary's would) and every member starts
        healthy; it stays so until something marks it down.
        """
        from repro.replication import Replica, ReplicaSet

        self = cls.load(directory, metric)
        self._wal_fsync = wal_fsync
        self._faults = faults
        for shard in self.shards:
            self._attach_wal(shard)
        self._logging = True
        for shard in self.shards:
            if not shard.replicas:
                continue
            row = next(r for r in shard.replicas if r.role == "primary")
            rset = ReplicaSet(
                shard.shard_id,
                directory,
                Replica(row.replica_id, shard.dirname, shard.tree, shard.tree.wal),
                self._load_member,
                self._selector,
                wal_fsync=wal_fsync,
                faults=faults,
            )
            for row in shard.replicas:
                if row.role == "follower":
                    rset.add_follower(row.replica_id, row.directory)
            # Catch-up pump: a freshly seeded follower has no log of its
            # own yet (``save`` folds the WAL into the snapshot), so one
            # ship brings every member to lag zero before the first write.
            rset.ship()
            shard.members = rset
        return self

    def save(
        self, directory: str, faults: Optional[FaultInjector] = None
    ) -> None:
        """Persist every shard, then commit the cluster catalog."""
        os.makedirs(directory, exist_ok=True)
        with self._lock.write():
            for shard in self.shards:
                self._save_shard(shard, directory, faults)
            self.directory = directory
            self._write_catalog(faults)

    @staticmethod
    def _save_shard(
        shard: Shard, directory: str, faults: Optional[FaultInjector]
    ) -> None:
        if shard.tree.raf is not None:  # never written: catalog row only
            shard.tree._generation = save_tree(
                shard.tree, os.path.join(directory, shard.dirname), faults
            )

    def checkpoint(self, faults: Optional[FaultInjector] = None) -> None:
        """Ship first, fold every shard's WAL into a new generation, refresh
        the catalog, then re-sync the healthy followers (a down one is
        rebuilt by the supervisor or on its first ship after ``mark_up``).

        A crash between the fold and the catalog leaves stale (not wrong)
        cluster rows: shard catalogs stay authoritative for loading.
        Folding starts a new log generation, which makes every follower's
        position stale by design; the re-sync pass re-seeds them from the
        fresh snapshots and a second catalog write records the new
        positions.  A crash between the two leaves stale
        (generation-mismatched) acked rows, which load ignores — the
        followers simply re-sync on their next ship.
        """
        if self.directory is None:
            raise ValueError("cluster has no directory; save() it first")
        sets = list(self._sets.values())  # a checkpoint swaps no shard
        with self._lock.read():
            for rset in sets:
                if rset.healthy(rset.primary.replica_id):
                    rset.ship()
        with self._lock.write():
            for shard in self.shards:
                if shard.tree.wal is None or shard.tree.raf is None:
                    continue
                shard.tree.checkpoint(
                    os.path.join(self.directory, shard.dirname), faults=faults
                )
            self._write_catalog(faults)
            if not sets:
                return
            for rset in sets:
                rset.resync_all()
            self._write_catalog(faults if faults is not None else self._faults)

    def close(self) -> None:
        """Release every shard's WAL file handles."""
        for shard in self.shards:
            shard.close()
        self._logging = False

    def _attach_wal(self, shard: Shard) -> None:
        assert self.directory is not None
        sdir = os.path.join(self.directory, shard.dirname)
        os.makedirs(sdir, exist_ok=True)
        wal = WriteAheadLog(
            os.path.join(sdir, WAL_FILE),
            fsync=self._wal_fsync,
            faults=self._faults,
        )
        shard.tree.begin_logging(wal)

    def _write_catalog(self, faults: Optional[FaultInjector]) -> None:
        assert self.directory is not None
        save_catalog(self.directory, self._catalog(), faults)

    def _catalog(self, shards: Optional[list[Shard]] = None) -> ClusterCatalog:
        """The catalog of ``shards`` (default: the current shard map)."""
        shards = self.shards if shards is None else shards
        serializer = self._serializer
        if serializer is None:
            for shard in shards:
                if shard.tree.raf is not None:
                    serializer = shard.tree.raf.serializer
                    break
        if serializer is None:
            raise ValueError("cannot persist an empty cluster")
        self._serializer = serializer
        return ClusterCatalog(
            metric_name=self.distance.metric.name,
            serializer=serializer.name,
            curve=self._curve_name,
            d_plus=self.space.d_plus,
            delta=self.space.delta,
            pivots=list(self.space.pivots),
            page_size=self._page_size,
            cache_pages=self._cache_pages,
            checksums=self._checksums,
            next_shard_id=self.next_shard_id,
            shards=[
                ShardMeta(
                    shard_id=s.shard_id,
                    directory=s.dirname,
                    key_lo=s.key_lo,
                    key_hi=s.key_hi,
                    generation=s.tree._generation,
                    object_count=s.tree.object_count,
                    replicas=list(s.rows()),
                )
                for s in shards
            ],
            read_policy=self._selector.policy,
        )

    def _cleanup_unreferenced(self) -> None:
        """Remove ``shard-*`` directories the catalog no longer names —
        debris from a crash on either side of a rebalance commit.  Replica
        directories named by the catalog's replica rows are live too."""
        if self.directory is None:
            return
        referenced = {s.dirname for s in self.shards}
        for shard in self.shards:
            referenced.update(r.directory for r in shard.rows())
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if not name.startswith("shard-") or name in referenced:
                continue
            path = os.path.join(self.directory, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)

    # -------------------------------------------------------------- writes

    def insert(self, obj: Any) -> None:
        """Map once at cluster level, then route to the owning shard's
        primary; a replicated shard ships the record to every healthy
        follower *before* this returns, so the acknowledged write is
        durable on each of them."""
        with self._lock.read():
            grid = self.space.grid(obj)
            shard = self.router.shard_for_key(self.curve.encode(grid))
            shard.require_writable()
            shard.tree.insert(obj, grid=grid)
            self.router.invalidate(shard.shard_id)
            self._gauge_shard(shard)
            shard.after_write()

    def delete(self, obj: Any) -> bool:
        with self._lock.read():
            grid = self.space.grid(obj)
            shard = self.router.shard_for_key(self.curve.encode(grid))
            shard.require_writable()
            removed = shard.tree.delete(obj, grid=grid)
            if removed:
                self.router.invalidate(shard.shard_id)
                self._gauge_shard(shard)
                shard.after_write()
            return removed

    # ------------------------------------------------------------- queries

    def range_query(
        self,
        query: Any,
        radius: float,
        context: Optional[QueryContext] = None,
    ) -> "list[Any] | ClusterResult":
        """Scatter to Lemma-1-intersecting shards, gather, merge.

        Shards Lemma 2 accepts wholesale are streamed from their RAFs with
        zero distance computations.  With a ``context`` the remaining
        compdist/PA budget is split evenly across the scattered shards
        (the deadline and cancel token are shared as-is) and partial
        sub-results merge into one honest partial.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        results: list[Any] = []

        def read(tree, accept_all, sub, phi_q):
            if accept_all:
                out = _stream_all(tree, sub)
            else:
                out = tree.range_query(query, radius, context=sub, phi_q=phi_q)
            results.extend(out)
            return out

        reply = self._scatter(
            "range",
            query,
            context,
            lambda phi_q, tr: self.router.range_plan(phi_q, radius, trace=tr),
            read,
            lambda: (results, None),
        )
        return reply if context is not None else reply.items

    def knn_query(
        self,
        query: Any,
        k: int,
        traversal: str = "incremental",
        context: Optional[QueryContext] = None,
    ) -> "list[tuple[float, Any]] | ClusterResult":
        """Cluster-scale NNA: Algorithm 2's best-first order lifted to shards.

        Shards are visited in ascending MIND order (Lemma 3, ties by the
        cost model's leaf-count proxy), sharing one :class:`KnnCollector`
        so the k-th-distance bound from early shards prunes later ones
        outright.  A partial answer is cut to a confirmed prefix: the cut
        is the tripped shard's frontier or the smallest unvisited-shard
        MIND, so every reported neighbour is a true kNN member.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if traversal not in ("incremental", "greedy"):
            raise ValueError("traversal must be 'incremental' or 'greedy'")
        collector = KnnCollector(k)

        def plan(phi_q, tr):
            order = self.router.knn_order(phi_q, trace=tr)
            return [(shard, mind) for mind, shard in order], 0

        def read(tree, mind, sub, phi_q):
            return tree.knn_into(
                query, k, collector, sub, traversal=traversal, phi_q=phi_q
            )

        reply = self._scatter(
            "knn", query, context, plan, read,
            lambda: (collector.items(), None), collector,
        )
        return reply if context is not None else reply.items

    def range_count(
        self,
        query: Any,
        radius: float,
        context: Optional[QueryContext] = None,
    ) -> "int | ClusterResult":
        """|RQ(q, O, r)| across shards.  Lemma-2-accepted shards contribute
        their live object count with zero page accesses."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        tally: list[int] = []

        def read(tree, accept_all, sub, phi_q):
            if accept_all:
                out = QueryResult([], count=tree.object_count)
            else:
                out = tree.range_count(query, radius, context=sub, phi_q=phi_q)
                if sub is None:
                    out = QueryResult([], count=out)
            tally.append(out.count)
            return out

        reply = self._scatter(
            "count",
            query,
            context,
            lambda phi_q, tr: self.router.range_plan(phi_q, radius, trace=tr),
            read,
            lambda: ([], sum(tally)),
        )
        return reply if context is not None else reply.count

    # ---------------------------------------------------------- the scatter

    def _scatter(
        self,
        kind: str,
        query: Any,
        ctx: Optional[QueryContext],
        plan: Callable,
        read: Callable,
        gather: Callable,
        collector: Optional[KnnCollector] = None,
    ) -> ClusterResult:
        """The cluster's one read path: map → plan → visit → fold.

        ``plan(phi_q, trace)`` returns ``(visit, pruned)``, ``visit`` a list
        of ``(shard, arg)`` in visit order; ``read(tree, arg, sub, phi_q)``
        runs one shard's sub-query on the tree its shard picked and keeps
        the answer; ``gather()`` returns the folded ``(items, count)``.
        With a ``collector`` the visit is best-first (kNN): ``arg`` is the
        shard's MIND, the walk stops at the first MIND the shared bound
        beats, every sub-query may spend the whole remaining budget, and
        the first shard that trips ends the walk.  Without one (range,
        count) every planned shard is visited on an even share of the
        budget.  ``ctx=None`` is the context-free call: same loop, no
        sub-contexts, nothing to absorb.
        """
        t0 = time.perf_counter()
        tr = ctx.trace if ctx is not None else None
        activated = ctx.activate() if ctx is not None else contextlib.nullcontext()
        with self._lock.read(), activated:
            try:
                phi_q = self._map(query, ctx)
            except _Exhausted as exc:  # the budget cannot even cover φ(q)
                if ctx.strict:
                    raise ctx.raise_for(exc.reason) from None
                return self._reply(ctx, t0, [], 0, False, exc.reason)
            if tr is None:
                visit, pruned = plan(phi_q, None)
            else:
                # The router reads each shard's root page lazily to learn
                # its MBB, so the first plan after a cold open costs real
                # page accesses — they must land on the ``plan`` span or
                # the trace would not reconcile with the context totals.
                with tr.region(tr.span("plan"), ctx):
                    visit, pruned = plan(phi_q, tr)
            subs = self._sub_contexts(ctx, len(visit), collector is not None)
            complete, reason, cut = True, None, None
            per_shard: dict[int, dict] = {}
            visited = 0
            for i, (shard, arg) in enumerate(visit):
                if (
                    collector is not None
                    and len(collector) >= collector.k
                    and arg >= collector.bound()
                ):
                    # Ascending MINDs: every later shard is pruned too,
                    # and (bound monotonicity) constrains nothing.
                    pruned += len(visit) - i
                    break
                sub = next(subs)
                out = read(shard.reader(sub), arg, sub, phi_q)
                visited += 1
                if sub is None:
                    continue
                self._absorb(ctx, shard, sub, out, kind)
                per_shard[shard.shard_id] = self._outcome(sub, out)
                if not out.complete and complete:
                    complete = False
                    reason = _name_shard(out.reason, shard.shard_id)
                    if collector is not None:
                        # Unseen objects are bounded below by this shard's
                        # frontier and by each unvisited shard's MIND.
                        cut = min(
                            [float("inf") if out.frontier is None else out.frontier]
                            + [mind for _, mind in visit[i + 1 :]]
                        )
                        break
            self._count_scatter(kind, visited, pruned)
            merge_t0 = time.perf_counter()
            items, count = gather()
            if cut is not None:
                items = [(d, obj) for d, obj in items if d <= cut]
            if tr is not None:
                tr.span("merge").elapsed += time.perf_counter() - merge_t0
            if ctx is not None and not complete and ctx.strict:
                raise ctx.raise_for(reason)
            return self._reply(
                ctx, t0, items, count, complete, reason, cut, per_shard,
                visited, pruned,
            )

    def _reply(
        self,
        ctx: Optional[QueryContext],
        t0: float,
        items: list,
        count: Optional[int],
        complete: bool,
        reason: Optional[ExhaustionReason],
        cut: Optional[float] = None,
        per_shard: Optional[dict] = None,
        visited: int = 0,
        pruned: int = 0,
    ) -> ClusterResult:
        """Assemble a scatter's answer.  A shard whose members lost their
        quorum still answered from the survivors (availability), but the
        caller is told, per shard — the honesty contract budget exhaustion
        follows.  The stamp comes after the strict-mode raise: strict mode
        raises for a spent budget, never for quorum."""
        stats = None
        if ctx is not None:
            per_shard = per_shard if per_shard is not None else {}
            for shard in self.shards:
                lost = shard.degraded()
                if lost is None:
                    continue
                entry = per_shard.setdefault(
                    shard.shard_id, {"compdists": 0, "page_accesses": 0}
                )
                entry["complete"] = False
                entry["reason"] = str(lost)
                if complete:
                    complete, reason = False, lost
            if ctx.trace is not None:
                ctx.trace.finish(ctx, complete, reason)
            stats = ctx.stats(time.perf_counter() - t0, len(items))
        return ClusterResult(
            items,
            complete=complete,
            reason=reason,
            count=count,
            stats=stats,
            frontier=cut,
            per_shard=per_shard,
            shards_visited=visited,
            shards_pruned=pruned,
        )

    def _map(self, query: Any, ctx: Optional[QueryContext]) -> tuple[float, ...]:
        """φ(q): once per query, on the cluster's counter, under the parent
        trace's ``map`` span, the budget checked on either side."""
        if ctx is None:
            return self.space.phi(query)
        ctx.checkpoint()
        if ctx.trace is not None:
            with ctx.trace.region(ctx.trace.span("map"), ctx):
                phi_q = self.space.phi(query)
        else:
            phi_q = self.space.phi(query)
        ctx.checkpoint()
        return phi_q

    def _sub_contexts(
        self, ctx: Optional[QueryContext], shards: int, best_first: bool
    ) -> Iterator[Optional[QueryContext]]:
        """One sub-context per visited shard, in visit order.  Range and
        count split what is left *before any shard runs* evenly over the
        planned shards; a best-first walk hands each shard all that is
        left when its turn comes."""
        if ctx is None:
            yield from itertools.repeat(None)
        elif best_first:
            while True:
                yield self._sub_context(ctx, 1)
        else:
            yield from [self._sub_context(ctx, shards) for _ in range(shards)]

    def _sub_context(self, ctx: QueryContext, parts: int) -> QueryContext:
        """A per-shard slice of the remaining budget.  The deadline and
        cancel token are shared (absolute instants split themselves); the
        countable budgets divide evenly so the sum of slices never exceeds
        what is left.  Sub-contexts are never strict — the cluster decides
        how to surface degradation after the merge."""

        def share(maximum: Optional[int], spent: int) -> Optional[int]:
            if maximum is None:
                return None
            return max(0, (maximum - spent) // parts)

        sub = QueryContext(
            deadline=ctx.deadline,
            max_compdists=share(ctx.max_compdists, ctx.compdists),
            max_page_accesses=share(ctx.max_page_accesses, ctx.page_accesses),
            strict=False,
            cancel_token=ctx.cancel_token,
            request_id=ctx.request_id,
        )
        if ctx.trace is not None:
            sub.trace = QueryTrace("shard")
        return sub

    def _absorb(
        self,
        ctx: QueryContext,
        shard: Shard,
        sub: QueryContext,
        out: QueryResult,
        kind: str,
    ) -> None:
        """Fold a finished sub-context into the parent: counters add up
        exactly, and the shard's work appears as one ``shard-<id>`` span
        under the parent trace root (carrying the sub-trace's children)."""
        ctx.compdists += sub.compdists
        ctx.page_accesses += sub.page_accesses
        if ctx.trace is not None:
            span = ctx.trace.span(f"shard-{shard.shard_id}")
            span.compdists += sub.compdists
            span.page_accesses += sub.page_accesses
            if out.stats is not None:
                span.elapsed += out.stats.elapsed_seconds
            span.bump("visits")
            if sub.trace is not None:
                span.children.extend(sub.trace.root.children)
                for key, value in sub.trace.root.counts.items():
                    # Identity annotations (which replica served the read)
                    # overwrite; everything else accumulates.
                    if isinstance(value, int):
                        span.counts[key] = span.counts.get(key, 0) + value
                    else:
                        span.counts[key] = value
        if _obsreg.ENABLED:
            _instruments.cluster().shard_queries.labels(
                kind=kind, shard=str(shard.shard_id)
            ).inc()

    @staticmethod
    def _outcome(sub: QueryContext, out: QueryResult) -> dict:
        return {
            "complete": out.complete,
            "reason": str(out.reason) if out.reason is not None else None,
            "compdists": sub.compdists,
            "page_accesses": sub.page_accesses,
        }

    def _count_scatter(self, kind: str, visited: int, pruned: int) -> None:
        if _obsreg.ENABLED:
            inst = _instruments.cluster()
            if visited:
                inst.shards_visited.labels(kind=kind).inc(visited)
            if pruned:
                inst.shards_pruned.labels(kind=kind).inc(pruned)

    def _gauge_shard(self, shard: Shard) -> None:
        if _obsreg.ENABLED:
            _instruments.cluster().shard_objects.labels(
                shard=str(shard.shard_id)
            ).set(shard.tree.object_count)

    def _gauge_all(self) -> None:
        if _obsreg.ENABLED:
            for shard in self.shards:
                self._gauge_shard(shard)

    # --------------------------------------------------------- replication

    @property
    def _sets(self) -> dict[int, ReplicaSet]:
        """``shard_id -> members`` of every replicated shard: a view
        derived from the shards, which own their sets."""
        return {
            s.shard_id: s.members for s in self.shards if s.members is not None
        }

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
        from repro.replication import ReplicationError

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

    # ----------------------------------------------------------- rebalance

    def rebalance(
        self,
        split: Optional[int] = None,
        merge: Optional[tuple[int, int]] = None,
        faults: Optional[FaultInjector] = None,
    ) -> Optional[dict]:
        """One crash-safe rebalance step.

        ``split=<shard_id>`` cuts that shard at the SFC median of its live
        keys; ``merge=(a, b)`` folds two range-adjacent shards into one.
        With neither, a simple policy picks: split the largest shard when
        it holds at least twice the per-shard average, else merge the
        lightest adjacent pair when their sum fits under the average.
        Returns a description of what happened, or None for no-op.

        Crash safety: the new shards' page files are written to *fresh*
        ``shard-<id>`` directories first; the single atomic rewrite of
        ``cluster.json`` is the commit point; old directories are removed
        (best-effort) only after it.  Killed anywhere, a reload sees either
        the pre- or the post-rebalance catalog — never a hybrid — and
        :meth:`load` sweeps whichever directories lost.
        """
        if split is not None and merge is not None:
            raise ValueError("pass split= or merge=, not both")
        with self._lock.write():
            if split is None and merge is None:
                split, merge = self._auto_plan()
                if split is None and merge is None:
                    return None
            if split is not None:
                return self._split(split, faults)
            return self._merge(merge, faults)

    def _auto_plan(self) -> tuple[Optional[int], Optional[tuple[int, int]]]:
        counts = [s.tree.object_count for s in self.shards]
        total = sum(counts)
        if not total or not self.shards:
            return None, None
        avg = total / len(self.shards)
        hot = max(self.shards, key=lambda s: s.tree.object_count)
        if hot.tree.object_count >= 2 * avg and hot.tree.object_count >= 2:
            return hot.shard_id, None
        ordered = sorted(self.shards, key=lambda s: s.key_lo)
        best: Optional[tuple[int, int]] = None
        best_sum = None
        for a, b in zip(ordered, ordered[1:]):
            pair_sum = a.tree.object_count + b.tree.object_count
            if best_sum is None or pair_sum < best_sum:
                best, best_sum = (a.shard_id, b.shard_id), pair_sum
        if best is not None and best_sum is not None and best_sum <= avg:
            return None, best
        return None, None

    def _shard_by_id(self, shard_id: int) -> Shard:
        for shard in self.shards:
            if shard.shard_id == shard_id:
                return shard
        raise ValueError(f"no shard {shard_id} in cluster")

    def _split(self, shard_id: int, faults: Optional[FaultInjector]) -> dict:
        shard = self._shard_by_id(shard_id)
        items = list(shard.tree.keyed_objects())
        if len(items) < 2:
            raise ValueError(f"shard {shard_id} is too small to split")
        keys = [key for key, _ in items]
        mid = keys[len(keys) // 2]
        if mid <= keys[0]:
            later = next((k for k in keys if k > keys[0]), None)
            if later is None:
                raise ValueError(
                    f"cannot split shard {shard_id}: every object shares "
                    "one SFC key"
                )
            mid = later
        left_items = [(k, o) for k, o in items if k < mid]
        right_items = [(k, o) for k, o in items if k >= mid]
        left = Shard(
            self.next_shard_id,
            shard.key_lo,
            mid,
            self._tree_from_items(left_items),
        )
        right = Shard(
            self.next_shard_id + 1,
            mid,
            shard.key_hi,
            self._tree_from_items(right_items),
        )
        self.next_shard_id += 2
        self._commit_swap("split", [shard], [left, right], faults)
        return {
            "action": "split",
            "source": shard.shard_id,
            "at": mid,
            "new": [left.shard_id, right.shard_id],
            "counts": [left.tree.object_count, right.tree.object_count],
        }

    def _merge(
        self, pair: tuple[int, int], faults: Optional[FaultInjector]
    ) -> dict:
        a = self._shard_by_id(pair[0])
        b = self._shard_by_id(pair[1])
        if a.key_lo > b.key_lo:
            a, b = b, a
        if a.key_hi != b.key_lo:
            raise ValueError(
                f"shards {pair[0]} and {pair[1]} are not range-adjacent"
            )
        items = list(a.tree.keyed_objects()) + list(b.tree.keyed_objects())
        merged = Shard(
            self.next_shard_id,
            a.key_lo,
            b.key_hi,
            self._tree_from_items(items),
        )
        self.next_shard_id += 1
        self._commit_swap("merge", [a, b], [merged], faults)
        return {
            "action": "merge",
            "sources": [a.shard_id, b.shard_id],
            "new": merged.shard_id,
            "count": merged.tree.object_count,
        }

    def _commit_swap(
        self,
        op: str,
        old: list[Shard],
        new: list[Shard],
        faults: Optional[FaultInjector],
    ) -> None:
        """Replace ``old`` shards with ``new`` ones (``op`` names the change
        on the rebalance counter); the cluster catalog rename is the only
        commit point (caller holds the write lock)."""
        if self.directory is not None:
            for shard in new:
                self._save_shard(shard, self.directory, faults)
        retired = {s.shard_id for s in old}
        shards = [s for s in self.shards if s.shard_id not in retired]
        shards.extend(new)
        shards.sort(key=lambda s: s.key_lo)
        if self.directory is not None:
            save_catalog(self.directory, self._catalog(shards), faults)
        # Committed (or memory-only): adopt the new shard map.  Retired
        # shards take their members and replica rows with them (a
        # rebalanced shard is re-replicated explicitly; its old replica
        # dirs are swept as unreferenced on the next load).
        self.shards = shards
        self.router.reset(self.shards)
        for shard in old:
            shard.close()
        if self._logging:
            for shard in new:
                self._attach_wal(shard)
        if self.directory is not None:
            for shard in old:
                path = os.path.join(self.directory, shard.dirname)
                if faults is not None:
                    faults.checkpoint(f"remove {shard.dirname}")
                shutil.rmtree(path, ignore_errors=True)
        self._gauge_all()
        if _obsreg.ENABLED:
            for shard in old:
                _instruments.cluster().shard_objects.labels(
                    shard=str(shard.shard_id)
                ).set(0)
            _instruments.cluster().rebalances.labels(op=op).inc()

    def rebuild_with_pivots(
        self,
        pivots: Sequence[Any],
        faults: Optional[FaultInjector] = None,
    ) -> dict:
        """Re-map the whole cluster onto a new pivot set, in place.

        ``repro.tuning`` calls this when HFI objective drift shows the
        pivot table has gone stale under mutations.  The pivot space and
        SFC curve are swapped, every live object is re-mapped (one
        |O| × |P| pass, like :meth:`build`), and the shard list is cut at
        fresh population quantiles — then committed through the same
        single-catalog-rename protocol as :meth:`rebalance`, so a crash
        anywhere leaves either the old or the new cluster, never a
        hybrid.  Shard count is preserved; shard ids are fresh.
        """
        if not pivots:
            raise ValueError("need at least one pivot")
        with self._lock.write():
            old_shards = list(self.shards)
            objects = [
                obj
                for shard in sorted(old_shards, key=lambda s: s.key_lo)
                for obj in shard.tree.objects()
            ]
            if not objects:
                raise ValueError("cannot re-pivot an empty cluster")
            self.space = PivotSpace(
                list(pivots),
                self.distance,
                self.space.d_plus,
                self.space.delta,
            )
            self.curve = _CURVES[self._curve_name](
                self.space.num_pivots, self.space.bits
            )
            new_shards = self._cut_into_shards(objects, max(1, len(old_shards)))
            # The router prunes against the *new* pivot space; rebuild it
            # before the swap installs the new shard list.
            self.router = Router(self.space, self.curve)
            self._commit_swap("re-pivot", old_shards, new_shards, faults)
            return {
                "action": "re-pivot",
                "pivots": len(self.space.pivots),
                "new": [s.shard_id for s in new_shards],
                "objects": len(objects),
            }

    # ------------------------------------------------------------ auditing

    def verify(self, check_objects: bool = True) -> ClusterVerifyReport:
        """Cluster-wide audit: every per-shard invariant (delegated to
        :meth:`SPBTree.verify`), plus the cluster's own — ranges disjoint
        and covering ``[0, curve.max_value)``, and every live object's SFC
        key inside its shard's range."""
        report = ClusterVerifyReport()
        with self._lock.read():
            ordered = sorted(self.shards, key=lambda s: s.key_lo)
            if not ordered:
                report.errors.append("cluster has no shards")
                return report
            if ordered[0].key_lo != 0:
                report.errors.append(
                    f"key space not covered: first shard starts at "
                    f"{ordered[0].key_lo}, not 0"
                )
            if ordered[-1].key_hi != self.curve.max_value:
                report.errors.append(
                    f"key space not covered: last shard ends at "
                    f"{ordered[-1].key_hi}, not {self.curve.max_value}"
                )
            for prev, cur in zip(ordered, ordered[1:]):
                if prev.key_hi != cur.key_lo:
                    report.errors.append(
                        f"ranges not contiguous: shard {prev.shard_id} ends "
                        f"at {prev.key_hi}, shard {cur.shard_id} starts at "
                        f"{cur.key_lo}"
                    )
            ids = [s.shard_id for s in ordered]
            if len(set(ids)) != len(ids):
                report.errors.append("duplicate shard ids")
            for shard in ordered:
                report.shards_checked += 1
                tree = shard.tree
                if tree.raf is None:
                    continue
                sub = tree.verify(check_objects=check_objects)
                report.shard_reports[shard.shard_id] = sub
                report.objects_checked += tree.object_count
                for err in sub.errors:
                    report.errors.append(f"shard {shard.shard_id}: {err}")
                for warn in sub.warnings:
                    report.warnings.append(f"shard {shard.shard_id}: {warn}")
                self._check_keys_in_range(shard, report)
        return report

    def _check_keys_in_range(
        self, shard: Shard, report: ClusterVerifyReport
    ) -> None:
        """Every live leaf key must fall inside the shard's half-open
        range.  Verification is an audit, not a workload: no counter moves."""
        tree = shard.tree
        with tree.unobserved():
            for entry in tree.btree.leaf_entries():
                if tree.raf is not None and tree.raf.is_deleted(entry.ptr):
                    continue
                if not (shard.key_lo <= entry.key < shard.key_hi):
                    report.errors.append(
                        f"shard {shard.shard_id}: key {entry.key} outside "
                        f"range [{shard.key_lo}, {shard.key_hi})"
                    )

    # ----------------------------------------------------------- inventory

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def object_count(self) -> int:
        return sum(s.tree.object_count for s in self.shards)

    def __len__(self) -> int:
        return self.object_count

    def objects(self) -> Iterator[Any]:
        """All live objects, in global ascending SFC order."""
        for shard in sorted(self.shards, key=lambda s: s.key_lo):
            yield from shard.tree.objects()

    @property
    def page_accesses(self) -> int:
        return sum(s.tree.page_accesses for s in self.shards)

    @property
    def distance_computations(self) -> int:
        return self.distance.count + sum(
            s.tree.distance_computations for s in self.shards
        )

    @property
    def size_in_bytes(self) -> int:
        return sum(s.tree.size_in_bytes for s in self.shards)

    def reset_counters(self) -> None:
        self.distance.reset()
        for shard in self.shards:
            shard.tree.reset_counters()

    def flush_cache(self, reset_stats: bool = False) -> None:
        for shard in self.shards:
            shard.tree.flush_cache(reset_stats=reset_stats)
