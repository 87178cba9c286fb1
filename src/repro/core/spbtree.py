"""The SPB-tree: Space-filling curve and Pivot-based B+-tree (§3).

An SPB-tree has three parts (Fig. 4 of the paper):

* a **pivot table** — the selected pivot objects, defining the mapping
  φ(o) = <d(o, p₁), …, d(o, pₙ)> into the pivot space;
* a **B+-tree** indexing the SFC values of the mapped objects, whose
  non-leaf entries carry subtree MBBs encoded as SFC corner keys;
* an **RAF** storing the actual objects in ascending SFC order.

Query processing implements the paper's algorithms verbatim:

* :meth:`SPBTree.range_query` — Algorithm 1 (RQA) with Lemma 1 (mapped
  range region pruning) and Lemma 2 (distance-free inclusion), each
  evaluated once per node over the node's decoded grid arrays;
* :meth:`SPBTree.knn_query` — Algorithm 2 (NNA), best-first over MIND
  lower bounds (Lemma 3), optimal in distance computations (Lemma 4),
  with both the *incremental* and the *greedy* traversal paradigms of
  §4.3.

Every read — these queries, the joins of :mod:`repro.core.join`, a cluster's
whole-shard stream — runs under :meth:`SPBTree.read_frame`.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import os
import time
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from repro.btree.node import LeafEntry, Node
from repro.btree.tree import BPlusTree
from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.core.mapping import PivotSpace
from repro.core.pivots import select_pivots
from repro.distance.base import CountingDistance, Metric
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.hilbert import HilbertCurve
from repro.service.context import (
    EpochLock,
    ExhaustionReason,
    KnnCollector,
    QueryContext,
    QueryResult,
    _Exhausted,
)
from repro.sfc.zorder import ZCurve
from repro.storage.pagefile import DEFAULT_PAGE_SIZE
from repro.storage.raf import RandomAccessFile
from repro.storage.serializers import Serializer, serializer_for
from repro.storage.wal import OP_INSERT, WalRecord, WriteAheadLog

_CURVES: dict[str, type[SpaceFillingCurve]] = {
    "hilbert": HilbertCurve,
    "z": ZCurve,
    "zorder": ZCurve,
    # the names the curve classes report about themselves, so a persisted
    # catalog's ``curve`` field round-trips through the constructor
    "z-curve": ZCurve,
}


class SPBTree:
    """A disk-based metric index for similarity search and joins."""

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
        self.distance = CountingDistance(metric)
        self.space = PivotSpace(pivots, self.distance, d_plus, delta)
        try:
            curve_cls = _CURVES[curve]
        except KeyError:
            raise ValueError(
                f"unknown curve {curve!r}; available: {sorted(_CURVES)}"
            ) from None
        self.curve = curve_cls(self.space.num_pivots, self.space.bits)
        self.btree = BPlusTree(self.curve, page_size=page_size, checksums=checksums)
        self._serializer = serializer
        self._page_size = page_size
        self._cache_pages = cache_pages
        self._checksums = checksums
        self.raf: Optional[RandomAccessFile] = None
        self.object_count = 0
        self._next_id = 0
        #: Write-ahead log for incremental durability (begin_logging attaches).
        self.wal: Optional[WriteAheadLog] = None
        #: Single-writer / multi-reader lock with snapshot-epoch pinning.
        self._epoch_lock = EpochLock()
        #: The on-disk generation this in-memory state extends (0 = unsaved).
        self._generation = 0
        #: Ablation switch (§4.2): Lemma 2's distance-free inclusion.  On by
        #: default; the ablation experiment turns it off to measure its
        #: contribution.
        self.use_lemma2 = True

    # --------------------------------------------------------- construction

    @classmethod
    def build(
        cls,
        objects: Sequence[Any],
        metric: Metric,
        num_pivots: int = 5,
        curve: str = "hilbert",
        pivot_method: str = "hfi",
        pivots: Optional[Sequence[Any]] = None,
        delta: Optional[float] = None,
        d_plus: Optional[float] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 32,
        seed: int = 7,
        checksums: bool = False,
    ) -> "SPBTree":
        """Bulk-load an SPB-tree over ``objects`` (Appendix B).

        Pivot selection and the d+ estimate run on the *raw* metric, since
        the paper's construction cost (Table 6) counts only the |O| × |P|
        mapping distances; pass ``pivots``/``d_plus`` explicitly to reuse a
        pivot table across indexes (required for similarity joins).
        """
        if len(objects) == 0:
            raise ValueError("cannot build an index over an empty dataset")
        if pivots is None:
            pivots = select_pivots(
                objects, num_pivots, metric, method=pivot_method, seed=seed
            )
        if d_plus is None:
            d_plus = metric.max_distance(objects)
        tree = cls(
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
        tree._bulk_load(objects)
        return tree

    @classmethod
    def build_keyed(
        cls,
        items: Sequence[tuple[int, Any]],
        metric: Metric,
        pivots: Sequence[Any],
        d_plus: float,
        curve: str = "hilbert",
        delta: Optional[float] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 32,
        serializer: Optional[Serializer] = None,
        checksums: bool = False,
    ) -> "SPBTree":
        """Bulk-load from precomputed ``(SFC key, object)`` pairs.

        The keys already encode the mapped grid cells, so this costs zero
        distance computations — the path cluster rebalancing takes to
        split or merge shards without re-mapping a single object.  The
        caller guarantees the keys were produced by an identical pivot
        space (same pivots, d+, delta, curve).
        """
        tree = cls(
            metric,
            pivots,
            d_plus,
            curve=curve,
            delta=delta,
            page_size=page_size,
            cache_pages=cache_pages,
            serializer=serializer,
            checksums=checksums,
        )
        if not items:
            return tree
        ordered = sorted(items, key=lambda pair: pair[0])
        raf = tree._ensure_raf(ordered[0][1])
        entries = []
        for key, obj in ordered:
            offset = raf.append(tree._next_id, obj, flush=False)
            tree._next_id += 1
            entries.append((key, offset))
        raf.finalize()
        tree.btree.bulk_load(entries)
        tree.object_count = len(ordered)
        return tree

    def _ensure_raf(self, example: Any) -> RandomAccessFile:
        if self.raf is None:
            serializer = self._serializer or serializer_for(example)
            self.raf = RandomAccessFile(
                serializer,
                page_size=self._page_size,
                cache_pages=self._cache_pages,
                checksums=self._checksums,
            )
        return self.raf

    def _bulk_load(self, objects: Sequence[Any]) -> None:
        raf = self._ensure_raf(objects[0])
        # One key per object from array passes, then one (stable) sort.
        phis = self.space.phi_many(objects)  # |O| × |P| distance computations
        cells = self.space.grid_from_phi_many(phis)
        keys = self.curve.encode_many(cells)
        items = []
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            offset = raf.append(self._next_id, objects[i], flush=False)
            self._next_id += 1
            items.append((keys[i], offset))
        raf.finalize()
        self.btree.bulk_load(items)
        self.object_count = len(objects)

    # --------------------------------------------------------------- update

    def insert(self, obj: Any, grid: Optional[tuple[int, ...]] = None) -> None:
        """Insert one object (Appendix C): |P| distance computations plus a
        B+-tree descent and one RAF page write.

        With a WAL attached (:meth:`begin_logging`) the record is made
        durable in the log *before* any in-memory structure changes, and
        the RAF append skips the per-insert partial-page flush (the log
        already guarantees durability).  Mutations serialize through the
        writer side of the epoch lock, so in-flight queries never observe
        a half-applied insert.  A caller that already mapped the object
        (cluster routing) passes ``grid`` to skip the |P| computations.
        """
        if grid is None:
            grid = self.space.grid(obj)
        key = self.curve.encode(grid)
        with self._epoch_lock.write():
            raf = self._ensure_raf(obj)
            obj_id = self._next_id
            if self.wal is not None:
                self.wal.append_insert(obj_id, key, raf.serializer.serialize(obj))
            self._apply_insert(obj, obj_id, key, flush=self.wal is None)

    def delete(self, obj: Any, grid: Optional[tuple[int, ...]] = None) -> bool:
        """Delete one object; True if it was present.

        Duplicate-SFC-key objects are distinguished by a byte-level compare
        of their serialized forms, so exactly the matching object goes.
        With a WAL attached, the delete record commits to the log before
        the B+-tree entry and tombstone change.
        """
        if self.raf is None:
            return False
        if grid is None:
            grid = self.space.grid(obj)
        key = self.curve.encode(grid)
        target = self.raf.serializer.serialize(obj)
        with self._epoch_lock.write():
            entry = self._find_live_entry(key, target)
            if entry is None:
                return False
            if self.wal is not None:
                self.wal.append_delete(key, target)
            self._apply_delete(entry)
            return True

    def _find_live_entry(self, key: int, target: bytes):
        """The first leaf entry at ``key`` whose record byte-matches
        ``target`` — the shared lookup rule of delete and WAL replay.  Every
        leaf entry names a live record (see :meth:`_apply_delete`)."""
        assert self.raf is not None
        for entry in self.btree.find_entries(key):
            _, stored = self.raf.read(entry.ptr)
            if self.raf.serializer.serialize(stored) == target:
                return entry
        return None

    def _apply_insert(self, obj: Any, obj_id: int, key: int, flush: bool) -> None:
        """The in-memory half of an insert (live path and WAL replay)."""
        raf = self._ensure_raf(obj)
        offset = raf.append(obj_id, obj, flush=flush)
        if obj_id >= self._next_id:
            self._next_id = obj_id + 1
        self.btree.insert(key, offset)
        self.object_count += 1

    def _apply_delete(self, entry: LeafEntry) -> None:
        """The in-memory half of a delete (live path and WAL replay).

        The entry leaves the B+-tree as its record becomes a tombstone, so
        a leaf entry always names a live record: the read path relies on
        that, and :func:`repro.core.verify.verify_tree` audits it.
        """
        assert self.raf is not None
        self.btree.delete(entry.key, entry.ptr)
        self.raf.mark_deleted(entry.ptr)
        self.object_count -= 1

    def _apply_wal_record(self, record: WalRecord) -> None:
        """Re-apply one logged mutation during recovery.

        Replay is deterministic and costs zero distance computations: the
        SFC key comes back from the record, the object from the recorded
        bytes, and the id from the recorded id, so a replayed tree is
        byte-for-byte the tree that logged the records.
        """
        if record.op == OP_INSERT:
            serializer = (
                self.raf.serializer if self.raf is not None else self._serializer
            )
            assert serializer is not None
            obj = serializer.deserialize(record.payload)
            self._apply_insert(obj, record.obj_id, record.key, flush=False)
            return
        entry = self._find_live_entry(record.key, record.payload)
        if entry is not None:
            self._apply_delete(entry)

    # ----------------------------------------------------- WAL & checkpoint

    def begin_logging(self, wal: WriteAheadLog) -> None:
        """Attach a write-ahead log; subsequent mutations commit to it first.

        A fresh log gets a header binding it to this tree's generation.  A
        log whose header predates the loaded generation is *stale* — its
        records were folded in by a checkpoint that crashed before
        truncating — and is reset rather than double-applied.  A log from a
        *future* generation means the caller mixed up directories; refuse.
        """
        if wal.header is None:
            wal.start(self._generation, self.object_count, self._next_id)
        elif wal.header.base_generation < self._generation:
            wal.truncate(self._generation, self.object_count, self._next_id)
        elif wal.header.base_generation > self._generation:
            raise ValueError(
                f"WAL base generation {wal.header.base_generation} is newer "
                f"than the tree's generation {self._generation}; wrong "
                f"directory or rolled-back catalog"
            )
        self.wal = wal

    def checkpoint(
        self, directory: Optional[str] = None, faults: Optional[Any] = None
    ) -> int:
        """Fold the WAL into a new on-disk generation and truncate the log.

        Runs under the writer lock: saves the whole tree through the atomic
        ``save_tree`` commit point (the catalog rename), then rebinds the
        log to the committed generation.  A crash before the rename leaves
        the old generation + full log; a crash after it leaves the new
        generation + a stale log that load ignores — both replay to exactly
        this tree.  Returns the committed generation number.
        """
        from repro.core.persist import save_tree

        if self.wal is None:
            raise ValueError("no WAL attached; call begin_logging() first")
        if directory is None:
            directory = os.path.dirname(self.wal.path) or "."
        t0 = time.perf_counter() if _obsreg.ENABLED else 0.0
        with self._epoch_lock.write():
            generation = save_tree(self, directory, faults=faults)
            self._generation = generation
            self.wal.truncate(generation, self.object_count, self._next_id)
        if _obsreg.ENABLED:
            _instruments.wal().checkpoint_seconds.observe(
                time.perf_counter() - t0
            )
        return generation

    # ------------------------------------------------------- the read frame

    def read_frame(
        self, context: Optional[QueryContext], body: Callable[[], None]
    ) -> tuple[bool, Optional[ExhaustionReason], float]:
        """Run ``body`` as one read of this tree; returns ``(complete,
        reason, elapsed seconds)``.

        The only place a read takes the epoch read view (pinning
        ``context.epoch``), skips an empty tree, activates the context as
        the thread's stat shard, and turns a tripped limit — the internal
        ``_Exhausted`` a checkpoint inside ``body`` raises — into
        ``complete=False`` plus the reason, or into the context's strict-mode
        exception; an attached trace is finished with that outcome.  What
        ``body`` gathered before the limit tripped is the caller's honest
        partial answer.  A context-free call is the same frame with nothing
        to account: a join nests one around its second tree to hold that
        tree's view, and a limit tripped inside it is the outer frame's.
        """
        t0 = time.perf_counter()
        complete, reason = True, None
        active = context.activate() if context is not None else contextlib.nullcontext()
        with active:
            try:
                with self._epoch_lock.read() as epoch:
                    if context is not None:
                        context.epoch = epoch
                    if self.raf is not None and self.object_count:
                        body()
            except _Exhausted as exc:
                if context is None:
                    raise
                if context.strict:
                    raise context.raise_for(exc.reason) from None
                complete, reason = False, exc.reason
            if context is not None and context.trace is not None:
                context.trace.finish(context, complete, reason)
        return complete, reason, time.perf_counter() - t0

    def _map_query(
        self,
        query: Any,
        ctx: Optional[QueryContext],
        phi_q: Optional[tuple[float, ...]],
    ) -> tuple[Optional[Any], tuple[float, ...]]:
        """The prologue of every query: ``(trace, φ(q))``.  The |P| mapping
        distances land on the trace's ``map`` span — unless the caller (a
        cluster scatter) paid them already and passed ``phi_q`` — and the
        budget is checked once they are spent."""
        tr = ctx.trace if ctx is not None else None
        if phi_q is None:
            record = tr.enter(tr.span("map"), ctx) if tr is not None else None
            try:
                phi_q = self.space.phi(query)  # |P| compdists
            finally:
                if record is not None:
                    tr.exit(record)
        if ctx is not None:
            ctx.checkpoint()
        return tr, phi_q

    def _verify_leaf(
        self,
        ptrs: np.ndarray,
        accepted: np.ndarray,
        query: Any,
        ctx: Optional[QueryContext],
        tr: Optional[Any],
        bound: float,
        take: Callable[[Sequence[Any], np.ndarray, int], None],
        read_accepts: bool = True,
    ) -> None:
        """Verify one leaf's surviving entries as arrays — the one RAF read
        of the query path, a leaf at a time.  ``ptrs`` are the entries' RAF
        pointers in entry order and ``accepted`` marks those Lemma 2 proved
        results.  The records are read with one ``raf.read_many`` — with
        ``read_accepts`` false (the count) only those not accepted — and the
        others' distances come from one ``distance.batch`` under ``bound``,
        the caller's cut-off: a distance past it is only a lower bound
        greater than it, which the caller rejects anyway.  Then
        ``take(objs, dists, free)`` gets the records read, in entry order, a
        float64 array of their distances (-inf for an accepted record: within
        any radius, no distance spent) and the number of accepted entries
        counted without a read.

        Compdist and page-access budgets trip at the record they would trip
        at if every read were preceded by a checkpoint: ``take`` gets the
        records before it (and the count the accepts before it), then
        ``_Exhausted`` is raised.  The deadline and cancellation are the
        caller's to observe, once per node.
        """
        raf = self.raf
        assert raf is not None
        if read_accepts:
            reads, verify = ptrs, ~accepted
        else:
            reads = ptrs[~accepted]
            verify = np.ones(len(reads), dtype=bool)
        allowed, stop = len(reads), None
        if ctx is not None:
            if ctx.max_compdists is not None:
                # The checkpoint before a read trips once the distances spent
                # on the reads ahead of it exceed what the budget has left.
                spent = np.cumsum(verify) - verify
                left = ctx.max_compdists - ctx.compdists
                allowed = int(np.searchsorted(spent, left, side="right"))
            if ctx.max_page_accesses is not None:
                stop = lambda: ctx.page_accesses > ctx.max_page_accesses  # noqa: E731
        objs = raf.read_many(reads[:allowed].tolist(), stop)
        n = len(objs)
        verify = verify[:n]
        rows = np.flatnonzero(verify)
        dists = np.full(n, -math.inf)
        if len(rows):
            if len(rows) == n:
                chosen = objs
            elif isinstance(objs, np.ndarray):
                chosen = objs[rows]
            else:
                chosen = list(itertools.compress(objs, verify.tolist()))
            dists[rows] = self.distance.batch(query, chosen, bound)
        free = 0
        if not read_accepts:
            # Lemma 2's accepts up to the read a budget refused, if one did.
            if n < len(reads):
                accepted = accepted[: np.flatnonzero(~accepted)[n]]
            free = int(np.count_nonzero(accepted))
        take(objs, dists, free)
        if tr is not None:
            accepts = n - len(rows) + free
            if len(rows):
                tr.bump("entries_verified", len(rows))
            if accepts:
                tr.bump("lemma2_accepts", accepts)
        if n < len(reads):
            assert ctx is not None
            ctx.checkpoint()

    # ---------------------------------------------------------- range query

    def range_query(
        self,
        query: Any,
        radius: float,
        context: Optional[QueryContext] = None,
        phi_q: Optional[tuple[float, ...]] = None,
    ) -> "list[Any] | QueryResult":
        """RQ(q, O, r): all objects within ``radius`` of ``query``.

        Algorithm 1 (RQA) of the paper.  Without a ``context`` this returns
        a plain list, exactly as before.  With a :class:`QueryContext` the
        traversal observes its deadline and cancellation at every node and
        its budgets at every record, and the answer comes back as a
        :class:`QueryResult`: on exhaustion the hits verified so far,
        flagged ``complete=False`` (or, in strict mode,
        :class:`~repro.service.BudgetExceeded`).
        ``phi_q`` passes a precomputed pivot mapping of the query so a
        cluster scatter pays the |P| mapping distances once, not per shard.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        results: list[Any] = []

        def take(objs: Sequence[Any], dists: np.ndarray, _: int) -> None:
            results.extend(itertools.compress(objs, (dists <= radius).tolist()))

        complete, reason, elapsed = self.read_frame(
            context,
            lambda: self._range_search(
                query, radius, context, phi_q, take, read_accepts=True
            ),
        )
        if context is None:
            return results
        return QueryResult(
            results,
            complete=complete,
            reason=reason,
            stats=context.stats(elapsed, len(results)),
        )

    def _range_search(
        self,
        query: Any,
        radius: float,
        ctx: Optional[QueryContext],
        phi_q: Optional[tuple[float, ...]],
        take: Callable[[Sequence[Any], np.ndarray, int], None],
        read_accepts: bool,
    ) -> None:
        """Algorithm 1's descent, for the range query and the count alike:
        each leaf's verification goes to ``take`` (see :meth:`_verify_leaf`).
        Without ``read_accepts`` (the count) an entry Lemma 2 accepts is
        counted with no I/O at all instead of a RAF read."""
        assert self.raf is not None
        tr, phi_q = self._map_query(query, ctx, phi_q)
        rr = self.space.range_region(phi_q, radius)
        stack: list[tuple[int, int]] = [(self.btree.root_page, 0)]  # (page, level)
        while stack:
            if ctx is not None:
                ctx.checkpoint()
            page_id, depth = stack.pop()
            # All costs of a node belong to the span of the node's level.
            record = tr.enter(tr.level(depth), ctx) if tr is not None else None
            try:
                node = self.btree.read_node(page_id)
                if tr is not None:
                    tr.bump("nodes_visited")
                if not node.is_leaf:
                    # Lemma 1 over a non-leaf node: stack the children whose
                    # MBB intersects RR, in entry order.
                    meets = np.flatnonzero(
                        self.space.boxes_meet_region(*self.btree.child_boxes(node), rr)
                    )
                    entries = node.entries
                    for i in meets.tolist():
                        stack.append((entries[i].child, depth + 1))
                    if tr is not None and len(meets) < node.count:
                        tr.bump("children_pruned_lemma1", node.count - len(meets))
                    continue
                # VerifyRQ of Algorithm 1 (lines 25–29) for the entries in RR,
                # the leaf at a time.
                inside, accepted = self._range_leaf(node, phi_q, radius, rr, tr)
                self._verify_leaf(
                    self.btree.leaf_ptrs(node)[inside], accepted,
                    query, ctx, tr, radius, take, read_accepts,
                )
            finally:
                if record is not None:
                    tr.exit(record)

    def _range_leaf(
        self,
        node: Node,
        phi_q: tuple[float, ...],
        radius: float,
        rr: tuple,
        tr: Optional[Any] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Leaf handling of Algorithm 1, lines 11–23, as two masks over the
        leaf's decoded cells: ``(inside, accepted)`` — the indices of the
        entries inside RR (Lemma 1), in entry order, and which of those
        Lemma 2 accepts.

        One path stands for the paper's three (MBB ⊆ RR, computeSFC
        enumeration, per-entry check): for a leaf entry,
        ``key ∈ SFC(RR ∩ MBB(N)) ⇔ cell ∈ RR``, and enumerating the region's
        SFC values only ever served to avoid decoding the keys — which the
        node now holds decoded.
        """
        cells = self.btree.leaf_cells(node)
        inside = np.flatnonzero(self.space.cells_in_region(cells, rr))  # Lemma 1
        if tr is not None and len(inside) < node.count:
            tr.bump("entries_pruned_lemma1", node.count - len(inside))
        # Lemma 2: if some pivot places o within r - d(q, pᵢ) of pᵢ, the
        # object is certainly a result, without computing d(q, o).
        if self.use_lemma2:
            accepted = self.space.lemma2_accepts(cells[inside], phi_q, radius)
        else:
            accepted = np.zeros(len(inside), dtype=bool)
        return inside, accepted

    # ------------------------------------------------------------ kNN query

    def knn_query(
        self,
        query: Any,
        k: int,
        traversal: str = "incremental",
        context: Optional[QueryContext] = None,
        phi_q: Optional[tuple[float, ...]] = None,
    ) -> "list[tuple[float, Any]] | QueryResult":
        """kNN(q, k): ``k`` nearest objects, as (distance, object) pairs
        ascending by distance.

        Algorithm 2 (NNA).  ``traversal`` selects the §4.3 strategy:
        ``"incremental"`` pushes individual leaf entries back onto the heap
        (optimal in distance computations, Lemma 4); ``"greedy"`` verifies
        an entire leaf as soon as it is reached (optimal in RAF page
        accesses — the default choice for low-precision data like DNA).

        Without a ``context`` this returns a plain list, exactly as before.
        With a :class:`QueryContext`, exhaustion degrades gracefully: the
        returned :class:`QueryResult` (``complete=False``) holds only the
        *confirmed* best-so-far neighbours — those whose distance does not
        exceed the smallest lower bound still on the heap, so by Lemma 3
        their distances are a prefix of the true kNN distances.  Strict
        mode raises :class:`~repro.service.BudgetExceeded` instead.
        """
        collector = KnnCollector(k)
        out = self.knn_into(
            query, k, collector, context, traversal=traversal, phi_q=phi_q
        )
        items = collector.items()
        if context is None:
            return items
        if not out.complete:
            # Keep only the confirmed prefix: every unvisited object is
            # at distance >= the smallest remaining lower bound, and
            # everything evicted from the result heap was >= its max, so
            # neighbours at or below the frontier are true kNN members.
            items = [(d, obj) for d, obj in items if d <= out.frontier]
        out.items = items
        out.count = len(items)
        out.stats.result_size = len(items)
        return out

    def knn_into(
        self,
        query: Any,
        k: int,
        collector: KnnCollector,
        context: Optional[QueryContext] = None,
        traversal: str = "incremental",
        phi_q: Optional[tuple[float, ...]] = None,
    ) -> QueryResult:
        """Run Algorithm 2 folding candidates into an external ``collector``.

        The cluster scatter shares one :class:`KnnCollector` across every
        shard's search, so the k-th-distance bound tightens globally.  The
        returned :class:`QueryResult` carries no items — the collector
        holds the candidates — only this traversal's completeness, reason,
        ``frontier`` (the smallest unexplored lower bound; None when
        complete), and per-context stats.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if traversal not in ("incremental", "greedy"):
            raise ValueError("traversal must be 'incremental' or 'greedy'")
        heap: list[tuple[float, int, int, object, int]] = []
        complete, reason, elapsed = self.read_frame(
            context,
            lambda: self._knn_search(
                query, traversal, collector, heap, context, phi_q
            ),
        )
        if context is None:
            return QueryResult([])
        return QueryResult(
            [],
            complete=complete,
            reason=reason,
            stats=context.stats(elapsed, 0),
            frontier=None if complete else heap[0][0],
        )

    def _knn_search(
        self,
        query: Any,
        traversal: str,
        collector: KnnCollector,
        heap: list[tuple[float, int, int, object, int]],
        ctx: Optional[QueryContext],
        phi_q: Optional[tuple[float, ...]] = None,
    ) -> None:
        """Best-first NNA loop, offering verified objects to ``collector``
        and leaving unexplored lower bounds in ``heap`` when a context
        checkpoint aborts the search.

        Heap items are ``(mind, tiebreak, kind, payload, depth)``; the
        depth is the B+-tree level the payload came from, so traced costs
        land on the right per-level span.  The unique tiebreak guarantees
        comparisons never reach payload or depth.
        """
        counter = itertools.count()
        # Algorithm 2 starts from the root node, whose lower bound is zero —
        # pushed before anything can trip, so ``heap`` always bounds the unseen.
        heap.append((0.0, next(counter), 1, self.btree.root_page, 0))
        tr, phi_q = self._map_query(query, ctx, phi_q)
        # Bound here, inside the read frame: it counts on this context.
        distance = self.distance.against(query)
        raf = self.raf
        assert raf is not None

        def offer(objs: Sequence[Any], dists: np.ndarray, _: int) -> None:
            # A greedy leaf's candidates.  ``bound`` is the k-th distance as
            # the leaf started: a full collector turns away what does not
            # beat it, and one that is not full yet takes everything.
            if bound < math.inf:
                keep = dists < bound
                objs, dists = itertools.compress(objs, keep.tolist()), dists[keep]
            for d, obj in zip(dists.tolist(), objs):
                collector.offer(d, obj)

        while heap:
            if ctx is not None:
                ctx.checkpoint()
            mind, tb, kind, payload, depth = heapq.heappop(heap)
            # The k-th distance, read once: nothing is offered before the
            # push below, so the cut-off and the push mask see this value.
            bound = collector.bound()
            if mind >= bound:  # Lemma 3: early termination
                break
            record = tr.enter(tr.level(depth), ctx) if tr is not None else None
            try:
                if kind == 0:
                    # One popped leaf entry, verified alone, cut off at the
                    # k-th distance.  Pops are not gathered into a batch: on
                    # a discrete metric MINDs tie, and no sound lower bound
                    # on the final k-th distance passes a MIND level until
                    # all but k - 1 of its entries are verified, so nearly
                    # every batch would hold one pop.  The loop's
                    # checkpoint just ran.
                    if tr is not None:
                        tr.bump("entries_verified")
                    obj = raf.read_object(payload)  # type: ignore[arg-type]
                    collector.offer(distance(obj, bound), obj)
                    continue
                node = self.btree.read_node(payload)  # type: ignore[arg-type]
                if tr is not None:
                    tr.bump("nodes_visited")
                if not node.is_leaf:
                    minds = self.space.mind_to_boxes(
                        phi_q, *self.btree.child_boxes(node)
                    )
                elif traversal == "greedy":
                    # Greedy paradigm: evaluate the whole leaf immediately,
                    # cut off at the k-th distance as the leaf starts — the
                    # bound only shrinks while its candidates are offered.
                    self._verify_leaf(
                        self.btree.leaf_ptrs(node), np.zeros(node.count, dtype=bool),
                        query, ctx, tr, bound, offer,
                    )
                    continue
                else:
                    minds = self.space.mind_to_cells(phi_q, self.btree.leaf_cells(node))
                # Lemma 3 over the whole node: push the entries whose MIND
                # beats the current k-th distance, in entry order.
                keep = np.flatnonzero(minds < bound)
                entries = node.entries
                for i, mind in zip(keep.tolist(), minds[keep].tolist()):
                    if node.is_leaf:
                        item = (mind, next(counter), 0, entries[i].ptr, depth)
                    else:
                        item = (mind, next(counter), 1, entries[i].child, depth + 1)
                    heapq.heappush(heap, item)
                if tr is not None and len(keep) < node.count:
                    tr.bump(
                        "entries_pruned_lemma3"
                        if node.is_leaf
                        else "children_pruned_lemma3",
                        node.count - len(keep),
                    )
            except _Exhausted:
                # The popped item was not fully processed (entries of a node
                # may be lost mid-push): restore its lower bound — zero for
                # the root — so the partial-result frontier stays sound.
                heapq.heappush(heap, (mind, tb, kind, payload, depth))
                raise
            finally:
                if record is not None:
                    tr.exit(record)

    # ----------------------------------------------------------- maintenance

    def range_count(
        self,
        query: Any,
        radius: float,
        context: Optional[QueryContext] = None,
        phi_q: Optional[tuple[float, ...]] = None,
    ) -> "int | QueryResult":
        """|RQ(q, O, r)| without fetching the objects.

        Uses Lemma 2 the other way round: entries whose grid cell proves
        d(q, o) ≤ r are *counted* without touching the RAF at all, so a
        pure counting workload (selectivity estimation, faceting) costs a
        fraction of the page accesses of :meth:`range_query`.

        With a :class:`QueryContext` the answer is a :class:`QueryResult`
        whose ``count`` holds the tally (a lower bound of the true count
        when ``complete=False``).
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        counts: list[int] = []  # one per leaf

        def take(_: Sequence[Any], dists: np.ndarray, free: int) -> None:
            counts.append(free + int(np.count_nonzero(dists <= radius)))

        complete, reason, elapsed = self.read_frame(
            context,
            lambda: self._range_search(
                query, radius, context, phi_q, take, read_accepts=False
            ),
        )
        count = sum(counts)
        if context is None:
            return count
        return QueryResult(
            [],
            complete=complete,
            reason=reason,
            count=count,
            stats=context.stats(elapsed, count),
        )

    def rebuild(self) -> "SPBTree":
        """Compact the index: rebuild from the live objects.

        Deletions tombstone RAF records (Appendix C); after many of them
        the RAF carries dead space and the B+-tree dead structure.  This
        returns a fresh, fully-packed SPB-tree over the surviving objects,
        reusing the existing pivot table (no pivot re-selection cost).
        """
        if self.raf is None:
            raise ValueError("cannot rebuild an empty tree")
        live = [obj for _, _, obj in self.raf.scan()]
        fresh = SPBTree(
            self.distance.metric,
            self.space.pivots,
            self.space.d_plus,
            curve="hilbert" if not self.curve.is_monotone else "z",
            delta=self.space.delta,
            page_size=self._page_size,
            cache_pages=self._cache_pages,
            serializer=self.raf.serializer,
            checksums=self._checksums,
        )
        if live:
            fresh._bulk_load(live)
        return fresh

    # ---------------------------------------------------------- consistency

    def verify(self, check_objects: bool = True) -> "VerifyReport":
        """Audit the whole index for structural and storage consistency.

        Walks the B+-tree (page checksums, key ordering, parent/child key
        and MBB agreement, leaf chaining, entry counts), then cross-checks
        the RAF (page checksums, record framing, pointer consistency
        between leaf entries and stored objects, tombstone validity, object
        counts).  With ``check_objects=True`` every stored object is
        re-mapped through the pivot table to prove its SFC key matches its
        leaf entry — the invariant every pruning lemma depends on.

        Verification is observation-free: page-access and distance counters
        are restored afterwards.  Returns a :class:`VerifyReport`; nothing
        is raised for damage found (corruption becomes report errors).
        """
        from repro.core.verify import verify_tree

        return verify_tree(self, check_objects=check_objects)

    @contextlib.contextmanager
    def unobserved(self) -> Iterator[None]:
        """Run an audit or a probe that no counter will show: both page
        files' reads and writes, the buffer pool's hits and misses and
        ``distance.count`` are put back when the block ends, also when it
        raises."""
        nodes = self.btree.pagefile.counter
        watched = [(self.distance, "count"), (nodes, "reads"), (nodes, "writes")]
        if self.raf is not None:
            records, pool = self.raf.pagefile.counter, self.raf.buffer_pool
            watched += [(records, "reads"), (records, "writes")]
            watched += [(pool, "hits"), (pool, "misses")]
        saved = [getattr(holder, name) for holder, name in watched]
        try:
            yield
        finally:
            for (holder, name), value in zip(watched, saved):
                setattr(holder, name, value)

    # ------------------------------------------------------------ accessors

    def __len__(self) -> int:
        return self.object_count

    def objects(self) -> Iterator[Any]:
        """All live objects, in ascending SFC order of their insertion batch."""
        if self.raf is None:
            return iter(())
        return (obj for _, _, obj in self.raf.scan())

    def keyed_objects(self) -> Iterator[tuple[int, Any]]:
        """All live ``(SFC key, object)`` pairs in ascending key order.

        Walks the B+-tree leaves, so the keys come back without a single
        distance computation — what cluster rebalancing feeds to
        :meth:`build_keyed` when splitting or merging shards.
        """
        if self.raf is None:
            return
        for entry in self.btree.leaf_entries():
            yield entry.key, self.raf.read_object(entry.ptr)

    def mbb(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The pivot-space minimum bounding box of the whole tree, as
        inclusive grid-corner tuples ``(lo, hi)`` — what a cluster Router
        prunes whole shards with.  None for an empty tree."""
        with self._epoch_lock.read():
            if self.raf is None or self.object_count == 0:
                return None
            root = self.btree.read_node(self.btree.root_page)
            return self.btree.node_box(root)

    @property
    def page_accesses(self) -> int:
        raf_pa = self.raf.page_accesses if self.raf is not None else 0
        return self.btree.page_accesses + raf_pa

    @property
    def distance_computations(self) -> int:
        return self.distance.count

    @property
    def size_in_bytes(self) -> int:
        """Index + data storage footprint (the Storage column of Table 6)."""
        raf_bytes = self.raf.size_in_bytes if self.raf is not None else 0
        return self.btree.size_in_bytes + raf_bytes

    def flush_cache(self, reset_stats: bool = False) -> None:
        """Empty the RAF buffer pool (done before each measured query).

        With ``reset_stats=True`` the pool's hit/miss tallies restart too,
        so per-query cache statistics do not bleed across a Fig. 10-style
        flush-between-queries protocol.
        """
        if self.raf is not None:
            self.raf.flush_cache(reset_stats=reset_stats)

    def reset_counters(self) -> None:
        self.distance.reset()
        self.btree.pagefile.counter.reset()
        if self.raf is not None:
            self.raf.pagefile.counter.reset()
