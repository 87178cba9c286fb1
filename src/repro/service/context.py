"""Per-query resilience primitives: deadlines, budgets, cancellation.

The survey *Indexing Metric Spaces for Exact Similarity Search* identifies
compdists and page accesses as the two costs a metric index must bound per
query; a serving layer needs exactly those knobs for admission control and
early termination.  A :class:`QueryContext` carries them:

* a **deadline** (absolute monotonic time),
* a **budget** (max compdists, max page accesses),
* a cooperative **cancellation token**,
* and per-context counters (`compdists`, `page_accesses`) that the storage
  and distance layers tally through the thread-local stat shard registered
  by :meth:`QueryContext.activate` — so concurrent queries account their
  own costs exactly instead of clobbering the tree-global counters.

The traversal loops in :mod:`repro.core.spbtree` and :mod:`repro.core.join`
call :meth:`QueryContext.checkpoint` at node/entry granularity.  When a
limit trips, the query *degrades gracefully*: kNN returns its confirmed
best-so-far neighbours, range returns the hits verified so far, both
wrapped in a :class:`QueryResult` with ``complete=False`` and a structured
:class:`ExhaustionReason`.  Callers that prefer an exception opt into
``strict=True`` and get :class:`BudgetExceeded` instead.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.stats import QueryStats, pop_stat_shard, push_stat_shard


class ServiceError(Exception):
    """Base class for query-service failures."""


class BudgetExceeded(ServiceError):
    """A strict-mode query ran out of deadline or budget.

    Carries the :class:`ExhaustionReason` that tripped, so callers can
    distinguish a deadline miss from a compdist or page-access overrun.
    """

    def __init__(self, reason: "ExhaustionReason") -> None:
        self.reason = reason
        super().__init__(str(reason))


class QueryCancelled(ServiceError):
    """A strict-mode query was cancelled through its token."""

    def __init__(self, reason: "ExhaustionReason") -> None:
        self.reason = reason
        super().__init__(str(reason))


class Overloaded(ServiceError):
    """The engine's admission queue is full; the query was rejected.

    Backpressure, not failure: the caller should shed load or retry later.
    ``queue_depth`` is the number of operations that were pending when the
    rejection happened and ``retry_after_ms`` the engine's suggested
    backoff (its recent-latency estimate of when a slot should free up) —
    the wire layer forwards both as ``RETRY_LATER`` hints, and in-process
    callers can use them the same way.
    """

    def __init__(
        self,
        message: str,
        queue_depth: Optional[int] = None,
        retry_after_ms: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.retry_after_ms = retry_after_ms


class EngineStopped(ServiceError):
    """The engine stopped before this queued operation could start.

    ``stop()`` finishes queued-but-unstarted work with this error so a
    ``result()`` caller fails fast instead of blocking until its timeout.
    """


@dataclass(frozen=True)
class ExhaustionReason:
    """Why a query stopped early.

    ``kind`` is one of ``"deadline"``, ``"compdists"``, ``"page_accesses"``,
    or ``"cancelled"``; ``limit`` is the configured bound (seconds for
    deadlines) and ``spent`` what had been consumed when the check tripped.
    """

    kind: str
    limit: Optional[float]
    spent: float

    def __str__(self) -> str:
        if self.kind == "cancelled":
            return "query cancelled"
        if self.kind == "deadline":
            return (
                f"deadline exceeded ({self.spent * 1000:.0f} ms elapsed of "
                f"{(self.limit or 0) * 1000:.0f} ms allowed)"
            )
        return f"{self.kind} budget exceeded ({self.spent:.0f} of {self.limit:.0f})"


@dataclass(frozen=True)
class ShardExhaustion(ExhaustionReason):
    """An :class:`ExhaustionReason` that names the shard whose sub-budget
    tripped — what a degraded scatter reports so an operator can tell a
    hot shard from a globally short deadline — or, as ``kind="quorum"``,
    whose replica set lost its quorum."""

    shard: int = -1

    def __str__(self) -> str:
        if self.kind == "quorum":
            return (
                f"shard {self.shard}: replica set degraded "
                f"({self.spent:.0f} healthy members, quorum {self.limit:.0f})"
            )
        return f"shard {self.shard}: {super().__str__()}"


class EpochLock:
    """Single-writer / multi-reader lock with snapshot-epoch pinning.

    The SPB-tree's mutations (insert/delete/checkpoint) take the write
    side; queries take the read side and receive the **epoch** — a counter
    bumped after every completed write — that their whole traversal runs
    under.  Readers exclude writers, so a query never observes a
    half-applied mutation; a :class:`QueryContext` records the pinned
    epoch for observability.

    Semantics chosen for the tree's access patterns:

    * **re-entrant reads** — a traversal that re-enters ``read()`` on the
      same thread (joins iterate queries) nests without deadlocking, even
      against a waiting writer;
    * **writer preference** — new first-time readers wait while a writer
      is waiting, so a steady query stream cannot starve mutations;
    * **writer may read** — the mutating thread can run lookups mid-write
      (delete's byte-compare probe) without self-deadlock;
    * **no upgrades** — acquiring the write side while holding a read view
      raises ``RuntimeError`` (upgrade deadlocks are bugs, not waits).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_owner: Optional[int] = None
        self._writers_waiting = 0
        self._local = threading.local()
        #: Number of completed writes; the snapshot id readers pin.
        self.epoch = 0

    def _read_depth(self) -> int:
        return getattr(self._local, "depth", 0)

    @contextmanager
    def read(self) -> Iterator[int]:
        """Acquire (or nest) a read view; yields the pinned epoch."""
        me = threading.get_ident()
        depth = self._read_depth()
        # Nested reads and the writer's own reads piggyback on the lock
        # already held; only a first-time outside reader must queue.
        acquire = depth == 0 and self._writer_owner != me
        if acquire:
            with self._cond:
                while self._writer_owner is not None or self._writers_waiting:
                    self._cond.wait()
                self._readers += 1
        self._local.depth = depth + 1
        try:
            yield self.epoch
        finally:
            self._local.depth = depth
            if acquire:
                with self._cond:
                    self._readers -= 1
                    if self._readers == 0:
                        self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Acquire exclusive write access; bumps the epoch on release."""
        me = threading.get_ident()
        if self._writer_owner == me:
            yield  # nested write: already exclusive, no second epoch bump
            return
        if self._read_depth():
            raise RuntimeError(
                "cannot upgrade a read view to a write lock (release the "
                "read side first)"
            )
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_owner is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_owner = me
        try:
            yield
        finally:
            with self._cond:
                self._writer_owner = None
                self.epoch += 1
                self._cond.notify_all()


class CancelToken:
    """Thread-safe cooperative cancellation flag.

    Created by the caller (or the engine), shared with whoever may want to
    abort the query; the traversal observes it at every checkpoint.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class _Exhausted(Exception):
    """Internal control-flow signal: a checkpoint tripped.

    Never escapes the query methods; they catch it and either return a
    partial :class:`QueryResult` or raise :class:`BudgetExceeded` /
    :class:`QueryCancelled` in strict mode.
    """

    def __init__(self, reason: ExhaustionReason) -> None:
        self.reason = reason
        super().__init__(str(reason))


@dataclass
class QueryContext:
    """Deadline, budget, cancellation, and cost accounting for one query.

    ``deadline`` is an *absolute* ``time.monotonic()`` instant (use
    :meth:`with_limits` to express it as milliseconds-from-now).  Budgets
    are inclusive: a query may spend exactly ``max_compdists`` distance
    computations before the next checkpoint trips.  The counters are only
    mutated by the thread the context is activated on, so they need no
    locking; they are the per-query stat shard of :mod:`repro.stats`.
    """

    deadline: Optional[float] = None
    max_compdists: Optional[int] = None
    max_page_accesses: Optional[int] = None
    strict: bool = False
    cancel_token: Optional[CancelToken] = None
    #: Per-query counters, filled in while the context is active.
    compdists: int = 0
    page_accesses: int = 0
    #: The EpochLock snapshot the query ran under (set by the tree).
    epoch: Optional[int] = None
    #: Optional per-query span tree (:class:`repro.obs.QueryTrace`); the
    #: traversal fills it in when attached.  ``None`` — the default — costs
    #: the hot path one identity check per node.
    trace: Optional[Any] = None
    #: Request/trace identifier minted at the edge (client, server, or
    #: CLI) and inherited by every per-shard sub-context, so the slow log,
    #: supervisor journal, and flight recorder all name the same request.
    #: Survives retries: identity, not a counter.
    request_id: Optional[str] = None
    started: float = field(default=0.0, repr=False)

    @classmethod
    def with_limits(
        cls,
        deadline_ms: Optional[float] = None,
        max_compdists: Optional[int] = None,
        max_page_accesses: Optional[int] = None,
        strict: bool = False,
        cancel_token: Optional[CancelToken] = None,
        request_id: Optional[str] = None,
    ) -> "QueryContext":
        """Build a context with a deadline expressed as ms from *now*."""
        deadline = (
            time.monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        return cls(
            deadline=deadline,
            max_compdists=max_compdists,
            max_page_accesses=max_page_accesses,
            strict=strict,
            cancel_token=cancel_token,
            request_id=request_id,
        )

    def reset_counters(self) -> None:
        """Zero the per-query tallies (the engine does this before a retry,
        so a successful attempt reports only its own costs).  An attached
        trace resets with them — the final span tree must describe exactly
        the attempt the counters describe."""
        self.compdists = 0
        self.page_accesses = 0
        if self.trace is not None:
            self.trace.reset()

    # ------------------------------------------------------------- checking

    def exhausted(self) -> Optional[ExhaustionReason]:
        """The first tripped limit, or None while the query may continue."""
        if self.cancel_token is not None and self.cancel_token.cancelled:
            return ExhaustionReason("cancelled", None, 0)
        if self.deadline is not None:
            now = time.monotonic()
            if now >= self.deadline:
                return ExhaustionReason(
                    "deadline",
                    self.deadline - self.started if self.started else None,
                    now - self.started if self.started else 0.0,
                )
        if self.max_compdists is not None and self.compdists > self.max_compdists:
            return ExhaustionReason("compdists", self.max_compdists, self.compdists)
        if (
            self.max_page_accesses is not None
            and self.page_accesses > self.max_page_accesses
        ):
            return ExhaustionReason(
                "page_accesses", self.max_page_accesses, self.page_accesses
            )
        return None

    def checkpoint(self) -> None:
        """Hook called from traversal loops; raises the internal signal
        when a limit has tripped."""
        reason = self.exhausted()
        if reason is not None:
            raise _Exhausted(reason)

    @contextmanager
    def activate(self) -> Iterator["QueryContext"]:
        """Register this context as the thread's stat shard.

        Re-entrant (the shard registry is a stack), so the engine can
        activate around a tree method that activates again internally.
        """
        if not self.started:
            self.started = time.monotonic()
        push_stat_shard(self)
        try:
            yield self
        finally:
            pop_stat_shard()

    def raise_for(self, reason: ExhaustionReason) -> "BudgetExceeded | QueryCancelled":
        """The strict-mode exception matching ``reason``."""
        if reason.kind == "cancelled":
            return QueryCancelled(reason)
        return BudgetExceeded(reason)

    def stats(self, elapsed: float = 0.0, result_size: int = 0) -> QueryStats:
        return QueryStats(
            page_accesses=self.page_accesses,
            distance_computations=self.compdists,
            elapsed_seconds=elapsed,
            result_size=result_size,
        )


class KnnCollector:
    """A bounded best-``k`` accumulator shared across kNN searches.

    Wraps the NNA result heap (a max-heap of ``(-distance, tiebreak,
    object)``) behind two operations: :meth:`offer` a candidate and read
    the current :meth:`bound` — the k-th best distance so far, the value
    Lemma 3 prunes against.  A single tree search owns a private
    collector; a sharded scatter passes *one* collector through every
    shard's search, one shard after the other, so the bound tightens
    globally (best-shard-first).  Not thread-safe: one search at a time.
    """

    __slots__ = ("k", "_heap", "_counter")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._heap: list[tuple[float, int, Any]] = []
        self._counter = itertools.count()

    def bound(self) -> float:
        """The current k-th nearest distance (inf until ``k`` candidates)."""
        return -self._heap[0][0] if len(self._heap) >= self.k else float("inf")

    def offer(self, d: float, obj: Any) -> None:
        """Consider one verified ``(distance, object)`` candidate."""
        if d < self.bound() or len(self._heap) < self.k:
            heapq.heappush(self._heap, (-d, next(self._counter), obj))
            if len(self._heap) > self.k:
                heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def items(self) -> list[tuple[float, Any]]:
        """The collected neighbours, ascending by distance (ties by
        insertion order)."""
        ordered = sorted((-negd, tb, obj) for negd, tb, obj in self._heap)
        return [(d, obj) for d, _, obj in ordered]


class QueryResult:
    """A query answer plus its completeness contract.

    Behaves like a sequence of the underlying items (hits for range
    queries, ``(distance, object)`` pairs for kNN), so existing call sites
    that iterate or ``len()`` the answer keep working.  ``complete`` is
    False when the query degraded — every item present is still *correct*
    (verified within the radius / confirmed true nearest neighbours);
    degradation only means the answer may be missing items.  ``reason``
    says which limit tripped; ``count`` carries the tally for counting
    queries; ``stats`` the per-query costs.  For partial kNN answers
    ``frontier`` records the smallest lower bound left unexplored — every
    unseen object is at distance >= ``frontier``, which is what lets a
    sharded merge keep the confirmed-prefix guarantee across shards.
    """

    __slots__ = ("items", "complete", "reason", "count", "stats", "frontier")

    def __init__(
        self,
        items: list,
        complete: bool = True,
        reason: Optional[ExhaustionReason] = None,
        count: Optional[int] = None,
        stats: Optional[QueryStats] = None,
        frontier: Optional[float] = None,
    ) -> None:
        self.items = items
        self.complete = complete
        self.reason = reason
        self.count = len(items) if count is None else count
        self.stats = stats if stats is not None else QueryStats()
        self.frontier = frontier

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.items)

    def __getitem__(self, index: Any) -> Any:
        return self.items[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryResult):
            return self.items == other.items and self.complete == other.complete
        if isinstance(other, list):
            return self.items == other
        return NotImplemented

    def __repr__(self) -> str:
        state = "complete" if self.complete else f"partial ({self.reason})"
        return f"QueryResult({len(self.items)} items, {state})"
