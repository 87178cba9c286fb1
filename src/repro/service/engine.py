"""A concurrent query service over an SPB-tree with graceful degradation.

:class:`QueryEngine` turns a single :class:`~repro.core.spbtree.SPBTree`
into a small serving layer:

* **admission control** — a bounded queue; when it is full, ``submit``
  rejects immediately with :class:`~repro.service.Overloaded` (backpressure
  beats unbounded latency);
* **a worker pool** — N daemon threads execute queries concurrently, each
  under its own :class:`~repro.service.QueryContext` so deadlines, budgets,
  and per-query compdist/page-access counters are isolated;
* **transient-fault retries** — each query attempt runs inside
  :func:`repro.storage.faults.retry_io`, so an injected (or real) transient
  I/O error re-runs the query with fresh counters instead of failing it;
  non-retryable failures (page corruption, simulated crashes) propagate;
* **graceful degradation** — deadline/budget exhaustion yields a partial
  :class:`~repro.service.QueryResult` (``complete=False``), never a hung
  worker; ``strict=True`` turns exhaustion into
  :class:`~repro.service.BudgetExceeded` raised from ``result()``.

The engine also accepts **mutations** (``"insert"`` / ``"delete"``): they
run on the same worker pool, serialized against queries by the tree's
:class:`~repro.service.EpochLock`, so a concurrent query never observes a
half-applied write.  Mutations are *not* retried on transient I/O errors —
an insert is not idempotent, and when a write-ahead log is attached the
failed attempt may already be durable; the error propagates to the caller
instead.

Queries themselves stay concurrent: range/kNN/count take the lock's read
side and the one mutable shared structure on that path — the RAF's LRU
buffer pool — locks internally, so read-only workers genuinely overlap.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Optional

from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.obs.flight import FlightRecorder
from repro.obs.ids import new_trace_id
from repro.obs.trace import QueryTrace
from repro.service.context import (
    CancelToken,
    EngineStopped,
    Overloaded,
    QueryContext,
)
from repro.stats import shard_depth, trim_stat_shards
from repro.storage.faults import retry_io

_STOP = object()

#: Work kinds the engine knows how to execute.  ``ship`` and ``failover``
#: are only meaningful when the served index is a replicated cluster.
_KINDS = ("range", "knn", "count", "insert", "delete", "ship", "failover")

#: The subset of kinds that mutate the tree (never retried: not idempotent).
_MUTATIONS = ("insert", "delete", "ship", "failover")


class PendingQuery:
    """A handle to a submitted query (a minimal future).

    ``result()`` blocks until the worker finishes (or ``timeout`` expires),
    then returns the :class:`~repro.service.QueryResult` or re-raises the
    query's failure.  ``cancel()`` trips the query's cancellation token;
    a cooperative checkpoint will stop the traversal shortly after.
    """

    def __init__(
        self,
        kind: str,
        args: tuple,
        context: QueryContext,
        source: str = "inproc",
    ) -> None:
        self.kind = kind
        self.args = args
        self.context = context
        #: Where the operation came from: ``"inproc"`` for library/CLI
        #: callers, ``"net:<peer>"`` for wire requests (slow-log attribution).
        self.source = source
        #: Deadline allowance in ms, armed when execution starts.
        self.deadline_ms: Optional[float] = None
        #: ``time.perf_counter()`` at enqueue; the worker measures queue
        #: wait against it (a traced query's ``queue-wait`` span).
        self.enqueued_at: float = 0.0
        self._done = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None

    def cancel(self) -> None:
        assert self.context.cancel_token is not None
        self.context.cancel_token.cancel()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Wait for the outcome; ``timeout`` is in seconds (None = forever).

        Raises :class:`TimeoutError` when the query has not finished within
        ``timeout`` — the query itself is *not* cancelled and keeps
        running; a later ``result()`` call can still collect it (call
        :meth:`cancel` explicitly to abandon the work).  This contract is
        pinned by a regression test: a timed-out wait must never have the
        side effect of killing the query.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"query not finished within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result

    def _finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self._result = result
        self._error = error
        self._done.set()


class QueryEngine:
    """Bounded-queue, multi-worker query service for one SPB-tree.

    Usage::

        with QueryEngine(tree, workers=4, max_queue=32) as engine:
            pending = engine.submit("knn", query, 8, deadline_ms=50)
            result = pending.result()        # QueryResult, maybe partial

    ``default_*`` limits apply to every query that does not override them;
    ``retry_attempts`` bounds the per-query transient-I/O retry loop.
    """

    def __init__(
        self,
        tree: Any,
        workers: int = 4,
        max_queue: int = 32,
        retry_attempts: int = 3,
        retry_base_delay: float = 0.005,
        default_deadline_ms: Optional[float] = None,
        default_max_compdists: Optional[int] = None,
        default_max_page_accesses: Optional[int] = None,
        strict: bool = False,
        trace_queries: bool = False,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.tree = tree
        self.workers = workers
        self.retry_attempts = retry_attempts
        self.retry_base_delay = retry_base_delay
        self.default_deadline_ms = default_deadline_ms
        self.default_max_compdists = default_max_compdists
        self.default_max_page_accesses = default_max_page_accesses
        self.strict = strict
        #: Attach a QueryTrace to every query so its span tree is available
        #: on ``pending.context.trace`` (implied by a query recorder, which
        #: wants the span tree of every entry).
        self.trace_queries = trace_queries or flight is not None
        #: Optional query recorder: finished queries are rung in and slow
        #: ones logged; degraded results, failovers and rejection bursts
        #: trigger dumps.
        self.flight = flight
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopped = False
        #: Served / rejected / degraded tallies (informational; lock-guarded).
        self.served = 0
        self.degraded = 0
        self.rejected = 0
        self.failed = 0
        self.mutated = 0
        #: Query attempts re-run after a transient I/O error.
        self.retries = 0
        #: Queued-but-unstarted operations finished with EngineStopped.
        self.stopped_unstarted = 0
        self._stats_lock = threading.Lock()
        #: EWMA of recent execution latency (seconds); feeds the
        #: ``retry_after_ms`` backpressure hint on Overloaded rejections.
        self._latency_ewma = 0.0

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "QueryEngine":
        if self._started:
            return self
        self._started = True
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"query-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, wait: bool = True) -> None:
        """Stop accepting work and shut the workers down.

        Queued-but-unstarted queries still execute before the stop tokens
        are consumed (FIFO queue); with ``wait=True`` this blocks until
        every worker has exited.  Anything still sitting in the queue
        *after* the workers are gone — an item that raced past the
        stopped check and landed behind the stop tokens — is finished
        with a structured :class:`EngineStopped` error, so its
        ``result()`` caller fails fast instead of blocking until its
        timeout.  ``stop(wait=True)`` may be called again after a
        ``stop(wait=False)`` to perform the join-and-drain.
        """
        if self._started and not self._stopped:
            self._stopped = True
            for _ in self._threads:
                self._queue.put(_STOP)
        self._stopped = True
        if wait:
            for thread in self._threads:
                thread.join()
            self._fail_unstarted()

    def _fail_unstarted(self) -> None:
        """Finish every still-queued item with EngineStopped (workers are
        gone; nothing will ever execute them)."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _STOP or item.done:
                continue
            with self._stats_lock:
                self.stopped_unstarted += 1
            item._finish(
                error=EngineStopped(
                    f"engine stopped before queued {item.kind!r} could start"
                )
            )

    def __enter__(self) -> "QueryEngine":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------ submission

    @property
    def queue_depth(self) -> int:
        """Operations currently waiting in the admission queue."""
        return self._queue.qsize()

    def retry_after_hint_ms(self) -> float:
        """Suggested backoff for a rejected caller: roughly the time the
        full queue needs to drain at the recent per-op latency (floor of
        1 ms so clients never spin)."""
        with self._stats_lock:
            ewma = self._latency_ewma
        per_op = ewma if ewma > 0 else self.retry_base_delay
        depth = self._queue.qsize() or self._queue.maxsize
        return max(1.0, per_op * 1000.0 * (depth + 1) / self.workers)

    def _reject(self) -> Overloaded:
        """Count one admission rejection and build the structured error."""
        depth = self._queue.qsize()
        with self._stats_lock:
            self.rejected += 1
        if _obsreg.ENABLED:
            _instruments.engine().admission_rejections.inc()
        if self.flight is not None:
            self.flight.note_rejection()
        return Overloaded(
            f"admission queue full ({self._queue.maxsize} pending); "
            f"retry later",
            queue_depth=depth,
            retry_after_ms=self.retry_after_hint_ms(),
        )

    def submit(
        self,
        kind: str,
        *args: Any,
        deadline_ms: Optional[float] = None,
        max_compdists: Optional[int] = None,
        max_page_accesses: Optional[int] = None,
        strict: Optional[bool] = None,
        cancel_token: Optional[CancelToken] = None,
        source: str = "inproc",
        request_id: Optional[str] = None,
    ) -> PendingQuery:
        """Enqueue one work item; raises :class:`Overloaded` when the queue is full.

        ``kind`` is ``"range"`` (args: query, radius), ``"knn"`` (args:
        query, k[, traversal]), ``"count"`` (args: query, radius),
        ``"insert"`` (args: obj), ``"delete"`` (args: obj), and — when
        serving a replicated cluster — ``"ship"`` (no args: pump every
        shard's WAL to its followers) or ``"failover"`` (args: shard_id;
        promote that shard's best follower).  The deadline
        clock starts when the query begins *executing*, so queue wait does
        not eat the budget (admission control is what bounds the wait).
        Deadlines and budgets do not apply to mutations (a write either
        commits whole or fails), and mutations are never retried.
        """
        if kind not in _KINDS:
            raise ValueError(f"unknown query kind {kind!r}; expected {_KINDS}")
        if not self._started or self._stopped:
            raise RuntimeError("engine is not running (use start() or a with block)")
        context = QueryContext.with_limits(
            deadline_ms=None,  # armed at execution start, see _execute
            max_compdists=(
                max_compdists
                if max_compdists is not None
                else self.default_max_compdists
            ),
            max_page_accesses=(
                max_page_accesses
                if max_page_accesses is not None
                else self.default_max_page_accesses
            ),
            strict=self.strict if strict is None else strict,
            cancel_token=cancel_token or CancelToken(),
        )
        # Identity first: with tracing on, every operation — mutations and
        # replication tasks included — gets a request id, minted here when
        # the edge (client/server/CLI) did not supply one.  With tracing
        # off nothing is minted, keeping untraced runs allocation-free.
        if request_id is not None:
            context.request_id = request_id
        elif self.trace_queries:
            context.request_id = new_trace_id()
        if self.trace_queries and kind not in _MUTATIONS:
            context.trace = QueryTrace(kind)
            if _obsreg.ENABLED:
                _instruments.trace().started.labels(kind=kind).inc()
        pending = PendingQuery(kind, args, context, source=source)
        pending.deadline_ms = (
            deadline_ms if deadline_ms is not None else self.default_deadline_ms
        )
        pending.enqueued_at = time.perf_counter()
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            raise self._reject() from None
        if _obsreg.ENABLED:
            _instruments.engine().queue_depth.set(self._queue.qsize())
        return pending

    # Blocking conveniences ------------------------------------------------

    def range(self, query: Any, radius: float, **limits: Any) -> Any:
        return self.submit("range", query, radius, **limits).result()

    def knn(self, query: Any, k: int, **limits: Any) -> Any:
        return self.submit("knn", query, k, **limits).result()

    def count(self, query: Any, radius: float, **limits: Any) -> Any:
        return self.submit("count", query, radius, **limits).result()

    def insert(self, obj: Any) -> Any:
        """Insert ``obj`` through the worker pool; blocks until durable."""
        return self.submit("insert", obj).result()

    def delete(self, obj: Any) -> bool:
        """Delete ``obj`` through the worker pool; True if a copy was removed."""
        return self.submit("delete", obj).result()

    # --------------------------------------------------------------- workers

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if _obsreg.ENABLED:
                _instruments.engine().queue_depth.set(self._queue.qsize())
            if item is _STOP:
                break
            t0 = time.perf_counter()
            queue_wait = t0 - item.enqueued_at if item.enqueued_at else 0.0
            try:
                result = self._execute(item)
            except BaseException as exc:  # noqa: BLE001 — relayed to caller
                with self._stats_lock:
                    self.failed += 1
                if _obsreg.ENABLED:
                    _instruments.engine().failed.inc()
                item._finish(error=exc)
            else:
                elapsed = time.perf_counter() - t0
                degraded = item.kind not in _MUTATIONS and not getattr(
                    result, "complete", True
                )
                with self._stats_lock:
                    self.served += 1
                    if item.kind in _MUTATIONS:
                        self.mutated += 1
                    elif degraded:
                        self.degraded += 1
                    self._latency_ewma = (
                        elapsed
                        if self._latency_ewma == 0.0
                        else 0.8 * self._latency_ewma + 0.2 * elapsed
                    )
                ctx = item.context
                if ctx.trace is not None:
                    # Stage timing: queue wait attributed after execution so
                    # a retry's trace reset cannot erase it.  Zero counters,
                    # so the reconciliation sums are untouched.
                    ctx.trace.span("queue-wait").elapsed += queue_wait
                if _obsreg.ENABLED:
                    eng = _instruments.engine()
                    eng.query_latency.labels(kind=item.kind).observe(elapsed)
                    if degraded:
                        eng.degraded.inc()
                    if ctx.trace is not None:
                        _instruments.trace().queue_wait_seconds.observe(
                            queue_wait
                        )
                if self.flight is not None:
                    if item.kind not in _MUTATIONS:
                        self.flight.observe(
                            item.kind, item.context, result,
                            elapsed=elapsed, source=item.source,
                        )
                    elif item.kind == "failover":
                        self.flight.trigger(
                            "failover",
                            detail=result if isinstance(result, dict) else None,
                        )
                item._finish(result=result)

    def _execute(self, pending: PendingQuery) -> Any:
        ctx = pending.context
        # Arm the deadline now: it covers execution (including retries),
        # not time spent queued.
        if pending.deadline_ms is not None:
            ctx.started = time.monotonic()
            ctx.deadline = ctx.started + pending.deadline_ms / 1000.0

        attempts_made = 0

        def attempt() -> Any:
            nonlocal attempts_made
            attempts_made += 1
            if attempts_made > 1:
                with self._stats_lock:
                    self.retries += 1
                if _obsreg.ENABLED:
                    _instruments.engine().retries.inc()
            # Fresh counters per attempt: a successful attempt reports only
            # its own costs, as if the transient fault had never happened.
            ctx.reset_counters()
            return self._run(pending.kind, pending.args, ctx)

        # Mutations get exactly one attempt: an insert is not idempotent,
        # and a failed attempt may already have committed to the WAL.
        attempts = 1 if pending.kind in _MUTATIONS else self.retry_attempts
        base_depth = shard_depth()
        try:
            return retry_io(
                attempt,
                attempts=attempts,
                base_delay=self.retry_base_delay,
                retry_on=(OSError,),
            )
        finally:
            # An attempt that raised between a shard push and its matching
            # pop (a buggy tree wrapper, an exception from user code) must
            # not leave this worker's shard stack deeper than it found it —
            # the next query on the thread would tally into a dead context.
            trim_stat_shards(base_depth)

    def _run(self, kind: str, args: tuple, ctx: QueryContext) -> Any:
        if kind == "range":
            return self.tree.range_query(*args, context=ctx)
        if kind == "knn":
            return self.tree.knn_query(*args, context=ctx)
        if kind == "count":
            return self.tree.range_count(*args, context=ctx)
        if kind == "insert":
            self.tree.insert(*args)
            return True
        if kind in ("ship", "failover"):
            method = getattr(self.tree, "ship_all" if kind == "ship" else kind, None)
            if method is None:
                raise ValueError(
                    f"{kind!r} requires a replicated cluster; this engine "
                    f"serves {type(self.tree).__name__}"
                )
            if ctx.request_id is not None:
                return method(*args, request_id=ctx.request_id)
            return method(*args)
        return self.tree.delete(*args)
