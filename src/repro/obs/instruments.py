"""Lazy, cached metric handles for every instrumented subsystem.

Instrumented modules must not pay a registry lookup (dict access + lock)
per operation, and must not allocate anything while observability is
disabled.  This module gives each subsystem a tiny namespace of metric
objects that is built once, on first use after :func:`repro.obs.enable`,
and cached at module level::

    if _obs.ENABLED:                       # registry.ENABLED, one attr load
        _instruments.buffer_pool().hits.inc()

The bundles double as the catalog of every metric the system exports;
:func:`preregister` touches them all so an exposition rendered right after
``enable()`` already lists the full schema (families with zero samples are
still families — a scraper sees the shape of the system before traffic
arrives).

Metric naming follows Prometheus conventions: ``repro_`` prefix, base
units (seconds, bytes), ``_total`` suffix on counters.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import get_registry


class BufferPoolInstruments:
    """Hit/miss totals plus a collection-time hit-ratio gauge."""

    __slots__ = ("hits", "misses", "hit_ratio")

    def __init__(self) -> None:
        reg = get_registry()
        self.hits = reg.counter(
            "repro_buffer_pool_hits_total",
            "Page reads served from a buffer pool (no page access charged).",
        )
        self.misses = reg.counter(
            "repro_buffer_pool_misses_total",
            "Page reads that fell through a buffer pool to the page file.",
        )
        hits, misses = self.hits, self.misses

        def ratio() -> float:
            total = hits.value + misses.value
            return hits.value / total if total else 0.0

        self.hit_ratio = reg.gauge(
            "repro_buffer_pool_hit_ratio",
            "Fraction of buffered reads served from cache (process-wide).",
            fn=ratio,
        )


class PageFileInstruments:
    """Physical page read/write latency histograms."""

    __slots__ = ("read_seconds", "write_seconds")

    def __init__(self) -> None:
        reg = get_registry()
        self.read_seconds = reg.histogram(
            "repro_pagefile_read_seconds",
            "Latency of one page read from a page file.",
        )
        self.write_seconds = reg.histogram(
            "repro_pagefile_write_seconds",
            "Latency of one page write to a page file.",
        )


class WalInstruments:
    """Write-ahead-log durability costs."""

    __slots__ = ("fsync_seconds", "appended_bytes", "checkpoint_seconds")

    def __init__(self) -> None:
        reg = get_registry()
        self.fsync_seconds = reg.histogram(
            "repro_wal_fsync_seconds",
            "Latency of one WAL commit (flush + fsync) making a record durable.",
        )
        self.appended_bytes = reg.counter(
            "repro_wal_appended_bytes_total",
            "Bytes appended to write-ahead logs (frames, including headers).",
        )
        self.checkpoint_seconds = reg.histogram(
            "repro_wal_checkpoint_seconds",
            "Duration of folding a WAL into a new on-disk generation.",
        )


class EngineInstruments:
    """QueryEngine admission, retry, and latency signals."""

    __slots__ = (
        "queue_depth",
        "admission_rejections",
        "retries",
        "degraded",
        "failed",
        "query_latency",
    )

    def __init__(self) -> None:
        reg = get_registry()
        self.queue_depth = reg.gauge(
            "repro_engine_queue_depth",
            "Operations waiting in the engine's admission queue.",
        )
        self.admission_rejections = reg.counter(
            "repro_engine_admission_rejections_total",
            "Submissions rejected because the admission queue was full.",
        )
        self.retries = reg.counter(
            "repro_engine_retries_total",
            "Query attempts re-run after a transient I/O error.",
        )
        self.degraded = reg.counter(
            "repro_engine_degraded_total",
            "Queries that returned a partial result (budget/deadline hit).",
        )
        self.failed = reg.counter(
            "repro_engine_failed_total",
            "Operations that raised to the caller.",
        )
        self.query_latency = reg.histogram(
            "repro_query_latency_seconds",
            "End-to-end engine execution latency per operation kind.",
            labelnames=("kind",),
        )


class ClusterInstruments:
    """Sharded-index routing, per-shard load, and rebalance activity.

    Per-shard series use a ``shard`` label (the catalog shard id) rather
    than per-shard metric names, so a dashboard can aggregate across a
    rebalance that retires one id and mints two more.
    """

    __slots__ = (
        "shard_objects",
        "shards_visited",
        "shards_pruned",
        "shard_queries",
        "rebalances",
    )

    def __init__(self) -> None:
        reg = get_registry()
        self.shard_objects = reg.gauge(
            "repro_cluster_shard_objects",
            "Live objects held by one shard of a sharded index.",
            labelnames=("shard",),
        )
        self.shards_visited = reg.counter(
            "repro_cluster_shards_visited_total",
            "Shards a scattered query actually searched, per query kind.",
            labelnames=("kind",),
        )
        self.shards_pruned = reg.counter(
            "repro_cluster_shards_pruned_total",
            "Shards eliminated by shard-level Lemma 1/3 pruning, per kind.",
            labelnames=("kind",),
        )
        self.shard_queries = reg.counter(
            "repro_cluster_shard_queries_total",
            "Per-shard sub-queries executed during scatter-gather.",
            labelnames=("kind", "shard"),
        )
        self.rebalances = reg.counter(
            "repro_cluster_rebalance_total",
            "Completed rebalance operations, by kind (split or merge).",
            labelnames=("op",),
        )


class ReplicationInstruments:
    """Per-shard replication health: lag, shipping volume, failovers.

    Replica series use ``shard`` (catalog shard id) and ``replica``
    (replica id within the set) labels so dashboards survive promotions —
    the same physical directory keeps its replica id when roles swap.
    """

    __slots__ = (
        "lag_bytes",
        "shipped_bytes",
        "ack_seconds",
        "heartbeat_misses",
        "promotions",
        "resyncs",
    )

    def __init__(self) -> None:
        reg = get_registry()
        self.lag_bytes = reg.gauge(
            "repro_replication_lag_bytes",
            "WAL bytes committed on the primary but not yet acknowledged "
            "by this replica.",
            labelnames=("shard", "replica"),
        )
        self.shipped_bytes = reg.counter(
            "repro_replication_shipped_bytes_total",
            "WAL frame bytes shipped from primaries to followers.",
        )
        self.ack_seconds = reg.histogram(
            "repro_replication_ack_seconds",
            "Latency of one ship round: read frames, append to the "
            "follower's log, apply, acknowledge.",
        )
        self.heartbeat_misses = reg.counter(
            "repro_replication_heartbeat_misses_total",
            "Health probes that found a replica past its heartbeat timeout.",
            labelnames=("shard",),
        )
        self.promotions = reg.counter(
            "repro_replication_promotions_total",
            "Follower promotions to primary (failovers), per shard.",
            labelnames=("shard",),
        )
        self.resyncs = reg.counter(
            "repro_replication_resyncs_total",
            "Full snapshot re-syncs of a follower from its primary.",
        )


class SupervisorInstruments:
    """Self-healing control loop: failovers driven, rejoins, scrub health.

    MTTR is measured from the tick that first *observed* the primary
    unhealthy to the tick whose promotion committed — the supervisor's
    detect-to-repair latency, the number an operator would otherwise be.
    """

    __slots__ = (
        "ticks",
        "promotions",
        "rejoins",
        "scrub_passes",
        "scrub_pages",
        "scrub_wal_bytes",
        "divergences",
        "repairs",
        "quarantines",
        "mttr_seconds",
    )

    def __init__(self) -> None:
        reg = get_registry()
        self.ticks = reg.counter(
            "repro_supervisor_ticks_total",
            "Supervisor control-loop ticks executed.",
        )
        self.promotions = reg.counter(
            "repro_supervisor_promotions_total",
            "Automatic failovers the supervisor drove to commit, per shard.",
            labelnames=("shard",),
        )
        self.rejoins = reg.counter(
            "repro_supervisor_rejoins_total",
            "Stale members (demoted ex-primaries, lapsed followers) "
            "re-admitted via snapshot resync, per shard.",
            labelnames=("shard",),
        )
        self.scrub_passes = reg.counter(
            "repro_supervisor_scrub_passes_total",
            "Anti-entropy scrub passes completed.",
        )
        self.scrub_pages = reg.counter(
            "repro_supervisor_scrub_pages_total",
            "Pages spot-verified at rest by the scrubber.",
        )
        self.scrub_wal_bytes = reg.counter(
            "repro_supervisor_scrub_wal_bytes_total",
            "Durable WAL prefix bytes compared against the primary's log.",
        )
        self.divergences = reg.counter(
            "repro_supervisor_divergences_total",
            "Divergent or corrupt replica states found by scrub, by kind.",
            labelnames=("kind",),
        )
        self.repairs = reg.counter(
            "repro_supervisor_repairs_total",
            "Quarantined replicas rebuilt by snapshot resync and returned "
            "to the read rotation.",
        )
        self.quarantines = reg.counter(
            "repro_supervisor_quarantines_total",
            "Replicas quarantined (marked down, excluded from reads) "
            "pending rebuild, per shard.",
            labelnames=("shard",),
        )
        self.mttr_seconds = reg.histogram(
            "repro_supervisor_mttr_seconds",
            "Time from first observing a primary unhealthy to the "
            "promotion that repaired the shard.",
            buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0),
        )


class NetInstruments:
    """Wire front-end health: connections, frames, latency, backpressure.

    Frame/byte totals carry a ``direction`` label (``rx`` / ``tx``);
    per-op latency a ``op`` label; error totals the structured wire
    ``code`` so a dashboard separates backpressure from real failures.
    """

    __slots__ = (
        "connections_open",
        "connections_total",
        "inflight",
        "frames",
        "frame_bytes",
        "op_latency",
        "rejected",
        "errors",
        "drained",
        "deadline_pretrips",
        "client_retries",
    )

    def __init__(self) -> None:
        reg = get_registry()
        self.connections_open = reg.gauge(
            "repro_net_connections_open",
            "TCP connections currently held by the network front end.",
        )
        self.connections_total = reg.counter(
            "repro_net_connections_total",
            "TCP connections ever accepted by the network front end.",
        )
        self.inflight = reg.gauge(
            "repro_net_inflight_requests",
            "Wire requests currently executing (admitted, not yet replied).",
        )
        self.frames = reg.counter(
            "repro_net_frames_total",
            "Protocol frames moved over the wire, by direction.",
            labelnames=("direction",),
        )
        self.frame_bytes = reg.counter(
            "repro_net_frame_bytes_total",
            "Protocol frame bytes moved over the wire, by direction.",
            labelnames=("direction",),
        )
        self.op_latency = reg.histogram(
            "repro_net_op_latency_seconds",
            "Server-side latency per wire operation (decode to reply).",
            labelnames=("op",),
        )
        self.rejected = reg.counter(
            "repro_net_rejected_total",
            "Wire requests rejected with RETRY_LATER (admission backpressure).",
        )
        self.errors = reg.counter(
            "repro_net_errors_total",
            "Error responses sent over the wire, by structured code.",
            labelnames=("code",),
        )
        self.drained = reg.counter(
            "repro_net_drained_total",
            "In-flight requests finished (or aborted partial) during drain.",
        )
        self.deadline_pretrips = reg.counter(
            "repro_net_deadline_pretrips_total",
            "Requests whose deadline minus the network allowance was already "
            "spent on arrival (answered degraded without running).",
        )
        self.client_retries = reg.counter(
            "repro_net_client_retries_total",
            "Client-side retry attempts (idempotent reads only).",
        )


class TraceInstruments:
    """Distributed-tracing volume and stage timings.

    ``queue_wait_seconds`` is the engine admission queue's contribution to
    traced requests — the stage a latency histogram alone cannot separate
    from execution.  ``stitched`` counts server replies that carried a
    span tree back to the client.
    """

    __slots__ = ("started", "stitched", "queue_wait_seconds")

    def __init__(self) -> None:
        reg = get_registry()
        self.started = reg.counter(
            "repro_trace_started_total",
            "Traced operations begun (a request id was attached), per kind.",
            labelnames=("kind",),
        )
        self.stitched = reg.counter(
            "repro_trace_stitched_total",
            "Wire replies that carried a server span tree for client-side "
            "stitching.",
        )
        self.queue_wait_seconds = reg.histogram(
            "repro_trace_queue_wait_seconds",
            "Time traced operations spent in the engine admission queue "
            "before a worker picked them up.",
        )


class FlightInstruments:
    """Flight-recorder ring volume and anomaly dump triggers."""

    __slots__ = ("recorded", "ring_depth", "dump_triggers")

    def __init__(self) -> None:
        reg = get_registry()
        self.recorded = reg.counter(
            "repro_flight_recorded_total",
            "Finished traces recorded into the flight-recorder ring.",
        )
        self.ring_depth = reg.gauge(
            "repro_flight_ring_depth",
            "Traces currently held in the flight-recorder ring.",
        )
        self.dump_triggers = reg.counter(
            "repro_flight_dump_triggers_total",
            "Anomaly triggers fired (dump written unless cooled down or "
            "memory-only), by trigger reason.",
            labelnames=("reason",),
        )


class TuningInstruments:
    """Self-tuning loop: decisions taken, exploration, calibration error.

    ``prediction_error`` is the calibrated cost models' median
    |log(predicted/actual)| over the sliding observation window — the
    gauge an operator watches to decide whether the advisor's choices can
    be trusted.  Decision counters are labelled by kind (``traversal``,
    ``pivot-rebuild``) so dashboards separate steady-state steering from
    rare maintenance.
    """

    __slots__ = (
        "ticks",
        "decisions",
        "explorations",
        "calibrations",
        "prediction_error",
        "arm_cost",
    )

    def __init__(self) -> None:
        reg = get_registry()
        self.ticks = reg.counter(
            "repro_tuning_ticks_total",
            "Tuner control-loop ticks executed.",
        )
        self.decisions = reg.counter(
            "repro_tuning_decisions_total",
            "Tuning decisions taken, by kind.",
            labelnames=("kind",),
        )
        self.explorations = reg.counter(
            "repro_tuning_explorations_total",
            "Per-query traversal choices made by the epsilon-greedy "
            "exploration floor rather than the learned policy.",
        )
        self.calibrations = reg.counter(
            "repro_tuning_calibrations_total",
            "Cost-model recalibrations (EDC/EPA scale refits) committed.",
        )
        self.prediction_error = reg.gauge(
            "repro_tuning_prediction_error",
            "Median |log(predicted/actual)| of the calibrated cost model "
            "over the sliding window, per model (edc / epa).",
            labelnames=("model",),
        )
        self.arm_cost = reg.gauge(
            "repro_tuning_arm_cost",
            "Learned EWMA cost (compdists + page accesses) per kNN "
            "traversal arm.",
            labelnames=("traversal",),
        )


_buffer_pool: Optional[BufferPoolInstruments] = None
_pagefile: Optional[PageFileInstruments] = None
_wal: Optional[WalInstruments] = None
_engine: Optional[EngineInstruments] = None
_cluster: Optional[ClusterInstruments] = None
_replication: Optional[ReplicationInstruments] = None
_supervisor: Optional[SupervisorInstruments] = None
_net: Optional[NetInstruments] = None
_trace: Optional[TraceInstruments] = None
_flight: Optional[FlightInstruments] = None
_tuning: Optional[TuningInstruments] = None


def buffer_pool() -> BufferPoolInstruments:
    global _buffer_pool
    if _buffer_pool is None:
        _buffer_pool = BufferPoolInstruments()
    return _buffer_pool


def pagefile() -> PageFileInstruments:
    global _pagefile
    if _pagefile is None:
        _pagefile = PageFileInstruments()
    return _pagefile


def wal() -> WalInstruments:
    global _wal
    if _wal is None:
        _wal = WalInstruments()
    return _wal


def engine() -> EngineInstruments:
    global _engine
    if _engine is None:
        _engine = EngineInstruments()
    return _engine


def cluster() -> ClusterInstruments:
    global _cluster
    if _cluster is None:
        _cluster = ClusterInstruments()
    return _cluster


def replication() -> ReplicationInstruments:
    global _replication
    if _replication is None:
        _replication = ReplicationInstruments()
    return _replication


def supervisor() -> SupervisorInstruments:
    global _supervisor
    if _supervisor is None:
        _supervisor = SupervisorInstruments()
    return _supervisor


def net() -> NetInstruments:
    global _net
    if _net is None:
        _net = NetInstruments()
    return _net


def trace() -> TraceInstruments:
    global _trace
    if _trace is None:
        _trace = TraceInstruments()
    return _trace


def flight() -> FlightInstruments:
    global _flight
    if _flight is None:
        _flight = FlightInstruments()
    return _flight


def tuning() -> TuningInstruments:
    global _tuning
    if _tuning is None:
        _tuning = TuningInstruments()
    return _tuning


def preregister() -> None:
    """Create every instrument bundle so the full metric schema is
    registered before any traffic (``repro.obs.enable`` calls this)."""
    buffer_pool()
    pagefile()
    wal()
    engine()
    cluster()
    replication()
    supervisor()
    net()
    trace()
    flight()
    tuning()
