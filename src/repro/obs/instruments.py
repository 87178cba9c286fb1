"""Lazy, cached metric handles for every instrumented subsystem.

Instrumented modules must not pay a registry lookup (dict access + lock)
per operation, and must not allocate anything while observability is
disabled.  This module gives each subsystem a tiny namespace of metric
objects that is built once, on first use after :func:`repro.obs.enable`,
and cached::

    if _obs.ENABLED:                       # registry.ENABLED, one attr load
        _instruments.buffer_pool().hits.inc()

:data:`FAMILIES` is the catalog of every metric the system exports —
*bundle → attribute → (kind, name, help[, labelnames[, buckets]])*, a row
being the registry call that creates the family — and the only place a
family is declared: adding one is adding a row.
:func:`preregister` walks the table, so an exposition rendered right after
``enable()`` already lists the full schema (families with zero samples are
still families — a scraper sees the shape of the system before traffic
arrives) and cannot miss a bundle.

Metric naming follows Prometheus conventions: ``repro_`` prefix, base
units (seconds, bytes), ``_total`` suffix on counters.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.registry import get_registry


def _hit_ratio() -> float:
    """Collected, not stored: runs at exposition / snapshot time only."""
    pool = _ACCESSORS["buffer_pool"]()
    total = pool.hits.value + pool.misses.value
    return pool.hits.value / total if total else 0.0


FAMILIES: dict[str, dict[str, tuple]] = {
    # Hit/miss totals plus a collection-time hit-ratio gauge.
    "buffer_pool": {
        "hits": (
            "counter", "repro_buffer_pool_hits_total",
            "Page reads served from a buffer pool (no page access charged).",
        ),
        "misses": (
            "counter", "repro_buffer_pool_misses_total",
            "Page reads that fell through a buffer pool to the page file.",
        ),
        "hit_ratio": (
            "gauge", "repro_buffer_pool_hit_ratio",
            "Fraction of buffered reads served from cache (process-wide).",
            (), _hit_ratio,
        ),
    },
    # Physical page read/write latency histograms.
    "pagefile": {
        "read_seconds": (
            "histogram", "repro_pagefile_read_seconds",
            "Latency of one page read from a page file.",
        ),
        "write_seconds": (
            "histogram", "repro_pagefile_write_seconds",
            "Latency of one page write to a page file.",
        ),
    },
    # Write-ahead-log durability costs.
    "wal": {
        "fsync_seconds": (
            "histogram", "repro_wal_fsync_seconds",
            "Latency of one WAL commit (flush + fsync) making a record durable.",
        ),
        "appended_bytes": (
            "counter", "repro_wal_appended_bytes_total",
            "Bytes appended to write-ahead logs (frames, including headers).",
        ),
        "checkpoint_seconds": (
            "histogram", "repro_wal_checkpoint_seconds",
            "Duration of folding a WAL into a new on-disk generation.",
        ),
    },
    # QueryEngine admission, retry, and latency signals.
    "engine": {
        "queue_depth": (
            "gauge", "repro_engine_queue_depth",
            "Operations waiting in the engine's admission queue.",
        ),
        "admission_rejections": (
            "counter", "repro_engine_admission_rejections_total",
            "Submissions rejected because the admission queue was full.",
        ),
        "retries": (
            "counter", "repro_engine_retries_total",
            "Query attempts re-run after a transient I/O error.",
        ),
        "degraded": (
            "counter", "repro_engine_degraded_total",
            "Queries that returned a partial result (budget/deadline hit).",
        ),
        "failed": (
            "counter", "repro_engine_failed_total",
            "Operations that raised to the caller.",
        ),
        "query_latency": (
            "histogram", "repro_query_latency_seconds",
            "End-to-end engine execution latency per operation kind.",
            ("kind",),
        ),
    },
    # Sharded-index routing, per-shard load, and rebalance activity.
    # Per-shard series use a ``shard`` label (the catalog shard id) rather
    # than per-shard metric names, so a dashboard can aggregate across a
    # rebalance that retires one id and mints two more.
    "cluster": {
        "shard_objects": (
            "gauge", "repro_cluster_shard_objects",
            "Live objects held by one shard of a sharded index.",
            ("shard",),
        ),
        "shards_visited": (
            "counter", "repro_cluster_shards_visited_total",
            "Shards a scattered query actually searched, per query kind.",
            ("kind",),
        ),
        "shards_pruned": (
            "counter", "repro_cluster_shards_pruned_total",
            "Shards eliminated by shard-level Lemma 1/3 pruning, per kind.",
            ("kind",),
        ),
        "shard_queries": (
            "counter", "repro_cluster_shard_queries_total",
            "Per-shard sub-queries executed during scatter-gather.",
            ("kind", "shard"),
        ),
        "rebalances": (
            "counter", "repro_cluster_rebalance_total",
            "Completed rebalance operations, by kind (split or merge).",
            ("op",),
        ),
    },
    # Per-shard replication health: lag, shipping volume, failovers.
    # Replica series use ``shard`` (catalog shard id) and ``replica``
    # (replica id within the set) labels so dashboards survive promotions —
    # the same physical directory keeps its replica id when roles swap.
    "replication": {
        "lag_bytes": (
            "gauge", "repro_replication_lag_bytes",
            "WAL bytes committed on the primary but not yet acknowledged "
            "by this replica.",
            ("shard", "replica"),
        ),
        "shipped_bytes": (
            "counter", "repro_replication_shipped_bytes_total",
            "WAL frame bytes shipped from primaries to followers.",
        ),
        "ack_seconds": (
            "histogram", "repro_replication_ack_seconds",
            "Latency of one ship round: read frames, append to the "
            "follower's log, apply, acknowledge.",
        ),
        "heartbeat_misses": (
            "counter", "repro_replication_heartbeat_misses_total",
            "Health probes that found a replica past its heartbeat timeout.",
            ("shard",),
        ),
        "promotions": (
            "counter", "repro_replication_promotions_total",
            "Follower promotions to primary (failovers), per shard.",
            ("shard",),
        ),
        "resyncs": (
            "counter", "repro_replication_resyncs_total",
            "Full snapshot re-syncs of a follower from its primary.",
        ),
    },
    # Self-healing control loop: failovers driven, rejoins, scrub health.
    "supervisor": {
        "ticks": (
            "counter", "repro_supervisor_ticks_total",
            "Supervisor control-loop ticks executed.",
        ),
        "promotions": (
            "counter", "repro_supervisor_promotions_total",
            "Automatic failovers the supervisor drove to commit, per shard.",
            ("shard",),
        ),
        "rejoins": (
            "counter", "repro_supervisor_rejoins_total",
            "Stale members (demoted ex-primaries, lapsed followers) "
            "re-admitted via snapshot resync, per shard.",
            ("shard",),
        ),
        "scrub_passes": (
            "counter", "repro_supervisor_scrub_passes_total",
            "Anti-entropy scrub passes completed.",
        ),
        "scrub_pages": (
            "counter", "repro_supervisor_scrub_pages_total",
            "Pages spot-verified at rest by the scrubber.",
        ),
        "scrub_wal_bytes": (
            "counter", "repro_supervisor_scrub_wal_bytes_total",
            "Durable WAL prefix bytes compared against the primary's log.",
        ),
        "divergences": (
            "counter", "repro_supervisor_divergences_total",
            "Divergent or corrupt replica states found by scrub, by kind.",
            ("kind",),
        ),
        "repairs": (
            "counter", "repro_supervisor_repairs_total",
            "Quarantined replicas rebuilt by snapshot resync and returned "
            "to the read rotation.",
        ),
        "quarantines": (
            "counter", "repro_supervisor_quarantines_total",
            "Replicas quarantined (marked down, excluded from reads) "
            "pending rebuild, per shard.",
            ("shard",),
        ),
        # MTTR is measured from the tick that first *observed* the primary
        # unhealthy to the tick whose promotion committed — the supervisor's
        # detect-to-repair latency, the number an operator would otherwise be.
        "mttr_seconds": (
            "histogram", "repro_supervisor_mttr_seconds",
            "Time from first observing a primary unhealthy to the "
            "promotion that repaired the shard.",
            (), (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0),
        ),
    },
    # Wire front-end health: connections, frames, latency, backpressure.
    # Frame/byte totals carry a ``direction`` label (``rx`` / ``tx``);
    # per-op latency a ``op`` label; error totals the structured wire
    # ``code`` so a dashboard separates backpressure from real failures.
    "net": {
        "connections_open": (
            "gauge", "repro_net_connections_open",
            "TCP connections currently held by the network front end.",
        ),
        "connections_total": (
            "counter", "repro_net_connections_total",
            "TCP connections ever accepted by the network front end.",
        ),
        "inflight": (
            "gauge", "repro_net_inflight_requests",
            "Wire requests currently executing (admitted, not yet replied).",
        ),
        "frames": (
            "counter", "repro_net_frames_total",
            "Protocol frames moved over the wire, by direction.",
            ("direction",),
        ),
        "frame_bytes": (
            "counter", "repro_net_frame_bytes_total",
            "Protocol frame bytes moved over the wire, by direction.",
            ("direction",),
        ),
        "op_latency": (
            "histogram", "repro_net_op_latency_seconds",
            "Server-side latency per wire operation (decode to reply).",
            ("op",),
        ),
        "rejected": (
            "counter", "repro_net_rejected_total",
            "Wire requests rejected with RETRY_LATER (admission backpressure).",
        ),
        "errors": (
            "counter", "repro_net_errors_total",
            "Error responses sent over the wire, by structured code.",
            ("code",),
        ),
        "drained": (
            "counter", "repro_net_drained_total",
            "In-flight requests finished (or aborted partial) during drain.",
        ),
        "deadline_pretrips": (
            "counter", "repro_net_deadline_pretrips_total",
            "Requests whose deadline minus the network allowance was already "
            "spent on arrival (answered degraded without running).",
        ),
        "client_retries": (
            "counter", "repro_net_client_retries_total",
            "Client-side retry attempts (idempotent reads only).",
        ),
    },
    # Distributed-tracing volume and stage timings.  ``queue_wait_seconds``
    # is the engine admission queue's contribution to traced requests — the
    # stage a latency histogram alone cannot separate from execution.
    # ``stitched`` counts server replies that carried a span tree back to
    # the client.
    "trace": {
        "started": (
            "counter", "repro_trace_started_total",
            "Traced operations begun (a request id was attached), per kind.",
            ("kind",),
        ),
        "stitched": (
            "counter", "repro_trace_stitched_total",
            "Wire replies that carried a server span tree for client-side "
            "stitching.",
        ),
        "queue_wait_seconds": (
            "histogram", "repro_trace_queue_wait_seconds",
            "Time traced operations spent in the engine admission queue "
            "before a worker picked them up.",
        ),
    },
    # Flight-recorder ring volume and anomaly dump triggers.
    "flight": {
        "recorded": (
            "counter", "repro_flight_recorded_total",
            "Finished traces recorded into the flight-recorder ring.",
        ),
        "ring_depth": (
            "gauge", "repro_flight_ring_depth",
            "Traces currently held in the flight-recorder ring.",
        ),
        "dump_triggers": (
            "counter", "repro_flight_dump_triggers_total",
            "Anomaly triggers fired (dump written unless cooled down or "
            "memory-only), by trigger reason.",
            ("reason",),
        ),
    },
    # Pivot-maintenance loop: ticks and decisions by kind (``pivot-rebuild``).
    "tuning": {
        "ticks": (
            "counter", "repro_tuning_ticks_total",
            "Tuner control-loop ticks executed.",
        ),
        "decisions": (
            "counter", "repro_tuning_decisions_total",
            "Tuning decisions taken, by kind.",
            ("kind",),
        ),
    },
}


def _accessor(bundle: str) -> Callable[[], Any]:
    """``bundle``'s handles, registered on the first call and cached: every
    later call is one cell load and an ``is None`` test."""
    cached = None

    def get() -> Any:
        nonlocal cached
        if cached is None:
            rows = FAMILIES[bundle]
            reg = get_registry()
            # Slots, not a dict: a handle is read on every buffer-pool hit.
            handles = type(bundle, (), {"__slots__": tuple(rows)})()
            for attr, (kind, *spec) in rows.items():
                setattr(handles, attr, getattr(reg, kind)(*spec))
            cached = handles  # published whole: no thread sees half a bundle
        return cached

    return get


#: One accessor per bundle, under the bundle's name: ``buffer_pool()``,
#: ``pagefile()``, ``wal()``, ``engine()``, ``cluster()``, ``replication()``,
#: ``supervisor()``, ``net()``, ``trace()``, ``flight()``, ``tuning()``.
_ACCESSORS = {bundle: _accessor(bundle) for bundle in FAMILIES}
globals().update(_ACCESSORS)


def preregister() -> None:
    """Create every instrument bundle so the full metric schema is
    registered before any traffic (``repro.obs.enable`` calls this)."""
    for get in _ACCESSORS.values():
        get()
