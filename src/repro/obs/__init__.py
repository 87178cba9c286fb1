"""Observability layer: metrics registry, trace spans, query recorder.

Everything here is **off by default** and zero-cost while off: the paper
experiments and the counter-exactness tests run with no observability
state allocated and bit-identical :class:`~repro.stats.StatsSession`
tallies.  Instrumented call sites guard on ``registry.ENABLED`` (one
module-attribute load) before touching a clock or a metric.

Enable process-wide metrics with :func:`enable`; attach a
:class:`~repro.obs.trace.QueryTrace` to a query context for per-query span
trees (independent of the global switch — tracing is per-context).

Public surface:

* :class:`MetricsRegistry` / :func:`get_registry` — counters, gauges,
  fixed-bucket histograms.
* :func:`render_text` / :func:`parse_text` — Prometheus text exposition
  and its validating inverse: the registry's one serialisation and its one
  reader.
* :class:`QueryTrace` / :class:`Span` — per-query cost attribution whose
  span sums reconcile exactly with the context's counters.
* :class:`SnapshotWriter` / :func:`diff_snapshots` — numbered exposition
  files written on an interval, and the delta between any two parsed
  expositions.
* :func:`new_trace_id` — request/trace identifiers minted at the edge and
  threaded through every record a request leaves behind.
* :class:`FlightRecorder` / :func:`read_flight` — the query recorder: a
  ``slow.jsonl`` log of queries over a threshold, plus a bounded ring of
  recent traces dumped to numbered JSONL files on anomaly triggers.
* :func:`read_jsonl` — the reader of every JSONL file above and of the
  control-loop journals (all written by one appender in
  :mod:`repro.obs.jsonl`).
"""

from __future__ import annotations

from repro.obs import instruments, registry
from repro.obs.exposition import parse_text, render_text
from repro.obs.flight import FlightRecorder, read_flight
from repro.obs.ids import clean_trace_id, new_trace_id
from repro.obs.jsonl import read_jsonl
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    get_registry,
)
from repro.obs.snapshot import SnapshotWriter, diff_snapshots
from repro.obs.trace import QueryTrace, Span, attributed_totals_from_dict

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "QueryTrace",
    "SnapshotWriter",
    "Span",
    "attributed_totals_from_dict",
    "clean_trace_id",
    "diff_snapshots",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "instruments",
    "new_trace_id",
    "parse_text",
    "read_flight",
    "read_jsonl",
    "render_text",
]


def enable() -> None:
    """Turn on process-wide metrics collection.

    Preregisters every instrument bundle so an exposition rendered
    immediately afterwards already shows the complete metric schema.
    """
    registry.ENABLED = True
    instruments.preregister()


def disable() -> None:
    """Turn process-wide metrics collection back off (hot paths revert to
    a single boolean check; already-collected values are kept until
    ``get_registry().reset()``)."""
    registry.ENABLED = False


def enabled() -> bool:
    return registry.ENABLED
