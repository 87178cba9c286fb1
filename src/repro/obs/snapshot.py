"""Metric snapshots: periodic JSON dumps the benchmark harness can diff.

Prometheus exposition answers "what is the state *now*"; a benchmark run
wants "what happened *between* two points" — e.g. how many buffer-pool
misses and WAL fsyncs one workload cost, independent of whatever ran
before it.  A snapshot is a plain JSON rendering of every metric family;
:func:`diff_snapshots` subtracts two of them, giving counter and histogram
deltas (gauges, being point-in-time, report before/after instead).

:class:`SnapshotWriter` writes numbered snapshot files on a configurable
interval; the ``serve`` CLI drives it with ``--snapshot-dir`` so a long
run leaves a time series of cheap, greppable JSON files behind.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Optional

from repro.obs.jsonl import write_new, write_numbered
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, get_registry

#: Snapshot schema version (bump on incompatible layout changes).
SNAPSHOT_VERSION = 1


def _label_key(labelnames: tuple[str, ...], labelvalues: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    return ",".join(f"{n}={v}" for n, v in zip(labelnames, labelvalues))


def snapshot(registry: Optional[MetricsRegistry] = None) -> dict:
    """Capture every metric family as a JSON-serializable dict."""
    registry = registry if registry is not None else get_registry()
    metrics: dict[str, Any] = {}
    for family in registry.collect():
        samples: dict[str, Any] = {}
        for labelvalues, metric in family.samples():
            key = _label_key(family.labelnames, labelvalues)
            if isinstance(metric, Histogram):
                samples[key] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "p50": metric.p50,
                    "p95": metric.p95,
                    "p99": metric.p99,
                }
                exemplars = metric.exemplars()
                if exemplars:
                    # JSON object keys must be strings; +Inf included.
                    samples[key]["exemplars"] = {
                        str(bound): ex for bound, ex in exemplars.items()
                    }
            elif isinstance(metric, (Counter, Gauge)):
                samples[key] = metric.value
        metrics[family.name] = {"type": family.type, "samples": samples}
    return {"version": SNAPSHOT_VERSION, "ts": time.time(), "metrics": metrics}


def write_snapshot(
    path: str,
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[dict] = None,
) -> dict:
    """Write a snapshot to the new file ``path``; returns the captured dict."""
    snap, text = _render(registry, meta)
    write_new(path, text)
    return snap


def _render(
    registry: Optional[MetricsRegistry], meta: Optional[dict]
) -> tuple[dict, str]:
    snap = snapshot(registry)
    if meta:
        snap["meta"] = meta
    return snap, json.dumps(snap, sort_keys=True, indent=1) + "\n"


def load_snapshot(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        snap = json.load(fh)
    if snap.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"{path}: snapshot version {snap.get('version')!r} is not "
            f"{SNAPSHOT_VERSION}"
        )
    return snap


def diff_snapshots(before: dict, after: dict) -> dict:
    """What happened between two snapshots.

    Counters and histograms report deltas (``after - before``; a family or
    sample absent from ``before`` counts from zero).  Gauges report
    ``{"before": ..., "after": ...}``.  Families absent from ``after`` are
    dropped — they no longer exist.
    """
    out: dict[str, Any] = {}
    before_metrics = before.get("metrics", {})
    for name, info in after.get("metrics", {}).items():
        prior = before_metrics.get(name, {"samples": {}})
        samples_out: dict[str, Any] = {}
        for key, value in info.get("samples", {}).items():
            prior_value = prior.get("samples", {}).get(key)
            if info["type"] == "histogram":
                prior_value = prior_value or {"count": 0, "sum": 0.0}
                samples_out[key] = {
                    "count": value["count"] - prior_value.get("count", 0),
                    "sum": value["sum"] - prior_value.get("sum", 0.0),
                }
            elif info["type"] == "counter":
                samples_out[key] = value - (prior_value or 0.0)
            else:  # gauge: point-in-time, report both ends
                samples_out[key] = {"before": prior_value, "after": value}
        out[name] = {"type": info["type"], "samples": samples_out}
    return out


class SnapshotWriter:
    """Writes ``metrics-NNNN.json`` files into a directory on an interval,
    numbered on from whatever the directory already holds.

    Call :meth:`maybe_write` from any convenient loop (the serve CLI does
    it between result collections); it writes at most once per
    ``interval_seconds``.  :meth:`write` forces a final snapshot — a run
    always ends with one, so two-point diffs work even for short runs.
    """

    def __init__(
        self,
        directory: str,
        interval_seconds: float = 10.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.interval_seconds = interval_seconds
        self._registry = registry
        #: Snapshot files this writer created.
        self.written = 0
        self._last_write = 0.0

    def maybe_write(self, now: Optional[float] = None) -> Optional[str]:
        """Write a snapshot if the interval elapsed; returns its path or None."""
        now = time.monotonic() if now is None else now
        if self.written and now - self._last_write < self.interval_seconds:
            return None
        self._last_write = now
        return self.write()

    def write(self, meta: Optional[dict] = None) -> str:
        _, text = _render(self._registry, meta)
        path = write_numbered(self.directory, "metrics", ".json", text)
        self.written += 1
        return path
