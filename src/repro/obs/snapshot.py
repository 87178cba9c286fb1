"""Metric snapshots: numbered Prometheus expositions, and the diff of two.

Prometheus exposition answers "what is the state *now*"; a benchmark run
wants "what happened *between* two points" — e.g. how many buffer-pool
misses and WAL fsyncs one workload cost, independent of whatever ran
before it.  A snapshot is the exposition itself (:func:`render_text`);
:func:`diff_snapshots` subtracts two :func:`parse_text` results, giving
counter and histogram deltas (gauges, being point-in-time, report
before/after instead).  So any two expositions diff alike: two snapshots,
a snapshot and a ``--metrics-out`` file, or a ``NetClient.metrics()``
scrape.

:class:`SnapshotWriter` writes numbered snapshot files on a configurable
interval; the ``serve`` CLI drives it with ``--snapshot-dir`` so a long
run leaves a time series of cheap, greppable ``.prom`` files behind.
"""

from __future__ import annotations

import os
import time
from typing import Any, Optional

from repro.obs.exposition import render_text
from repro.obs.jsonl import write_numbered
from repro.obs.registry import MetricsRegistry


def _samples(name: str, info: dict) -> dict[str, Any]:
    """One parsed family's values keyed by label set (``n=v,...``, ``""``
    when unlabelled); a histogram's value is its ``count`` and ``sum``."""
    out: dict[str, Any] = {}
    for sample, labels, value in info["samples"]:
        key = ",".join(f"{n}={v}" for n, v in labels.items() if n != "le")
        if info["type"] != "histogram":
            out[key] = value
        elif sample == f"{name}_count":
            out.setdefault(key, {"count": 0, "sum": 0.0})["count"] = int(value)
        elif sample == f"{name}_sum":
            out.setdefault(key, {"count": 0, "sum": 0.0})["sum"] = value
    return out


def diff_snapshots(before: dict, after: dict) -> dict:
    """What happened between two parsed expositions.

    Counters and histograms report deltas (``after - before``; a family or
    sample absent from ``before`` counts from zero).  Gauges report
    ``{"before": ..., "after": ...}``.  Families absent from ``after`` are
    dropped — they no longer exist.
    """
    out: dict[str, Any] = {}
    for name, info in after.items():
        prior = _samples(name, before[name]) if name in before else {}
        samples_out: dict[str, Any] = {}
        for key, value in _samples(name, info).items():
            prior_value = prior.get(key)
            if info["type"] == "histogram":
                prior_value = prior_value or {"count": 0, "sum": 0.0}
                samples_out[key] = {
                    "count": value["count"] - prior_value["count"],
                    "sum": value["sum"] - prior_value["sum"],
                }
            elif info["type"] == "counter":
                samples_out[key] = value - (prior_value or 0.0)
            else:  # gauge: point-in-time, report both ends
                samples_out[key] = {"before": prior_value, "after": value}
        out[name] = {"type": info["type"], "samples": samples_out}
    return out


class SnapshotWriter:
    """Writes ``metrics-NNNN.prom`` files into a directory on an interval,
    numbered on from whatever the directory already holds.

    Call :meth:`maybe_write` from any convenient loop (the serve CLI does
    it between result collections); it writes at most once per
    ``interval_seconds``.  :meth:`write` forces a snapshot — a run always
    ends with a ``metrics-NNNN-final.prom``, so two-point diffs work even
    for short runs.
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

    def write(self, event: Optional[str] = None) -> str:
        """Write a snapshot now, named ``metrics-NNNN-<event>.prom`` when
        ``event`` is given; returns its path."""
        suffix = f"-{event}.prom" if event else ".prom"
        path = write_numbered(
            self.directory, "metrics", suffix, render_text(self._registry)
        )
        self.written += 1
        return path
