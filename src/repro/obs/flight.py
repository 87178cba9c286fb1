"""Anomaly flight recorder: the last N traces, dumped when something breaks.

Aggregate metrics say *that* p99 spiked; the flight recorder says *which
requests* were in flight around the anomaly and what each one's span tree
looked like.  It keeps a bounded in-memory ring of recently finished
(traced) queries — request id, outcome, compdist/PA totals, full span
tree — and dumps the ring to a JSONL file when an anomaly trigger fires:

* ``degraded`` — a query returned an incomplete answer;
* ``failover`` / ``quarantine`` / ``divergence`` — the supervisor acted;
* ``rejection-burst`` — the engine shed load faster than the configured
  rate;
* ``manual`` — an operator asked (CLI / tests).

Dump files are plain JSONL: one header line (``{"v": 1, "reason": ...}``)
followed by one line per ring entry, oldest first.  :func:`read_flight`
is torn-tail tolerant the same way the WAL and supervisor journal readers
are — a dump interrupted mid-write parses up to the last complete line.

The recorder is entirely passive unless installed: the engine's hot path
pays one ``is None`` check when no recorder is attached, and ring entries
are only built for queries that already carry a trace, so the paper
experiments never see it.
"""

from __future__ import annotations

import collections
import json
import os
import threading
import time
from typing import Any, Callable, Optional

from repro.obs import registry as _obsreg
from repro.obs.jsonl import read_jsonl

#: Flight-dump schema version (the header line's ``v`` field).
FLIGHT_VERSION = 1

#: Trigger reasons a dump file may carry in its name and header.
FLIGHT_TRIGGERS = (
    "degraded",
    "failover",
    "quarantine",
    "divergence",
    "rejection-burst",
    "manual",
)


def _flight_instruments():
    from repro.obs import instruments

    return instruments.flight()


class FlightRecorder:
    """Bounded ring of finished traces plus anomaly-triggered JSONL dumps.

    ``directory=None`` keeps the ring in memory only (triggers still
    count, nothing is written) — useful for tests and for surfacing
    :meth:`recent` through a health endpoint without any disk surface.

    Per-reason cooldown (``min_dump_interval_s``) stops a burst of
    degraded replies from writing a dump per reply; a failover arriving
    right after a degraded dump still gets its own file because the
    cooldown is tracked per trigger reason.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        capacity: int = 256,
        rejection_burst: int = 20,
        burst_window_s: float = 1.0,
        min_dump_interval_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if rejection_burst < 1:
            raise ValueError("rejection_burst must be positive")
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.capacity = capacity
        self.rejection_burst = rejection_burst
        self.burst_window_s = burst_window_s
        self.min_dump_interval_s = min_dump_interval_s
        self.clock = clock
        self._ring: collections.deque[dict] = collections.deque(maxlen=capacity)
        self._rejections: collections.deque[float] = collections.deque()
        self._last_dump: dict[str, float] = {}
        self._lock = threading.Lock()
        self._sequence = 0
        #: Entries ever observed (not capped by the ring).
        self.recorded = 0
        #: Dump files written (or dumps suppressed only by directory=None).
        self.dumps = 0
        #: Triggers that fired, including ones swallowed by the cooldown.
        self.triggers = 0

    # -------------------------------------------------------------- recording

    def observe(
        self,
        kind: str,
        context: Any = None,
        result: Any = None,
        elapsed: Optional[float] = None,
        source: str = "inproc",
    ) -> Optional[dict]:
        """Record one finished query; auto-triggers on a degraded result.

        Only queries that carried a trace are worth keeping — without the
        span tree the ring would just duplicate the slow log — so calls
        with an untraced context are a cheap no-op.
        """
        if context is None or getattr(context, "trace", None) is None:
            return None
        entry: dict[str, Any] = {
            "ts": round(time.time(), 6),
            "kind": kind,
            "request_id": getattr(context, "request_id", None),
            "source": source,
            "compdists": context.compdists,
            "page_accesses": context.page_accesses,
            "trace": context.trace.as_dict(),
        }
        if elapsed is not None:
            entry["elapsed_ms"] = round(elapsed * 1000.0, 3)
        degraded = False
        if result is not None:
            complete = bool(getattr(result, "complete", True))
            entry["complete"] = complete
            reason = getattr(result, "reason", None)
            if reason is not None:
                entry["reason"] = str(reason)
            degraded = not complete
        with self._lock:
            self._ring.append(entry)
            self.recorded += 1
        if _obsreg.ENABLED:
            inst = _flight_instruments()
            inst.recorded.inc()
            inst.ring_depth.set(len(self._ring))
        if degraded:
            self.trigger(
                "degraded", detail={"request_id": entry["request_id"]}
            )
        return entry

    def note_rejection(self) -> None:
        """Count one engine admission rejection; dump on a burst.

        A sliding window: when ``rejection_burst`` rejections land within
        ``burst_window_s``, the ring is dumped once (then the window
        clears, so a sustained overload produces one dump per cooldown
        interval, not one per rejection).
        """
        now = self.clock()
        fire = False
        with self._lock:
            self._rejections.append(now)
            horizon = now - self.burst_window_s
            while self._rejections and self._rejections[0] < horizon:
                self._rejections.popleft()
            if len(self._rejections) >= self.rejection_burst:
                self._rejections.clear()
                fire = True
        if fire:
            self.trigger("rejection-burst")

    # --------------------------------------------------------------- dumping

    def trigger(
        self, reason: str, detail: Optional[dict] = None, force: bool = False
    ) -> Optional[str]:
        """Dump the ring; returns the dump path (None if nothing written).

        ``force=True`` bypasses the per-reason cooldown (the CLI's manual
        trigger uses it).
        """
        now = self.clock()
        with self._lock:
            self.triggers += 1
            last = self._last_dump.get(reason)
            if not force and last is not None:
                if now - last < self.min_dump_interval_s:
                    return None
            self._last_dump[reason] = now
            entries = list(self._ring)
            self._sequence += 1
            sequence = self._sequence
        if _obsreg.ENABLED:
            _flight_instruments().dump_triggers.labels(reason=reason).inc()
        if self.directory is None:
            with self._lock:
                self.dumps += 1
            return None
        header: dict[str, Any] = {
            "v": FLIGHT_VERSION,
            "reason": reason,
            "ts": round(time.time(), 6),
            "entries": len(entries),
        }
        if detail:
            header["detail"] = detail
        path = os.path.join(
            self.directory, f"flight-{sequence:04d}-{reason}.jsonl"
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
        with self._lock:
            self.dumps += 1
        return path

    # --------------------------------------------------------------- queries

    def recent(self, n: Optional[int] = None) -> list[dict]:
        """The newest ``n`` ring entries (all of them when ``n`` is None)."""
        with self._lock:
            entries = list(self._ring)
        if n is None:
            return entries
        return entries[-n:] if n > 0 else []  # [-0:] would be the whole ring

    def find(self, request_id: str) -> list[dict]:
        """Every ring entry recorded for ``request_id`` (oldest first)."""
        with self._lock:
            return [e for e in self._ring if e.get("request_id") == request_id]

    def __len__(self) -> int:
        return len(self._ring)


def read_flight(path: str) -> tuple[dict, list[dict]]:
    """Read a dump file; returns ``(header, entries)``.

    Torn-tail tolerant: a malformed line ends the parse and the complete
    prefix is returned, matching the WAL/journal readers' contract.  Only
    an unreadable *header* raises — a dump whose first line is garbage
    identifies nothing.
    """
    objects, _ = read_jsonl(path)
    header = objects[0] if objects else {}
    # "entries" + "reason" distinguishes a dump header from other JSONL
    # records (slow-log entries also carry "reason").
    if "reason" not in header or "entries" not in header:
        raise ValueError(f"{path}: missing or malformed flight header")
    return header, objects[1:]


def find_request(directory: str, request_id: str) -> list[tuple[str, dict]]:
    """Search every dump in ``directory`` for a request id.

    Returns ``(dump_path, entry)`` pairs — "show me what happened to
    request X" from disk alone, across dumps (the ``trace`` CLI reads one
    ``--file`` at a time and filters it with ``--request-id``).
    """
    hits: list[tuple[str, dict]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return hits
    for name in names:
        if not (name.startswith("flight-") and name.endswith(".jsonl")):
            continue
        path = os.path.join(directory, name)
        try:
            _, entries = read_flight(path)
        except ValueError:
            continue
        for entry in entries:
            if entry.get("request_id") == request_id:
                hits.append((path, entry))
    return hits
