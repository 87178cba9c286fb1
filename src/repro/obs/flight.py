"""The query recorder: a slow-query log and an anomaly flight recorder.

Aggregate metrics say *that* p99 spiked; the recorder says *which
requests* did it and what each one's span tree looked like.  Every
finished query becomes one entry — kind, request id, source, cost
counters, elapsed time, outcome and, when traced, the span tree:

* a query at or over ``slow_ms`` (traced or not) is appended to
  ``<directory>/slow.jsonl`` — the slow-query log;
* a traced query enters a bounded in-memory ring, which is dumped to a
  numbered ``flight-NNNN-<reason>.jsonl`` file when an anomaly trigger
  fires:

  * ``degraded`` — a query returned an incomplete answer;
  * ``failover`` / ``quarantine`` / ``divergence`` — the supervisor acted;
  * ``rejection-burst`` — the engine shed :data:`REJECTION_BURST` queries
    within :data:`BURST_WINDOW_S`;
  * ``manual`` — an operator asked (CLI / tests).

Dump files are plain JSONL: one header line (``{"v": 1, "reason": ...}``)
followed by one line per ring entry, oldest first.  Both file kinds go
through :mod:`repro.obs.jsonl`, so they read back with ``read_jsonl``.

The recorder is entirely passive unless installed: the engine's hot path
pays one ``is None`` check when no recorder is attached, so the paper
experiments never see it.
"""

from __future__ import annotations

import collections
import json
import os
import time
from typing import Any, Callable, Optional

from repro.obs import registry as _obsreg
from repro.obs.jsonl import JsonlAppender, Ring, read_jsonl, write_numbered

#: Schema version of query entries and dump headers (the ``v`` field).
FLIGHT_VERSION = 1

#: The slow-query log's file name inside the recorder's directory.
SLOW_LOG = "slow.jsonl"

#: Rejections within :data:`BURST_WINDOW_S` seconds that trigger a dump.
REJECTION_BURST = 20
BURST_WINDOW_S = 1.0

#: Seconds before the same trigger reason may dump again.
MIN_DUMP_INTERVAL_S = 5.0

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


class FlightRecorder(Ring):
    """Slow-query log, ring of finished traces and anomaly dumps.

    ``directory=None`` writes nothing: slow entries and dumps are only
    counted, and the ring stays in memory.  The dump cooldown is tracked
    per trigger reason, so a failover arriving right after a degraded
    dump still gets its own file.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        slow_ms: float = 100.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if slow_ms < 0:
            raise ValueError("slow_ms must be non-negative")
        super().__init__()
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.slow_ms = slow_ms
        self.clock = clock
        self._slow_file: Optional[JsonlAppender] = None
        self._rejections: collections.deque[float] = collections.deque()
        self._last_dump: dict[str, float] = {}
        #: Entries ever built (ring or slow log; not capped by the ring).
        self.recorded = 0
        #: Slow entries (appended to ``slow.jsonl`` when there is a directory).
        self.slow = 0
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
        """Record one finished query; returns its entry, or None when it
        was neither traced nor slow.  A degraded traced result triggers a
        dump.  ``source`` attributes the query: ``"inproc"`` for library
        and CLI callers, ``"net:<peer>"`` for wire requests."""
        traced = getattr(context, "trace", None) is not None
        slow = elapsed is not None and elapsed * 1000.0 >= self.slow_ms
        if not (traced or slow):
            return None
        entry: dict[str, Any] = {
            "v": FLIGHT_VERSION,
            "ts": round(time.time(), 6),
            "kind": kind,
            "source": source,
        }
        if elapsed is not None:
            entry["elapsed_ms"] = round(elapsed * 1000.0, 3)
        if context is not None:
            entry["request_id"] = getattr(context, "request_id", None)
            entry["compdists"] = context.compdists
            entry["page_accesses"] = context.page_accesses
            if getattr(context, "epoch", None) is not None:
                entry["epoch"] = context.epoch
        if traced:
            trace = context.trace
            entry["complete"] = trace.complete
            if trace.reason is not None:
                entry["reason"] = trace.reason
            entry["trace"] = trace.as_dict()
        if result is not None:
            if getattr(result, "complete", None) is not None:
                entry["complete"] = bool(result.complete)
            if getattr(result, "reason", None) is not None:
                entry["reason"] = str(result.reason)
            try:
                entry["result_size"] = len(result)
            except TypeError:
                pass
        with self._lock:
            self.recorded += 1
            if slow:
                self.slow += 1
                if self.directory is not None:
                    if self._slow_file is None:
                        self._slow_file = JsonlAppender(
                            os.path.join(self.directory, SLOW_LOG)
                        )
                    self._slow_file.append(entry)
            if traced:
                self._records.append(entry)
        if not traced:
            return entry
        if _obsreg.ENABLED:
            inst = _flight_instruments()
            inst.recorded.inc()
            inst.ring_depth.set(len(self))
        if entry.get("complete") is False:
            self.trigger(
                "degraded", detail={"request_id": entry["request_id"]}
            )
        return entry

    def note_rejection(self) -> None:
        """Count one engine admission rejection; dump on a burst.

        A sliding window: when :data:`REJECTION_BURST` rejections land
        within :data:`BURST_WINDOW_S`, the ring is dumped once (then the
        window clears, so a sustained overload produces one dump per
        cooldown interval, not one per rejection).
        """
        now = self.clock()
        fire = False
        with self._lock:
            self._rejections.append(now)
            horizon = now - BURST_WINDOW_S
            while self._rejections and self._rejections[0] < horizon:
                self._rejections.popleft()
            if len(self._rejections) >= REJECTION_BURST:
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
                if now - last < MIN_DUMP_INTERVAL_S:
                    return None
            self._last_dump[reason] = now
            entries = list(self._records)
        if _obsreg.ENABLED:
            _flight_instruments().dump_triggers.labels(reason=reason).inc()
        path = None
        if self.directory is not None:
            header: dict[str, Any] = {
                "v": FLIGHT_VERSION,
                "reason": reason,
                "ts": round(time.time(), 6),
                "entries": len(entries),
            }
            if detail:
                header["detail"] = detail
            text = "".join(
                json.dumps(obj, sort_keys=True) + "\n"
                for obj in (header, *entries)
            )
            path = write_numbered(
                self.directory, "flight", f"-{reason}.jsonl", text
            )
        with self._lock:
            self.dumps += 1
        return path

    def close(self) -> None:
        with self._lock:
            if self._slow_file is not None:
                self._slow_file.close()
                self._slow_file = None


def read_flight(path: str) -> tuple[dict, list[dict]]:
    """Read a dump file; returns ``(header, entries)``.

    A torn final line is dropped and mid-file damage raises, as for
    every JSONL file; so does a file whose first line is no dump header.
    """
    objects = read_jsonl(path)
    header = objects[0] if objects else {}
    # "entries" + "reason" distinguishes a dump header from other JSONL
    # records (slow-log entries also carry "reason").
    if "reason" not in header or "entries" not in header:
        raise ValueError(f"{path}: missing or malformed flight header")
    return header, objects[1:]
