"""Structured JSON slow-query log.

A latency histogram says *that* p99 regressed; the slow-query log says
*why*: each offending query is recorded as one JSON line carrying its
kind, cost counters, completeness, exhaustion reason, and — when tracing
is enabled — the full span tree, so an operator can see which B+-tree
level burned the budget and which pruning rule failed to fire.

The threshold is configurable (``threshold_ms``); entries are appended as
newline-delimited JSON (one object per line, flushed per entry) so the log
tails cleanly and survives crashes mid-run.  Recording is fully
thread-safe — the engine's workers share one log.

The log is only consulted by code that already holds a query's elapsed
time, so it adds nothing to the query hot path: a fast query costs one
float comparison.
"""

from __future__ import annotations

import io
import json
import threading
import time
from typing import Any, Optional

from repro.obs.jsonl import read_jsonl

#: Slow-log entry schema version.  Readers must tolerate entries without
#: it (pre-versioning logs) and entries carrying unknown fields — new
#: fields such as ``request_id`` are additions, never breaking changes.
SLOWLOG_VERSION = 1


class SlowQueryLog:
    """Threshold-filtered, newline-delimited JSON query log.

    Give it a ``path`` (opened in append mode); without one, entries are
    only counted (``recorded``).
    """

    def __init__(
        self, path: Optional[str] = None, threshold_ms: float = 100.0
    ) -> None:
        if threshold_ms < 0:
            raise ValueError("threshold_ms must be non-negative")
        self.threshold_ms = threshold_ms
        self.path = path
        self._stream: Optional[io.TextIOBase] = None
        if path is not None:
            self._stream = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        #: Total entries recorded (cheap health signal).
        self.recorded = 0

    # -------------------------------------------------------------- recording

    def maybe_record(
        self,
        kind: str,
        elapsed_seconds: float,
        context: Any = None,
        result: Any = None,
        source: str = "inproc",
    ) -> bool:
        """Record the query iff it crossed the threshold; True when logged.

        ``source`` attributes the offender: ``"inproc"`` for library/CLI
        callers, ``"net:<peer>"`` for queries that arrived over the wire —
        so a slow networked query names the client that sent it.
        """
        if elapsed_seconds * 1000.0 < self.threshold_ms:
            return False
        entry: dict[str, Any] = {
            "v": SLOWLOG_VERSION,
            "ts": time.time(),
            "kind": kind,
            "elapsed_ms": round(elapsed_seconds * 1000.0, 3),
            "source": source,
        }
        if context is not None:
            entry["compdists"] = context.compdists
            entry["page_accesses"] = context.page_accesses
            if context.epoch is not None:
                entry["epoch"] = context.epoch
            request_id = getattr(context, "request_id", None)
            if request_id is not None:
                entry["request_id"] = request_id
            trace = getattr(context, "trace", None)
            if trace is not None:
                entry["complete"] = trace.complete
                if trace.reason is not None:
                    entry["reason"] = trace.reason
                entry["trace"] = trace.as_dict()
        if result is not None:
            complete = getattr(result, "complete", None)
            if complete is not None and "complete" not in entry:
                entry["complete"] = complete
            reason = getattr(result, "reason", None)
            if reason is not None and "reason" not in entry:
                entry["reason"] = str(reason)
            try:
                entry["result_size"] = len(result)
            except TypeError:
                pass
        self.record(entry)
        return True

    def record(self, entry: dict) -> None:
        line = json.dumps(entry, sort_keys=True)
        with self._lock:
            self.recorded += 1
            if self._stream is None:
                return
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        with self._lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None

    def __enter__(self) -> "SlowQueryLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_slow_log(path: str) -> list[dict]:
    """Parse a slow-query log file back into entries (newest last).

    Forward- and crash-tolerant, like the WAL and supervisor journal
    readers: entries from newer writers may carry fields this reader
    predates (they pass through untouched, whatever their schema ``v``),
    and a torn final line — the process died mid-append — ends the parse
    with the complete prefix kept.  A malformed line *followed by*
    well-formed ones is corruption rather than a torn tail and raises.
    """
    entries, corrupt_line = read_jsonl(path)
    if corrupt_line is not None:
        raise ValueError(f"{path}:{corrupt_line}: malformed slow-log entry")
    return entries
