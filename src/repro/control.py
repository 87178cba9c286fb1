"""What the supervisor and the tuner share: the tick loop and its journal.

Every state transition a :class:`ControlLoop` drives (suspected,
promoted, quarantined, pivot-drift, pivot-rebuilt, …) is recorded as one
JSON object — in a bounded in-memory ring for the live ``status()``
surfaces, and appended to a JSONL file when a path is given so a
*separate* process (the ``shard-status`` CLI) can replay the tail after
the owning process is gone.  Timestamps come from the loop's injectable
clock, so a chaos test's journal is as deterministic as its failures.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import deque
from typing import Any, Callable, Optional

from repro.obs import registry as _obsreg
from repro.obs.jsonl import read_jsonl

#: Schema version stamped on every journal entry (``"v"``).  Readers are
#: tolerant: unknown fields are ignored and entries missing ``"v"``
#: (written before versioning) are accepted, so the version only gates
#: *incompatible* future changes.
JOURNAL_VERSION = 1


class EventJournal:
    """Bounded in-memory event ring with an optional JSONL spill file."""

    def __init__(
        self,
        path: Optional[str] = None,
        limit: int = 256,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if limit <= 0:
            raise ValueError("journal limit must be positive")
        self.path = path
        self.clock = clock if clock is not None else time.monotonic
        self._events: deque[dict] = deque(maxlen=limit)
        self._lock = threading.Lock()
        self._fh = None
        if path is not None:
            self._fh = open(path, "a", encoding="utf-8")

    def record(
        self,
        event: str,
        shard: Optional[int] = None,
        replica: Optional[int] = None,
        detail: Any = None,
        request_id: Optional[str] = None,
    ) -> dict:
        evt: dict = {
            "v": JOURNAL_VERSION,
            "ts": round(float(self.clock()), 6),
            "event": event,
        }
        if shard is not None:
            evt["shard"] = shard
        if replica is not None:
            evt["replica"] = replica
        if detail is not None:
            evt["detail"] = detail
        if request_id is not None:
            evt["request_id"] = request_id
        with self._lock:
            self._events.append(evt)
            if self._fh is not None:
                self._fh.write(json.dumps(evt, sort_keys=True) + "\n")
                self._fh.flush()
        return evt

    def tail(self, n: int = 20) -> "list[dict]":
        """The most recent ``n`` events, oldest first (none at ``n <= 0``:
        a bare ``events[-0:]`` would be all of them)."""
        with self._lock:
            events = list(self._events)
        return events[-n:] if n > 0 else []

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def read_journal(path: str, limit: Optional[int] = None) -> "list[dict]":
    """The events of a JSONL journal file (the last ``limit`` when given),
    torn final line dropped; a missing file is an empty journal."""
    try:
        events, _ = read_jsonl(path)
    except OSError:
        return []
    if limit is not None:
        return events[-limit:] if limit > 0 else []
    return events


class ControlLoop:
    """A periodic ``tick()`` over one index — called inline (tests, on a fake
    clock) or by ``start()``'s daemon thread.  A subclass supplies:"""

    name: str  # the ``index.<name>`` back-pointer and the thread's suffix
    _bundle: Callable[[], Any]  # its obs instruments (the tick counter)
    _pass: Callable[[float], dict]  # one pass at ``now``, under the lock

    def __init__(
        self,
        index: Any,
        tick_interval: float,
        clock: Callable[[], float],
        journal_path: Optional[str],
    ) -> None:
        self.index = index
        self.tick_interval = tick_interval
        self.clock = clock
        self.journal = EventJournal(path=journal_path, clock=clock)
        self._lock = threading.RLock()
        self._thread: Optional[threading.Thread] = None
        #: Plain tally: ``status()`` works with observability disabled.
        self.ticks = 0
        setattr(index, self.name, self)

    def tick(self) -> dict:
        """One pass of the loop; returns what it did."""
        with self._lock:
            self.ticks += 1
            if _obsreg.ENABLED:
                self._bundle().ticks.inc()
            return self._pass(self.clock())

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Run :meth:`tick` on a daemon thread every ``tick_interval``."""
        if self.running:
            return
        self._stop_evt = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{self.name}", daemon=True
        )
        self._thread.start()
        self.journal.record("started", detail={"tick_interval": self.tick_interval})

    def _run(self) -> None:
        while not self._stop_evt.wait(self.tick_interval):
            try:
                self.tick()
            except Exception as exc:  # the loop must outlive any one failure
                with contextlib.suppress(OSError, ValueError):  # ... or write
                    self.journal.record("tick-error", detail=repr(exc))

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop_evt.set()
        self._thread.join(timeout=30.0)
        self._thread = None
        self.journal.record("stopped")

    def close(self) -> None:
        self.stop()
        if getattr(self.index, self.name, None) is self:
            setattr(self.index, self.name, None)
        self.journal.close()

    def __enter__(self) -> "ControlLoop":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def events(self, n: int = 20) -> "list[dict]":
        return self.journal.tail(n)
