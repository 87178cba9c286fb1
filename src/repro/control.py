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
import threading
import time
from typing import Any, Callable, Optional

from repro.obs import registry as _obsreg
from repro.obs.jsonl import JsonlAppender, Ring, newest, read_jsonl

#: Schema version stamped on every journal entry (``"v"``).  Readers are
#: tolerant: unknown fields are ignored and entries missing ``"v"``
#: (written before versioning) are accepted, so the version only gates
#: *incompatible* future changes.
JOURNAL_VERSION = 1


class EventJournal(Ring):
    """The newest events in memory, every event in a JSONL file when a
    ``path`` is given."""

    def __init__(
        self,
        path: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__()
        self.path = path
        self.clock = clock if clock is not None else time.monotonic
        self._file = JsonlAppender(path) if path is not None else None

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
            self._records.append(evt)
            if self._file is not None:
                self._file.append(evt)
        return evt

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


def read_journal(path: str, limit: Optional[int] = None) -> "list[dict]":
    """The events of a JSONL journal file (the last ``limit`` when given),
    torn final line dropped; a missing file is an empty journal."""
    try:
        return newest(read_jsonl(path), limit)
    except FileNotFoundError:
        return []


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
