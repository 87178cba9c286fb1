"""The one writer and the one reader under the stack's record files: the
control-loop journals and the slow-query log (appended), the flight dumps
and the metric snapshots (created whole, numbered, never overwritten) —
plus the bounded in-memory ring the journal and the recorder keep."""

from __future__ import annotations

import collections
import json
import os
import re
import threading
from typing import Optional

#: Records a :class:`Ring` keeps (the newest win).
RING_CAPACITY = 256


def newest(records: list, n: Optional[int]) -> list:
    """The last ``n`` of ``records`` (all when None, none at ``n <= 0``:
    a bare ``records[-0:]`` would be all of them)."""
    if n is None:
        return records
    return records[-n:] if n > 0 else []


class Ring:
    """The newest :data:`RING_CAPACITY` records, behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: collections.deque[dict] = collections.deque(
            maxlen=RING_CAPACITY
        )

    def tail(self, n: Optional[int] = None) -> list[dict]:
        """The newest ``n`` records (all when None), oldest first."""
        with self._lock:
            records = list(self._records)
        return newest(records, n)

    def __len__(self) -> int:
        return len(self._records)


class JsonlAppender:
    """Append-only JSONL file, one object per line, flushed per line.

    Opening repairs a crash's torn tail: a file that does not end in a
    newline is truncated back to its last one, so this process's first
    line starts on a line of its own instead of being glued onto the
    fragment (which would turn every later record into mid-file damage).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._fh = open(path, "a+b")
        end = keep = self._fh.seek(0, os.SEEK_END)
        while keep > 0:
            start = max(0, keep - 4096)
            self._fh.seek(start)
            cut = self._fh.read(keep - start).rfind(b"\n")
            if cut >= 0:
                keep = start + cut + 1
                break
            keep = start
        if keep < end:
            self._fh.truncate(keep)

    def append(self, obj: dict) -> None:
        line = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.close()


def write_numbered(directory: str, prefix: str, suffix: str, text: str) -> str:
    """Create ``<directory>/<prefix>-NNNN<suffix>`` holding ``text``, NNNN
    one past the highest number any ``<prefix>-`` file in the directory
    already carries — so a second process (or a restart) continues the
    sequence instead of overwriting the first one's files.  Returns the
    path."""
    pattern = re.compile(re.escape(prefix) + r"-(\d+)")
    while True:
        taken = [pattern.match(name) for name in os.listdir(directory)]
        number = 1 + max((int(m.group(1)) for m in taken if m), default=0)
        path = os.path.join(directory, f"{prefix}-{number:04d}{suffix}")
        try:
            with open(path, "x", encoding="utf-8") as fh:
                fh.write(text)
        except FileExistsError:  # another writer took the number first
            continue
        return path


def read_jsonl(path: str) -> list[dict]:
    """Parse a JSONL file of objects, dropping a torn final line.

    A crash mid-append leaves at most one partial line, at the end, and
    :class:`JsonlAppender` cuts it off when the file is next opened —
    so a non-blank line that is not a JSON object is dropped when it is
    the last one, and raises :class:`ValueError` naming ``path:line``
    when anything follows it: mid-file damage is corruption, not a
    crash.  An unreadable file raises :class:`OSError`.
    """
    objects: list[dict] = []
    bad_line: Optional[int] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if bad_line is not None:
                raise ValueError(f"{path}:{bad_line}: malformed JSONL line")
            try:
                obj = json.loads(line)
            except ValueError:
                obj = None
            if isinstance(obj, dict):
                objects.append(obj)
            else:
                bad_line = lineno
    return objects
