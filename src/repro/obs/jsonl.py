"""The one reader under the JSON-lines files the stack appends to: the
control-loop journals, the slow-query log and the flight dumps."""

from __future__ import annotations

import json
from typing import Optional


def read_jsonl(path: str) -> tuple[list[dict], Optional[int]]:
    """Parse a JSONL file of objects, tolerating a torn final line.

    A crash mid-append leaves at most one partial line, at the end: the
    parse stops at the first non-blank line that is not a JSON object and
    keeps every object before it, mirroring the WAL's torn-tail rule.
    Returns ``(objects, corrupt_line)`` — ``corrupt_line`` is that line's
    1-based number when a non-blank line *follows* it (damage mid-file,
    which no crash produces; the caller decides whether the prefix is
    still an answer) and None for a clean file or a torn tail.  An
    unreadable file raises :class:`OSError`.
    """
    objects: list[dict] = []
    stopped_at: Optional[int] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if stopped_at is not None:
                return objects, stopped_at
            try:
                obj = json.loads(line)
            except ValueError:
                obj = None
            if isinstance(obj, dict):
                objects.append(obj)
            else:
                stopped_at = lineno
    return objects, None
