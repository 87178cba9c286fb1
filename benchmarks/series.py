"""The JSON series the standalone benchmark scripts append their records to
(``results/BENCH_tuning.json``, ``BENCH_supervisor.json``,
``BENCH_obs_overhead.json``): ``{"series": [record, ...]}``."""

from __future__ import annotations

import json
import os
import time
from typing import Any, Optional


def append_series(path: str, record: dict, meta: Optional[dict] = None) -> dict:
    """Append ``record`` to the JSON series at ``path`` (created if
    missing); returns the full document."""
    doc: dict[str, Any] = {"series": []}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            doc = {"series": []}
    if not isinstance(doc.get("series"), list):
        doc["series"] = []
    entry = dict(record)
    entry["ts"] = time.time()
    if meta:
        entry.update(meta)
    doc["series"].append(entry)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return doc
