"""The exported metric schema, pinned: 54 families — names, types, help
strings, label names, bucket bounds.

``golden/metrics_schema.prom`` is what a fresh process printed at the commit
before ``obs/instruments.py`` became one table (PR 18, ``1a01d17``): the
exposition right after ``obs.enable()``, then the same again with one child
per labelled family (label values = the label names), because a labelled
family with no children renders neither its labels nor its buckets.  A change
that *means* to move the schema re-records with
``PYTHONPATH=src python tests/test_metric_schema.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "metrics_schema.prom")

SCRIPT = """
from repro import obs
obs.enable()
print(obs.render_text())
for family in obs.get_registry().collect():
    if family.labelnames:
        family.labels(**{name: name for name in family.labelnames})
print(obs.render_text())
"""


def render_schema() -> str:
    return subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout


def test_schema_is_byte_identical_to_the_recorded_one():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    schema = render_schema()
    assert schema.count("# TYPE ") == 2 * 54
    assert schema == golden


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(render_schema())
    print(f"recorded {GOLDEN}")
