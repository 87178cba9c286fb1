"""The repo's benchmark: seeded workloads, end-to-end metrics, per-layer trace.

See ``bench/README.md``.  Everything the benchmark needs lives in this
directory; it measures the program under ``src/`` without editing it.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The benchmark measures the checkout it sits in, never an installed copy.
if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, SRC)
