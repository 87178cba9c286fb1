"""Golden scan counters: what a front-to-back pass over the RAF reads.

``RandomAccessFile.scan`` serves ``SPBTree.rebuild``, ``SPBTree.objects``,
``knn_join`` and the cost model's probe pick.  It reads only the header of
a tombstone and every byte of a live record, through the buffer pool, so
its page accesses, pool hits / misses and final LRU order are a property of
the record layout — pinned here on ``reference.words_tree`` (tombstones,
records crossing page boundaries, a write-through tail), at the pool sizes
of Fig. 10, and compared with ``tests/golden/scan_golden.json``.  A change
that *means* to move them re-records with
``PYTHONPATH=src python tests/test_scan_golden.py``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

if __name__ == "__main__":  # run as a script: the ``tests`` package is importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core.join import knn_join
from repro.core.spbtree import SPBTree
from tests.reference import words_tree

PAGE = 256
CACHES = (0, 1, 4, 32)
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "scan_golden.json")


def _tree(cache_pages: int) -> SPBTree:
    return words_tree(cache_pages)[0]


def _tally(tree: SPBTree) -> list:
    pool = tree.raf.buffer_pool
    return [tree.raf.pagefile.counter.reads, pool.hits, pool.misses]


def _delta(before: list, after: list) -> list:
    return [b - a for a, b in zip(before, after)]


def _lru(tree: SPBTree) -> list:
    return list(tree.raf.buffer_pool._cache)


def measure() -> dict:
    """``{cache_pages: {"scan" | "rebuild" | "knn_join": [...]}}`` — page
    reads, pool hits, pool misses (deltas), what came back, LRU order."""
    out: dict = {}
    for cache in CACHES:
        tree = _tree(cache)
        rows: dict = {}

        tree.flush_cache()
        before = _tally(tree)
        scanned = list(tree.raf.scan())
        rows["scan"] = _delta(before, _tally(tree)) + [
            len(scanned), sum(obj_id for _, obj_id, _ in scanned), _lru(tree),
        ]

        tree.flush_cache()
        before = _tally(tree)
        fresh = tree.rebuild()
        rows["rebuild"] = _delta(before, _tally(tree)) + [len(fresh), _lru(tree)]

        # a self-join: the scan and the kNN searches share one pool
        tree.flush_cache()
        before = _tally(tree)
        results, stats = knn_join(tree, tree, 2)
        rows["knn_join"] = _delta(before, _tally(tree)) + [
            len(results), stats.page_accesses, stats.distance_computations,
            _lru(tree),
        ]
        out[str(cache)] = rows
    return out


@pytest.fixture(scope="module")
def measured():
    return measure()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("kind", ("scan", "rebuild", "knn_join"))
@pytest.mark.parametrize("cache", CACHES)
def test_scan_counters_match_recorded_values(measured, golden, cache, kind):
    assert measured[str(cache)][kind] == golden[str(cache)][kind]


def test_tree_has_what_the_golden_is_about():
    """Tombstones, records that cross a page boundary, a live tail."""
    tree = _tree(4)
    offsets = sorted(entry.ptr for entry in tree.btree.leaf_entries())
    assert tree.raf._deleted
    assert any(a // PAGE != (b - 1) // PAGE for a, b in zip(offsets, offsets[1:]))
    assert tree.raf._tail


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(measure(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded", GOLDEN_PATH)
