"""Golden builds: the bytes a bulk load writes, pinned to recorded values.

A build's pivots, mapping distances, SFC keys and page layout all end up in
the files ``save_tree`` / ``ShardedIndex.save`` write, so the sha256 of every
one of those files pins the whole build.  This builds words, color and
signature trees on both curves and a 2-shard words cluster, saves each, and
compares the digests and the chosen pivots with
``tests/golden/build_golden.json``.  The page-file digests and pivots were
recorded at ``7466d20``, the commit before the build's distance, mapping and
SFC loops became array passes; the catalog digests were re-recorded when
the catalog stopped carrying cost-model samples.  A change that *means* to
move a build re-records with ``PYTHONPATH=src python tests/test_build_golden.py``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script: the ``tests`` package is importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.cluster import ShardedIndex
from repro.core.persist import save_tree
from repro.core.spbtree import SPBTree
from repro.datasets import load_dataset
from tests.conftest import digests

SIZE = 1500
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "build_golden.json")

#: ``name: (dataset, curve, shards)``; 0 shards is a single tree.
CASES = {
    "words-hilbert": ("words", "hilbert", 0),
    "words-z": ("words", "z", 0),
    "color-hilbert": ("color", "hilbert", 0),
    "color-z": ("color", "z", 0),
    "signature-hilbert": ("signature", "hilbert", 0),
    "signature-z": ("signature", "z", 0),
    "words-cluster": ("words", "hilbert", 2),
}


def _pivot(p) -> object:
    return p if isinstance(p, str) else np.asarray(p).tolist()


def measure_case(name: str) -> dict:
    dataset_name, curve, shards = CASES[name]
    dataset = load_dataset(dataset_name, size=SIZE, num_queries=2, seed=42)
    with tempfile.TemporaryDirectory() as tmp:
        if shards:
            index = ShardedIndex.build(
                dataset.objects, dataset.metric, shards=shards, curve=curve,
                num_pivots=5, seed=7,
            )
            index.save(tmp)
            pivots = index.space.pivots
        else:
            tree = SPBTree.build(
                dataset.objects, dataset.metric, curve=curve, num_pivots=5, seed=7
            )
            save_tree(tree, tmp)
            pivots = tree.space.pivots
        return {"pivots": [_pivot(p) for p in pivots], "files": digests(tmp)}


def measure() -> dict:
    return {name: measure_case(name) for name in CASES}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_writes_the_recorded_bytes(golden, name):
    assert measure_case(name) == golden[name]


def test_recorded_cases_cover_every_file_kind(golden):
    assert set(golden) == set(CASES)
    cluster = golden["words-cluster"]["files"]
    assert "cluster.json" in cluster
    assert sum(path.endswith("/spbtree.json") for path in cluster) == 2
    for name, case in golden.items():
        assert len(case["pivots"]) == 5
        if name != "words-cluster":
            kinds = {path.split(".")[0] for path in case["files"]}
            assert kinds == {"spbtree", "btree", "raf"}


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
    print("recorded", GOLDEN_PATH)
