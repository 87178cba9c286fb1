"""Range queries at the radius extremes: 0, 1, 1e300, inf and NaN, and a
query vector holding a NaN.

RR(q, r) of Lemma 1 is a grid box; a corner past the grid, infinite or NaN
is the grid's edge.  The tree, a 2-shard cluster (whose router plans with
the same box) and the cost model must all take these radii, and the
answers must equal the linear scan's: everything for an infinite radius,
nothing for a NaN one (no distance is ``<= nan``).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from repro.baselines import LinearScan
from repro.cluster import ShardedIndex
from repro.core.costmodel import CostModel
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance, EuclideanDistance
from tests.reference import canon, vectors

RADII = (0, 1, 1e300, math.inf, math.nan)
N = 300


def words():
    return generate_words(N, seed=11), EditDistance()


def vector_case():
    return vectors(N, 4, 11, 3), EuclideanDistance()


def indexes(objects, metric):
    tree = SPBTree.build(
        objects, metric, num_pivots=3, page_size=256, cache_pages=4, seed=3
    )
    cluster = ShardedIndex.build(
        objects, metric, shards=2, num_pivots=3, page_size=256, cache_pages=4
    )
    return {"tree": tree, "cluster": cluster}


@pytest.fixture(scope="module", params=["words", "vectors"])
def setup(request):
    objects, metric = words() if request.param == "words" else vector_case()
    return objects, LinearScan(objects, metric), indexes(objects, metric)


def queries(objects):
    if isinstance(objects[0], str):
        return [objects[7], "zzzzzzzz"]
    nan = np.array(objects[7], dtype=np.float64)
    nan[1] = math.nan
    return [objects[7], nan]


@pytest.mark.parametrize("radius", RADII, ids=str)
def test_range_and_count_equal_the_scan(setup, radius):
    objects, scan, built = setup
    for query in queries(objects):
        truth = Counter(canon(o) for o in scan.range_query(query, radius))
        for name, index in built.items():
            got = Counter(canon(o) for o in index.range_query(query, radius))
            assert got == truth, (name, radius)
            assert index.range_count(query, radius) == sum(truth.values())


def test_infinite_radius_takes_every_object(setup):
    objects, _, built = setup
    for index in built.values():
        assert len(index.range_query(objects[0], math.inf)) == N
        assert len(index.range_query(objects[0], math.nan)) == 0


@pytest.mark.parametrize("radius", RADII, ids=str)
def test_range_region_is_a_box_on_the_grid(setup, radius):
    objects, _, built = setup
    space = built["tree"].space
    top = space.cells - 1
    for query in queries(objects):
        lo, hi = space.range_region(space.phi(query), radius)
        assert all(type(c) is int and 0 <= c <= top for c in lo + hi)
        if math.isinf(radius) or math.isnan(radius):
            assert lo == (0,) * len(lo) and hi == (top,) * len(hi)


@pytest.mark.parametrize("radius", RADII, ids=str)
def test_cost_model_estimates_any_radius(setup, radius):
    objects, _, built = setup
    model = CostModel(built["tree"])
    for query in queries(objects):
        estimate = model.estimate_range(query, radius)
        assert estimate.edc >= 0 and estimate.epa >= 0
