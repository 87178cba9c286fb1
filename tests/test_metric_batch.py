"""``Metric.batch`` is the loop of ``__call__``, bit for bit.

The batched kernels of :mod:`repro.distance.vectors` decide range
membership and kNN order, so "close" is not enough: a distance that differs
from the scalar form in its last bit moves an object across ``d <= r``.
Every comparison below is ``==`` on floats.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.mapping import PivotSpace
from repro.core.spbtree import SPBTree
from repro.datasets import DATASETS, load_dataset
from repro.distance import (
    CountingDistance,
    EditDistance,
    HammingDistance,
    Metric,
    MinkowskiDistance,
)
from repro.net.protocol import obj_from_json, obj_to_json
from repro.service.context import QueryContext

DIMS = (1, 3, 16, 64, 129)
MINKOWSKI = (1, 2, 5, math.inf)


def _loop(metric, q, objs) -> list[float]:
    return [metric(q, o) for o in objs]


class TestBitIdentity:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("p", MINKOWSKI)
    @pytest.mark.parametrize("scale", (1.0, 1e-3, 255.0))
    def test_minkowski(self, p, dim, scale):
        rng = np.random.default_rng(1000 * dim + int(min(p, 9)))
        metric = MinkowskiDistance(p)
        rows = rng.random((400, dim)) * scale
        q = rng.random(dim) * scale
        expected = _loop(metric, q, rows)
        assert metric.batch(q, rows) == expected
        assert metric.batch(q, list(rows)) == expected  # a list of 1-D arrays
        assert metric.batch(q, rows[::-1][::2]) == expected[::-1][::2]  # strided view
        assert metric.batch(q, np.asfortranarray(rows)) == expected
        assert all(type(d) is float for d in metric.batch(q, rows))

    @pytest.mark.parametrize("dim", DIMS)
    def test_hamming_uint8(self, dim):
        rng = np.random.default_rng(dim)
        metric = HammingDistance()
        rows = rng.integers(0, 2, (300, dim), dtype=np.uint8)
        q = rng.integers(0, 2, dim, dtype=np.uint8)
        expected = _loop(metric, q, rows)
        assert metric.batch(q, rows) == expected
        assert metric.batch(q, list(rows)) == expected
        assert all(type(d) is float for d in metric.batch(q, rows))

    def test_uint8_rows_under_minkowski(self):
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 255, (50, 8), dtype=np.uint8)
        metric = MinkowskiDistance(2)
        assert metric.batch(rows[0], rows) == _loop(metric, rows[0], rows)


class TestFallsBackToTheLoop:
    @pytest.mark.parametrize("metric", (MinkowskiDistance(2), HammingDistance()))
    def test_ragged_input_raises_what_the_loop_raises(self, metric):
        q = np.zeros(3)
        with pytest.raises(ValueError):
            metric.batch(q, [np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError):
            metric.batch(q, np.zeros((5, 4)))  # right shape, wrong width

    def test_non_array_input(self):
        assert HammingDistance().batch("abc", ["abd", "xyz", "abc"]) == [1.0, 3.0, 0.0]
        assert MinkowskiDistance(1).batch((1, 2), [(1, 2), [4, 6]]) == [0.0, 7.0]

    def test_no_rows(self):
        for metric in (MinkowskiDistance(5), HammingDistance(), EditDistance()):
            assert metric.batch(np.zeros(4), []) == []
        assert MinkowskiDistance(2).batch(np.zeros(4), np.zeros((0, 4))) == []

    def test_default_is_the_loop_and_counts_calls(self):
        class Calls(Metric):
            calls = 0

            def __call__(self, a, b):
                self.calls += 1
                return float(abs(a - b))

        metric = Calls()
        assert metric.batch(3, [1, 5, 3]) == [2.0, 2.0, 0.0]
        assert metric.calls == 3
        assert EditDistance().batch("kitten", ["sitting", "kitten"]) == [3.0, 0.0]


class TestCountingDistanceBatch:
    @pytest.mark.parametrize("n", (0, 1, 7))
    def test_counts_per_object_globally_and_on_the_shard(self, n):
        counting = CountingDistance(MinkowskiDistance(2))
        rows = np.arange(n * 3, dtype=np.float64).reshape(n, 3)
        ctx = QueryContext()
        with ctx.activate():
            out = counting.batch(np.zeros(3), rows)
        assert out == _loop(counting.metric, np.zeros(3), rows)
        assert counting.count == n
        assert ctx.compdists == n


class TestPhiMany:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_equals_the_loop_of_phi_and_costs_the_same(self, name):
        dataset = load_dataset(name, size=120, num_queries=2, seed=42)
        counting = CountingDistance(dataset.metric)
        space = PivotSpace(dataset.objects[:4], counting, dataset.d_plus)
        many = space.phi_many(dataset.objects)
        assert counting.count == len(dataset.objects) * 4
        assert many == [space.phi(o) for o in dataset.objects]
        assert all(type(d) is float for phi in many for d in phi)

    def test_build_maps_through_it(self):
        """Table 6's invariant: a build costs |O|·|P| compdists, exactly."""
        dataset = load_dataset("color", size=300, num_queries=2, seed=42)
        tree = SPBTree.build(dataset.objects, dataset.metric, num_pivots=4, seed=7)
        assert tree.distance_computations == 300 * 4
        cells = {tuple(tree.curve.decode(key)) for key, _ in tree.keyed_objects()}
        assert cells == {tree.space.grid(o) for o in dataset.objects}


class TestResultObjectsKeepTheirContract:
    """A vector hit is a row of its leaf's matrix now; to a caller it is the
    array ``deserialize`` always returned."""

    @pytest.mark.parametrize("name", ("color", "signature"))
    def test_hits_equal_a_single_deserialize(self, name):
        dataset = load_dataset(name, size=400, num_queries=3, seed=42)
        tree = SPBTree.build(dataset.objects, dataset.metric, num_pivots=3, seed=7)
        serializer = tree.raf.serializer
        radius = (12 if tree.space.exact else 0.15) * (1 if tree.space.exact else tree.space.d_plus)
        query = dataset.queries[0]
        hits = tree.range_query(query, radius)
        greedy = [obj for _, obj in tree.knn_query(query, 5, traversal="greedy")]
        incremental = [obj for _, obj in tree.knn_query(query, 5)]
        assert len(hits) > 5
        for obj in hits + greedy + incremental:
            one = serializer.deserialize(serializer.serialize(obj))
            assert isinstance(obj, np.ndarray) and obj.ndim == 1
            assert obj.dtype == one.dtype and (obj == one).all()
            assert obj.flags.writeable == one.flags.writeable
            assert obj_from_json(obj_to_json(obj)) == obj_from_json(obj_to_json(one))
        expected = sorted(
            repr(o) for o in dataset.objects if dataset.metric(query, o) <= radius
        )
        assert sorted(repr(o) for o in hits) == expected
