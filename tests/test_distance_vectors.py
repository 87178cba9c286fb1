"""Unit tests for vector metrics."""

import math

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.distance import (
    ChebyshevDistance,
    EuclideanDistance,
    HammingDistance,
    ManhattanDistance,
    MinkowskiDistance,
)
from repro.distance.base import Metric


class TestMinkowski:
    def test_l2_matches_numpy(self):
        rng = np.random.default_rng(0)
        metric = EuclideanDistance()
        for _ in range(20):
            a, b = rng.normal(size=8), rng.normal(size=8)
            assert metric(a, b) == pytest.approx(np.linalg.norm(a - b))

    def test_l1(self):
        metric = ManhattanDistance()
        assert metric([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_l5(self):
        metric = MinkowskiDistance(5)
        a, b = np.array([1.0, 2.0]), np.array([4.0, 6.0])
        expected = (3.0**5 + 4.0**5) ** 0.2
        assert metric(a, b) == pytest.approx(expected)

    def test_linf(self):
        metric = ChebyshevDistance()
        assert metric([1, 5, 2], [2, 1, 2]) == pytest.approx(4.0)
        assert math.isinf(metric.p)

    def test_identity(self):
        metric = EuclideanDistance()
        v = np.array([1.0, 2.0, 3.0])
        assert metric(v, v) == 0.0

    def test_symmetry(self):
        metric = MinkowskiDistance(3)
        a, b = np.array([0.0, 1.0]), np.array([2.0, 5.0])
        assert metric(a, b) == pytest.approx(metric(b, a))

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            MinkowskiDistance(0.5)

    def test_rejects_shape_mismatch(self):
        metric = EuclideanDistance()
        with pytest.raises(ValueError):
            metric([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_name(self):
        assert MinkowskiDistance(5).name == "L5"
        assert ChebyshevDistance().name == "Linf"


class TestHamming:
    def test_basic(self):
        metric = HammingDistance()
        assert metric([0, 1, 0, 1], [0, 0, 0, 1]) == 1.0
        assert metric([1, 1], [0, 0]) == 2.0

    def test_numpy_arrays(self):
        metric = HammingDistance()
        a = np.array([1, 0, 1, 0], dtype=np.uint8)
        b = np.array([1, 1, 1, 1], dtype=np.uint8)
        assert metric(a, b) == 2.0

    def test_is_discrete(self):
        assert HammingDistance().is_discrete

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            HammingDistance()([1, 0], [1, 0, 1])


class TestMaxDistance:
    def test_overestimates_for_continuous(self):
        rng = np.random.default_rng(1)
        metric = EuclideanDistance()
        data = [rng.normal(size=3) for _ in range(50)]
        d_plus = metric.max_distance(data)
        true_max = max(
            metric(a, b) for i, a in enumerate(data) for b in data[i + 1 :]
        )
        # Padded estimate from a full scan at this size.
        assert d_plus >= true_max

    def test_trivial_inputs(self):
        metric = EuclideanDistance()
        assert metric.max_distance([np.zeros(2)]) == 1.0
        assert metric.max_distance([]) == 1.0

    @pytest.mark.parametrize("pairs", [1, 3, 7, 2000])
    def test_evaluates_the_pairs_of_the_double_loop_in_order(self, pairs):
        """d+ fixes δ and every SFC key, so the sampled pairs may not move."""
        for n in range(41):
            recorder = _PairRecorder()
            d_plus = recorder.max_distance(list(range(n)), pairs)
            expected = _double_loop_pairs(n, pairs)
            assert recorder.seen == expected, (n, pairs)
            if n >= 2:
                assert d_plus == max(j - i for i, j in expected) * 1.05

    @pytest.mark.parametrize("name", ["words", "color"])
    def test_same_d_plus_as_the_double_loop_on_the_corpora(self, name):
        dataset = load_dataset(name, size=700, seed=42)
        metric, objects = dataset.metric, dataset.objects
        best = max(
            metric(objects[i], objects[j])
            for i, j in _double_loop_pairs(len(objects), 2000)
        )
        if not metric.is_discrete:
            best *= 1.05
        assert metric.max_distance(objects) == best


class _PairRecorder(Metric):
    """Metric over indices that records which pairs it was asked for."""

    def __init__(self):
        self.seen = []

    def __call__(self, a, b):
        self.seen.append((a, b))
        return abs(a - b)


def _double_loop_pairs(n, pairs):
    """The systematic sample as first written: every step-th (i, j), i < j,
    of the row-major walk over all n(n-1)/2 index pairs."""
    step = max(1, (n * (n - 1) // 2) // max(1, pairs))
    out, count = [], 0
    for i in range(n):
        for j in range(i + 1, n):
            count += 1
            if count % step == 0:
                out.append((i, j))
    return out
