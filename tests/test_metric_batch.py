"""``Metric.batch`` is the loop of ``__call__``, bit for bit, within its
bound.

The batched kernels of :mod:`repro.distance.vectors` decide range
membership and kNN order, so "close" is not enough: a distance that differs
from the scalar form in its last bit moves an object across ``d <= r``.
Every comparison below is ``==`` on floats.  Past the bound a metric may
stop early (edit distance does) and answer with any lower bound of d that
is still past it; the queries that pass a bound are checked against the
linear scan.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.linear import LinearScan
from repro.cluster import ShardedIndex
from repro.core.mapping import PivotSpace
from repro.core.spbtree import SPBTree
from repro.datasets import DATASETS, load_dataset
from repro.datasets.words import generate_words
from repro.distance import (
    CountingDistance,
    EditDistance,
    HammingDistance,
    JaccardDistance,
    Metric,
    MinkowskiDistance,
    TriGramAngularDistance,
    shingles,
)
from repro.distance.strings import BATCH_MIN_ROWS
from repro.net.protocol import obj_from_json, obj_to_json
from repro.service.context import QueryContext
from tests.reference import CountedEdit, within

DIMS = (1, 3, 16, 64, 129)
MINKOWSKI = (1, 2, 5, math.inf)


def _loop(metric, q, objs) -> list[float]:
    return [metric(q, o) for o in objs]


def _against_is_one_row_batch(metric, q, objs, bound) -> bool:
    """``against(q)(o, bound)`` is ``batch(q, [o], bound)[0]``, bit for bit."""
    f = metric.against(q)
    got = [f(o, bound) for o in objs]
    return all(type(d) is float for d in got) and got == [
        metric.batch(q, [o], bound)[0] for o in objs
    ]


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
        unbound = counting.against(np.zeros(3))  # bound with no shard active
        with ctx.activate():
            out = counting.batch(np.zeros(3), rows)
            f = counting.against(np.zeros(3))
            assert [f(o, math.inf) for o in rows] == out
            assert [unbound(o, math.inf) for o in rows] == out
        assert out == _loop(counting.metric, np.zeros(3), rows)
        assert counting.count == 3 * n
        assert ctx.compdists == 2 * n  # the shard is the one active when bound


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


# ------------------------------------------------------------ the bound


def _bounds(metric, q, objs) -> list[float]:
    """d - 1, d and d + 1 around a few rows' distances, and the fixed ones."""
    around = [metric(q, objs[k]) for k in range(0, len(objs), max(1, len(objs) // 3))]
    return sorted({d + step for d in around for step in (-1, 0, 1)}) + [
        0.0, 1.5, math.inf, math.nan,
    ]


def _registered(n: int):
    """Every metric ``--metric`` names, with a query and ``n`` rows of its
    objects."""
    rng = np.random.default_rng(n)
    words = generate_words(n + 1, seed=n)
    vectors = rng.random((n + 1, 16))
    bits = rng.integers(0, 2, (n + 1, 64), dtype=np.uint8)
    sets = [shingles(w) for w in words]
    cases = [
        (EditDistance(), words),
        (HammingDistance(), bits),
        (JaccardDistance(), sets),
        (TriGramAngularDistance(), words),
    ] + [(MinkowskiDistance(p), vectors) for p in MINKOWSKI]
    return [(metric, objs[0], objs[1:]) for metric, objs in cases]


class _CallOnly(Metric):
    """Overrides only ``__call__``, as a tracer's span wrapper does: its
    ``batch`` is the base loop, which never sees the bound."""

    def __init__(self, inner: Metric) -> None:
        self.inner = inner
        self.name = inner.name
        self.is_discrete = inner.is_discrete
        self.calls = 0

    def __call__(self, a, b):
        self.calls += 1
        return self.inner(a, b)


class TestBoundContract:
    @pytest.mark.parametrize("n", (1, BATCH_MIN_ROWS - 1, BATCH_MIN_ROWS, 300))
    def test_every_registered_metric_keeps_the_contract(self, n):
        for metric, q, objs in _registered(n):
            exact = _loop(metric, q, objs)
            for bound in _bounds(metric, q, objs):
                got = metric.batch(q, objs, bound)
                assert all(type(d) is float for d in got)
                assert all(map(within, got, exact, [bound] * n)), (metric.name, bound)
                assert _against_is_one_row_batch(metric, q, objs[:9], bound)
                if not isinstance(metric, EditDistance):
                    # Kernels without a cut-off ignore the bound: bit-identical.
                    assert got == exact, (metric.name, bound)

    @pytest.mark.parametrize("m", (0, 1, 64, 65))
    @pytest.mark.parametrize("n", (1, BATCH_MIN_ROWS - 1, BATCH_MIN_ROWS, 300))
    def test_edit_distance_on_awkward_strings(self, m, n):
        """Non-ASCII, astral and NUL-ending rows, |q| on both sides of the
        one-word array limit, batches on both sides of the crossover."""
        rng = np.random.default_rng(100 * m + n)
        alphabet = list("ab\x00é中\U0001F600")
        q = "".join(rng.choice(alphabet, m))
        objs = [q, q + "\x00", q[: m // 2], "\x00" * 4, "\U0001F600" * 66]
        objs += ["".join(rng.choice(alphabet, rng.integers(0, 80))) for _ in range(n)]
        objs = objs[:n]
        metric = EditDistance()
        exact = [metric(q, o) for o in objs]
        for bound in _bounds(metric, q, objs) + [m / 2]:
            got = metric.batch(q, objs, bound)
            assert all(type(d) is float for d in got)
            assert all(map(within, got, exact, [bound] * n)), bound
            assert _against_is_one_row_batch(metric, q, objs, bound), bound

    def test_the_cut_off_answers_with_a_lower_bound(self):
        metric = EditDistance()
        q = "a" * 20
        # Ukkonen's cut-off in the loop, the length filter on the loop and
        # the array path: each answer is past the bound and short of d.
        cases = (("b" * 20, 20.0, (1,)), ("b" * 40, 40.0, (1, BATCH_MIN_ROWS)))
        for far, d, sizes in cases:
            assert metric(q, far) == d
            for n in sizes:
                got = metric.batch(q, [far] * n, 1)
                assert got == [got[0]] * n and 1 < got[0] < d
            assert _against_is_one_row_batch(metric, q, [far], 1)
            assert 1 < metric.against(q)(far, 1) < d
        # Within the bound, or with no bound at all: exact.
        assert metric.batch(q, ["a" * 19 + "b"], 1) == [1.0]
        assert metric.batch(q, ["b" * 20], math.nan) == [20.0]
        assert metric.against(q)("a" * 19 + "b", 1) == 1.0
        assert metric.against(q)("b" * 20, math.nan) == 20.0

    def test_non_str_rows_under_a_bound(self):
        metric = EditDistance()
        rows = [("a", "b"), ("a", "c", "d"), (), ("x", "y", "z", "w")] * 30
        for q in ("ac", ("a", "c")):
            for n in (4, len(rows)):
                exact = [metric(q, r) for r in rows[:n]]
                assert exact[:4] == [1.0, 1.0, 2.0, 4.0]
                for bound in (0, 1, 2.5, math.inf, math.nan):
                    got = metric.batch(q, rows[:n], bound)
                    assert all(map(within, got, exact, [bound] * n))
                    assert _against_is_one_row_batch(metric, q, rows[:4], bound)

    @pytest.mark.parametrize("bound", (0.0, 1, 1.5, math.inf, math.nan))
    def test_a_call_only_subclass_answers_exactly_through_counting(self, bound):
        words = generate_words(BATCH_MIN_ROWS + 8, seed=4)
        for n in (5, len(words) - 1):
            metric = _CallOnly(EditDistance())
            counting = CountingDistance(metric)
            got = counting.batch(words[0], words[1 : n + 1], bound)
            assert got == [EditDistance()(words[0], o) for o in words[1 : n + 1]]
            assert metric.calls == n and counting.count == n
            f = counting.against(words[0])
            assert [f(o, bound) for o in words[1 : n + 1]] == got
            assert metric.calls == 2 * n and counting.count == 2 * n

    def test_an_edit_subclass_with_its_own_call_is_asked_every_row(self):
        class Batched(EditDistance):
            rows = 0

            def batch(self, q, objs, bound=math.inf):
                self.rows += len(objs)
                return super().batch(q, objs, bound)

        metric = CountedEdit()
        words = generate_words(10, seed=6)
        assert metric.batch(words[0], words, 1) == [metric(words[0], o) for o in words]
        assert metric.calls == 2 * len(words)
        f = metric.against(words[0])
        assert [f(o, 1) for o in words] == metric.batch(words[0], words, 1)
        assert metric.calls == 4 * len(words)
        batched = Batched()
        assert _against_is_one_row_batch(batched, words[0], words, 1)
        assert batched.rows == 2 * len(words)  # against asked batch once a row


# ------------------------------------------------- queries under the bound


class _CutOffs(EditDistance):
    """Edit distance that notes every row its batch answered with a lower
    bound instead of the distance — proof the cut-off fired."""

    def __init__(self) -> None:
        self.cut = 0
        self.bounded = 0

    def batch(self, q, objs, bound=math.inf):
        out = super().batch(q, objs, bound)
        if bound < math.inf:
            self.bounded += 1
        self.cut += sum(d != self(q, o) for d, o in zip(out, objs))
        return out


class TestQueriesUnderTheBound:
    @pytest.fixture(scope="class")
    def words(self):
        return generate_words(900, seed=11)

    @pytest.fixture(scope="class")
    def scan(self, words):
        return LinearScan(words, EditDistance())

    @pytest.fixture(scope="class")
    def queries(self):
        return generate_words(12, seed=12)

    def _tree(self, words):
        metric = _CutOffs()
        return SPBTree.build(words, metric, num_pivots=3, seed=2), metric

    def test_range_and_count_equal_the_scan(self, words, scan, queries):
        tree, metric = self._tree(words)
        for radius in (0, 1, 2, 3):
            for q in queries:
                expected = sorted(scan.range_query(q, radius))
                assert sorted(tree.range_query(q, radius)) == expected
                assert tree.range_count(q, radius) == len(expected)
        assert metric.cut > 0

    @pytest.mark.parametrize("traversal", ("incremental", "greedy"))
    def test_knn_equals_the_scan(self, words, scan, queries, traversal):
        tree, metric = self._tree(words)
        for k in (1, 4, 9):
            for q in queries:
                got = tree.knn_query(q, k, traversal=traversal)
                assert [d for d, _ in got] == [d for d, _ in scan.knn_query(q, k)]
                assert all(EditDistance()(q, o) == d for d, o in got)
        assert metric.bounded > 0 and metric.cut > 0

    def test_cluster_knn_equals_the_scan(self, words, scan, queries):
        metric = _CutOffs()
        cluster = ShardedIndex.build(words, metric, shards=2, num_pivots=3, seed=2)
        for traversal in ("incremental", "greedy"):
            for q in queries:
                got = cluster.knn_query(q, 6, traversal=traversal)
                assert [d for d, _ in got] == [d for d, _ in scan.knn_query(q, 6)]
        assert metric.cut > 0

    @pytest.mark.parametrize("traversal", ("incremental", "greedy"))
    def test_a_compdist_budget_trips_where_the_exact_metric_trips(
        self, words, queries, traversal
    ):
        """The cut-off changes what a distance costs, never how many are
        counted: a budget trips at the same record with the same answer."""
        cut = SPBTree.build(words, _CutOffs(), num_pivots=3, seed=2)
        exact = SPBTree.build(words, _CallOnly(EditDistance()), num_pivots=3, seed=2)
        tripped = 0
        for q in queries:
            full = cut.knn_query(q, 5, traversal=traversal, context=QueryContext())
            spent = full.stats.distance_computations
            for budget in (spent // 4, spent // 2, spent - 1):
                runs = [
                    tree.knn_query(
                        q, 5, traversal=traversal,
                        context=QueryContext(max_compdists=budget),
                    )
                    for tree in (cut, exact)
                ]
                a, b = runs
                assert a.items == b.items
                assert (a.complete, a.reason) == (b.complete, b.reason)
                assert a.stats.distance_computations == b.stats.distance_computations
                assert a.stats.page_accesses == b.stats.page_accesses
                tripped += not a.complete
        assert tripped and cut.distance.metric.cut > 0
