"""Unit and integration tests for the SPB-tree: correctness of range, kNN
and update operations against the brute-force oracle."""

import numpy as np
import pytest

from repro.baselines import LinearScan
from repro.core.spbtree import SPBTree
from repro.datasets import (
    generate_color,
    generate_dna,
    generate_signature,
    generate_words,
)
from repro.distance import (
    EditDistance,
    HammingDistance,
    MinkowskiDistance,
    TriGramAngularDistance,
)
from repro.service.context import QueryContext


@pytest.fixture(scope="module")
def vector_tree(request):
    rng = np.random.default_rng(5)
    data = [rng.normal(size=4) for _ in range(500)]
    metric = MinkowskiDistance(2)
    tree = SPBTree.build(data, metric, num_pivots=3, seed=1)
    oracle = LinearScan(data, metric)
    return tree, oracle, data, metric


class TestBuild:
    def test_build_indexes_everything(self, vector_tree):
        tree, _, data, _ = vector_tree
        assert len(tree) == len(data)
        assert tree.btree.entry_count == len(data)
        assert tree.raf.object_count == len(data)

    def test_raf_in_sfc_order(self, vector_tree):
        tree, _, _, _ = vector_tree
        keys = [
            tree.curve.encode(tree.space.grid(obj)) for obj in tree.objects()
        ]
        assert keys == sorted(keys)

    def test_construction_compdists_is_n_times_p(self):
        rng = np.random.default_rng(6)
        data = [rng.normal(size=4) for _ in range(200)]
        metric = MinkowskiDistance(2)
        tree = SPBTree.build(data, metric, num_pivots=3, seed=1)
        assert tree.distance_computations == len(data) * 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            SPBTree.build([], MinkowskiDistance(2))

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError, match="unknown curve"):
            SPBTree(MinkowskiDistance(2), [np.zeros(2)], 1.0, curve="peano")


class TestRangeQuery:
    @pytest.mark.parametrize("radius", [0.0, 0.3, 0.8, 1.5, 3.0, 10.0])
    def test_matches_oracle(self, vector_tree, radius):
        tree, oracle, _, metric = vector_tree
        rng = np.random.default_rng(17)
        for _ in range(5):
            q = rng.normal(size=4)
            expected = oracle.range_query(q, radius)
            got = tree.range_query(q, radius)
            assert len(got) == len(expected)
            assert {g.tobytes() for g in got} == {
                e.tobytes() for e in expected
            }

    def test_negative_radius_rejected(self, vector_tree):
        tree = vector_tree[0]
        with pytest.raises(ValueError):
            tree.range_query(np.zeros(4), -1)

    def test_zero_radius_finds_exact_object(self, vector_tree):
        tree, _, data, _ = vector_tree
        results = tree.range_query(data[42], 0.0)
        assert any(np.array_equal(r, data[42]) for r in results)


class TestKnnQuery:
    @pytest.mark.parametrize("k", [1, 2, 5, 16, 50])
    @pytest.mark.parametrize("traversal", ["incremental", "greedy"])
    def test_matches_oracle(self, vector_tree, k, traversal):
        tree, oracle, _, _ = vector_tree
        rng = np.random.default_rng(23)
        for _ in range(4):
            q = rng.normal(size=4)
            got = tree.knn_query(q, k, traversal=traversal)
            expected = oracle.knn_query(q, k)
            assert len(got) == k
            # Distance multisets must match (ties may reorder objects).
            assert [d for d, _ in got] == pytest.approx(
                [d for d, _ in expected]
            )
            assert [d for d, _ in got] == sorted(d for d, _ in got)

    def test_k_larger_than_dataset(self, vector_tree):
        tree, _, data, _ = vector_tree
        res = tree.knn_query(data[0], len(data) + 100)
        assert len(res) == len(data)

    def test_invalid_arguments(self, vector_tree):
        tree = vector_tree[0]
        with pytest.raises(ValueError):
            tree.knn_query(np.zeros(4), 0)
        with pytest.raises(ValueError):
            tree.knn_query(np.zeros(4), 3, traversal="sideways")


class TestUpdates:
    def test_insert_then_query(self):
        words = generate_words(300, seed=4)
        tree = SPBTree.build(words, EditDistance(), num_pivots=3, seed=1)
        tree.insert("zzzzyq")
        assert "zzzzyq" in tree.range_query("zzzzyq", 0)
        res = tree.knn_query("zzzzyq", 1)
        assert res[0][1] == "zzzzyq"
        assert res[0][0] == 0.0

    def test_delete_removes_object(self):
        words = generate_words(300, seed=4)
        tree = SPBTree.build(words, EditDistance(), num_pivots=3, seed=1)
        victim = words[123]
        assert tree.delete(victim)
        assert victim not in tree.range_query(victim, 0)
        assert len(tree) == 299

    def test_delete_missing_returns_false(self):
        words = generate_words(100, seed=4)
        tree = SPBTree.build(words, EditDistance(), num_pivots=2, seed=1)
        assert not tree.delete("definitely-not-present-xyz")

    def test_mixed_updates_stay_consistent(self):
        words = generate_words(200, seed=8)
        extra = [w + "xq" for w in words[:50]]
        metric = EditDistance()
        tree = SPBTree.build(words, metric, num_pivots=3, seed=1)
        for w in extra:
            tree.insert(w)
        for w in words[:30]:
            assert tree.delete(w)
        remaining = words[30:] + extra
        oracle = LinearScan(remaining, metric)
        q = words[50]
        for r in (1, 3):
            assert sorted(tree.range_query(q, r)) == sorted(
                oracle.range_query(q, r)
            )

    def test_insert_costs_p_distance_computations(self):
        words = generate_words(200, seed=4)
        tree = SPBTree.build(words, EditDistance(), num_pivots=4, seed=1)
        before = tree.distance_computations
        tree.insert("freshwordxq")
        assert tree.distance_computations - before == 4


@pytest.mark.parametrize(
    "generator,metric_cls,radii",
    [
        (generate_words, EditDistance, (1, 3)),
        (generate_dna, TriGramAngularDistance, (0.1, 0.4)),
        (generate_signature, HammingDistance, (5, 15)),
        (generate_color, lambda: MinkowskiDistance(5), (0.02, 0.1)),
    ],
    ids=["words", "dna", "signature", "color"],
)
class TestAllDatasets:
    def test_range_and_knn_match_oracle(self, generator, metric_cls, radii):
        data = list(generator(250, seed=13))
        metric = metric_cls()
        tree = SPBTree.build(data, metric, num_pivots=3, seed=1)
        oracle = LinearScan(data, metric)
        queries = data[:3]
        for q in queries:
            for r in radii:
                assert len(tree.range_query(q, r)) == len(
                    oracle.range_query(q, r)
                )
            got = tree.knn_query(q, 5)
            expected = oracle.knn_query(q, 5)
            assert [d for d, _ in got] == pytest.approx(
                [d for d, _ in expected]
            )

    def test_incremental_never_computes_more_distances_than_greedy(
        self, generator, metric_cls, radii
    ):
        """Lemma 4, as data: incremental is compdist-optimal, so greedy can
        only ever pay in page accesses.  This is why nothing selects a
        traversal per query; a change that makes greedy win here (a priced
        page, a batched kernel) reopens that question."""
        data = list(generator(250, seed=13))
        tree = SPBTree.build(data, metric_cls(), num_pivots=3, seed=1)
        for q in data[:90]:
            for k in (1, 8):
                spent, dists = {}, {}
                for traversal in ("incremental", "greedy"):
                    ctx = QueryContext()
                    got = tree.knn_query(q, k, traversal=traversal, context=ctx)
                    spent[traversal] = ctx.compdists
                    dists[traversal] = [d for d, _ in got]
                assert spent["incremental"] <= spent["greedy"]
                assert dists["incremental"] == dists["greedy"]


class TestAccounting:
    def test_counters_and_reset(self, vector_tree):
        tree, _, data, _ = vector_tree
        tree.reset_counters()
        assert tree.page_accesses == 0
        assert tree.distance_computations == 0
        tree.range_query(data[0], 0.5)
        assert tree.page_accesses > 0
        assert tree.distance_computations > 0

    def test_pivot_mapping_counts_p_distances(self, vector_tree):
        tree, _, data, _ = vector_tree
        tree.reset_counters()
        tree.range_query(data[0], 0.0)
        # At least the |P| mapping computations of eq. 3.
        assert tree.distance_computations >= tree.space.num_pivots

    def test_storage_positive(self, vector_tree):
        tree = vector_tree[0]
        assert tree.size_in_bytes > 0
        assert tree.size_in_bytes == (
            tree.btree.size_in_bytes + tree.raf.size_in_bytes
        )
