"""Tests for SPB-tree persistence (save_tree / load_tree)."""

import json
import os

import numpy as np
import pytest

from repro import (
    EditDistance,
    EuclideanDistance,
    MinkowskiDistance,
    SPBTree,
    load_tree,
    save_tree,
    similarity_join,
)
from repro.core.costmodel import CostModel
from repro.core.pivots import select_pivots
from repro.datasets import generate_color, generate_words


class TestRoundTrip:
    def test_words_queries_survive(self, tmp_path):
        words = generate_words(400, seed=3)
        tree = SPBTree.build(words, EditDistance(), num_pivots=3, seed=1)
        q = words[7]
        expected_range = sorted(tree.range_query(q, 2))
        expected_knn = [d for d, _ in tree.knn_query(q, 5)]
        save_tree(tree, str(tmp_path / "idx"))
        reopened = load_tree(str(tmp_path / "idx"), EditDistance())
        assert sorted(reopened.range_query(q, 2)) == expected_range
        assert [d for d, _ in reopened.knn_query(q, 5)] == expected_knn
        assert len(reopened) == len(tree)

    def test_vectors_survive(self, tmp_path):
        data = generate_color(300, seed=5)
        metric = MinkowskiDistance(5)
        tree = SPBTree.build(data, metric, num_pivots=4, seed=1)
        q = data[0]
        expected = len(tree.range_query(q, 0.1))
        save_tree(tree, str(tmp_path / "idx"))
        reopened = load_tree(str(tmp_path / "idx"), MinkowskiDistance(5))
        assert len(reopened.range_query(q, 0.1)) == expected

    def test_updates_after_reload(self, tmp_path):
        words = generate_words(200, seed=3)
        tree = SPBTree.build(words, EditDistance(), num_pivots=2, seed=1)
        save_tree(tree, str(tmp_path / "idx"))
        reopened = load_tree(str(tmp_path / "idx"), EditDistance())
        reopened.insert("zzqqzz")
        assert "zzqqzz" in reopened.range_query("zzqqzz", 0)
        assert reopened.delete(words[0])
        assert words[0] not in reopened.range_query(words[0], 0)

    def test_deleted_objects_stay_deleted(self, tmp_path):
        words = generate_words(200, seed=3)
        tree = SPBTree.build(words, EditDistance(), num_pivots=2, seed=1)
        victim = words[50]
        assert tree.delete(victim)
        save_tree(tree, str(tmp_path / "idx"))
        reopened = load_tree(str(tmp_path / "idx"), EditDistance())
        assert victim not in reopened.range_query(victim, 0)
        assert len(reopened) == 199

    def test_cost_model_statistics_survive(self, tmp_path):
        """A model over the reopened tree equals the model over the saved
        one: every statistic it uses comes from the stored index."""
        words = generate_words(300, seed=3)
        tree = SPBTree.build(words, EditDistance(), num_pivots=3, seed=1)
        save_tree(tree, str(tmp_path / "idx"))
        reopened = load_tree(str(tmp_path / "idx"), EditDistance())
        saved, loaded = CostModel(tree), CostModel(reopened)
        for q in words[:40:7]:
            for radius in (1, 2, 4):
                assert loaded.estimate_range(q, radius) == saved.estimate_range(
                    q, radius
                )
            for k in (1, 4, 16):
                assert loaded.estimate_knn(q, k) == saved.estimate_knn(q, k)

    def test_catalog_with_a_statistics_block_loads(self, tmp_path):
        """Catalogs once carried the cost model's samples in a
        ``statistics`` block; one that still does loads, the block unread."""
        words = generate_words(200, seed=3)
        tree = SPBTree.build(words, EditDistance(), num_pivots=3, seed=1)
        directory = str(tmp_path / "idx")
        save_tree(tree, directory)
        catalog = os.path.join(directory, "spbtree.json")
        with open(catalog) as fh:
            meta = json.load(fh)
        assert "statistics" not in meta
        meta["statistics"] = {
            "grid_sample": [[0, 0, 0]],
            "sampled_from": 1,
            "pair_distances": [1.0],
            "distance_exponent": 2.0,
            "precision_hint": 1.0,
            "ndk_corrections": {"1": 1.0},
        }
        with open(catalog, "w") as fh:
            json.dump(meta, fh)
        reopened = load_tree(directory, EditDistance())
        assert len(reopened) == len(tree)
        for q in words[:30:6]:
            assert sorted(reopened.range_query(q, 2)) == sorted(tree.range_query(q, 2))
            assert reopened.knn_query(q, 5) == tree.knn_query(q, 5)

    def test_join_after_reload(self, tmp_path):
        metric = EditDistance()
        left = generate_words(150, seed=71)
        right = generate_words(150, seed=72)
        pivots = select_pivots(right, 3, metric, seed=3)
        d_plus = metric.max_distance(left + right)
        tq = SPBTree.build(left, metric, pivots=pivots, d_plus=d_plus, curve="z")
        to = SPBTree.build(right, metric, pivots=pivots, d_plus=d_plus, curve="z")
        expected = len(similarity_join(tq, to, 2).pairs)
        save_tree(tq, str(tmp_path / "q"))
        save_tree(to, str(tmp_path / "o"))
        rq = load_tree(str(tmp_path / "q"), EditDistance())
        ro = load_tree(str(tmp_path / "o"), EditDistance())
        assert len(similarity_join(rq, ro, 2).pairs) == expected


class TestValidation:
    def test_metric_mismatch_rejected(self, tmp_path):
        words = generate_words(100, seed=3)
        tree = SPBTree.build(words, EditDistance(), num_pivots=2, seed=1)
        save_tree(tree, str(tmp_path / "idx"))
        with pytest.raises(ValueError, match="metric"):
            load_tree(str(tmp_path / "idx"), EuclideanDistance())

    def test_empty_tree_rejected(self):
        tree = SPBTree(EditDistance(), ["pivot"], 10.0)
        with pytest.raises(ValueError, match="empty"):
            save_tree(tree, "/tmp/nonexistent-spb-dir")

    def test_counters_reset_after_load(self, tmp_path):
        words = generate_words(100, seed=3)
        tree = SPBTree.build(words, EditDistance(), num_pivots=2, seed=1)
        save_tree(tree, str(tmp_path / "idx"))
        reopened = load_tree(str(tmp_path / "idx"), EditDistance())
        assert reopened.page_accesses == 0
        assert reopened.distance_computations == 0
