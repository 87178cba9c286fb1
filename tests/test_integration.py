"""End-to-end integration scenarios across multiple subsystems."""

import numpy as np
import pytest

from repro import (
    CostModel,
    EditDistance,
    LinearScan,
    MinkowskiDistance,
    SPBTree,
    load_dataset,
    select_pivots,
    similarity_join,
)


class TestMultimediaScenario:
    """The paper's motivating use case: image (histogram) retrieval."""

    def test_full_pipeline(self):
        ds = load_dataset("color", size=600, num_queries=5)
        tree = SPBTree.build(
            ds.objects, ds.metric, num_pivots=5, d_plus=ds.d_plus, seed=7
        )
        oracle = LinearScan(ds.objects, ds.metric)
        for q in ds.queries:
            got = tree.knn_query(q, 10)
            expected = oracle.knn_query(q, 10)
            assert [d for d, _ in got] == pytest.approx(
                [d for d, _ in expected]
            )
        # The cost model should estimate this workload sensibly.
        model = CostModel(tree)
        estimate = model.estimate_knn(ds.queries[0], 10)
        assert estimate.edc >= 5
        assert estimate.epa > 0


class TestDataIntegrationScenario:
    """The paper's join use case: near-duplicate record detection."""

    def test_dirty_vs_master_join(self):
        ds = load_dataset("words", size=400)
        master = ds.objects[:200]
        # "Dirty" records: single-typo copies of some master records.
        dirty = [w + "x" for w in master[:40]] + ds.objects[200:300]
        pivots = select_pivots(master, 4, ds.metric, seed=3)
        tree_m = SPBTree.build(
            master, ds.metric, pivots=pivots, d_plus=ds.d_plus, curve="z"
        )
        tree_d = SPBTree.build(
            dirty, ds.metric, pivots=pivots, d_plus=ds.d_plus, curve="z"
        )
        result = similarity_join(tree_d, tree_m, 1)
        # Every typo copy must match its master record.
        matched = {a for a, _ in result.pairs}
        for w in master[:40]:
            assert (w + "x") in matched
        expected = sum(
            1 for a in dirty for b in master if ds.metric(a, b) <= 1
        )
        assert len(result.pairs) == expected


class TestHeterogeneousObjects:
    def test_variable_length_strings(self):
        words = ["a", "ab" * 30, "xyz", "m" * 100, "qq"] + [
            f"word{i}" for i in range(100)
        ]
        metric = EditDistance()
        tree = SPBTree.build(words, metric, num_pivots=2, seed=1)
        oracle = LinearScan(words, metric)
        assert sorted(tree.range_query("a", 2)) == sorted(
            oracle.range_query("a", 2)
        )

    def test_single_object_dataset(self):
        tree = SPBTree.build(["solo"], EditDistance(), num_pivots=1, seed=1)
        assert tree.range_query("solo", 0) == ["solo"]
        assert tree.knn_query("anything", 1)[0][1] == "solo"

    def test_all_identical_objects(self):
        data = [np.ones(3)] * 20
        tree = SPBTree.build(data, MinkowskiDistance(2), num_pivots=1, seed=1)
        assert len(tree.range_query(np.ones(3), 0.0)) == 20


class TestPublicApi:
    def test_version_and_exports(self):
        import repro

        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), name
