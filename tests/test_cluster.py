"""Sharded SPB-tree cluster: routing, exactness, persistence, degradation.

The contract under test: a cluster of N shards answers every query with
*exactly* the result a single SPB-tree over the same objects would return —
scatter-gather, shard pruning, and budget splitting must never change the
answer, only the cost.  On clusterable data the Router's shard-level
Lemma 1/2/3 pruning must keep the cluster's distance computations within
5% of the single tree's.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cluster import (
    CLUSTER_FILE,
    ClusterResult,
    ShardExhaustion,
    ShardedIndex,
    load_catalog,
)
from repro.core.persist import CatalogError
from repro.core.spbtree import SPBTree
from repro.obs.trace import QueryTrace
from repro.service import QueryContext, QueryEngine


# --------------------------------------------------------------------------
# Fixtures: the same objects, indexed once as a single tree and once as a
# cluster, so every test can compare answers side by side.


@pytest.fixture(scope="module")
def blob_vectors() -> list[np.ndarray]:
    """Four well-separated Gaussian blobs: data where shard pruning bites."""
    rng = np.random.default_rng(11)
    centers = [
        np.array([0.0, 0.0, 0.0, 0.0]),
        np.array([8.0, 0.0, 0.0, 0.0]),
        np.array([0.0, 8.0, 0.0, 0.0]),
        np.array([8.0, 8.0, 0.0, 0.0]),
    ]
    out = []
    for c in centers:
        for _ in range(120):
            out.append(c + rng.normal(scale=0.6, size=4))
    return out


@pytest.fixture(scope="module")
def word_tree(small_words, edit) -> SPBTree:
    return SPBTree.build(small_words, edit, num_pivots=3, seed=1)


@pytest.fixture(scope="module")
def word_cluster(small_words, edit) -> ShardedIndex:
    return ShardedIndex.build(
        small_words, edit, shards=4, num_pivots=3, seed=1
    )


@pytest.fixture(scope="module")
def blob_tree(blob_vectors, l2) -> SPBTree:
    return SPBTree.build(blob_vectors, l2, num_pivots=4, seed=1)


@pytest.fixture(scope="module")
def blob_cluster(blob_vectors, l2) -> ShardedIndex:
    return ShardedIndex.build(
        blob_vectors, l2, shards=4, num_pivots=4, seed=1
    )


def _ids(objs) -> list:
    return sorted(str(o) for o in objs)


# --------------------------------------------------------------------------
# Construction and routing.


class TestBuild:
    def test_shards_partition_the_dataset(self, word_cluster, small_words):
        assert word_cluster.num_shards == 4
        assert word_cluster.object_count == len(small_words)
        assert sum(s.tree.object_count for s in word_cluster.shards) == len(
            small_words
        )

    def test_ranges_are_contiguous_and_covering(self, word_cluster):
        shards = word_cluster.shards
        assert shards[0].key_lo == 0
        assert shards[-1].key_hi == word_cluster.curve.max_value
        for prev, cur in zip(shards, shards[1:]):
            assert prev.key_hi == cur.key_lo

    def test_every_object_routes_to_its_own_shard(self, word_cluster):
        for shard in word_cluster.shards:
            for key, _ in shard.tree.keyed_objects():
                owner = word_cluster.router.shard_for_key(key)
                assert owner.shard_id == shard.shard_id

    def test_more_shards_than_distinct_keys_collapses(self, edit):
        # Ten copies of two words → at most two distinct SFC keys.
        objs = ["aaa", "bbb"] * 10
        cluster = ShardedIndex.build(objs, edit, shards=8, num_pivots=1, seed=1)
        assert cluster.num_shards <= 2
        assert cluster.object_count == 20

    def test_objects_stream_in_global_sfc_order(self, word_cluster):
        keys = []
        for shard in word_cluster.shards:
            keys.extend(k for k, _ in shard.tree.keyed_objects())
        assert keys == sorted(keys)
        assert len(list(word_cluster.objects())) == word_cluster.object_count


class TestWrites:
    def test_insert_routes_to_one_shard_and_is_queryable(
        self, small_words, edit
    ):
        cluster = ShardedIndex.build(
            small_words[:100], edit, shards=3, num_pivots=3, seed=1
        )
        before = [s.tree.object_count for s in cluster.shards]
        cluster.insert("zzyzx")
        after = [s.tree.object_count for s in cluster.shards]
        assert sum(after) == sum(before) + 1
        assert sum(1 for b, a in zip(before, after) if a != b) == 1
        hits = cluster.range_query("zzyzx", 0)
        assert "zzyzx" in list(hits)

    def test_delete_routes_and_removes(self, small_words, edit):
        cluster = ShardedIndex.build(
            small_words[:100], edit, shards=3, num_pivots=3, seed=1
        )
        victim = small_words[5]
        assert cluster.delete(victim)
        assert not cluster.delete(victim)
        assert victim not in list(cluster.range_query(victim, 0))


# --------------------------------------------------------------------------
# Exactness: cluster answers must equal the single tree's.


class TestExactness:
    RADII = [1, 2, 3]
    KS = [1, 5, 12]

    def test_range_set_equal_words(self, word_tree, word_cluster, small_words):
        for q in small_words[::37]:
            for r in self.RADII:
                single = set(word_tree.range_query(q, r))
                sharded = set(word_cluster.range_query(q, r))
                assert sharded == single, (q, r)

    def test_range_set_equal_blobs(self, blob_tree, blob_cluster, blob_vectors):
        for q in blob_vectors[::53]:
            for r in (0.5, 1.5, 4.0):
                single = _ids(blob_tree.range_query(q, r))
                sharded = _ids(blob_cluster.range_query(q, r))
                assert sharded == single

    def test_count_matches_range(self, word_tree, word_cluster, small_words):
        for q in small_words[::61]:
            for r in self.RADII:
                expected = len(word_tree.range_query(q, r))
                assert word_cluster.range_count(q, r) == expected
                ctx = QueryContext()
                out = word_cluster.range_count(q, r, context=ctx)
                assert out.count == expected

    @pytest.mark.parametrize("strategy", ["best-first"])
    def test_knn_distances_equal(
        self, strategy, word_tree, word_cluster, small_words
    ):
        for q in small_words[::41]:
            for k in self.KS:
                single = [d for d, _ in word_tree.knn_query(q, k)]
                sharded = [d for d, _ in word_cluster.knn_query(q, k)]
                assert sharded == single, (q, k, strategy)

    @pytest.mark.parametrize("strategy", ["best-first"])
    def test_knn_distances_equal_blobs(
        self, strategy, blob_tree, blob_cluster, blob_vectors
    ):
        for q in blob_vectors[::97]:
            single = [d for d, _ in blob_tree.knn_query(q, 10)]
            sharded = [d for d, _ in blob_cluster.knn_query(q, 10)]
            assert sharded == pytest.approx(single), strategy

    def test_exactness_under_engine_scatter(
        self, word_tree, word_cluster, small_words
    ):
        """Serving through the QueryEngine — the path that actually
        scatters in production — changes nothing."""
        with QueryEngine(word_cluster, workers=3) as engine:
            for q in small_words[::83]:
                got = engine.range(q, 2)
                assert got.complete
                assert set(got) == set(word_tree.range_query(q, 2))
                knn = engine.knn(q, 8)
                assert [d for d, _ in knn] == [
                    d for d, _ in word_tree.knn_query(q, 8)
                ]
                assert engine.count(q, 2).count == len(got)


class TestPruningEfficiency:
    def test_shards_are_pruned_on_clustered_data(
        self, blob_cluster, blob_vectors
    ):
        pruned = 0
        for q in blob_vectors[::53]:
            ctx = QueryContext()
            out = blob_cluster.range_query(q, 1.5, context=ctx)
            assert isinstance(out, ClusterResult)
            pruned += out.shards_pruned
        assert pruned > 0

    def test_cluster_compdists_close_to_single_tree(
        self, blob_tree, blob_cluster, blob_vectors
    ):
        """When shard pruning applies, scatter costs ≤ 1.05× the single tree."""
        queries = blob_vectors[::29]
        blob_tree.reset_counters()
        blob_cluster.reset_counters()
        pruned = 0
        for q in queries:
            blob_tree.range_query(q, 1.5)
            blob_tree.knn_query(q, 10)
            ctx = QueryContext()
            pruned += blob_cluster.range_query(q, 1.5, context=ctx).shards_pruned
            ctx2 = QueryContext()
            pruned += blob_cluster.knn_query(q, 10, context=ctx2).shards_pruned
        assert pruned > 0, "expected shard-level pruning on blob data"
        single = blob_tree.distance_computations
        sharded = blob_cluster.distance_computations
        assert sharded <= single * 1.05, (sharded, single)


# --------------------------------------------------------------------------
# Budgets, degradation, tracing.


class TestDegradation:
    def test_exhaustion_names_the_shard(self, word_cluster, small_words):
        ctx = QueryContext.with_limits(max_compdists=10)
        out = word_cluster.range_query(small_words[0], 3, context=ctx)
        assert not out.complete
        assert isinstance(out.reason, ShardExhaustion)
        assert str(out.reason).startswith("shard ")
        assert out.reason.shard >= 0

    def test_partial_knn_is_a_confirmed_prefix(
        self, word_tree, word_cluster, small_words
    ):
        q = small_words[7]
        true = [d for d, _ in word_tree.knn_query(q, 10)]
        for budget in (5, 20, 60, 150):
            ctx = QueryContext.with_limits(max_compdists=budget)
            out = word_cluster.knn_query(q, 10, context=ctx)
            got = [d for d, _ in out]
            assert got == true[: len(got)], (budget, got, true)
            if not out.complete:
                assert len(got) < 10 or out.frontier is not None

    def test_partial_merge_propagates_incomplete(
        self, word_cluster, small_words
    ):
        ctx = QueryContext.with_limits(max_compdists=25)
        out = word_cluster.range_query(small_words[3], 3, context=ctx)
        assert not out.complete
        incomplete = [
            s for s in out.per_shard.values() if not s["complete"]
        ]
        assert incomplete, "some visited shard must report exhaustion"

    def test_strict_mode_raises_after_merge(self, word_cluster, small_words):
        from repro.service import BudgetExceeded

        ctx = QueryContext.with_limits(max_compdists=10, strict=True)
        with pytest.raises(BudgetExceeded):
            word_cluster.range_query(small_words[0], 3, context=ctx)

    def test_sub_budgets_never_exceed_the_global_budget(
        self, word_cluster, small_words
    ):
        for budget in (17, 40, 90):
            ctx = QueryContext.with_limits(max_compdists=budget)
            word_cluster.range_query(small_words[9], 3, context=ctx)
            # Each shard may overshoot its slice by at most one checkpoint
            # interval; the merged total stays near the global budget.
            assert ctx.compdists <= budget + word_cluster.num_shards * 2


class TestTracing:
    @pytest.mark.parametrize("kind", ["range", "knn", "count"])
    def test_per_shard_spans_reconcile_exactly(
        self, kind, word_cluster, small_words
    ):
        ctx = QueryContext(trace=QueryTrace())
        q = small_words[13]
        if kind == "range":
            word_cluster.range_query(q, 2, context=ctx)
        elif kind == "knn":
            word_cluster.knn_query(q, 8, context=ctx)
        else:
            word_cluster.range_count(q, 2, context=ctx)
        cd, pa = ctx.trace.attributed_totals()
        assert cd == ctx.compdists
        assert pa == ctx.page_accesses
        names = [s.name for s in ctx.trace.root.children]
        assert "map" in names
        assert any(n.startswith("shard-") for n in names)


# --------------------------------------------------------------------------
# Persistence: save/load/open, WAL replay, checkpoint, catalog validation.


class TestPersistence:
    def test_save_load_round_trip(self, word_cluster, edit, tmp_path):
        directory = str(tmp_path / "clu")
        word_cluster.save(directory)
        loaded = ShardedIndex.load(directory, edit)
        assert loaded.num_shards == word_cluster.num_shards
        assert _ids(loaded.objects()) == _ids(word_cluster.objects())
        assert [
            (s.shard_id, s.key_lo, s.key_hi) for s in loaded.shards
        ] == [(s.shard_id, s.key_lo, s.key_hi) for s in word_cluster.shards]

    def test_loaded_cluster_answers_identically(
        self, word_cluster, edit, small_words, tmp_path
    ):
        directory = str(tmp_path / "clu")
        word_cluster.save(directory)
        loaded = ShardedIndex.load(directory, edit)
        for q in small_words[::101]:
            assert set(loaded.range_query(q, 2)) == set(
                word_cluster.range_query(q, 2)
            )

    def test_metric_mismatch_is_rejected(self, word_cluster, l2, tmp_path):
        directory = str(tmp_path / "clu")
        word_cluster.save(directory)
        with pytest.raises(ValueError):
            ShardedIndex.load(directory, l2)

    def test_open_replays_each_shards_wal(self, small_words, edit, tmp_path):
        directory = str(tmp_path / "clu")
        cluster = ShardedIndex.build(
            small_words[:120], edit, shards=3, num_pivots=3, seed=1
        )
        cluster.save(directory)
        opened = ShardedIndex.open(directory, edit)
        opened.insert("zzyzx")
        opened.insert("syzygy")
        assert opened.delete(small_words[2])
        opened.close()  # no checkpoint: mutations live only in the WALs
        replayed = ShardedIndex.open(directory, edit)
        try:
            live = _ids(replayed.objects())
            assert "zzyzx" in live and "syzygy" in live
            assert str(small_words[2]) not in live
            assert replayed.object_count == 121
        finally:
            replayed.close()

    def test_checkpoint_folds_wals(self, small_words, edit, tmp_path):
        directory = str(tmp_path / "clu")
        cluster = ShardedIndex.build(
            small_words[:120], edit, shards=3, num_pivots=3, seed=1
        )
        cluster.save(directory)
        opened = ShardedIndex.open(directory, edit)
        opened.insert("zzyzx")
        opened.checkpoint()
        opened.close()
        loaded = ShardedIndex.load(directory, edit, replay_wal=False)
        assert "zzyzx" in _ids(loaded.objects())
        report = loaded.verify()
        assert report.ok, report.errors


class TestCatalogValidation:
    def _tamper(self, directory, mutate):
        path = os.path.join(directory, CLUSTER_FILE)
        with open(path) as fh:
            payload = json.load(fh)
        mutate(payload)
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @pytest.fixture()
    def saved(self, word_cluster, tmp_path) -> str:
        directory = str(tmp_path / "clu")
        word_cluster.save(directory)
        return directory

    def test_missing_catalog(self, tmp_path):
        with pytest.raises(CatalogError):
            load_catalog(str(tmp_path / "nope"))

    def test_wrong_kind(self, saved):
        self._tamper(saved, lambda p: p.update(kind="spb-tree"))
        with pytest.raises(CatalogError):
            load_catalog(saved)

    def test_gap_in_ranges(self, saved):
        def mutate(p):
            p["shards"][1]["key_lo"] += 7

        self._tamper(saved, mutate)
        with pytest.raises(CatalogError, match="not contiguous"):
            load_catalog(saved)

    def test_duplicate_shard_ids(self, saved):
        def mutate(p):
            p["shards"][1]["id"] = p["shards"][0]["id"]

        self._tamper(saved, mutate)
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(saved)

    def test_escaping_directory_name(self, saved):
        def mutate(p):
            p["shards"][0]["dir"] = "../evil"

        self._tamper(saved, mutate)
        with pytest.raises(CatalogError, match="bare"):
            load_catalog(saved)


# --------------------------------------------------------------------------
# Rebalancing and verification.


class TestRebalance:
    def _fresh(self, small_words, edit, tmp_path, name) -> ShardedIndex:
        directory = str(tmp_path / name)
        cluster = ShardedIndex.build(
            small_words, edit, shards=3, num_pivots=3, seed=1
        )
        cluster.save(directory)
        return ShardedIndex.load(directory, edit)

    def test_split_preserves_objects_and_answers(
        self, small_words, edit, tmp_path, word_tree
    ):
        cluster = self._fresh(small_words, edit, tmp_path, "split")
        fattest = max(cluster.shards, key=lambda s: s.tree.object_count)
        action = cluster.rebalance(split=fattest.shard_id)
        assert action["action"] == "split"
        assert cluster.num_shards == 4
        assert cluster.object_count == len(small_words)
        assert cluster.verify().ok
        for q in small_words[::97]:
            assert set(cluster.range_query(q, 2)) == set(
                word_tree.range_query(q, 2)
            )

    def test_merge_preserves_objects_and_answers(
        self, small_words, edit, tmp_path, word_tree
    ):
        cluster = self._fresh(small_words, edit, tmp_path, "merge")
        a, b = cluster.shards[0], cluster.shards[1]
        action = cluster.rebalance(merge=(a.shard_id, b.shard_id))
        assert action["action"] == "merge"
        assert cluster.num_shards == 2
        assert cluster.object_count == len(small_words)
        assert cluster.verify().ok
        for q in small_words[::97]:
            assert [d for d, _ in cluster.knn_query(q, 8)] == [
                d for d, _ in word_tree.knn_query(q, 8)
            ]

    def test_merge_requires_adjacency(self, small_words, edit, tmp_path):
        cluster = self._fresh(small_words, edit, tmp_path, "nonadj")
        a, c = cluster.shards[0], cluster.shards[2]
        with pytest.raises(ValueError, match="adjacent"):
            cluster.rebalance(merge=(a.shard_id, c.shard_id))

    def test_split_and_merge_are_mutually_exclusive(
        self, small_words, edit, tmp_path
    ):
        cluster = self._fresh(small_words, edit, tmp_path, "both")
        with pytest.raises(ValueError):
            cluster.rebalance(split=0, merge=(0, 1))

    def test_auto_plan_splits_a_hot_shard(self, small_words, edit, tmp_path):
        directory = str(tmp_path / "hot")
        cluster = ShardedIndex.build(
            small_words, edit, shards=3, num_pivots=3, seed=1
        )
        cluster.save(directory)
        cluster = ShardedIndex.load(directory, edit)
        # Overload one shard far past 2× the average.
        hot = cluster.shards[1]
        extra = [w + "x" for w in small_words[:200]]
        for w in extra:
            key = cluster.curve.encode(cluster.space.grid(w))
            if hot.key_lo <= key < hot.key_hi:
                cluster.insert(w)
        if hot.tree.object_count >= 2 * (cluster.object_count / 3):
            action = cluster.rebalance()
            assert action is not None and action["action"] == "split"
            assert cluster.verify().ok

    def test_rebalance_survives_reload(self, small_words, edit, tmp_path):
        directory = str(tmp_path / "persisted")
        cluster = ShardedIndex.build(
            small_words, edit, shards=3, num_pivots=3, seed=1
        )
        cluster.save(directory)
        cluster = ShardedIndex.load(directory, edit)
        fattest = max(cluster.shards, key=lambda s: s.tree.object_count)
        cluster.rebalance(split=fattest.shard_id)
        expect = [(s.shard_id, s.key_lo, s.key_hi) for s in cluster.shards]
        reloaded = ShardedIndex.load(directory, edit)
        assert [
            (s.shard_id, s.key_lo, s.key_hi) for s in reloaded.shards
        ] == expect
        assert reloaded.object_count == len(small_words)
        assert reloaded.verify().ok
        # The replaced shard's directory is gone from disk.
        dirs = {d for d in os.listdir(directory) if d.startswith("shard-")}
        assert dirs == {s.dirname for s in reloaded.shards}


class TestClusterVerify:
    def test_good_cluster_verifies(self, word_cluster):
        report = word_cluster.verify()
        assert report.ok, report.errors
        assert report.shards_checked == word_cluster.num_shards
        assert report.objects_checked == word_cluster.object_count

    def test_verify_does_not_disturb_page_counters(self, word_cluster):
        before = word_cluster.page_accesses
        word_cluster.verify()
        assert word_cluster.page_accesses == before

    def test_shifted_ranges_fail_verify(self, word_cluster, edit, tmp_path):
        directory = str(tmp_path / "clu")
        word_cluster.save(directory)
        path = os.path.join(directory, CLUSTER_FILE)
        with open(path) as fh:
            payload = json.load(fh)
        # Shift every boundary up: still contiguous (loads fine) but no
        # longer covering, and objects now sit outside their shard's range.
        shift = 1 << 10
        for i, row in enumerate(payload["shards"]):
            row["key_lo"] += shift
            if i + 1 < len(payload["shards"]):
                row["key_hi"] += shift
        with open(path, "w") as fh:
            json.dump(payload, fh)
        loaded = ShardedIndex.load(directory, edit)
        report = loaded.verify()
        assert not report.ok
        assert any("not covered" in e or "outside" in e for e in report.errors)


# --------------------------------------------------------------------------
# Router MBB cache staleness (regression): a rebalance swaps trees, so any
# box cached before it must be unconditionally dropped, never filtered.


class TestRouterCacheInvalidation:
    def test_rebalance_drops_every_cached_mbb(
        self, small_words, edit, tmp_path
    ):
        directory = str(tmp_path / "mbbcache")
        cluster = ShardedIndex.build(
            small_words, edit, shards=3, num_pivots=3, seed=1
        )
        cluster.save(directory)
        cluster = ShardedIndex.load(directory, edit)
        router = cluster.router
        for shard in cluster.shards:
            router.mbb(shard)  # prime the cache
        assert len(router._mbb_cache) == cluster.num_shards
        fattest = max(cluster.shards, key=lambda s: s.tree.object_count)
        dropped = fattest.shard_id
        cluster.rebalance(split=dropped)
        assert router._mbb_cache == {}
        live = {s.shard_id for s in cluster.shards}
        assert dropped not in live
        # Re-priming only ever consults live shards.
        for shard in cluster.shards:
            router.mbb(shard)
        assert set(router._mbb_cache) == live

    def test_post_rebalance_query_ignores_poisoned_cache(
        self, small_words, edit, tmp_path, word_tree
    ):
        """A wrong cached box would let Lemma 1 prune a live shard; after
        a rebalance no pre-rebalance cache entry may survive to do so."""
        directory = str(tmp_path / "poison")
        cluster = ShardedIndex.build(
            small_words, edit, shards=3, num_pivots=3, seed=1
        )
        cluster.save(directory)
        cluster = ShardedIndex.load(directory, edit)
        router = cluster.router
        # Poison every entry with an impossible one-cell box: were any
        # entry consulted after the rebalance, Lemma 1 would mis-prune.
        top = cluster.space.cells - 1
        poison = ((top,) * cluster.space.num_pivots,) * 2
        for shard in cluster.shards:
            router._mbb_cache[shard.shard_id] = poison
        fattest = max(cluster.shards, key=lambda s: s.tree.object_count)
        cluster.rebalance(split=fattest.shard_id)
        for q in small_words[::53]:
            assert set(cluster.range_query(q, 2)) == set(
                word_tree.range_query(q, 2)
            )
            assert [d for d, _ in cluster.knn_query(q, 5)] == [
                d for d, _ in word_tree.knn_query(q, 5)
            ]

    def test_invalidate_drops_one_entry(self, small_words, edit):
        cluster = ShardedIndex.build(
            small_words, edit, shards=3, num_pivots=3, seed=1
        )
        router = cluster.router
        for shard in cluster.shards:
            router.mbb(shard)
        victim = cluster.shards[0].shard_id
        router.invalidate(victim)
        assert victim not in router._mbb_cache
        assert len(router._mbb_cache) == cluster.num_shards - 1
