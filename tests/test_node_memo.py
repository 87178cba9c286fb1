"""Soundness of the decoded-node memo in ``BPlusTree.read_node``.

The memo may only ever return the node a fresh ``codec.decode`` of the
page's current bytes would: it is keyed on the *identity* of the page image,
and every way a page changes installs a new ``bytes`` object.  These tests
drive every such way — mutation, splits, root collapse, checkpoint + reload,
WAL replay, raw damage, a crash between mutate and write — and check the
memo against the decoder after each; they also pin that a memo hit is still
one page access, and that concurrent readers can share the memo.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.baselines import LinearScan
from repro.btree.tree import BPlusTree, NodeMemo
from repro.core.persist import load_tree, open_tree, save_tree
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance
from repro.sfc.zorder import ZCurve
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.pagefile import PageCorruptionError


def assert_memo_sound(btree: BPlusTree) -> None:
    """Every page reads back as the decoder's view of its current bytes."""
    pagefile = btree.pagefile
    saved = pagefile.counter.reads
    for page_id in range(pagefile.num_pages):
        node = btree.read_node(page_id)
        fresh = btree.codec.decode(pagefile._pages[page_id], page_id)
        assert node == fresh, f"page {page_id}"
        assert node.read_only
        if node.is_leaf:
            assert btree.leaf_cells(node).tolist() == [
                list(btree.curve.decode(e.key)) for e in fresh.entries
            ]
        else:
            lo, hi = btree.child_boxes(node)
            assert [tuple(r) for r in lo.tolist()] == [
                btree.curve.decode(e.min_sfc) for e in fresh.entries
            ]
            assert [tuple(r) for r in hi.tolist()] == [
                btree.curve.decode(e.max_sfc) for e in fresh.entries
            ]
    pagefile.counter.reads = saved


def small_btree(checksums: bool = False) -> BPlusTree:
    return BPlusTree(ZCurve(2, 8), page_size=128, checksums=checksums)


class TestMemoFollowsEveryMutation:
    def test_inserts_deletes_splits_and_root_collapse(self):
        rng = random.Random(11)
        tree = small_btree()
        items = [(rng.randrange(1 << 16), ptr) for ptr in range(900)]
        tree.bulk_load(sorted(items[:300]))
        assert_memo_sound(tree)
        height = tree.height
        for i, (key, ptr) in enumerate(items[300:]):
            tree.insert(key, ptr)
            if i % 97 == 0:
                assert_memo_sound(tree)
        peak = tree.height
        assert peak > height  # leaf and internal splits, a new root
        assert_memo_sound(tree)
        rng.shuffle(items)
        for i, (key, ptr) in enumerate(items[:-1]):
            assert tree.delete(key, ptr)
            if i % 97 == 0:
                assert_memo_sound(tree)
        assert tree.height == 1  # the root collapsed, level by level
        assert_memo_sound(tree)
        assert tree.items() == items[-1:]

    def test_mutators_never_touch_the_shared_node(self):
        tree = small_btree()
        tree.bulk_load([(k, k) for k in range(0, 40, 2)])
        leaf_page = tree.first_leaf_page()
        before = tree.read_node(leaf_page)
        snapshot = (before.entries, before.next_leaf)
        tree.insert(1, 1)
        tree.delete(4, 4)
        assert (before.entries, before.next_leaf) == snapshot
        assert tree.read_node(leaf_page) is not before
        with pytest.raises((AttributeError, TypeError)):
            before.entries.append(None)
        with pytest.raises(ValueError):
            tree.leaf_cells(before)[0, 0] = 99

    def test_written_node_is_served_without_decoding(self):
        tree = small_btree()
        tree.bulk_load([(k, k) for k in range(30)])
        tree.insert(7, 70)

        def no_decode(data, page_id):
            raise AssertionError(f"page {page_id} decoded")

        tree.codec.decode = no_decode
        assert (7, 70) in tree.items()

    def test_checkpoint_reload_and_wal_replay(self, tmp_path):
        words = generate_words(700, seed=4)
        metric = EditDistance()
        tree = SPBTree.build(words[:400], metric, num_pivots=3, page_size=512, seed=1)
        save_tree(tree, str(tmp_path))
        tree = open_tree(str(tmp_path), metric, wal_fsync=False)
        assert_memo_sound(tree.btree)
        for word in words[400:550]:
            tree.insert(word)
        for word in words[:60]:
            assert tree.delete(word)
        assert_memo_sound(tree.btree)
        tree.checkpoint()
        assert_memo_sound(tree.btree)
        for word in words[550:]:
            tree.insert(word)
        tree.wal.close()
        # reload: the generation's pages plus the un-checkpointed WAL tail
        replayed = load_tree(str(tmp_path), metric)
        assert_memo_sound(replayed.btree)
        assert sorted(replayed.btree.items()) == sorted(tree.btree.items())
        oracle = LinearScan(words[60:], metric)
        for q in words[100:104]:
            assert sorted(replayed.range_query(q, 2)) == sorted(
                oracle.range_query(q, 2)
            )


class TestDamageIsStillSeen:
    def _loaded(self, checksums: bool) -> tuple[BPlusTree, int]:
        tree = small_btree(checksums)
        tree.bulk_load([(k, k) for k in range(60)])
        page = tree.first_leaf_page()
        tree.read_node(page)  # memoised
        return tree, page

    def test_checksummed_damage_raises_on_a_memoised_page(self):
        tree, page = self._loaded(checksums=True)
        FaultInjector(tree.pagefile).flip_bit(page, bit=200)
        with pytest.raises(PageCorruptionError):
            tree.read_node(page)
        tree, page = self._loaded(checksums=True)
        FaultInjector(tree.pagefile).tear_page(page, keep=20)
        with pytest.raises(PageCorruptionError):
            tree.read_node(page)

    def test_unchecksummed_damage_decodes_the_damaged_bytes(self):
        tree, page = self._loaded(checksums=False)
        intact = tree.read_node(page)
        FaultInjector(tree.pagefile).tear_page(page, keep=40)
        damaged = tree.read_node(page)
        assert damaged == tree.codec.decode(tree.pagefile._pages[page], page)
        assert damaged != intact
        assert_memo_sound(tree)

    def test_torn_write_is_not_masked_by_the_seeded_node(self):
        tree = small_btree()
        tree.bulk_load([(k, k) for k in range(20)])
        plain = tree.pagefile
        tree.pagefile = FaultInjector(plain, torn_write_rate=1.0, seed=3)
        tree.insert(5, 50)  # the leaf's write is torn right after it lands
        tree.pagefile = plain
        assert_memo_sound(tree)

    def test_crash_between_mutate_and_write_leaves_the_memo_clean(self):
        tree = small_btree()
        tree.bulk_load([(k, k) for k in range(0, 400, 2)])
        before = sorted(tree.items())
        plain = tree.pagefile
        for crash_after in range(4):
            tree.pagefile = FaultInjector(plain, crash_after=crash_after)
            with pytest.raises(SimulatedCrash):
                for key in range(1, 400, 2):  # enough inserts to split
                    tree.insert(key, key)
            tree.pagefile = plain
            # whatever reached the page file is what every reader sees
            assert_memo_sound(tree)
            if crash_after == 0:
                assert sorted(tree.items()) == before


class TestMemoIsInvisibleToTheCounters:
    def test_page_accesses_equal_with_the_memo_bypassed(self):
        words = generate_words(900, seed=8)
        metric = EditDistance()
        trees = [
            SPBTree.build(words[:500], metric, num_pivots=3, page_size=512, seed=1)
            for _ in range(2)
        ]
        trees[1].btree.memo = bypass = NodeMemo()
        bypass.capacity = 0  # holds nothing: every read decodes
        rng = random.Random(5)
        log: list[list] = [[], []]
        for step in range(400):
            op = rng.choice(["insert", "insert", "delete", "range", "knn", "count"])
            word = words[rng.randrange(500 + step)]
            for tree, out in zip(trees, log):
                if op == "insert":
                    tree.insert(words[500 + step])
                elif op == "delete":
                    out.append(tree.delete(word))
                elif op == "range":
                    out.append(sorted(tree.range_query(word, 2)))
                elif op == "knn":
                    out.append([d for d, _ in tree.knn_query(word, 4)])
                else:
                    out.append(tree.range_count(word, 3))
                out.append((tree.page_accesses, tree.distance_computations))
        assert log[0] == log[1]
        assert len(trees[1].btree.memo) == 0 < len(trees[0].btree.memo)

    def test_a_memo_hit_is_one_page_access(self):
        tree = small_btree()
        tree.bulk_load([(k, k) for k in range(10)])
        reads = tree.pagefile.counter.reads
        first = tree.read_node(tree.root_page)
        assert tree.read_node(tree.root_page) is first
        assert tree.pagefile.counter.reads == reads + 2

    def test_lru_bound_and_eviction_order(self):
        memo = NodeMemo()
        memo.capacity = 2
        images = [bytes([i]) * 4 for i in range(3)]
        memo.put(0, images[0], "n0")
        memo.put(1, images[1], "n1")
        assert memo.get(0, images[0]) == "n0"  # touch: page 1 is now oldest
        memo.put(2, images[2], "n2")
        assert len(memo) == 2
        assert memo.get(1, images[1]) is None
        assert memo.get(0, images[0]) == "n0"
        # an equal but distinct image is a different page state
        assert memo.get(2, bytes(images[2][:2]) + images[2][2:]) is None


def test_concurrent_readers_and_a_writer_agree_with_linear_scan():
    """8 readers share the memo (and fight over a 4-node LRU) while 1 writer
    mutates under the epoch lock, for 2 s."""
    words = generate_words(1400, seed=21)
    base, pool = words[:600], words[600:]
    metric = EditDistance()
    tree = SPBTree.build(base, metric, num_pivots=3, page_size=512, seed=1)
    tree.btree.memo = NodeMemo()
    tree.btree.memo.capacity = 4
    queries = base[:8]
    must = [set(LinearScan(base, metric).range_query(q, 2)) for q in queries]
    may = [set(LinearScan(words, metric).range_query(q, 2)) for q in queries]
    stop = threading.Event()
    errors: list[BaseException] = []
    rounds = [0] * len(queries)

    def reader(i: int) -> None:
        try:
            while not stop.is_set():
                got = set(tree.range_query(queries[i], 2))
                assert must[i] <= got <= may[i]
                nearest = tree.knn_query(queries[i], 3)
                assert nearest[0] == (0, queries[i])
                rounds[i] += 1
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    def writer() -> None:
        try:
            while not stop.is_set():
                for word in pool:
                    tree.insert(word)
                    if stop.is_set():
                        break
                for word in pool:
                    tree.delete(word)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        time.sleep(2.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert all(rounds)
    live = list(tree.objects())
    oracle = LinearScan(live, metric)
    for q in queries:
        assert sorted(tree.range_query(q, 2)) == sorted(oracle.range_query(q, 2))
    assert_memo_sound(tree.btree)
    assert len(tree.btree.memo) <= 4
