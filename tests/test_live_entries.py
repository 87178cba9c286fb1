"""A leaf entry always names a live record.

A delete takes the object's leaf entry out of the B+-tree as it
tombstones the object's RAF record (Appendix C), and every replay of a
delete does the same, so the query path reads a leaf entry's record
without asking the tombstone set; ``verify`` is where the rule is
audited.  Drawn streams of operations drive every path that writes leaf
entries or tombstones — inserts, deletes of held and missing objects,
duplicate-key twins, checkpoints, reopening with WAL replay and
``rebuild()`` on one tree; and on a replicated two-shard cluster
shipping, rebalance split and merge, and failover.  After every step
every tree, followers included, must hold the rule, verify clean, and
answer range and kNN queries exactly as the linear scan over its live
objects does.
"""

from __future__ import annotations

import tempfile
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LinearScan
from repro.cluster import ShardedIndex
from repro.core.persist import open_tree, save_tree
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance, EuclideanDistance
from repro.replication import replicate
from tests.reference import canon, same_key, vectors

BASE = 30
PAGE = 256
WORDS = generate_words(2 * BASE, seed=17)
VECTORS = vectors(2 * BASE, 4, 17)
# (pool, metric, query radius) per dataset; every check asks k = 4.
DATASETS = {
    "words": (WORDS, EditDistance(), 2),
    "vectors": (VECTORS, EuclideanDistance(), 0.3),
}
K = 4

INDEX = st.integers(0, 1 << 16)
MUTATIONS = [
    st.tuples(st.just("insert"), INDEX),
    st.tuples(st.just("delete"), st.booleans(), INDEX),
    st.tuples(st.just("twin"), INDEX),
]
TREE_OPS = st.one_of(
    *MUTATIONS,
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("rebuild")),
)
CLUSTER_OPS = st.one_of(
    *MUTATIONS,
    st.tuples(st.just("ship")),
    st.tuples(st.just("rebalance")),
    st.tuples(st.just("failover"), INDEX),
)


class Model:
    """The live objects a stream of mutations leaves, as a list."""

    def __init__(self, pool, objects) -> None:
        self.pool = pool
        self.live = list(objects)

    def pick(self, op: tuple):
        """The object ``op`` names: a pool object for an insert, a held
        object's twin, or — for a delete — a held object or any pool
        object, which may be missing."""
        if op[0] == "insert":
            return self.pool[op[1] % len(self.pool)]
        if op[0] == "twin":
            return same_key(self.live[op[1] % len(self.live)]) if self.live else None
        held, i = op[1], op[2]
        if held and self.live:
            return self.live[i % len(self.live)]
        return self.pool[i % len(self.pool)]

    def apply(self, op: tuple, index) -> None:
        """Apply a mutation to ``index`` and to the model."""
        obj = self.pick(op)
        if obj is None:
            return
        if op[0] == "delete":
            held = [canon(o) for o in self.live]
            expected = canon(obj) in held
            assert index.delete(obj) == expected
            if expected:
                del self.live[held.index(canon(obj))]
        else:
            index.insert(obj)
            self.live.append(obj)


def check_tree(tree: SPBTree, live: list, metric, radius: float) -> None:
    """The rule, a clean audit, and the linear scan's answers."""
    if tree.raf is not None:
        dead = tree.raf._deleted
        assert not [e.ptr for e in tree.btree.leaf_entries() if e.ptr in dead]
    report = tree.verify()
    assert report.ok, report.errors
    check_answers(tree, live, metric, radius)


def check_answers(index, live: list, metric, radius: float) -> None:
    scan = LinearScan(live, metric)
    pool = WORDS if isinstance(metric, EditDistance) else VECTORS
    for query in (pool[0], pool[BASE], pool[-1]):
        got = Counter(canon(o) for o in index.range_query(query, radius))
        assert got == Counter(canon(o) for o in scan.range_query(query, radius))
        got = [d for d, _ in index.knn_query(query, K)]
        assert got == [d for d, _ in scan.knn_query(query, K)]


@given(
    dataset=st.sampled_from(sorted(DATASETS)),
    ops=st.lists(TREE_OPS, min_size=1, max_size=12),
)
@settings(max_examples=80, deadline=None)
def test_every_tree_path_keeps_entries_live(dataset, ops):
    pool, metric, radius = DATASETS[dataset]
    model = Model(pool, pool[:BASE])
    with tempfile.TemporaryDirectory() as directory:
        built = SPBTree.build(
            model.live, metric, num_pivots=3, page_size=PAGE, seed=3
        )
        save_tree(built, directory)
        tree = open_tree(directory, metric, wal_fsync=False)
        try:
            for op in ops:
                if op[0] == "checkpoint":
                    tree.checkpoint()
                elif op[0] == "reopen":
                    tree.wal.close()
                    tree = open_tree(directory, metric, wal_fsync=False)
                elif op[0] == "rebuild":
                    fresh = tree.rebuild()
                    check_tree(fresh, model.live, metric, radius)
                    tree.wal.close()
                    save_tree(fresh, directory)
                    tree = open_tree(directory, metric, wal_fsync=False)
                else:
                    model.apply(op, tree)
                check_tree(tree, model.live, metric, radius)
        finally:
            tree.wal.close()


def open_replicated(directory: str, metric) -> ShardedIndex:
    """Give every shard of the saved cluster one follower, then open it."""
    replicate(directory, metric, replicas=1)
    return ShardedIndex.open(directory, metric, wal_fsync=False)


def rebalance(index: ShardedIndex, directory: str, metric) -> ShardedIndex:
    """Merge two shards into one, or split the one shard into two.  Either
    retires every shard and its followers, so the new shards are given
    theirs."""
    shards = sorted(index.shards, key=lambda s: s.key_lo)
    try:
        if len(shards) == 2:
            index.rebalance(merge=(shards[0].shard_id, shards[1].shard_id))
        else:
            index.rebalance(split=shards[0].shard_id)
    except ValueError:  # too few objects, or every one on one key
        return index
    index.close()
    return open_replicated(directory, metric)


def check_cluster(index: ShardedIndex, live: list, metric, radius) -> None:
    report = index.verify()
    assert report.ok, report.errors
    check_answers(index, live, metric, radius)
    keys = [index.curve.encode(index.space.grid(o)) for o in live]
    for shard in index.shards:
        own = [o for o, key in zip(live, keys) if shard.key_lo <= key < shard.key_hi]
        rset = index._sets.get(shard.shard_id)
        followers = [] if rset is None else [rep.tree for rep in rset.followers]
        for tree in [shard.tree, *followers]:
            check_tree(tree, own, metric, radius)


@given(ops=st.lists(CLUSTER_OPS, min_size=1, max_size=10))
@settings(max_examples=30, deadline=None)
def test_every_cluster_path_keeps_entries_live(ops):
    pool, metric, radius = DATASETS["words"]
    model = Model(pool, pool[:BASE])
    with tempfile.TemporaryDirectory() as directory:
        built = ShardedIndex.build(
            model.live, metric, shards=2, num_pivots=3, page_size=PAGE, seed=3
        )
        built.save(directory)
        built.close()
        index = open_replicated(directory, metric)
        try:
            for op in ops:
                if op[0] == "ship":
                    index.ship_all()
                elif op[0] == "rebalance":
                    index = rebalance(index, directory, metric)
                elif op[0] == "failover":
                    shards = index.shards
                    index.failover(shards[op[1] % len(shards)].shard_id)
                else:
                    model.apply(op, index)
                check_cluster(index, model.live, metric, radius)
        finally:
            index.close()
