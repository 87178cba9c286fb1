"""Tests for the SJA similarity join (Algorithm 3)."""

import threading

import numpy as np
import pytest

from repro.core.join import knn_join, similarity_join, similarity_self_join
from repro.core.pivots import select_pivots
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance, EuclideanDistance
from repro.service import QueryContext


def build_pair(set_q, set_o, metric, num_pivots=3, delta=None):
    pivots = select_pivots(set_o, num_pivots, metric, seed=3)
    d_plus = metric.max_distance(list(set_q) + list(set_o))
    tree_q = SPBTree.build(
        set_q, metric, pivots=pivots, d_plus=d_plus, curve="z", delta=delta
    )
    tree_o = SPBTree.build(
        set_o, metric, pivots=pivots, d_plus=d_plus, curve="z", delta=delta
    )
    return tree_q, tree_o


def brute_force(set_q, set_o, metric, eps):
    return sum(1 for a in set_q for b in set_o if metric(a, b) <= eps)


class TestVectors:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(11)
        metric = EuclideanDistance()
        set_q = [rng.normal(size=4) for _ in range(150)]
        set_o = [rng.normal(size=4) for _ in range(200)]
        trees = build_pair(set_q, set_o, metric)
        return set_q, set_o, metric, trees

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.8, 1.5])
    def test_matches_brute_force(self, setup, eps):
        set_q, set_o, metric, (tree_q, tree_o) = setup
        result = similarity_join(tree_q, tree_o, eps)
        assert len(result.pairs) == brute_force(set_q, set_o, metric, eps)

    def test_no_duplicate_pairs(self, setup):
        """Lemma 7: no missing and no duplicated answer pairs."""
        set_q, set_o, metric, (tree_q, tree_o) = setup
        result = similarity_join(tree_q, tree_o, 1.0)
        keys = {(a.tobytes(), b.tobytes()) for a, b in result.pairs}
        assert len(keys) == len(result.pairs)

    def test_pairs_ordered_q_then_o(self, setup):
        set_q, set_o, metric, (tree_q, tree_o) = setup
        q_keys = {a.tobytes() for a in set_q}
        result = similarity_join(tree_q, tree_o, 0.8)
        for a, b in result.pairs:
            assert a.tobytes() in q_keys

    def test_saves_distance_computations(self, setup):
        set_q, set_o, metric, (tree_q, tree_o) = setup
        result = similarity_join(tree_q, tree_o, 0.5)
        assert result.stats.distance_computations < len(set_q) * len(set_o)

    def test_negative_epsilon_rejected(self, setup):
        _, _, _, (tree_q, tree_o) = setup
        with pytest.raises(ValueError):
            similarity_join(tree_q, tree_o, -0.1)


class TestWords:
    def test_paper_example(self):
        """§5.1: SJ(Q, O, 1) = {<defoliate, defoliated>}."""
        metric = EditDistance()
        set_q = ["defoliate", "defoliates", "defoliation"] + [
            f"filler{i:03d}" for i in range(60)
        ]
        set_o = ["citrate", "defoliated", "defoliating"] + [
            f"pad{i:04d}xx" for i in range(60)
        ]
        tree_q, tree_o = build_pair(set_q, set_o, metric, num_pivots=2)
        result = similarity_join(tree_q, tree_o, 1)
        assert ("defoliate", "defoliated") in result.pairs
        assert len(result.pairs) == brute_force(set_q, set_o, metric, 1)

    @pytest.mark.parametrize("eps", [0, 1, 2, 4])
    def test_matches_brute_force(self, eps):
        metric = EditDistance()
        set_q = generate_words(120, seed=21)
        set_o = generate_words(150, seed=22)
        tree_q, tree_o = build_pair(set_q, set_o, metric)
        result = similarity_join(tree_q, tree_o, eps)
        assert len(result.pairs) == brute_force(set_q, set_o, metric, eps)


class TestValidation:
    def test_requires_z_curve(self):
        metric = EditDistance()
        words = generate_words(80, seed=5)
        pivots = select_pivots(words, 2, metric, seed=3)
        d_plus = metric.max_distance(words)
        hilbert = SPBTree.build(
            words, metric, pivots=pivots, d_plus=d_plus, curve="hilbert"
        )
        zorder = SPBTree.build(
            words, metric, pivots=pivots, d_plus=d_plus, curve="z"
        )
        with pytest.raises(ValueError, match="Z-order"):
            similarity_join(hilbert, zorder, 1)

    def test_requires_shared_pivots(self):
        metric = EditDistance()
        words_a = generate_words(80, seed=5)
        words_b = generate_words(80, seed=6)
        tree_a = SPBTree.build(words_a, metric, num_pivots=2, curve="z", seed=1)
        tree_b = SPBTree.build(words_b, metric, num_pivots=2, curve="z", seed=2)
        with pytest.raises(ValueError):
            similarity_join(tree_a, tree_b, 1)

    def test_symmetry_of_pair_count(self):
        metric = EditDistance()
        set_q = generate_words(100, seed=31)
        set_o = generate_words(100, seed=32)
        tq, to = build_pair(set_q, set_o, metric)
        forward = similarity_join(tq, to, 2)
        backward = similarity_join(to, tq, 2)
        assert len(forward.pairs) == len(backward.pairs)


class TestDeletedObjects:
    def test_join_skips_deleted(self):
        metric = EditDistance()
        set_q = generate_words(100, seed=41)
        set_o = generate_words(100, seed=42)
        tq, to = build_pair(set_q, set_o, metric)
        full = len(similarity_join(tq, to, 2).pairs)
        # Delete a word that participates in at least one pair.
        participating = {a for a, _ in similarity_join(tq, to, 2).pairs}
        if participating:
            victim = next(iter(participating))
            assert tq.delete(victim)
            reduced = len(similarity_join(tq, to, 2).pairs)
            assert reduced < full


class _ProbingMetric(EditDistance):
    """Once armed, its ``at``-th call starts a thread that asks for the
    write side of ``lock`` and gives it every chance to get in before the
    distance is returned; later calls note whether it has."""

    def __init__(self):
        super().__init__()
        self.lock = None
        self.calls = 0
        self.entered = threading.Event()
        self.entered_mid_join = False

    def arm(self, lock, at=5):
        self.lock, self.at = lock, at

    def _write(self):
        with self.lock.write():
            self.entered.set()

    def __call__(self, a, b):
        if self.lock is not None:
            self.calls += 1
            if self.calls == self.at:
                self.writer = threading.Thread(target=self._write, daemon=True)
                self.writer.start()
                self.entered_mid_join = self.entered.wait(timeout=0.2)
            elif self.entered.is_set():
                self.entered_mid_join = True
        return super().__call__(a, b)


class TestJoinsHoldAReadView:
    """A join is a read: a writer on any tree it walks waits until the
    join has returned (it used to get in mid-merge and could split a leaf
    under the sweep)."""

    @pytest.mark.parametrize(
        "join, writes_on",
        [("join", "q"), ("join", "o"), ("self-join", "o"), ("knn-join", "q")],
    )
    def test_writer_waits_for_the_join(self, join, writes_on):
        words = generate_words(240, seed=5)
        metric = _ProbingMetric()
        tree_q, tree_o = build_pair(words[120:], words[:120], metric)
        metric.arm((tree_q if writes_on == "q" else tree_o)._epoch_lock)
        ctx = QueryContext()
        if join == "join":
            similarity_join(tree_q, tree_o, 2, context=ctx)
        elif join == "self-join":
            similarity_self_join(tree_o, 2, context=ctx)
        else:
            knn_join(tree_q, tree_o, 2)
        assert metric.calls > metric.at
        assert not metric.entered_mid_join
        metric.writer.join(timeout=10)
        assert not metric.writer.is_alive() and metric.entered.is_set()
        if join != "knn-join":
            assert ctx.epoch is not None
