"""Tests for the ablation switches: results must stay correct with every
optimization disabled — the lemmas only *save* work, never change answers."""

import pytest

from repro.baselines import LinearScan
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance


@pytest.fixture(scope="module")
def setup():
    words = generate_words(400, seed=23)
    metric = EditDistance()
    oracle = LinearScan(words, metric)
    return words, metric, oracle


@pytest.mark.parametrize("lemma2", [True, False])
def test_range_correct_with_and_without_lemma2(setup, lemma2):
    words, metric, oracle = setup
    tree = SPBTree.build(words, metric, num_pivots=3, seed=1)
    tree.use_lemma2 = lemma2
    for q in words[:3]:
        for r in (1, 2, 4):
            assert sorted(tree.range_query(q, r)) == sorted(
                oracle.range_query(q, r)
            )


def test_lemma2_saves_distance_computations(setup):
    """Lemma 2's whole point: fewer compdists at large radii."""
    words, metric, oracle = setup
    with_l2 = SPBTree.build(words, metric, num_pivots=3, seed=1)
    without_l2 = SPBTree.build(words, metric, num_pivots=3, seed=1)
    without_l2.use_lemma2 = False
    with_l2.reset_counters()
    without_l2.reset_counters()
    for q in words[:5]:
        with_l2.range_query(q, 8)
        without_l2.range_query(q, 8)
    assert (
        with_l2.distance_computations <= without_l2.distance_computations
    )


def test_ablation_experiment_runs():
    from repro.experiments import ablation_lemmas

    tables = ablation_lemmas.run(size=150, queries=3)
    assert len(tables) == 2
    for table in tables:
        variants = {row[0] for row in table.rows}
        assert "full SPB-tree" in variants
        assert len(variants) == 4
