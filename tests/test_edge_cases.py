"""Edge cases and failure modes across subsystems."""

import random

import numpy as np
import pytest

from repro import EditDistance, EuclideanDistance, SPBTree
from repro.core.spbtree import SPBTree as SPB
from repro.datasets import generate_words
from repro.storage import PageFile, RandomAccessFile, StringSerializer
from tests.reference import levenshtein


class TestLongStrings:
    def test_myers_beyond_64_chars(self):
        """The bit-parallel edit distance must stay exact past one machine
        word (Python big ints carry the bitmasks)."""
        ed = EditDistance()
        rng = random.Random(1)
        for _ in range(25):
            a = "".join(rng.choice("abc") for _ in range(rng.randrange(60, 140)))
            b = "".join(rng.choice("abc") for _ in range(rng.randrange(60, 140)))
            assert ed(a, b) == levenshtein(a, b)

    def test_unicode(self):
        ed = EditDistance()
        assert ed("café", "cafe") == 1.0
        assert ed("ααβ", "αβ") == 1.0

    def test_very_long_objects_in_index(self):
        words = ["x" * 5000, "x" * 5001, "y" * 5000] + [
            f"w{i}" for i in range(60)
        ]
        tree = SPBTree.build(words, EditDistance(), num_pivots=2, seed=1)
        assert "x" * 5001 in tree.range_query("x" * 5000, 1)

    def test_batch_finishes_the_long_rows_exactly(self):
        """The array kernel hands its last few live rows to the scalar
        recurrence, each distinct text once: repeated and distinct long
        rows, past one machine word and sharing prefixes with the query."""
        rng = random.Random(4)
        long_rows = ["x" * 700, "ab" * 301, "abc" * 90 + "z", "w1" + "y" * 400]
        rows = [f"w{i}" for i in range(80)] + [rng.choice(long_rows) for _ in range(40)]
        rng.shuffle(rows)
        metric = EditDistance()
        for q in ("w1", "abcabcabz", "x" * 64):
            assert metric.batch(q, rows) == [metric(q, o) for o in rows]


class TestDegenerateDatasets:
    def test_two_objects(self):
        tree = SPBTree.build(["alpha", "beta"], EditDistance(), num_pivots=1, seed=1)
        assert sorted(tree.range_query("alpha", 100)) == ["alpha", "beta"]

    def test_all_equidistant(self):
        """A simplex: every pair at the same distance (1-hot vectors)."""
        data = [np.eye(6)[i] for i in range(6)]
        tree = SPBTree.build(data, EuclideanDistance(), num_pivots=2, seed=1)
        results = tree.range_query(data[0], 1.5)
        assert len(results) == 6

    def test_duplicated_objects_counted(self):
        words = ["same"] * 25 + ["other"]
        tree = SPBTree.build(words, EditDistance(), num_pivots=1, seed=1)
        assert len(tree.range_query("same", 0)) == 25

    def test_query_object_absent_from_dataset(self):
        words = generate_words(100, seed=3)
        tree = SPBTree.build(words, EditDistance(), num_pivots=2, seed=1)
        # A query far from everything must return empty, not crash.
        assert tree.range_query("zzzzzzzzzzzzzzzz", 1) == []


class TestStorageFailureModes:
    def test_pagefile_oversized_write(self):
        pf = PageFile(page_size=32)
        pid = pf.allocate()
        with pytest.raises(ValueError):
            pf.write_page(pid, b"a" * 33)

    def test_raf_read_past_end(self):
        raf = RandomAccessFile(StringSerializer(), page_size=32)
        raf.append(0, "word")
        with pytest.raises(IndexError):
            raf.read(10_000)

    def test_empty_payload_round_trip(self):
        raf = RandomAccessFile(StringSerializer(), page_size=32)
        off = raf.append(0, "")
        assert raf.read(off) == (0, "")

    def test_page_exactly_full(self):
        """A record ending exactly on a page boundary must round-trip."""
        raf = RandomAccessFile(StringSerializer(), page_size=32)
        payload = "x" * (32 - 12)  # header is 12 bytes
        off = raf.append(1, payload)
        assert raf.read(off) == (1, payload)


class TestEmptyTreeBehaviour:
    def test_queries_on_unbuilt_tree(self):
        tree = SPB(EditDistance(), ["pivot"], 10.0)
        assert tree.range_query("x", 5) == []
        assert tree.knn_query("x", 3) == []
        assert tree.range_count("x", 5) == 0
        assert not tree.delete("x")

    def test_insert_only_construction(self):
        tree = SPB(EditDistance(), ["pivotword"], 20.0)
        words = generate_words(60, seed=3)
        for w in words:
            tree.insert(w)
        assert len(tree) == 60
        from repro.baselines import LinearScan

        oracle = LinearScan(words, EditDistance())
        q = words[10]
        assert sorted(tree.range_query(q, 2)) == sorted(
            oracle.range_query(q, 2)
        )
