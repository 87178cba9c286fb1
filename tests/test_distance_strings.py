"""Unit tests for string metrics."""

import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.spbtree import SPBTree
from repro.distance import EditDistance, TriGramAngularDistance
from repro.distance import strings
from repro.distance.strings import BATCH_MIN_ROWS, trigram_counts
from tests.reference import CountedEdit, bag_distance, levenshtein, within

#: Characters that stress the bag's one-int form: NUL, and code points 64
#: apart that share a lane ("\x00" / "@" / "\x80", "!" / "a" / "\xa1"),
#: beside non-ASCII and astral ones.
ALPHABET = "ab!@\x00\x80\xa1é中\U0001F600\U0001F640"
texts = st.text(alphabet=ALPHABET, max_size=24)
BOUNDS = (0, 0.5, 1, 2, 7, math.inf, math.nan)


#: Strings on both sides of the 64-character word, and tuple sequences.
_long = st.text(alphabet="abc", min_size=60, max_size=140)
_pairs = st.one_of(
    st.tuples(texts, texts),
    st.tuples(st.one_of(texts, _long), st.one_of(texts, _long)),
    st.tuples(
        st.lists(st.integers(0, 3), max_size=90).map(tuple),
        st.lists(st.integers(0, 3), max_size=90).map(tuple),
    ),
)


class TestEditDistance:
    @pytest.fixture(scope="class")
    def ed(self):
        return EditDistance()

    def test_paper_example(self, ed):
        # §4.1: RQ("defoliate", O, 1) = {"defoliates", "defoliated"}.
        assert ed("defoliate", "defoliates") == 1.0
        assert ed("defoliate", "defoliated") == 1.0
        assert ed("defoliate", "defoliation") == 3.0
        assert ed("defoliate", "citrate") > 1.0

    def test_classic(self, ed):
        assert ed("kitten", "sitting") == 3.0
        assert ed("flaw", "lawn") == 2.0
        assert ed("", "abc") == 3.0
        assert ed("abc", "") == 3.0
        assert ed("", "") == 0.0

    def test_identity(self, ed):
        assert ed("word", "word") == 0.0

    def test_symmetry(self, ed):
        assert ed("abcdef", "azced") == ed("azced", "abcdef")

    def test_single_edits(self, ed):
        assert ed("word", "ward") == 1.0  # substitution
        assert ed("word", "words") == 1.0  # insertion
        assert ed("word", "wod") == 1.0  # deletion

    def test_common_affixes_fast_path(self, ed):
        # Shared prefix/suffix must not change results.
        assert ed("prefixAsuffix", "prefixBsuffix") == 1.0
        assert ed("xxab", "xxba") == 2.0

    def test_is_discrete(self, ed):
        assert ed.is_discrete

    def test_exhaustive_small(self, ed):
        # Compare with a reference DP on short strings.
        words = ["", "a", "ab", "ba", "abc", "cab", "abcd", "acbd", "aabb"]
        for a in words:
            for b in words:
                assert ed(a, b) == levenshtein(a, b), (a, b)

    @given(pair=_pairs)
    @example(pair=("ab", "a" * 70 + "b" * 70))
    @example(pair=("x" * 65, "y"))
    @example(pair=((1, 2, 3), tuple(range(80))))
    @settings(max_examples=150, deadline=None)
    def test_unbounded_call_is_symmetric_and_exact(self, ed, pair):
        """The unbounded call steps the shorter argument, whichever side
        it is on: both orders equal the DP."""
        a, b = pair
        assert ed(a, b) == ed(b, a) == levenshtein(a, b)

    @pytest.mark.parametrize("bound", [math.inf, 2.0])
    def test_batch_asks_an_overriding_call_for_every_row(self, bound):
        """A subclass that overrides ``__call__`` is asked for each row of
        a batch, however many rows it has — also past the array path's
        ``BATCH_MIN_ROWS``."""
        words = [f"w{i:03d}" + "ab" * (i % 5) for i in range(100)]
        assert len(words) >= BATCH_MIN_ROWS
        metric = CountedEdit()
        got = metric.batch("w042ab", words, bound)
        assert metric.calls == len(words)
        assert got == [EditDistance()("w042ab", w) for w in words]


class TestBagBound:
    @given(a=texts, b=texts)
    @example(a="", b="")
    @example(a="", b="\x00\x00")
    @example(a="aaaaaaa", b="a")  # more than four copies of one character
    @example(a="!!!!!", b="aaaaa")  # all in one lane: the bound reads 0
    @example(a="\U0001F600" * 5, b="\U0001F640\x00")
    @settings(max_examples=300, deadline=None)
    def test_is_a_lower_bound_of_the_edit_distance(self, a, b):
        bag = bag_distance(a, b)
        ca, cb = Counter(a), Counter(b)
        exact_bag = max(sum((ca - cb).values()), sum((cb - ca).values()))
        assert abs(len(a) - len(b)) <= bag <= exact_bag <= EditDistance()(a, b)

    def test_characters_apart_by_64_share_a_lane(self):
        assert strings._bag("!") == strings._bag("a") == 1 << (8 * 33)
        assert strings._bag("aa!") == 3 << (8 * 33)
        assert bag_distance("!!!!!", "aaaaa") == 0
        assert bag_distance("abc", "xyz") == 3
        full = "a" * strings.BAG_MAX_LEN
        assert bag_distance(full, "") == bag_distance("", full) == len(full)

    def test_strings_past_the_lane_width_skip_the_bag(self):
        """A lane counts at most 127 characters, so longer strings go from
        the length gap straight to Myers, and stay exact within the bound."""
        metric = EditDistance()
        q = "a" * 300
        for o in ("a" * 150 + "b" * 150, "b" * 300, "a" * 299 + "!"):
            d = metric(q, o)
            for bound in (0, 1, d - 1, d, math.inf):
                assert within(metric.against(q)(o, bound), d, bound)
                assert within(metric.batch(q, [o], bound)[0], d, bound)

    @given(q=texts, objs=st.lists(texts, min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_scalar_path_keeps_the_batch_contract(self, q, objs):
        metric = EditDistance()
        exact = [metric(q, o) for o in objs]
        for bound in BOUNDS:
            got = metric.batch(q, objs, bound)
            assert all(map(within, got, exact, [bound] * len(objs))), bound
            f = metric.against(q)
            assert [f(o, bound) for o in objs] == [
                metric.batch(q, [o], bound)[0] for o in objs
            ]
            bounds = [bound] * len(objs)
            assert all(map(within, map(f, objs, bounds), exact, bounds))

    @given(
        q=st.text(alphabet=ALPHABET, min_size=1, max_size=64),
        rows=st.lists(texts, min_size=1, max_size=10),
    )
    @example(q="ab", rows=["ab", "ba", "a!"])  # rows left for the array at 2, 7
    @settings(max_examples=60, deadline=None)
    def test_array_path_keeps_the_batch_contract(self, q, rows):
        metric = EditDistance()
        objs = [
            rows[i % len(rows)] + "ab"[i % 2] * (i % 3)
            for i in range(BATCH_MIN_ROWS + 8)
        ]
        exact = [metric(q, o) for o in objs]
        for bound in BOUNDS:
            got = metric.batch(q, objs, bound)
            assert all(type(d) is float for d in got)
            assert all(map(within, got, exact, [bound] * len(objs))), bound


class TestBagFilterFires:
    """The bag stage spares Myers most rejected pairs of a search and
    moves nothing the search counts."""

    QUERIES = ("defoliate", "bramble", "x", "stonewarden")

    def _searches(self, words, edit, calls):
        """kNN and range answers, compdists, page accesses and the Myers
        calls of the searches alone."""
        tree = SPBTree.build(words, edit, num_pivots=3, seed=5)
        tree.reset_counters()
        calls.clear()
        answers = []
        for q in self.QUERIES + tuple(words[::97]):
            answers.append(tree.knn_query(q, 8))
            answers.append(tree.range_query(q, 2))
        return answers, tree.distance_computations, tree.page_accesses, len(calls)

    def test_myers_runs_on_fewer_pairs_than_are_verified(
        self, small_words, edit, monkeypatch
    ):
        calls = []
        myers = strings._myers

        def counted(*args):
            calls.append(args)
            return myers(*args)

        monkeypatch.setattr(strings, "_myers", counted)
        answers, compdists, pa, ran = self._searches(small_words, edit, calls)
        # No string is short enough for the bag stage: the length gap and
        # Myers alone, as before the stage existed.  The same answers,
        # distances and page accesses, with Myers on more pairs.
        monkeypatch.setattr(strings, "BAG_MAX_LEN", 0)
        before = self._searches(small_words, edit, calls)
        assert before[:3] == (answers, compdists, pa)
        assert 0 < ran < before[3] <= compdists


class TestTriGramAngular:
    @pytest.fixture(scope="class")
    def tga(self):
        return TriGramAngularDistance()

    def test_identity(self, tga):
        assert tga("ACGTACGT", "ACGTACGT") == 0.0

    def test_range(self, tga):
        d = tga("AAAAAA", "CCCCCC")
        assert 0.0 < d <= math.pi / 2 + 1e-9

    def test_symmetry(self, tga):
        a, b = "ACGTACGTAC", "ACGTTCGTAC"
        assert tga(a, b) == pytest.approx(tga(b, a))

    def test_similar_strings_are_close(self, tga):
        base = "ACGT" * 10
        mutated = base[:17] + "T" + base[18:]
        different = "GTCA" * 10
        assert tga(base, mutated) < tga(base, different)

    def test_triangle_inequality_sampled(self, tga):
        import random

        rng = random.Random(3)
        strings = [
            "".join(rng.choice("ACGT") for _ in range(20)) for _ in range(15)
        ]
        for a in strings:
            for b in strings:
                for c in strings:
                    assert tga(a, c) <= tga(a, b) + tga(b, c) + 1e-9

    def test_trigram_counts_padding(self):
        counts = trigram_counts("ab")
        # "##ab##" has tri-grams ##a, #ab, ab#, b##
        assert sum(counts.values()) == 4
        assert counts["#ab"] == 1
