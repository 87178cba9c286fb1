"""``EditDistance.batch`` under a bound: one inline pass of the cheap stages.

Under a bound below inf, ``batch`` runs the length gap and the bag stage
on every row in one loop and sends only the rows that pass both to Myers'
recurrence: across them at once (``_myers_columns``) when
``BATCH_MIN_ROWS`` or more are ``str`` and 1 <= |q| <= 64, else each
through the scalar recurrence.  Every row must keep ``Metric.batch``'s
contract against a plain dynamic-programming Levenshtein, equal
``_bounded`` (the scalar loop) wherever it did not go to the column
kernel, and build each row's bag at most once.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance import EditDistance
from repro.distance import strings
from repro.distance.strings import BATCH_MIN_ROWS
from tests.reference import levenshtein, spied, within

BOUNDS = (-1.0, 0.0, 0.5, 1.0, 2.0, 7.0, math.inf, math.nan)
#: NUL, a Latin-1 letter and two astral characters beside plain letters.
ALPHABET = "abcde\x00é\U0001f600\U00010348"


def scalar(q: str, o, bound: float) -> float:
    return strings._bounded(
        strings._pattern_bits(q), len(q), strings._bag(q), o, bound
    )


def edited(rng: random.Random, text: str, edits: int) -> str:
    """``text`` after ``edits`` random single-character edits."""
    chars = list(text)
    for _ in range(edits):
        at = rng.randrange(len(chars) + 1)
        kind = rng.randrange(3)
        if kind == 0 or not chars or at == len(chars):
            chars.insert(at, rng.choice(ALPHABET))
        elif kind == 1:
            del chars[at]
        else:
            chars[at] = rng.choice(ALPHABET)
    return "".join(chars)


def rows_for(rng: random.Random, q: str, n: int, near: float, extras: bool) -> list:
    """``n`` rows: a share ``near`` of them within two edits of ``q`` (the
    survivors of a small bound), the rest random; with ``extras`` also
    empty rows, rows past 127 characters and tuple rows."""
    rows: list = []
    for _ in range(n):
        pick = rng.random()
        if extras and pick < 0.04:
            rows.append("")
        elif extras and pick < 0.08:
            rows.append(edited(rng, q, 2) + "".join(rng.choices(ALPHABET, k=130)))
        elif extras and pick < 0.12:
            rows.append(tuple(edited(rng, q, rng.randrange(3))))
        elif rng.random() < near:
            rows.append(edited(rng, q, rng.randrange(3)))
        else:
            rows.append("".join(rng.choices(ALPHABET, k=rng.randrange(1, 24))))
    return rows


def check(q: str, rows: list, bound: float) -> tuple[int, set]:
    """``batch(q, rows, bound)`` keeps the contract; returns how many bags
    it built and the ids of the rows ``_myers_columns`` got."""
    ids = lambda q, objs, lengths: [id(o) for o in objs]  # noqa: E731
    with spied(strings, "_bag") as bags, spied(strings, "_myers_columns", ids) as cols:
        got = EditDistance().batch(q, rows, bound)
    columns = {i for call in cols for i in call}
    assert len(bags) <= len(rows) + 1  # each row's bag, and the query's
    assert len(got) == len(rows) and all(type(d) is float for d in got)
    for o, d in zip(rows, got):
        assert within(d, levenshtein(q, o), bound), (q, o, bound, d)
        if id(o) not in columns:
            assert d == scalar(q, o, bound), (q, o, bound, d)
    return len(bags), columns


@st.composite
def batches(draw):
    q = draw(
        st.one_of(
            st.text(ALPHABET, max_size=12),
            st.text(ALPHABET, min_size=60, max_size=70),
            st.text(ALPHABET, min_size=126, max_size=132),
        )
    )
    n = draw(st.integers(1, 300))
    near = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    rng = random.Random(draw(st.integers(0, 1 << 20)))
    rows = rows_for(rng, q, n, near, draw(st.booleans()))
    return q, rows, draw(st.sampled_from(BOUNDS))


@given(batches())
@settings(max_examples=150, deadline=None)
def test_fused_batch_keeps_the_contract(batch):
    check(*batch)


@pytest.mark.parametrize("bound", (1.0, 2.0))
def test_many_survivors_go_across_at_once(bound):
    rng = random.Random(3)
    q = "abcdeabcde"
    rows = rows_for(rng, q, 300, 1.0, False)
    _, columns = check(q, rows, bound)
    assert len(columns) >= BATCH_MIN_ROWS


def test_few_survivors_stay_scalar():
    """Many rows, few of them past the cheap stages: the column kernel is
    never run and no row's bag is built twice."""
    rng = random.Random(4)
    q = "abcdeabcde"
    rows = rows_for(rng, q, 300, 0.1, False)
    bags, columns = check(q, rows, 1.0)
    assert not columns
    assert bags <= len(rows) + 1


@pytest.mark.parametrize("bound", (math.inf, math.nan))
def test_unbounded_batch_goes_across_by_row_count(bound):
    rng = random.Random(5)
    q = "abcdeabcde"
    rows = rows_for(rng, q, BATCH_MIN_ROWS, 0.0, False)
    bags, columns = check(q, rows, bound)
    assert columns and not bags
    bags, columns = check(q, rows[:-1], bound)
    assert not columns and not bags
