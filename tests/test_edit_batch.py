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

BOUNDS = (-1.0, 0.0, 0.5, 1.0, 2.0, 7.0, math.inf, math.nan)
#: NUL, a Latin-1 letter and two astral characters beside plain letters.
ALPHABET = "abcde\x00é\U0001f600\U00010348"


def levenshtein(a, b) -> float:
    """The textbook dynamic programme over two sequences."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (ca != cb), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return float(prev[-1])


def within(got: float, exact: float, bound: float) -> bool:
    """``Metric.batch``'s contract for one row (as ``test_metric_batch``)."""
    if not exact > bound:
        return got == exact
    return bound < got <= exact


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


class Spy:
    """Counts ``_bag`` calls and records the rows ``_myers_columns`` got."""

    def __init__(self, monkeypatch) -> None:
        self.bags = 0
        self.columns: set[int] = set()
        bag, columns = strings._bag, strings._myers_columns

        def counted_bag(s):
            self.bags += 1
            return bag(s)

        def recorded_columns(q, objs, lengths):
            self.columns.update(map(id, objs))
            return columns(q, objs, lengths)

        monkeypatch.setattr(strings, "_bag", counted_bag)
        monkeypatch.setattr(strings, "_myers_columns", recorded_columns)


def check(monkeypatch, q: str, rows: list, bound: float) -> Spy:
    with monkeypatch.context() as patched:
        spy = Spy(patched)
        got = EditDistance().batch(q, rows, bound)
    assert spy.bags <= len(rows) + 1  # each row's bag, and the query's
    assert len(got) == len(rows) and all(type(d) is float for d in got)
    for o, d in zip(rows, got):
        assert within(d, levenshtein(q, o), bound), (q, o, bound, d)
        if id(o) not in spy.columns:
            assert d == scalar(q, o, bound), (q, o, bound, d)
    return spy


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
    q, rows, bound = batch
    with pytest.MonkeyPatch.context() as monkeypatch:
        check(monkeypatch, q, rows, bound)


@pytest.mark.parametrize("bound", (1.0, 2.0))
def test_many_survivors_go_across_at_once(monkeypatch, bound):
    rng = random.Random(3)
    q = "abcdeabcde"
    rows = rows_for(rng, q, 300, 1.0, False)
    spy = check(monkeypatch, q, rows, bound)
    assert len(spy.columns) >= BATCH_MIN_ROWS


def test_few_survivors_stay_scalar(monkeypatch):
    """Many rows, few of them past the cheap stages: the column kernel is
    never run and no row's bag is built twice."""
    rng = random.Random(4)
    q = "abcdeabcde"
    rows = rows_for(rng, q, 300, 0.1, False)
    spy = check(monkeypatch, q, rows, 1.0)
    assert not spy.columns
    assert spy.bags <= len(rows) + 1


@pytest.mark.parametrize("bound", (math.inf, math.nan))
def test_unbounded_batch_goes_across_by_row_count(monkeypatch, bound):
    rng = random.Random(5)
    q = "abcdeabcde"
    rows = rows_for(rng, q, BATCH_MIN_ROWS, 0.0, False)
    spy = check(monkeypatch, q, rows, bound)
    assert spy.columns and not spy.bags
    spy = check(monkeypatch, q, rows[:-1], bound)
    assert not spy.columns and not spy.bags
