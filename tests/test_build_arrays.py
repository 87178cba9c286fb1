"""The build's array kernels against their scalar references.

A bulk load maps, keys and calibrates through array forms —
``EditDistance.batch``, ``SpaceFillingCurve.encode_many`` /
``decode_many`` and ``PivotSpace.grid_from_phi_many`` — whose scalar
counterparts stay the reference.  Agreement is ``==``: a distance, cell or
key that differs moves an object to another page, and
``tests/golden/build_golden.json`` pins the pages.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedIndex
from repro.core.mapping import PivotSpace
from repro.core.persist import save_tree
from repro.core.spbtree import SPBTree
from repro.distance import EditDistance, EuclideanDistance
from repro.distance import strings
from repro.distance.strings import BATCH_MIN_ROWS
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.zorder import ZCurve
from tests.conftest import digests
from tests.reference import CountedEdit, levenshtein, spied

#: ASCII, NUL, non-ASCII and an astral code point.
ALPHABET = "abz\x00é中\U0001F600"


def _text(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(length))


@pytest.mark.parametrize("m", [0, 1, 13, 64, 65])
@pytest.mark.parametrize("rows", [1, BATCH_MIN_ROWS - 1, BATCH_MIN_ROWS, 400])
def test_edit_batch_equals_the_loop(m, rows):
    """Both sides of the crossover, |q| at and past the one-word limit,
    empty texts, texts ending in NUL (numpy's str dtype strips those)."""
    rng = random.Random(1000 * m + rows)
    q = _text(rng, m)
    edge = ["", q, q + "\x00", "\x00" * 3, q[::-1] + "\x00\x00", "é" * 70]
    objs = (edge + [_text(rng, rng.randrange(90)) for _ in range(rows)])[:rows]
    metric = EditDistance()
    with spied(strings, "_myers_columns", lambda q, objs, lengths: len(objs)) as runs:
        got = metric.batch(q, objs)
    kernel = rows >= BATCH_MIN_ROWS and 0 < m <= 64
    assert runs == ([rows] if kernel else [])
    assert got == [metric(q, o) for o in objs]
    assert all(type(d) is float for d in got)


@given(
    q=st.text(alphabet=ALPHABET, min_size=1, max_size=64),
    texts=st.lists(st.text(alphabet=ALPHABET, max_size=40), min_size=1, max_size=30),
)
@settings(max_examples=150, deadline=None)
def test_edit_batch_equals_the_loop_on_drawn_strings(q, texts):
    objs = [texts[i % len(texts)] for i in range(BATCH_MIN_ROWS)]
    metric = EditDistance()
    assert metric.batch(q, objs) == [metric(q, o) for o in objs]


@given(
    q=st.sampled_from([0, 1, 64, 65]).flatmap(
        lambda m: st.text(alphabet=ALPHABET, min_size=m, max_size=m)
    ),
    texts=st.lists(st.text(alphabet=ALPHABET, max_size=80), min_size=1, max_size=10),
    rows=st.sampled_from([1, BATCH_MIN_ROWS - 1, BATCH_MIN_ROWS, 150]),
    pick=st.integers(0, 9),
)
@settings(max_examples=150, deadline=None)
def test_edit_batch_under_a_bound_on_drawn_strings(q, texts, rows, pick):
    """``Metric.batch``'s contract: d itself when d <= bound (or the bound
    is NaN), else a value past the bound and no more than d — at d - 1, d,
    d + 1 of a drawn row, and at 0, 1.5, inf and NaN."""
    metric = EditDistance()
    for text in texts:
        assert metric(q, text) == levenshtein(q, text)
    objs = [texts[i % len(texts)] for i in range(rows)]
    exact = [metric(q, o) for o in objs]
    d = exact[pick % rows]
    for bound in (d - 1, d, d + 1, 0.0, 1.5, math.inf, math.nan):
        got = metric.batch(q, objs, bound)
        assert all(type(x) is float for x in got)
        for x, e in zip(got, exact):
            assert x == e if not e > bound else bound < x <= e, (bound, x, e)


def test_edit_batch_of_non_strings_is_the_loop():
    metric = CountedEdit()
    rows = [("a", "b")] * BATCH_MIN_ROWS
    assert metric.batch(("a", "c"), rows) == [1.0] * BATCH_MIN_ROWS
    assert metric.calls == BATCH_MIN_ROWS


@st.composite
def curves_and_cells(draw):
    curve = draw(st.sampled_from([HilbertCurve, ZCurve]))(
        draw(st.integers(1, 9)), draw(st.integers(1, 16))
    )
    cell = st.lists(
        st.integers(0, curve.side - 1), min_size=curve.ndims, max_size=curve.ndims
    )
    return curve, draw(st.lists(cell, max_size=40))


@given(curves_and_cells())
@settings(max_examples=300, deadline=None)
def test_encode_many_and_decode_many_equal_the_scalar_forms(case):
    curve, cells = case
    keys = curve.encode_many(np.array(cells, dtype=np.int64).reshape(-1, curve.ndims))
    assert keys == [curve.encode(c) for c in cells]
    assert all(type(key) is int for key in keys)
    decoded = curve.decode_many(keys)
    assert decoded.dtype == np.int64 and decoded.shape == (len(cells), curve.ndims)
    assert decoded.tolist() == [list(curve.decode(key)) for key in keys]


@given(
    st.sampled_from([HilbertCurve, ZCurve]), st.integers(1, 9), st.integers(1, 16),
    st.lists(st.integers(0, (1 << 144) - 1), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_decode_many_equals_decode_on_any_key(curve_cls, ndims, bits, raw):
    curve = curve_cls(ndims, bits)
    keys = [k % curve.max_value for k in raw]
    assert curve.decode_many(keys).tolist() == [list(curve.decode(k)) for k in keys]


@pytest.mark.parametrize("curve_cls", [HilbertCurve, ZCurve])
@pytest.mark.parametrize("ndims,bits", [(9, 16), (1, 1), (1, 62), (5, 12)])
def test_corner_cells_and_wide_keys(curve_cls, ndims, bits):
    """9 × 16 = 144-bit keys span three 64-bit limbs; 1-dim curves have
    nothing to interleave."""
    curve = curve_cls(ndims, bits)
    rng = random.Random(ndims * 100 + bits)
    top = curve.side - 1
    cells = [[0] * ndims, [top] * ndims] + [
        [rng.randrange(curve.side) for _ in range(ndims)] for _ in range(200)
    ]
    keys = curve.encode_many(np.array(cells))
    assert keys == [curve.encode(c) for c in cells]
    assert curve.decode_many(keys).tolist() == cells
    if ndims * bits == 144:
        assert max(keys) >= 1 << 128


@pytest.mark.parametrize("curve_cls", [HilbertCurve, ZCurve])
def test_array_forms_refuse_what_the_scalar_forms_refuse(curve_cls):
    curve = curve_cls(3, 4)
    with pytest.raises(ValueError, match="out of range"):
        curve.encode_many(np.array([[0, 16, 0]]))
    with pytest.raises(ValueError, match="out of range"):
        curve.encode_many(np.array([[0, -1, 0]]))
    with pytest.raises(ValueError, match="3 coordinates"):
        curve.encode_many(np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(ValueError, match="out of range"):
        curve.decode_many([0, curve.max_value])
    assert curve.encode_many(np.zeros((0, 3), dtype=np.int64)) == []
    assert curve.decode_many([]).shape == (0, 3)


@st.composite
def spaces_and_phis(draw):
    """φ rows with distances exactly on δ-cell edges (as c·δ rounds), one
    ulp either side of them, inside cells, and outside [0, d+]."""
    pivots = [None] * draw(st.integers(1, 9))
    if draw(st.booleans()):
        space = PivotSpace(pivots, EditDistance(), d_plus=draw(st.integers(1, 40)))
    else:
        d_plus = draw(st.floats(0.5, 1000.0))
        delta = d_plus / draw(st.sampled_from([1, 3, 7, 16, 256, 65535]))
        space = PivotSpace(pivots, EuclideanDistance(), d_plus=d_plus, delta=delta)
    edge = st.integers(-2, space.cells + 2).map(lambda c: c * space.delta)
    value = st.one_of(
        edge,
        edge.map(lambda v: math.nextafter(v, math.inf)),
        edge.map(lambda v: math.nextafter(v, -math.inf)),
        st.floats(-space.d_plus, 2 * space.d_plus),
        st.just(-0.0),
    )
    row = st.tuples(*[value] * space.num_pivots)
    return space, draw(st.lists(row, max_size=20))


@given(spaces_and_phis())
@settings(max_examples=300, deadline=None)
def test_grid_from_phi_many_equals_grid_from_phi(case):
    space, phis = case
    cells = space.grid_from_phi_many(phis)
    assert cells.dtype == np.int64 and cells.shape == (len(phis), space.num_pivots)
    assert cells.tolist() == [list(space.grid_from_phi(phi)) for phi in phis]


def test_grid_from_phi_many_refuses_what_grid_from_phi_refuses():
    space = PivotSpace([None] * 2, EuclideanDistance(), d_plus=4.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            space.grid_from_phi((1.0, bad))
        with pytest.raises(ValueError):
            space.grid_from_phi_many([(1.0, 2.0), (1.0, bad)])


@pytest.mark.parametrize("shards", [0, 2])
def test_a_matrix_builds_the_index_its_rows_build(tmp_path, shards):
    """``build`` takes an ``(n, dim)`` array as it takes the list of its
    rows, down to the saved bytes."""
    matrix = np.random.default_rng(5).random((300, 4))
    metric = EuclideanDistance()
    saved = []
    for name, objects in (("matrix", matrix), ("rows", list(matrix))):
        out = str(tmp_path / name)
        if shards:
            ShardedIndex.build(objects, metric, shards=shards, num_pivots=3).save(out)
        else:
            save_tree(SPBTree.build(objects, metric, num_pivots=3), out)
        saved.append(digests(out))
    assert saved[0] == saved[1]
    with pytest.raises(ValueError, match="empty"):
        SPBTree.build(np.zeros((0, 4)), metric)
    with pytest.raises(ValueError, match="empty"):
        ShardedIndex.build(np.zeros((0, 4)), metric)
