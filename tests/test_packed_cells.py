"""Lemma 1 and Lemma 2 over packed leaf cells against their scalar forms.

A leaf's cells are packed into uint64 words (``sfc.region.PackedGrid``),
a guarded field per coordinate, and a range query's leaf step is integer
compares on those words: Lemma 1 against RR's packed corners, Lemma 2
against one cell limit per pivot that ``PivotSpace.lemma2_limits`` steps
out of ``upper_bound_to_pivot`` itself.  The masks must equal
``point_in_box`` and ``upper_bound_to_pivot(c) <= r - d(q, pᵢ)`` exactly,
for every layout from 32 one-bit fields a word to one 62-bit field a word,
with the slack on a cell edge, one ulp either side of it, NaN, ±inf or
negative; and at tree level ``SPBTree._range_leaf`` must equal its
per-entry form (``reference.range_leaf_by_entry``) on every leaf after
inserts, deletes and splits.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.mapping import PivotSpace
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance, EuclideanDistance
from repro.sfc.region import point_in_box
from tests.reference import cell_array, lemma2_by_cell, range_leaf_by_entry, vectors


@st.composite
def spaces(draw, bits=st.integers(1, 62)):
    """A pivot space of 1–9 dummy pivots whose cells take exactly ``bits``
    bits: an exact grid (δ = 1) or a δ-grid with δ a power of two, so the
    grid size d+/δ is exact."""
    b = draw(bits)
    pivots = [None] * draw(st.integers(1, 9))
    # d+/δ in [2**(b-1), 2**b), with few mantissa bits so it is exact.
    cells = (2 ** (b - 1)) * (1 + draw(st.integers(0, 15)) / 16)
    if draw(st.booleans()):
        space = PivotSpace(pivots, EditDistance(), d_plus=cells)
    else:
        delta = 2.0 ** draw(st.integers(-20, 4))
        space = PivotSpace(
            pivots, EuclideanDistance(), d_plus=cells * delta, delta=delta
        )
    assert space.bits == b
    return space


def edge_slacks(space: PivotSpace, c: int) -> list[float]:
    """Slacks on cell c's upper bound and one ulp either side of it."""
    edge = space.upper_bound_to_pivot(c)
    return [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]


@st.composite
def cells_near(draw, space: PivotSpace, marks: list[int], n: int):
    """``n`` cells whose coordinates are drawn from the grid's ends, from
    around ``marks`` and from anywhere."""
    top = space.cells - 1
    near = [min(top, max(0, m + d)) for m in marks for d in (-1, 0, 1)]
    coord = st.one_of(
        st.sampled_from([0, top] + near), st.integers(0, top)
    )
    return [
        tuple(draw(coord) for _ in range(space.num_pivots)) for _ in range(n)
    ]


@st.composite
def lemma2_cases(draw):
    """(space, φ(q), radius, cells): a pivot with d(q, p) = 0 takes the
    radius as its slack exactly, so slacks land on a cell edge, an ulp
    either side, at ±inf, at NaN or below zero."""
    space = draw(spaces())
    top = space.cells - 1
    c = draw(st.one_of(st.sampled_from([0, top]), st.integers(0, top)))
    radius = draw(
        st.one_of(
            st.sampled_from(edge_slacks(space, c)),
            st.sampled_from([0.0, -0.0, math.inf, 1e-300]),
            st.floats(0.0, space.d_plus * 2),
        )
    )
    special = st.sampled_from([0.0, math.nan, math.inf, -math.inf, radius + 1.0])
    phi_q = tuple(
        draw(st.one_of(special, st.floats(0.0, space.d_plus)))
        for _ in range(space.num_pivots)
    )
    marks = [t for t in space.lemma2_limits(phi_q, radius) if t >= 0] + [c]
    cells = draw(cells_near(space, marks, draw(st.integers(0, 10))))
    return space, phi_q, radius, cells


@st.composite
def box_cases(draw):
    """(space, lo, hi, cells) for any box with corners on the grid —
    empty ones too — and cells on and around its faces."""
    space = draw(spaces())
    top = space.cells - 1
    corner = st.lists(
        st.one_of(st.sampled_from([0, top]), st.integers(0, top)),
        min_size=space.num_pivots,
        max_size=space.num_pivots,
    )
    lo, hi = draw(corner), draw(corner)
    if draw(st.booleans()):
        lo, hi = list(map(min, lo, hi)), list(map(max, lo, hi))
    cells = draw(cells_near(space, lo + hi, draw(st.integers(0, 10))))
    return space, tuple(lo), tuple(hi), cells


@given(spaces(), st.data())
@settings(max_examples=200, deadline=None)
def test_layout_holds_every_coordinate_below_its_guard(space, data):
    """W = ⌈|P| / ⌊64 / (bits + 1)⌋⌉ words a cell, each field the cell's
    coordinate with its guard bit clear."""
    packing = space.packing
    per_word = 64 // (space.bits + 1)
    assert packing.words == -(-space.num_pivots // per_word)
    cells = data.draw(cells_near(space, [], data.draw(st.integers(0, 8))))
    codes = packing.pack_many(cell_array(space, cells))
    assert codes.dtype == np.uint64 and codes.shape == (packing.words, len(cells))
    field = (1 << (space.bits + 1)) - 1
    for row, cell in zip(codes.T.tolist(), cells):
        assert row == packing.pack(cell)
        for i, c in enumerate(cell):
            shift = (i % per_word) * (space.bits + 1)
            assert (row[i // per_word] >> shift) & field == c


@given(box_cases())
@settings(max_examples=300, deadline=None)
def test_lemma1_mask_equals_point_in_box(case):
    space, lo, hi, cells = case
    packing = space.packing
    array = cell_array(space, cells)
    mask = packing.in_box(packing.pack_many(array), packing.box_words(lo, hi))
    assert mask.tolist() == [point_in_box(c, lo, hi) for c in cells]
    assert space.cells_in_region(array, (lo, hi)).tolist() == mask.tolist()


@given(lemma2_cases())
@settings(max_examples=400, deadline=None)
@example(  # 2**60 + 1 ... 2**60 + 128 all round to 2.0**60: a step up
    (PivotSpace([None], EditDistance(), d_plus=2.0**61), (0.0,), 2.0**60,
     [(2**60,), (2**60 + 1,), (2**60 + 128,), (2**60 + 129,)])
)
@example(  # the top cell's bound, which 2**60 + 1 shares: the limit is top
    (PivotSpace([None], EditDistance(), d_plus=2.0**60), (0.0,), 2.0**60,
     [(2**60,), (0,)])
)
def test_lemma2_limits_are_the_last_cell_upper_bound_to_pivot_admits(case):
    space, phi_q, radius, cells = case
    top = space.cells - 1
    upper = space.upper_bound_to_pivot
    for t, dq in zip(space.lemma2_limits(phi_q, radius), phi_q):
        slack = radius - dq
        assert -1 <= t <= top
        assert t == -1 or upper(t) <= slack
        assert t == top or not upper(t + 1) <= slack
    mask = space.lemma2_accepts(cell_array(space, cells), phi_q, radius)
    assert mask.tolist() == lemma2_by_cell(space, phi_q, radius, cells)


@given(spaces(), st.data())
@settings(max_examples=200, deadline=None)
def test_at_most_equals_some_coordinate_under_its_limit(space, data):
    top = space.cells - 1
    limit = st.one_of(st.sampled_from([-1, 0, top]), st.integers(-1, top))
    limits = [data.draw(limit) for _ in range(space.num_pivots)]
    cells = data.draw(
        cells_near(space, [t for t in limits if t >= 0], data.draw(st.integers(0, 10)))
    )
    packing = space.packing
    codes = packing.pack_many(cell_array(space, cells))
    mask = packing.at_most(codes, packing.limit_words(limits))
    assert mask.tolist() == [
        any(c <= t for c, t in zip(cell, limits)) for cell in cells
    ]
    rows = np.arange(len(cells))[::2]
    assert packing.at_most(codes, packing.limit_words(limits), rows).tolist() == [
        mask.tolist()[i] for i in rows.tolist()
    ]


def test_a_slack_on_a_cell_edge_admits_that_cell():
    """Slack exactly (c + 1)·δ admits cell c; an ulp less does not."""
    space = PivotSpace([None] * 2, EuclideanDistance(), d_plus=1.0, delta=0.1)
    for c in range(space.cells - 1):
        below, edge, above = edge_slacks(space, c)
        assert space.lemma2_limits((0.0, math.nan), edge)[0] == c
        assert space.lemma2_limits((0.0, math.nan), below)[0] == c - 1
        assert space.lemma2_limits((0.0, math.nan), above)[0] == c
    assert space.lemma2_limits((math.inf, -math.inf), 1.0) == [-1, space.cells - 1]


def test_codes_are_cached_on_read_only_leaves_only():
    tree = SPBTree.build(generate_words(300, seed=5), EditDistance(), num_pivots=3,
                         page_size=512, seed=1)
    btree = tree.btree
    leaf = btree.read_node(btree.first_leaf_page())
    codes = btree.leaf_codes(leaf)
    assert leaf.codes is codes and not codes.flags.writeable
    copy = leaf.mutable_copy()
    assert copy.codes is None and btree.leaf_codes(copy).tolist() == codes.tolist()
    assert copy.codes is None
    # A mutated copy packs what it holds now, not what it held.
    del copy.entries[0]
    assert btree.leaf_codes(copy).tolist() == codes[:, 1:].tolist()
    assert leaf.frozen_copy().codes is None


@st.composite
def mutated_trees(draw):
    """A words or vector tree on small pages, then inserts (which split
    leaves) and deletes, with every node read between them so the memo
    holds read-only nodes with codes that a later write must not reuse."""
    words = draw(st.booleans())
    seed = draw(st.integers(0, 1 << 16))
    objects = generate_words(160, seed=seed) if words else vectors(160, 3, seed, 3)
    metric = EditDistance() if words else EuclideanDistance()
    n = draw(st.integers(10, 80))
    tree = SPBTree.build(objects[:n], metric, num_pivots=draw(st.integers(1, 5)),
                         page_size=256, seed=seed % 7)
    live = list(objects[:n])
    for obj in objects[n : n + draw(st.integers(0, 80))]:
        range_leaves(tree, obj, 1.0)
        tree.insert(obj)
        live.append(obj)
    for i in draw(st.lists(st.integers(0, len(live) - 1), max_size=30, unique=True)):
        range_leaves(tree, live[i], 1.0)
        assert tree.delete(live[i])
    query = objects[draw(st.integers(0, len(objects) - 1))]
    radii = [0.0, 1.0, 2.0, 3.0] if words else [0.0, 0.1, 0.3, 0.6]
    radius = draw(st.sampled_from(radii))
    return tree, query, radius


def range_leaves(tree: SPBTree, query, radius):
    """``(leaf, (inside, accepted))`` of ``_range_leaf`` on every leaf,
    with the query's constants built as the range search builds them."""
    phi_q = tree.space.phi(query)
    packing = tree.btree.packing
    rr = tree.space.range_region(phi_q, radius)
    box = packing.box_words(*rr)
    limits = packing.limit_words(tree.space.lemma2_limits(phi_q, radius))
    out = []
    page = tree.btree.first_leaf_page()
    while page != -1:
        leaf = tree.btree.read_node(page)
        out.append((leaf, tree._range_leaf(leaf, box, limits)))
        page = leaf.next_leaf
    return phi_q, rr, out


@given(mutated_trees())
@settings(max_examples=60, deadline=None)
def test_range_leaf_equals_the_entry_reference_after_mutation(case):
    tree, query, radius = case
    phi_q, rr, leaves = range_leaves(tree, query, radius)
    for leaf, (inside, accepted) in leaves:
        want = range_leaf_by_entry(tree, leaf, phi_q, rr, radius)
        assert (inside.tolist(), accepted.tolist()) == want
