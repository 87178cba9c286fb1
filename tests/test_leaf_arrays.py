"""The whole-node forms of Lemmas 1–3 against their scalar references.

The query algorithms evaluate one mask per B+-tree node
(``PivotSpace.cells_in_region`` / ``boxes_meet_region`` / ``lemma2_accepts``
/ ``mind_to_cells`` / ``mind_to_boxes``); the scalar functions they replaced
on the query path stay as the reference.  Agreement is required with ``==``
on the floats — same IEEE-754 operations, same order — because a bound that
differs in the last digit reorders the kNN heap and moves compdists.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LinearScan
from repro.btree.tree import BPlusTree
from repro.core.mapping import PivotSpace
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance, EuclideanDistance
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.region import (
    box_intersection,
    boxes_intersect,
    point_in_box,
    sfc_values_in_box,
)
from repro.sfc.zorder import ZCurve
from tests.reference import cell_array, lemma2_by_cell


@st.composite
def spaces(draw):
    """An exact (δ = 1) or a δ-grid pivot space over 1–9 dummy pivots."""
    pivots = [None] * draw(st.integers(1, 9))
    if draw(st.booleans()):
        return PivotSpace(pivots, EditDistance(), d_plus=draw(st.integers(1, 40)))
    d_plus = draw(st.floats(0.5, 1000.0))
    delta = d_plus / draw(st.sampled_from([1, 3, 16, 256, 65535]))
    return PivotSpace(pivots, EuclideanDistance(), d_plus=d_plus, delta=delta)


@st.composite
def node_cases(draw):
    """(space, φ(q), radius, cells of a node: 0, 1 or many entries)."""
    space = draw(spaces())
    n, top = space.num_pivots, space.cells - 1
    cell = st.tuples(*[st.integers(0, top)] * n)
    cells = draw(st.lists(cell, min_size=0, max_size=12))
    if space.exact:
        phi_q = tuple(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    else:
        # distances strictly inside a cell, exactly on a cell edge, or at 0
        edge = st.integers(0, top).map(lambda c: c * space.delta)
        inside = st.floats(0.0, space.d_plus)
        phi_q = tuple(
            draw(st.lists(st.one_of(edge, inside), min_size=n, max_size=n))
        )
    radius = draw(
        st.one_of(
            st.integers(0, top).map(lambda c: c * space.delta),  # on an edge
            st.floats(0.0, space.d_plus),
            # r - d(q, p) exactly an upper cell bound, zero, or negative
            st.sampled_from(phi_q).map(lambda dq: max(0.0, dq - space.delta)),
            st.sampled_from(phi_q),
            st.integers(0, top).map(
                lambda c: phi_q[0] + space.upper_bound_to_pivot(c)
            ),
        )
    )
    return space, phi_q, radius, cells


@given(node_cases())
@settings(max_examples=300, deadline=None)
def test_cells_in_region_equals_point_in_box(case):
    space, phi_q, radius, cells = case
    region = space.range_region(phi_q, radius)
    mask = space.cells_in_region(cell_array(space, cells), region)
    assert mask.tolist() == [point_in_box(c, *region) for c in cells]


@given(node_cases())
@settings(max_examples=300, deadline=None)
def test_lemma2_accepts_equals_upper_bound_to_pivot(case):
    space, phi_q, radius, cells = case
    mask = space.lemma2_accepts(cell_array(space, cells), phi_q, radius)
    assert mask.tolist() == lemma2_by_cell(space, phi_q, radius, cells)


@given(node_cases())
@settings(max_examples=300, deadline=None)
def test_mind_to_cells_equals_mind_to_cell(case):
    space, phi_q, _, cells = case
    minds = space.mind_to_cells(phi_q, cell_array(space, cells))
    assert minds.tolist() == [space.mind_to_cell(phi_q, c) for c in cells]


@given(node_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_box_forms_equal_mind_to_box_and_boxes_intersect(case, data):
    space, phi_q, radius, corners = case
    others = [
        tuple(data.draw(st.integers(0, space.cells - 1)) for _ in corner)
        for corner in corners
    ]
    los = [tuple(map(min, a, b)) for a, b in zip(corners, others)]
    his = [tuple(map(max, a, b)) for a, b in zip(corners, others)]
    lo_cells, hi_cells = cell_array(space, los), cell_array(space, his)
    minds = space.mind_to_boxes(phi_q, lo_cells, hi_cells)
    assert minds.tolist() == [
        space.mind_to_box(phi_q, lo, hi) for lo, hi in zip(los, his)
    ]
    region = space.range_region(phi_q, radius)
    meets = space.boxes_meet_region(lo_cells, hi_cells, region)
    assert meets.tolist() == [
        boxes_intersect(*region, lo, hi) for lo, hi in zip(los, his)
    ]


def test_negative_slack_accepts_nothing():
    """r < d(q, pᵢ) for every pivot: Lemma 2 cannot fire, even at cell 0."""
    space = PivotSpace([None] * 3, EditDistance(), d_plus=20)
    cells = cell_array(space, [(0, 0, 0), (5, 0, 9)])
    assert space.lemma2_accepts(cells, (4, 6, 8), 3).tolist() == [False, False]
    assert space.lemma2_accepts(cells, (4, 6, 8), 6).tolist() == [True, True]


def test_cells_of_144_bit_keys_fit_the_integer_array():
    """9 pivots × 16 bits: the interleaved key needs 144 bits, a cell 16."""
    curve = HilbertCurve(9, 16)
    tree = BPlusTree(curve, page_size=4096)
    cells = [
        tuple((7919 * (i + 1) * (d + 3)) % 65536 for d in range(9))
        for i in range(40)
    ] + [(65535,) * 9, (0,) * 9]
    items = sorted((curve.encode(c), i) for i, c in enumerate(cells))
    assert items[-1][0] >= 1 << 128
    tree.bulk_load(items)
    leaf = tree.read_node(tree.first_leaf_page())
    array = tree.leaf_cells(leaf)
    assert array.dtype == np.int64 and array.shape == (len(cells), 9)
    assert array.tolist() == [list(curve.decode(key)) for key, _ in items]
    assert tree.node_box(leaf) == ((0,) * 9, (65535,) * 9)


def test_empty_leaf_has_an_empty_cell_array_and_no_box():
    tree = BPlusTree(ZCurve(3, 4), page_size=256)
    tree.bulk_load([])
    root = tree.read_node(tree.root_page)
    assert tree.leaf_cells(root).shape == (0, 3)
    assert tree.node_box(root) is None


def test_grid_wider_than_the_integer_arrays_is_refused():
    with pytest.raises(ValueError, match="64-bit"):
        BPlusTree(ZCurve(2, 63), page_size=256)


@given(
    cells=st.lists(st.tuples(*[st.integers(0, 7)] * 3), min_size=1, max_size=14),
    corner_a=st.tuples(*[st.integers(0, 7)] * 3),
    corner_b=st.tuples(*[st.integers(0, 7)] * 3),
    curve_cls=st.sampled_from([HilbertCurve, ZCurve]),
)
@settings(max_examples=200, deadline=None)
def test_mask_selects_exactly_the_entries_computesfc_enumerates(
    cells, corner_a, corner_b, curve_cls
):
    """Algorithm 1 line 15 against the leaf mask that replaced it: for a
    leaf entry, ``key ∈ SFC(RR ∩ MBB(N)) ⇔ cell ∈ RR``."""
    curve = curve_cls(3, 3)
    tree = BPlusTree(curve, page_size=512)
    tree.bulk_load(sorted((curve.encode(c), i) for i, c in enumerate(cells)))
    leaf = tree.read_node(tree.root_page)
    assert leaf.is_leaf
    region = tuple(map(min, corner_a, corner_b)), tuple(map(max, corner_a, corner_b))
    space = PivotSpace([None] * 3, EditDistance(), d_plus=7)
    mask = space.cells_in_region(tree.leaf_cells(leaf), region)
    selected = [e for e, keep in zip(leaf.entries, mask.tolist()) if keep]
    inter = box_intersection(*region, *tree.node_box(leaf))
    enumerated = set(sfc_values_in_box(curve, *inter)) if inter else set()
    assert selected == [e for e in leaf.entries if e.key in enumerated]


def test_knn_with_k_beyond_the_dataset_returns_everything():
    words = generate_words(60, seed=3)
    metric = EditDistance()
    tree = SPBTree.build(words, metric, num_pivots=3, seed=1)
    oracle = LinearScan(words, metric)
    for traversal in ("incremental", "greedy"):
        got = tree.knn_query(words[7], len(words) + 5, traversal=traversal)
        assert len(got) == len(words)
        assert [d for d, _ in got] == [
            d for d, _ in oracle.knn_query(words[7], len(words))
        ]


def test_single_entry_and_emptied_leaves_answer_queries():
    metric = EditDistance()
    tree = SPBTree.build(["solo"], metric, num_pivots=1, seed=1)
    assert tree.range_query("solo", 0) == ["solo"]
    assert tree.knn_query("sole", 3) == [(1, "solo")]
    assert tree.range_count("zzzzzzzz", 1) == 0
    tree.insert("duet")
    assert tree.delete("solo") and tree.delete("duet")
    assert tree.range_query("solo", 9) == []
    assert tree.knn_query("solo", 2) == []
    assert tree.range_count("solo", 9) == 0
