"""A B+-tree write splices the page image it read, byte for byte.

An insert or delete writes a node it read from a page by copying the bytes
of the entries it left alone from that page image and encoding only the
entries it changed (``NodeCodec.splice``); a split writes its two halves
from slices of the spliced bytes.  Only fresh nodes (a bulk load, a new
root) are encoded whole.  These tests pin that every such image is exactly
``codec.encode`` of the node written, on drawn streams of inserts,
duplicate keys, deletes of held and missing objects, deletes that empty a
leaf and shrinks that collapse the root — over words and vectors, over
18-byte keys (9 pivots x 16 bits) and with checksums on and off, on 256-byte
pages so that splits and new roots happen — and that a twin tree that
encodes every write whole (``reference.write_node_whole``) ends each step
the same: the same page bytes, page writes, page accesses, memo and
``verify()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.node import NodeCodec
from repro.btree.tree import BPlusTree
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance, EuclideanDistance
from repro.sfc.zorder import ZCurve
from tests.reference import (
    mutated_tree,
    same_key,
    snapshot,
    twin_trees,
    vectors,
    write_node_whole,
)

PAGE = 256
BASE = 30
WORDS = generate_words(2 * BASE, seed=23)
VECTORS = vectors(2 * BASE, 4, 23)
WIDE = vectors(2 * BASE, 9, 29, 3)

#: name -> (pool, build arguments)
TREES = {
    "words": (WORDS, dict(metric=EditDistance(), num_pivots=3)),
    "vectors": (VECTORS, dict(metric=EuclideanDistance(), num_pivots=3)),
    # 9 pivots at 16 bits a pivot: 144-bit keys, 18 bytes wide.
    "wide": (
        WIDE,
        dict(
            metric=EuclideanDistance(), num_pivots=9, d_plus=3.0,
            delta=3.0 / 65535,
        ),
    ),
}

INDEX = st.integers(0, 1 << 16)
OPS = st.one_of(
    st.tuples(st.just("insert"), INDEX),
    st.tuples(st.just("twin"), INDEX),
    st.tuples(st.just("delete"), st.booleans(), INDEX),
    st.tuples(st.just("miss"), INDEX),
    st.tuples(st.just("drain"), INDEX),
    st.tuples(st.just("shrink")),
)


def build(name: str, checksums: bool) -> tuple[SPBTree, SPBTree]:
    """The tree under test and its twin, whose every write encodes the
    node whole."""
    pool, kwargs = TREES[name]
    return twin_trees(
        lambda: mutated_tree(
            pool[:BASE], page_size=PAGE, checksums=checksums, seed=3, **kwargs
        ),
        "btree._write_node",
        write_node_whole,
    )[:2]


def watch_writes(btree: BPlusTree) -> list:
    """Check each page the tree writes, as it writes it, against
    ``codec.encode`` of the node written; returns the pages written."""
    write = btree._write_node
    written: list[int] = []

    def checked(node, body=None):
        write(node, body)
        image = btree.pagefile._pages[node.page_id]
        assert image == btree.codec.encode(node), f"page {node.page_id}"
        written.append(node.page_id)

    btree._write_node = checked
    return written


def missing(obj):
    """An object no stream ever holds: a twin only nudges a vector's last
    coordinate."""
    if isinstance(obj, str):
        return obj + "~"
    other = np.array(obj, dtype=np.float64)
    other[0] += 1e-9
    return other


def remove_one(tree: SPBTree, live: list, obj) -> list:
    """``live`` less one object whose bytes are ``obj``'s."""
    serialize = tree.raf.serializer.serialize
    target = serialize(obj)
    at = next(i for i, o in enumerate(live) if serialize(o) == target)
    return live[:at] + live[at + 1 :]


def apply(tree: SPBTree, live: list, pool: list, op: tuple) -> list:
    """Run ``op`` on ``tree``; returns the live objects it leaves."""
    kind = op[0]
    if kind == "insert":
        obj = pool[op[1] % len(pool)]
        tree.insert(obj)
        return live + [obj]
    if not live:
        return live
    if kind == "twin":
        obj = same_key(live[op[1] % len(live)])
        tree.insert(obj)
        return live + [obj]
    if kind == "delete":
        _, held, at = op
        obj = live[at % len(live)]
        if held:
            assert tree.delete(obj)
            return remove_one(tree, live, obj)
        assert not tree.delete(missing(obj))
        return live
    if kind == "miss":
        # A B+-tree delete that finds the key but no entry with its pointer.
        obj = live[op[1] % len(live)]
        assert not tree.btree.delete(tree.curve.encode(tree.space.grid(obj)), -1)
        return live
    if kind == "drain":
        # Every object in one leaf goes: the leaf empties and its parent
        # unlinks it.
        leaf = leaf_of(tree, live[op[1] % len(live)])
        for entry in leaf.entries:
            _, obj = tree.raf.read(entry.ptr)
            assert tree.delete(obj)
            live = remove_one(tree, live, obj)
        return live
    if kind == "shrink":
        # Down to one object: the root collapses level by level.
        for obj in live[1:]:
            assert tree.delete(obj)
        return live[:1]
    raise AssertionError(kind)


def leaf_of(tree: SPBTree, obj):
    """The leaf holding ``obj``'s entry."""
    key = tree.curve.encode(tree.space.grid(obj))
    ptr = tree._find_live_entry(key, tree.raf.serializer.serialize(obj)).ptr
    btree = tree.btree
    page_id = btree.first_leaf_page()
    while page_id != -1:
        leaf = btree.read_node(page_id)
        if any(entry.ptr == ptr for entry in leaf.entries):
            return leaf
        page_id = leaf.next_leaf
    raise AssertionError("object not in any leaf")


def assert_pages_canonical(btree: BPlusTree) -> None:
    """Every page image is the encoding of what it decodes to."""
    codec = btree.codec
    for page_id, image in enumerate(btree.pagefile._pages):
        assert image == codec.encode(codec.decode(image, page_id)), page_id


def assert_written_alike(tree: SPBTree, twin: SPBTree) -> None:
    """The spliced tree and the encoding twin end a step alike."""
    a, b = tree.btree, twin.btree
    assert a.pagefile._pages == b.pagefile._pages
    assert a.pagefile.counter.writes == b.pagefile.counter.writes
    assert a.page_accesses == b.page_accesses
    assert snapshot(tree) == snapshot(twin)
    assert (a.root_page, a.height, a.entry_count) == (
        b.root_page, b.height, b.entry_count
    )
    assert list(a.memo._nodes) == list(b.memo._nodes)
    for page_id, (image, node) in a.memo._nodes.items():
        twin_image, twin_node = b.memo._nodes[page_id]
        assert image == twin_image and node == twin_node
        # Each memo entry holds its page's current image object, so a
        # re-read of a page just written decodes nothing.
        assert image is a.pagefile._pages[page_id]
        assert twin_image is b.pagefile._pages[page_id]


class TestSpliceEqualsEncode:
    @pytest.mark.parametrize("checksums", [False, True])
    @pytest.mark.parametrize("name", sorted(TREES))
    @given(ops=st.lists(OPS, max_size=25))
    @settings(max_examples=12, deadline=None)
    def test_drawn_stream(self, name, checksums, ops):
        pool = TREES[name][0]
        tree, twin = build(name, checksums)
        written = watch_writes(tree.btree)
        live = list(pool[:BASE])
        twin_live = list(live)
        for op in ops:
            del written[:]
            live = apply(tree, live, pool, op)
            twin_live = apply(twin, twin_live, pool, op)
            assert_pages_canonical(tree.btree)
            assert_written_alike(tree, twin)
        assert tree.verify().ok and twin.verify().ok

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_splits_new_roots_empty_leaves_and_collapse(self, name):
        """The drawn streams' every path, taken for certain: leaf and
        inner splits and a new root, an emptied leaf, root collapse."""
        pool = TREES[name][0]
        tree, twin = build(name, checksums=True)
        watch_writes(tree.btree)
        live = list(pool[:BASE])
        height = tree.btree.height
        at = BASE
        while tree.btree.height == height:  # a new root, over inner splits
            live = apply(tree, live, pool, ("insert", at))
            apply(twin, [], pool, ("insert", at))
            at += 1
        twin_live = list(live)
        live = apply(tree, live, pool, ("drain", 0))
        twin_live = apply(twin, twin_live, pool, ("drain", 0))
        live = apply(tree, live, pool, ("shrink",))
        apply(twin, twin_live, pool, ("shrink",))
        assert tree.btree.height == 1
        assert_pages_canonical(tree.btree)
        assert_written_alike(tree, twin)
        assert tree.verify().ok


class TestEncodeLeavesTheWritePath:
    def test_no_encode_in_a_non_splitting_insert_or_delete(self, monkeypatch):
        tree, _ = build("words", checksums=False)
        calls = []
        encode = NodeCodec.encode

        def counted(codec, node):
            calls.append(node.page_id)
            return encode(codec, node)

        monkeypatch.setattr(NodeCodec, "encode", counted)
        leaves = tree.btree.leaf_page_count
        tree.insert(WORDS[BASE])
        assert tree.delete(WORDS[0])
        assert tree.btree.leaf_page_count == leaves
        assert calls == []

    def test_a_split_is_sliced_and_only_a_new_root_is_encoded(self, monkeypatch):
        tree, _ = build("wide", checksums=False)
        new_roots = []
        inner_node = BPlusTree._inner_node
        calls = []
        encode = NodeCodec.encode

        def fresh(btree, summaries):
            node = inner_node(btree, summaries)
            new_roots.append(node)
            return node

        def counted(codec, node):
            calls.append(node)
            return encode(codec, node)

        monkeypatch.setattr(BPlusTree, "_inner_node", fresh)
        monkeypatch.setattr(NodeCodec, "encode", counted)
        leaves = tree.btree.leaf_page_count
        for obj in WIDE[BASE:]:
            tree.insert(obj)
        assert tree.btree.leaf_page_count > leaves
        assert len(calls) == len(new_roots)
        assert all(a is b for a, b in zip(calls, new_roots))


class TestDamagedPages:
    def test_a_header_claiming_more_entries_than_a_page_holds(self):
        """Entries decoded from past the page's end do not re-encode to
        bytes of the page, so that node is encoded whole."""
        codec = NodeCodec(8, 80)  # 4 entries and 5 bytes of a 5th's key
        image = bytearray(range(1, 81))
        image[0:3] = b"\x00\x05\x00"  # a leaf of 5 entries
        image[3:11] = (-1).to_bytes(8, "little", signed=True)
        node = codec.decode(bytes(image), 0).mutable_copy()
        del node.entries[0]
        body = codec.splice(bytes(image), node, 0, 1)
        assert codec.page(node, body) == codec.encode(node)

    def test_junk_padding_is_rebuilt(self):
        tree = BPlusTree(ZCurve(2, 8), page_size=128)
        tree.bulk_load([(k, k) for k in range(0, 40, 4)])
        page_id = tree.first_leaf_page()
        image = bytearray(tree.pagefile._pages[page_id])
        image[-5:] = b"\xff" * 5  # junk in the padding
        tree.pagefile._store_raw(page_id, bytes(image))
        written = watch_writes(tree)
        tree.insert(1, 1)
        assert page_id in written
        assert tree.pagefile._pages[page_id][-5:] == bytes(5)

