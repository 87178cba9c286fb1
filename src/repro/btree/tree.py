"""Disk-based B+-tree over SFC keys with per-node MBB maintenance.

The tree supports the three operations the paper highlights as the reason
for choosing a B+-tree backbone (§3.1): cheap bulk-loading from sorted runs
(Appendix B), and simple insertion/deletion (Appendix C).  Non-leaf entries
carry the subtree MBB encoded as two SFC corner keys, which the similarity
query algorithms decode back into pivot-space boxes for pruning.

Duplicate keys are allowed: distinct objects may collide on one SFC value
(always possible under δ-approximation), so deletion matches on
``(key, ptr)`` pairs.

A node visit costs one page access and no per-entry interpretation:
``read_node`` always fetches the page — PA, checksum verification and
injected faults are charged on every visit — and then hands back the node
it decoded from *that very page image* last time, if it still holds one.
The test is object identity of the page's ``bytes``: every way a page can
change (``write_page``, raw damage through ``_store_raw``, a reload)
installs a new object, so a stale memo entry can only miss.  Memoised nodes
are read-only and shared; mutators work on private copies.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from operator import itemgetter
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.btree.node import LeafEntry, Node, NodeCodec, NodeEntry
from repro.sfc.base import SpaceFillingCurve
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, PageFile

Box = tuple[tuple[int, ...], tuple[int, ...]]

#: Decoded nodes kept per tree, least recently read evicted first.  A 4 KB
#: page decodes to a few hundred entry tuples plus their grid arrays — about
#: 50 KB — so the memo is bounded near 50 MB per tree at the default page
#: size, and covers every node of an index of ~300 000 objects.
NODE_MEMO_CAPACITY = 1 << 10


class NodeMemo:
    """LRU map from page id to ``(page image, node decoded from it)``."""

    def __init__(self) -> None:
        self.capacity = NODE_MEMO_CAPACITY
        self._nodes: OrderedDict[int, tuple[bytes, Node]] = OrderedDict()
        # Readers share the tree under the epoch lock's read side, and an
        # LRU touch is a compound update of the ordered dict.
        self._lock = threading.Lock()

    def get(self, page_id: int, image: bytes) -> Optional[Node]:
        """The node decoded from ``image`` — the same object, not an equal
        one — or None."""
        with self._lock:
            held = self._nodes.get(page_id)
            if held is None or held[0] is not image:
                return None
            self._nodes.move_to_end(page_id)
            return held[1]

    def put(self, page_id: int, image: bytes, node: Node) -> None:
        with self._lock:
            self._nodes[page_id] = (image, node)
            self._nodes.move_to_end(page_id)
            while len(self._nodes) > self.capacity:
                self._nodes.popitem(last=False)

    def __len__(self) -> int:
        return len(self._nodes)


class BPlusTree:
    """B+-tree keyed by SFC values, annotated with pivot-space MBBs."""

    def __init__(
        self,
        curve: SpaceFillingCurve,
        page_size: int = DEFAULT_PAGE_SIZE,
        checksums: bool = False,
    ) -> None:
        if curve.bits > 62:
            raise ValueError(
                f"{curve.bits}-bit grid coordinates do not fit the 64-bit "
                "integer arrays nodes hold their cells in"
            )
        self.curve = curve
        key_bytes = max(1, (curve.ndims * curve.bits + 7) // 8)
        self.codec = NodeCodec(key_bytes, page_size)
        self.memo = NodeMemo()
        self.pagefile = PageFile(page_size=page_size, checksums=checksums)
        self.root_page = -1
        self.height = 0
        self.entry_count = 0
        self.leaf_page_count = 0

    # ------------------------------------------------------------------ io

    def read_node(self, page_id: int) -> Node:
        """Fetch a node; one page access.  The node is read-only."""
        image = self.pagefile.read_page(page_id)
        node = self.memo.get(page_id, image)
        if node is None:
            node = self.codec.decode(image, page_id)
            self.memo.put(page_id, image, node)
        return node

    def _write_node(self, node: Node) -> None:
        if node.page_id < 0:
            node.page_id = self.pagefile.allocate()
        image = self.codec.encode(node)
        self.pagefile.write_page(node.page_id, image)
        # The page file stores a full-page image as the object it is given,
        # so the next read of this page finds the node without decoding.
        self.memo.put(node.page_id, image, node.frozen_copy())

    @property
    def page_accesses(self) -> int:
        return self.pagefile.counter.total

    @property
    def num_pages(self) -> int:
        return self.pagefile.num_pages

    @property
    def size_in_bytes(self) -> int:
        return self.pagefile.size_in_bytes

    # ----------------------------------------------------------------- MBB

    def decode_box(self, entry: NodeEntry) -> Box:
        """The MBB a non-leaf entry stores for its child subtree."""
        return self.curve.decode(entry.min_sfc), self.curve.decode(entry.max_sfc)

    def leaf_cells(self, node: Node) -> np.ndarray:
        """A leaf's decoded grid cells, one row per entry: ``(n, |P|)`` int64.

        Decoded once per read-only node and kept on it.  Cells always fit an
        integer array even when the interleaved SFC keys do not.
        """
        if node.arrays is not None:
            return node.arrays
        cells = self._grid_array([e.key for e in node.entries])
        if node.read_only:
            node.arrays = cells
        return cells

    def leaf_ptrs(self, node: Node) -> np.ndarray:
        """A leaf's RAF pointers, one per entry: ``(n,)`` int64, kept on a
        read-only node like :meth:`leaf_cells`."""
        if node.ptrs is not None:
            return node.ptrs
        ptrs = np.fromiter(
            map(itemgetter(1), node.entries), dtype=np.int64, count=node.count
        )
        ptrs.setflags(write=False)
        if node.read_only:
            node.ptrs = ptrs
        return ptrs

    def child_boxes(self, node: Node) -> tuple[np.ndarray, np.ndarray]:
        """A non-leaf node's child MBB corners as two ``(n, |P|)`` arrays."""
        if node.arrays is not None:
            return node.arrays
        corners = (
            self._grid_array([e.min_sfc for e in node.entries]),
            self._grid_array([e.max_sfc for e in node.entries]),
        )
        if node.read_only:
            node.arrays = corners
        return corners

    def _grid_array(self, keys: list[int]) -> np.ndarray:
        """The grid cells of ``keys``, decoded a column at a time."""
        array = self.curve.decode_many(keys)
        array.setflags(write=False)
        return array

    def node_box(self, node: Node) -> Optional[Box]:
        """Compute a node's MBB from its contents (None when empty)."""
        if node.count == 0:
            return None
        if node.is_leaf:
            lo = hi = self.leaf_cells(node)
        else:
            lo, hi = self.child_boxes(node)
        return tuple(lo.min(axis=0).tolist()), tuple(hi.max(axis=0).tolist())

    def _entry_for_child(self, child: Node) -> tuple[NodeEntry, Box]:
        """The entry summarising ``child`` in its parent, and its MBB."""
        box = self.node_box(child)
        assert box is not None, "cannot summarize an empty child"
        lo, hi = box
        entry = NodeEntry(
            key=child.min_key(),
            child=child.page_id,
            min_sfc=self.curve.encode(lo),
            max_sfc=self.curve.encode(hi),
        )
        return entry, box

    def _inner_node(self, summaries: Sequence[tuple[NodeEntry, Box]]) -> Node:
        """A new non-leaf node over ``summaries`` (each child's entry and
        MBB), carrying the MBBs as the arrays a read would decode."""
        node = Node(False, [entry for entry, _ in summaries])
        empty = np.empty((0, self.curve.ndims), dtype=np.int64)
        node.arrays = _spliced((empty, empty), 0, 0, [box for _, box in summaries])
        return node

    def _refreshed_entry(
        self, entry: NodeEntry, child: Node, key: int, joined: bool
    ) -> tuple[NodeEntry, Box]:
        """``_entry_for_child(child)`` and the child's MBB once ``key``
        joined (or left) the child that ``entry`` summarised exactly, read
        from the key's cell alone where it settles the MBB: a joining cell
        widens the box to take it in, and a cell leaving from strictly
        inside the box leaves it as it was.  Otherwise (a cell left from
        the box's boundary) the MBB comes from the child's entries."""
        lo, hi = self.decode_box(entry)
        cell = self.curve.decode(key)
        if joined:
            box = tuple(map(min, lo, cell)), tuple(map(max, hi, cell))
        elif all(a < c < b for a, c, b in zip(lo, cell, hi)):
            box = lo, hi
        else:
            box = self.node_box(child)  # type: ignore[assignment]
        encode = self.curve.encode
        refreshed = NodeEntry(
            key=child.min_key(),
            child=child.page_id,
            min_sfc=entry.min_sfc if box[0] == lo else encode(box[0]),
            max_sfc=entry.max_sfc if box[1] == hi else encode(box[1]),
        )
        return refreshed, box

    # ----------------------------------------------------------- bulk load

    def bulk_load(self, items: Sequence[tuple[int, int]]) -> None:
        """Build the tree from ``(key, ptr)`` pairs sorted by key.

        Leaves are packed full and written once;
        upper levels are built bottom-up — the cheap construction path the
        paper credits for the SPB-tree's low build cost (Table 6).
        """
        if self.root_page != -1:
            raise RuntimeError("tree already loaded")
        for i in range(1, len(items)):
            if items[i - 1][0] > items[i][0]:
                raise ValueError("bulk_load requires items sorted by key")
        self.entry_count = len(items)
        if not items:
            root = Node(is_leaf=True)
            self._write_node(root)
            self.root_page = root.page_id
            self.height = 1
            self.leaf_page_count = 1
            return
        leaf_fill = self.codec.leaf_capacity
        # Every key decoded in one pass, each leaf handed its rows: the
        # parents' MBBs come from them without a per-key decode.
        cells = self.curve.decode_many([key for key, _ in items])
        cells.setflags(write=False)
        leaves: list[Node] = []
        for start in range(0, len(items), leaf_fill):
            chunk = items[start : start + leaf_fill]
            leaf = Node(True, [LeafEntry(k, p) for k, p in chunk])
            leaf.arrays = cells[start : start + leaf_fill]
            leaves.append(leaf)
        for leaf in leaves:
            leaf.page_id = self.pagefile.allocate()
        for i, leaf in enumerate(leaves):
            leaf.next_leaf = leaves[i + 1].page_id if i + 1 < len(leaves) else -1
            self._write_node(leaf)
        self.leaf_page_count = len(leaves)

        level: list[Node] = leaves
        self.height = 1
        node_fill = self.codec.node_capacity
        while len(level) > 1:
            parents: list[Node] = []
            for start in range(0, len(level), node_fill):
                children = level[start : start + node_fill]
                parent = self._inner_node([self._entry_for_child(c) for c in children])
                self._write_node(parent)
                parents.append(parent)
            level = parents
            self.height += 1
        self.root_page = level[0].page_id

    # -------------------------------------------------------------- insert

    def insert(self, key: int, ptr: int) -> None:
        """Insert one ``(key, ptr)`` leaf entry."""
        if self.root_page == -1:
            self.bulk_load([(key, ptr)])
            return
        split = self._insert_into(self.root_page, key, ptr)
        self.entry_count += 1
        if split is not None:
            old_root = self.read_node(self.root_page)
            new_root = self._inner_node([self._entry_for_child(old_root), split])
            self._write_node(new_root)
            self.root_page = new_root.page_id
            self.height += 1

    def _insert_into(
        self, page_id: int, key: int, ptr: int
    ) -> Optional[tuple[NodeEntry, Box]]:
        """Insert below ``page_id``; returns a new sibling's entry and MBB
        on split."""
        held = self.read_node(page_id)
        node = held.mutable_copy()
        if node.is_leaf:
            keys = [entry.key for entry in node.entries]
            idx = bisect.bisect_right(keys, key)
            node.entries.insert(idx, LeafEntry(key, ptr))
            node.arrays = _spliced(held.arrays, idx, 0, [self.curve.decode(key)])
            if node.count <= self.codec.leaf_capacity:
                self._write_node(node)
                return None
            return self._split_leaf(node)
        idx = self._child_index(node, key)
        child_entry = node.entries[idx]
        split = self._insert_into(child_entry.child, key, ptr)
        # Refresh the child's summary (its key range and MBB may have grown).
        child = self.read_node(child_entry.child)
        if split is None:
            node.entries[idx], box = self._refreshed_entry(
                child_entry, child, key, True
            )
            node.arrays = _spliced(held.arrays, idx, 1, [box])
        else:
            entry, box = self._entry_for_child(child)
            node.entries[idx] = entry
            node.entries.insert(idx + 1, split[0])
            node.arrays = _spliced(held.arrays, idx, 1, [box, split[1]])
        if node.count <= self.codec.node_capacity:
            self._write_node(node)
            return None
        return self._split_internal(node)

    def _split_leaf(self, node: Node) -> tuple[NodeEntry, Box]:
        mid = node.count // 2
        sibling = Node(
            True, node.entries[mid:], node.next_leaf,
            arrays=_sliced(node.arrays, slice(mid, None)),
        )
        node.entries = node.entries[:mid]
        node.arrays = _sliced(node.arrays, slice(mid))
        self._write_node(sibling)
        node.next_leaf = sibling.page_id
        self._write_node(node)
        self.leaf_page_count += 1
        return self._entry_for_child(sibling)

    def _split_internal(self, node: Node) -> tuple[NodeEntry, Box]:
        mid = node.count // 2
        sibling = Node(
            False, node.entries[mid:], arrays=_sliced(node.arrays, slice(mid, None))
        )
        node.entries = node.entries[:mid]
        node.arrays = _sliced(node.arrays, slice(mid))
        self._write_node(sibling)
        self._write_node(node)
        return self._entry_for_child(sibling)

    def _child_index(self, node: Node, key: int) -> int:
        keys = [entry.key for entry in node.entries]
        idx = bisect.bisect_right(keys, key) - 1
        return max(idx, 0)

    # -------------------------------------------------------------- delete

    def delete(self, key: int, ptr: int) -> bool:
        """Remove the leaf entry matching ``(key, ptr)``; True if found.

        Underflowed nodes are not rebalanced — matching the lightweight
        deletion of Appendix C — but emptied nodes are unlinked from their
        parents so queries never descend into them.
        """
        if self.root_page == -1:
            return False
        found = self._delete_from(self.root_page, key, ptr)
        if found:
            self.entry_count -= 1
            root = self.read_node(self.root_page)
            # Collapse a root with a single child.
            while not root.is_leaf and root.count == 1:
                self.root_page = root.entries[0].child
                self.height -= 1
                root = self.read_node(self.root_page)
        return found

    def _delete_from(self, page_id: int, key: int, ptr: int) -> bool:
        held = self.read_node(page_id)
        node = held.mutable_copy()
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if entry.key == key and entry.ptr == ptr:
                    del node.entries[i]
                    node.arrays = _spliced(held.arrays, i, 1, [])
                    self._write_node(node)
                    return True
                if entry.key > key:
                    break
            return False
        # Duplicates may straddle children; try each child whose key range
        # can contain ``key``, starting from the leftmost candidate.
        keys = [entry.key for entry in node.entries]
        start = max(0, bisect.bisect_left(keys, key) - 1)
        for idx in range(start, node.count):
            if node.entries[idx].key > key:
                break
            child_entry = node.entries[idx]
            if self._delete_from(child_entry.child, key, ptr):
                child = self.read_node(child_entry.child)
                if child.count == 0:
                    del node.entries[idx]
                    # Emptied here too, a non-root node is unlinked by its
                    # parent's own pass.
                    node.arrays = _spliced(held.arrays, idx, 1, [])
                else:
                    node.entries[idx], box = self._refreshed_entry(
                        child_entry, child, key, False
                    )
                    node.arrays = _spliced(held.arrays, idx, 1, [box])
                self._write_node(node)
                return True
        return False

    # -------------------------------------------------------------- lookup

    def find_entries(self, key: int) -> list[LeafEntry]:
        """All leaf entries whose key equals ``key`` (duplicates included)."""
        if self.root_page == -1:
            return []
        node = self.read_node(self.root_page)
        while not node.is_leaf:
            keys = [entry.key for entry in node.entries]
            idx = max(0, bisect.bisect_left(keys, key) - 1)
            node = self.read_node(node.entries[idx].child)
        matches: list[LeafEntry] = []
        while True:
            for entry in node.entries:
                if entry.key == key:
                    matches.append(entry)
                elif entry.key > key:
                    return matches
            if node.next_leaf == -1:
                return matches
            node = self.read_node(node.next_leaf)

    # ---------------------------------------------------------------- scan

    def first_leaf_page(self) -> int:
        """Page id of the leftmost leaf (counts the descent's accesses)."""
        if self.root_page == -1:
            return -1
        node = self.read_node(self.root_page)
        while not node.is_leaf:
            node = self.read_node(node.entries[0].child)
        return node.page_id

    def leaf_entries(self) -> Iterator[LeafEntry]:
        """All leaf entries in ascending key order.

        Costs exactly (height - 1) internal reads plus one read per leaf
        page — the I/O model of the join cost formula (eq. 8).
        """
        if self.root_page == -1:
            return
        node = self.read_node(self.root_page)
        while not node.is_leaf:
            node = self.read_node(node.entries[0].child)
        while True:
            yield from node.entries
            if node.next_leaf == -1:
                return
            node = self.read_node(node.next_leaf)

    def items(self) -> list[tuple[int, int]]:
        return [(e.key, e.ptr) for e in self.leaf_entries()]

    # ------------------------------------------------------------- walking

    def walk_nodes(self) -> Iterator[Node]:
        """Depth-first traversal of every node (used by cost models/tests).

        Does not count page accesses: cost-model evaluation inspects the
        catalog, it does not execute queries.
        """
        if self.root_page == -1:
            return
        stack = [self.root_page]
        counter = self.pagefile.counter
        while stack:
            saved_reads = counter.reads
            node = self.read_node(stack.pop())
            counter.reads = saved_reads
            yield node
            if not node.is_leaf:
                stack.extend(entry.child for entry in node.entries)


def _sliced(arrays: Any, part: slice) -> Any:
    """The ``part`` of a node's decoded arrays that goes with the same
    slice of its entries (a split's half); None stays None."""
    if arrays is None:
        return None
    if isinstance(arrays, tuple):
        return tuple(a[part] for a in arrays)
    return arrays[part]


def _spliced(arrays: Any, at: int, drop: int, rows: list) -> Any:
    """A node's decoded arrays once its entries ``at:at + drop`` gave way
    to entries whose cells (a leaf) or ``(lo, hi)`` MBBs (an inner node)
    are ``rows``: a write carries them to the node it writes, which then
    needs no decode.  None (never decoded) stays None."""
    if arrays is None:
        return None
    if isinstance(arrays, tuple):
        return tuple(
            _spliced(a, at, drop, [row[k] for row in rows])
            for k, a in enumerate(arrays)
        )
    middle = np.array(rows, dtype=np.int64).reshape(len(rows), arrays.shape[1])
    out = np.concatenate((arrays[:at], middle, arrays[at + drop :]))
    out.setflags(write=False)
    return out
