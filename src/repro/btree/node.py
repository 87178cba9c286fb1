"""B+-tree node layout and page (de)serialization.

Nodes are serialized to fixed-size pages with explicit byte layouts so that
fan-out — and therefore tree height, page counts, and the storage sizes of
Table 6 — follow from entry sizes, like they would in a real system.

Layout (little-endian):

* header: ``type`` (1 byte: 0 leaf / 1 non-leaf), ``count`` (2 bytes),
  ``next_leaf`` (8 bytes signed; -1 when absent or non-leaf)
* leaf entry: ``key`` (K bytes) + ``ptr`` (8 bytes, RAF byte offset)
* non-leaf entry: ``key`` (K bytes) + ``child`` (8 bytes, page id)
  + ``min_sfc`` (K bytes) + ``max_sfc`` (K bytes)

``K`` is the key width in bytes, ``ceil(ndims * bits / 8)``; SFC keys can
exceed 64 bits (e.g. 9 pivots at 16 bits each), so keys are stored as
fixed-width unsigned big-endian integers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

_HEADER = struct.Struct("<BHq")  # type, count, next_leaf


class LeafEntry(NamedTuple):
    """(SFC value, byte offset of the object in the RAF)."""

    key: int
    ptr: int


class NodeEntry(NamedTuple):
    """(min key of subtree, child page id, SFC values of MBB corners)."""

    key: int
    child: int
    min_sfc: int
    max_sfc: int


@dataclass
class Node:
    """An in-memory image of one B+-tree page.

    ``entries`` is a list while a node is being built or mutated and a
    tuple once it is a decoded page image: those are shared between every
    reader of the page (:meth:`BPlusTree.read_node` memoises them) and must
    never change.
    """

    is_leaf: bool
    entries: Sequence = field(default_factory=list)
    next_leaf: int = -1
    page_id: int = -1
    #: Grid arrays of the entries, cached by the tree on read-only nodes,
    #: given by a bulk load or a new root to the nodes it builds and carried
    #: by an insert, delete or split to the nodes it writes.
    arrays: Any = field(default=None, compare=False, repr=False)
    #: A leaf's RAF pointers as one int64 array, cached by the tree on
    #: read-only leaves.
    ptrs: Any = field(default=None, compare=False, repr=False)
    #: A leaf's grid cells packed into uint64 words (``BPlusTree.leaf_codes``),
    #: cached by the tree on read-only leaves only.
    codes: Any = field(default=None, compare=False, repr=False)

    @property
    def read_only(self) -> bool:
        return isinstance(self.entries, tuple)

    def mutable_copy(self) -> "Node":
        return Node(self.is_leaf, list(self.entries), self.next_leaf, self.page_id)

    def frozen_copy(self) -> "Node":
        return Node(
            self.is_leaf, tuple(self.entries), self.next_leaf, self.page_id,
            self.arrays,
        )

    @property
    def count(self) -> int:
        return len(self.entries)

    def min_key(self) -> int:
        return self.entries[0].key


class NodeCodec:
    """Serializes nodes to pages for a given key width and page size.

    :meth:`encode` is the layout: a header, the entries' bytes and zero
    padding, built from a node alone — for nodes built fresh (a bulk load,
    a new root).  A node an insert or delete read from a page and changed
    is written by :meth:`splice`, which copies the bytes of the entries
    that did not change from that page image and encodes only the entries
    that did; :meth:`page` frames either body.  Both give exactly the
    bytes of ``encode(node)``.
    """

    def __init__(self, key_bytes: int, page_size: int) -> None:
        self.key_bytes = key_bytes
        self.page_size = page_size
        self.leaf_entry_size = key_bytes + 8
        self.node_entry_size = 3 * key_bytes + 8
        usable = page_size - _HEADER.size
        self.leaf_capacity = usable // self.leaf_entry_size
        self.node_capacity = usable // self.node_entry_size
        if self.leaf_capacity < 2 or self.node_capacity < 2:
            raise ValueError(
                f"page size {page_size} too small for key width {key_bytes}"
            )

    # -------------------------------------------------------------- encode

    def encode(self, node: Node) -> bytes:
        """The node's page image, zero-padded to exactly one page."""
        return self.page(node, self.entry_bytes(node.is_leaf, node.entries))

    def page(self, node: Node, body: bytes) -> bytes:
        """The page image of ``node`` whose entries' bytes are ``body``: the
        header from the node's own fields, then ``body``, then zeros."""
        capacity = self.leaf_capacity if node.is_leaf else self.node_capacity
        if node.count > capacity:
            raise ValueError(
                f"node with {node.count} entries exceeds capacity {capacity}"
            )
        header = _HEADER.pack(0 if node.is_leaf else 1, node.count, node.next_leaf)
        return b"".join(
            (header, body, bytes(self.page_size - _HEADER.size - len(body)))
        )

    def entry_bytes(self, is_leaf: bool, entries: Sequence) -> bytes:
        """The bytes of ``entries``, back to back."""
        parts = []
        kb = self.key_bytes
        if is_leaf:
            for key, ptr in entries:
                parts.append(key.to_bytes(kb, "big"))
                parts.append(ptr.to_bytes(8, "little"))
        else:
            for key, child, min_sfc, max_sfc in entries:
                parts.append(key.to_bytes(kb, "big"))
                parts.append(child.to_bytes(8, "little"))
                parts.append(min_sfc.to_bytes(kb, "big"))
                parts.append(max_sfc.to_bytes(kb, "big"))
        return b"".join(parts)

    def splice(self, image: bytes, node: Node, at: int, drop: int) -> bytes:
        """The entries' bytes of ``node``, the node decoded from ``image``
        once its entries ``at:at + drop`` gave way to the ones now at
        ``node.entries[at:]``: the bytes around them are copied from
        ``image`` and only the new entries are encoded.

        A decoded entry re-encodes to the very bytes it was read from,
        unless it was read from past the page's end — a damaged header that
        claims more entries than a page holds — so such a node's entries
        are all encoded."""
        size = self.leaf_entry_size if node.is_leaf else self.node_entry_size
        start = _HEADER.size
        end = start + _HEADER.unpack_from(image)[1] * size
        if end > self.page_size:
            return self.entry_bytes(node.is_leaf, node.entries)
        added = node.count - (end - start) // size + drop
        return b"".join(
            (
                image[start : start + at * size],
                self.entry_bytes(node.is_leaf, node.entries[at : at + added]),
                image[start + (at + drop) * size : end],
            )
        )

    # -------------------------------------------------------------- decode

    def decode(self, data: bytes, page_id: int) -> Node:
        """The read-only node a page image holds."""
        node_type, count, next_leaf = _HEADER.unpack_from(data, 0)
        kb = self.key_bytes
        offset = _HEADER.size
        if node_type == 0:
            entries: list = []
            for _ in range(count):
                key = int.from_bytes(data[offset : offset + kb], "big")
                offset += kb
                ptr = int.from_bytes(data[offset : offset + 8], "little")
                offset += 8
                entries.append(LeafEntry(key, ptr))
            return Node(True, tuple(entries), next_leaf, page_id)
        entries = []
        for _ in range(count):
            key = int.from_bytes(data[offset : offset + kb], "big")
            offset += kb
            child = int.from_bytes(data[offset : offset + 8], "little")
            offset += 8
            min_sfc = int.from_bytes(data[offset : offset + kb], "big")
            offset += kb
            max_sfc = int.from_bytes(data[offset : offset + kb], "big")
            offset += kb
            entries.append(NodeEntry(key, child, min_sfc, max_sfc))
        return Node(False, tuple(entries), -1, page_id)
