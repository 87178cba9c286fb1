"""Structural verification of an SPB-tree (``SPBTree.verify``).

A disk-based index can be damaged in ways queries only notice as silently
wrong results: a torn B+-tree page, a leaf pointer into the middle of an
RAF record, a tombstone for a record that never existed.  ``verify_tree``
audits every invariant the query algorithms rely on and returns a
:class:`VerifyReport` instead of raising — corruption is a *finding*, not a
crash — so operators can decide between restoring a backup and running
:func:`repro.recovery.salvage_tree`.

Checked invariants:

* every B+-tree and RAF page passes checksum verification (when enabled);
* keys are non-decreasing within each node and across the leaf chain;
* each non-leaf entry's key equals its child's minimum key, and its stored
  MBB contains the child's actual MBB (the soundness condition of Lemma 1);
* all leaves sit at the same depth, equal to the recorded height;
* recorded entry/leaf counts match the walked structure;
* RAF records frame correctly (headers and lengths stay inside the file);
* leaf entries and live RAF records are in bijection (no dangling pointers,
  no orphaned records), tombstones reference real records, and no leaf
  entry points at a tombstoned (``mark_deleted``) slot;
* with a WAL attached, the tree agrees with its log: object count and next
  id follow from the header base plus the logged mutations, and every
  net-inserted record is present with byte-identical content;
* optionally, every stored object re-maps to exactly the SFC key its leaf
  entry carries — the contract between the pivot table and the index.

Verification is observation-free: page-access counters, compdist counters,
and buffer-pool statistics are restored before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.storage.raf import FramingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.spbtree import SPBTree

#: Reports stop accumulating detail past this many errors/warnings.
_MAX_FINDINGS = 100

#: Objects whose SFC keys are recomputed by one array pass.
_KEY_CHUNK = 8192


@dataclass
class VerifyReport:
    """Outcome of ``SPBTree.verify()``."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    btree_pages_checked: int = 0
    leaf_entries: int = 0
    raf_records: int = 0
    #: Whether live RAF records are laid out in ascending SFC order — true
    #: after bulk loading, typically false after post-build insertions
    #: (appends go to the file tail regardless of key).  Informational.
    raf_sfc_ordered: bool = True
    #: RAF buffer-pool traffic during the verification walk itself (the
    #: pool's own tallies are restored afterwards; these keep the deltas).
    buffer_hits: int = 0
    buffer_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def buffer_hit_rate(self) -> float:
        """Fraction of verification reads served from the buffer pool."""
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAILED ({len(self.errors)} errors)"
        lines = [
            f"verify: {status}",
            f"  B+-tree pages checked : {self.btree_pages_checked}",
            f"  leaf entries          : {self.leaf_entries}",
            f"  RAF records           : {self.raf_records}",
            f"  RAF in SFC order      : {'yes' if self.raf_sfc_ordered else 'no'}",
            f"  buffer hit rate       : {self.buffer_hit_rate * 100:.1f}% "
            f"({self.buffer_hits} hits / {self.buffer_misses} misses)",
        ]
        for err in self.errors:
            lines.append(f"  ERROR: {err}")
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        return "\n".join(lines)


def _note(findings: list[str], message: str) -> None:
    if len(findings) < _MAX_FINDINGS:
        findings.append(message)
    elif len(findings) == _MAX_FINDINGS:
        findings.append("... further findings suppressed")


def verify_tree(tree: "SPBTree", check_objects: bool = True) -> VerifyReport:
    report = VerifyReport()
    btree = tree.btree
    if tree.raf is None or btree.root_page == -1:
        if tree.object_count:
            _note(
                report.errors,
                f"tree reports {tree.object_count} objects but has no storage",
            )
        return report
    pool = tree.raf.buffer_pool
    hits0, misses0 = pool.hits, pool.misses
    with tree.unobserved():
        leaf_entries = _verify_btree(tree, report)
        _verify_raf(tree, report, leaf_entries, check_objects)
        if tree.wal is not None:
            _verify_wal(tree, report, leaf_entries)
        report.buffer_hits = pool.hits - hits0
        report.buffer_misses = pool.misses - misses0
    return report


# ---------------------------------------------------------------- B+-tree


def _verify_btree(tree: "SPBTree", report: VerifyReport) -> list:
    """Walk the B+-tree; returns the leaf entries in left-to-right order."""
    btree = tree.btree
    num_pages = btree.pagefile.num_pages

    for page_id in btree.pagefile.verify_all():
        _note(report.errors, f"B+-tree page {page_id} fails checksum")

    def read(page_id: int):
        try:
            return btree.read_node(page_id)
        except Exception as exc:  # corruption may surface as almost anything
            _note(
                report.errors,
                f"B+-tree page {page_id} unreadable: {type(exc).__name__}: {exc}",
            )
            return None

    # Ordered depth-first walk (children visited left to right).
    dfs_leaves: list = []
    leaf_entries: list = []
    leaf_depths: set[int] = set()
    visited: set[int] = set()
    stack: list[tuple[int, int]] = [(btree.root_page, 1)]
    while stack:
        page_id, depth = stack.pop()
        if page_id in visited:
            _note(report.errors, f"B+-tree page {page_id} reachable twice (cycle)")
            continue
        visited.add(page_id)
        node = read(page_id)
        if node is None:
            continue
        report.btree_pages_checked += 1
        keys = [entry.key for entry in node.entries]
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            _note(report.errors, f"keys out of order in page {page_id}")
        if node.is_leaf:
            dfs_leaves.append(node)
            leaf_entries.extend(node.entries)
            leaf_depths.add(depth)
            continue
        if node.count == 0 and page_id == btree.root_page:
            _note(report.errors, "non-leaf root is empty")
        for entry in reversed(node.entries):
            if not 0 <= entry.child < num_pages:
                _note(
                    report.errors,
                    f"page {page_id} references child {entry.child} "
                    f"outside [0, {num_pages})",
                )
                continue
            child = read(entry.child)
            if child is not None:
                _check_parent_entry(btree, page_id, entry, child, report)
            stack.append((entry.child, depth + 1))

    if len(leaf_depths) > 1:
        _note(
            report.errors,
            f"leaves at unequal depths {sorted(leaf_depths)} (tree unbalanced)",
        )
    elif leaf_depths and leaf_depths != {btree.height}:
        _note(
            report.errors,
            f"leaf depth {leaf_depths.pop()} does not match recorded "
            f"height {btree.height}",
        )
    report.leaf_entries = len(leaf_entries)
    if len(leaf_entries) != btree.entry_count:
        _note(
            report.errors,
            f"walked {len(leaf_entries)} leaf entries but catalog records "
            f"entry_count={btree.entry_count}",
        )
    if len(dfs_leaves) != btree.leaf_page_count:
        _note(
            report.warnings,
            f"walked {len(dfs_leaves)} leaves but leaf_page_count="
            f"{btree.leaf_page_count}",
        )
    _verify_leaf_chain(btree, dfs_leaves, report, read)
    return leaf_entries


def _check_parent_entry(btree, page_id, entry, child, report: VerifyReport) -> None:
    if child.count == 0:
        _note(
            report.errors,
            f"page {page_id} references empty child {entry.child}",
        )
        return
    if entry.key != child.min_key():
        _note(
            report.errors,
            f"page {page_id} routing key {entry.key} does not match child "
            f"{entry.child} min key {child.min_key()}",
        )
    child_box = btree.node_box(child)
    entry_box = btree.decode_box(entry)
    if child_box is None:
        return
    (elo, ehi), (clo, chi) = entry_box, child_box
    contains = all(a <= b for a, b in zip(elo, clo)) and all(
        b <= a for a, b in zip(ehi, chi)
    )
    if not contains:
        _note(
            report.errors,
            f"MBB of entry for child {entry.child} does not contain the "
            f"child's actual MBB (unsound pruning)",
        )
    elif (elo, ehi) != (clo, chi):
        _note(
            report.warnings,
            f"MBB of entry for child {entry.child} is stale (larger than "
            f"actual, pruning still sound)",
        )


def _verify_leaf_chain(btree, dfs_leaves, report: VerifyReport, read) -> None:
    if not dfs_leaves:
        return
    dfs_ids = [leaf.page_id for leaf in dfs_leaves]
    dfs_set = set(dfs_ids)
    chain_ids: list[int] = []
    seen: set[int] = set()
    node = dfs_leaves[0]
    prev_key: Optional[int] = None
    while True:
        if node.page_id in seen:
            _note(report.errors, "leaf chain contains a cycle")
            break
        seen.add(node.page_id)
        if node.page_id in dfs_set:
            chain_ids.append(node.page_id)
        elif node.count == 0:
            # Emptied-by-deletion leaves stay chained but are unlinked from
            # their parents (Appendix C's lightweight deletion); harmless.
            _note(
                report.warnings,
                f"unlinked empty leaf {node.page_id} remains in the chain",
            )
        else:
            _note(
                report.errors,
                f"leaf {node.page_id} is chained but unreachable from the root",
            )
        for entry in node.entries:
            if prev_key is not None and entry.key < prev_key:
                _note(
                    report.errors,
                    f"leaf chain key order violated at page {node.page_id}",
                )
                break
            prev_key = entry.key
        if node.next_leaf == -1:
            break
        if not 0 <= node.next_leaf < btree.pagefile.num_pages:
            _note(report.errors, f"leaf {node.page_id} has bad next_leaf pointer")
            break
        node = read(node.next_leaf)
        if node is None:
            break
    if chain_ids != dfs_ids:
        _note(
            report.errors,
            "leaf chain order disagrees with the tree's left-to-right leaf order",
        )


# -------------------------------------------------------------------- RAF


def _verify_raf(
    tree: "SPBTree",
    report: VerifyReport,
    leaf_entries: list,
    check_objects: bool,
) -> None:
    raf = tree.raf
    assert raf is not None
    page_size = raf.pagefile.page_size
    for page_id in raf.pagefile.verify_all():
        if page_id * page_size < raf._end_offset:
            _note(report.errors, f"RAF page {page_id} fails checksum")

    # Record framing walk, through the buffer pool: the walk shows up in
    # the pool's hit/miss tallies (the CLI surfaces the rate).
    offsets: list[int] = []
    objects: dict[int, Any] = {}
    try:
        for offset, _, payload in raf.walk():
            offsets.append(offset)
            if payload is None:
                if not raf.is_deleted(offset):
                    _note(
                        report.errors,
                        f"record at offset {offset} overlaps a corrupt page",
                    )
                continue
            try:
                objects[offset] = raf.serializer.deserialize(payload)
            except Exception as exc:
                _note(
                    report.errors,
                    f"record at offset {offset} fails to deserialize: "
                    f"{type(exc).__name__}",
                )
    except FramingError as exc:
        if exc.claimed is None:
            _note(
                report.errors,
                f"record header at offset {exc.offset} overlaps a corrupt page; "
                f"remaining records cannot be framed",
            )
        else:
            _note(
                report.errors,
                f"record at offset {exc.offset} claims {exc.claimed} payload "
                f"bytes, beyond end of file",
            )
    report.raf_records = len(offsets)

    all_offsets = set(offsets)
    for tombstone in sorted(raf._deleted):
        if tombstone not in all_offsets:
            _note(
                report.errors,
                f"tombstone for offset {tombstone} matches no record",
            )
    live = all_offsets - raf._deleted

    # Leaf entry ↔ record bijection, plus per-object key consistency.
    keys: dict[int, int] = {}
    if check_objects:
        ptrs = list(dict.fromkeys(e.ptr for e in leaf_entries if e.ptr in objects))
        for at in range(0, len(ptrs), _KEY_CHUNK):
            chunk = ptrs[at : at + _KEY_CHUNK]
            keys.update(zip(chunk, tree.keys_of([objects[p] for p in chunk])))
    referenced: set[int] = set()
    ordered_ptrs: list[int] = []
    for entry in leaf_entries:
        ordered_ptrs.append(entry.ptr)
        if entry.ptr not in all_offsets:
            _note(
                report.errors,
                f"leaf entry (key={entry.key}) points at offset {entry.ptr}, "
                f"which is not a record boundary",
            )
            continue
        # The read path trusts this one: it reads a leaf entry's record
        # without asking the tombstone set.
        if entry.ptr in raf._deleted:
            _note(
                report.errors,
                f"leaf entry (key={entry.key}) references tombstoned record "
                f"at offset {entry.ptr}",
            )
        if entry.ptr in referenced:
            _note(
                report.errors,
                f"record at offset {entry.ptr} referenced by multiple leaf entries",
            )
        referenced.add(entry.ptr)
        if entry.ptr in keys:
            expected = keys[entry.ptr]
            if expected != entry.key:
                _note(
                    report.errors,
                    f"object at offset {entry.ptr} maps to SFC key {expected} "
                    f"but its leaf entry says {entry.key}",
                )
    for orphan in sorted(live - referenced):
        _note(
            report.errors,
            f"live record at offset {orphan} is not referenced by any leaf entry",
        )
    report.raf_sfc_ordered = all(
        ordered_ptrs[i] <= ordered_ptrs[i + 1] for i in range(len(ordered_ptrs) - 1)
    )

    expected_live = len(live)
    for label, value in (
        ("RAF object_count", raf.object_count),
        ("tree object_count", tree.object_count),
    ):
        if value != expected_live:
            _note(
                report.errors,
                f"{label} is {value} but {expected_live} live records exist",
            )


# -------------------------------------------------------------------- WAL


def _verify_wal(tree: "SPBTree", report: VerifyReport, leaf_entries: list) -> None:
    """Audit agreement between the attached WAL and the in-memory tree.

    The tree's state must equal *header base + logged mutations*: the
    object count and next id follow arithmetically, and every net-inserted
    (key, bytes) pair must exist as a live, byte-identical record behind a
    leaf entry at that key.  Deletes of base-generation objects cannot be
    attributed without the base snapshot, so only net inserts are matched.
    """
    from repro.storage.wal import OP_INSERT

    wal = tree.wal
    assert wal is not None
    if wal.header is None:
        _note(report.warnings, "WAL attached but has no header (never started)")
        return
    records = wal.records()
    inserts = sum(1 for r in records if r.op == OP_INSERT)
    deletes = len(records) - inserts
    expected_count = wal.header.base_object_count + inserts - deletes
    if tree.object_count != expected_count:
        _note(
            report.errors,
            f"WAL implies {expected_count} objects (base "
            f"{wal.header.base_object_count} + {inserts} inserts - "
            f"{deletes} deletes) but tree holds {tree.object_count}",
        )
    expected_next = wal.header.base_next_id + inserts
    if tree._next_id != expected_next:
        _note(
            report.errors,
            f"WAL implies next id {expected_next} but tree records "
            f"{tree._next_id}",
        )
    net: list[tuple[int, bytes]] = []
    for record in records:
        if record.op == OP_INSERT:
            net.append((record.key, record.payload))
        else:
            pair = (record.key, record.payload)
            if pair in net:
                net.remove(pair)
            # else: the delete hit a base-generation object; nothing to match
    raf = tree.raf
    assert raf is not None
    by_key: dict[int, list[int]] = {}
    for entry in leaf_entries:
        by_key.setdefault(entry.key, []).append(entry.ptr)
    for key, payload in net:
        found = False
        for ptr in by_key.get(key, ()):
            if raf.is_deleted(ptr):
                continue
            try:
                _, stored = raf.read(ptr)
            except Exception:
                continue  # already reported by the RAF walk
            if raf.serializer.serialize(stored) == payload:
                found = True
                break
        if not found:
            _note(
                report.errors,
                f"WAL-logged insert (key={key}, {len(payload)} bytes) has no "
                f"matching live record in the tree",
            )
