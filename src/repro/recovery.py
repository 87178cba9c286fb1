"""Salvage a damaged SPB-tree index directory (graceful degradation).

``load_tree`` is strict: a corrupt catalog, a digest mismatch, or a torn
page makes it refuse the index.  :func:`salvage_tree` is the other half of
the durability story — it rebuilds a *consistent* tree from whatever RAF
records survive, instead of leaving the operator with a stack trace and no
data.  The RAF is the source of truth (it holds the actual objects; the
B+-tree and catalog are derived structures), so salvage:

1. reads the catalog with the strict loader's reader and keeps every field
   of the JSON type it should have — any recoverable field (serializer,
   page size, pivot table, curve, tombstones) improves recovery, but none
   is required except a way to deserialize objects (pass ``serializer=``
   when the catalog is gone); a field of the wrong type counts as absent;
2. loads the page files the way ``load_tree`` does, restores the RAF with
   the catalog's tail authoritative, and walks its records with
   :meth:`RandomAccessFile.walk` — the walk ``scan`` and ``verify`` share —
   losing the records whose pages fail their checksums;
3. if a corrupt page destroys record *framing* (a header is unreadable, so
   later record boundaries are unknown), mines surviving B+-tree leaf
   pages for their RAF pointers — each leaf entry frames one record
   independently of its neighbours;
4. if a live write-ahead log is present and its base generation matches
   the recovered catalog (or the generation is unknowable), replays its
   logged inserts and deletes on top of the recovered base state, so
   mutations committed after the last checkpoint survive salvage too;
5. bulk-loads a fresh SPB-tree over the recovered objects, reusing the
   catalog's pivot table when available (so query results match a fresh
   rebuild exactly) or re-selecting pivots otherwise.

Returns ``(tree, SalvageReport)``; the report counts what was recovered,
what was provably lost, and which fallbacks were taken.
"""

from __future__ import annotations

import base64
import os
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.persist import (
    _SERIALIZERS,
    CatalogError,
    _generation_files,
    _load_pages,
    _read_catalog,
    _restore_raf,
    _wal_extends,
)
from repro.core.spbtree import SPBTree, _CURVES
from repro.distance.base import Metric
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, PageFile
from repro.storage.raf import FramingError, RandomAccessFile
from repro.storage.serializers import Serializer

#: The catalog fields salvage reads and the JSON types each may have; a
#: nested table is an object whose own fields are checked the same way.
_FIELDS: dict = {
    **dict.fromkeys(("metric_name", "serializer", "curve"), (str,)),
    **dict.fromkeys(("page_size", "cache_pages", "generation"), (int,)),
    **dict.fromkeys(("d_plus", "delta"), (int, float)),
    "checksums": (bool,), "pivots": (list,),
    "files": {"btree": (str,), "raf": (str,)},
    "raf": {"end_offset": (int,), "tail": (str,), "deleted": (list,)},
}  # fmt: skip


@dataclass
class SalvageReport:
    """What :func:`salvage_tree` managed to recover, and how."""

    records_recovered: int = 0
    records_lost: int = 0
    bad_raf_pages: int = 0
    used_catalog: bool = False
    used_pivots: bool = False
    used_btree: bool = False
    used_wal: bool = False
    notes: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"salvage: {self.records_recovered} records recovered, "
            f"{self.records_lost} lost, {self.bad_raf_pages} corrupt RAF pages",
            f"  catalog usable : {'yes' if self.used_catalog else 'no'}",
            f"  pivots reused  : {'yes' if self.used_pivots else 'no'}",
            f"  B+-tree mined  : {'yes' if self.used_btree else 'no'}",
            f"  WAL replayed   : {'yes' if self.used_wal else 'no'}",
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def salvage_tree(
    directory: str,
    metric: Metric,
    serializer: Optional[Serializer] = None,
    page_size: Optional[int] = None,
    checksums: Optional[bool] = None,
    num_pivots: int = 5,
) -> tuple[SPBTree, SalvageReport]:
    """Rebuild a consistent SPB-tree from a damaged index directory.

    ``metric`` is required as always (it is code, not data).  ``serializer``,
    ``page_size``, and ``checksums`` are only needed when the catalog is too
    damaged to recover them.  Raises ``ValueError`` when nothing at all can
    be recovered (no readable records *and* no pivot table to seed an empty
    tree), never for mere partial damage.
    """
    report = SalvageReport()
    try:
        meta = _typed(_read_catalog(directory), _FIELDS, report)
        report.used_catalog = True
    except CatalogError as exc:
        report.notes.append(f"catalog unusable: {exc}")
        meta = {}
    if meta.get("metric_name", metric.name) != metric.name:
        raise ValueError(
            f"index was built with metric {meta['metric_name']!r}, "
            f"got {metric.name!r}"
        )
    serializer = _pick_serializer(meta, serializer, report)
    page_size = meta.get("page_size") or page_size or DEFAULT_PAGE_SIZE
    if checksums is None:
        checksums = meta.get("checksums", False)
    pivots = _recover_pivots(meta, serializer, report)
    raf = RandomAccessFile(serializer, page_size=page_size, checksums=checksums)
    padded = _restore_damaged_raf(raf, directory, meta, report)
    objects, lost, framing_broken = _sequential_pass(raf, padded, report)

    template: Optional[SPBTree] = None
    if pivots and meta.get("d_plus"):
        curve = meta.get("curve")
        if curve not in _CURVES:
            report.notes.append(
                f"unknown curve {curve!r} in catalog; rebuilding with 'hilbert'"
            )
            curve = "hilbert"
        template = SPBTree(
            metric,
            pivots,
            float(meta["d_plus"]),
            curve=curve,
            delta=meta.get("delta"),
            page_size=page_size,
            cache_pages=meta.get("cache_pages") or 32,
            serializer=serializer,
            checksums=checksums,
        )
        report.used_pivots = True

    if framing_broken and template is not None:
        failed = _mine_btree_pointers(directory, meta, template, raf, objects, report)
        if failed is not None:
            # leaf entries enumerate every live record, so pointers that
            # could not be recovered are a tighter loss count than what the
            # broken sequential pass managed to attribute
            lost = max(lost, sum(not raf.is_deleted(ptr) for ptr in failed))
    elif framing_broken:
        report.notes.append(
            "record framing broken and no pivot table recovered; "
            "B+-tree mining skipped"
        )

    live = [obj for off, obj in sorted(objects.items()) if not raf.is_deleted(off)]
    live = _apply_wal(directory, meta, serializer, live, report)
    report.records_recovered = len(live)
    report.records_lost = lost

    if template is not None:
        if live:
            template._bulk_load(live)
        return template, report
    if not live:
        raise ValueError(
            "salvage recovered no records and no pivot table; nothing to rebuild"
        )
    tree = SPBTree.build(
        live,
        metric,
        num_pivots=min(num_pivots, len(live)),
        page_size=page_size,
        checksums=checksums,
    )
    report.notes.append("pivot table re-selected from recovered objects")
    return tree, report


# ------------------------------------------------------------ the catalog


def _typed(meta: dict, fields: dict, report: SalvageReport, prefix: str = "") -> dict:
    """The ``fields`` of ``meta`` that have the JSON type salvage expects;
    one of another type is treated as absent, with a note."""
    usable: dict = {}
    for key, kinds in fields.items():
        if key not in meta:
            continue
        value = meta[key]
        nested = isinstance(kinds, dict)
        if type(value) in ((dict,) if nested else kinds):
            usable[key] = (
                _typed(value, kinds, report, f"{prefix}{key}.") if nested else value
            )
        else:
            report.notes.append(
                f"catalog field {prefix + key!r} is a {type(value).__name__}; "
                f"treated as absent"
            )
    return usable


def _pick_serializer(
    meta: dict, fallback: Optional[Serializer], report: SalvageReport
) -> Serializer:
    name = meta.get("serializer")
    if name in _SERIALIZERS:
        return _SERIALIZERS[name]()
    if fallback is not None:
        report.notes.append("serializer taken from caller (catalog had none)")
        return fallback
    raise ValueError(
        "cannot determine the object serializer: catalog is unusable and "
        "no serializer= was supplied"
    )


def _recover_pivots(
    meta: dict, serializer: Serializer, report: SalvageReport
) -> Optional[list]:
    blobs = meta.get("pivots")
    if not blobs:
        return None
    try:
        return [serializer.deserialize(base64.b64decode(b)) for b in blobs]
    except Exception as exc:
        report.notes.append(f"pivot table undecodable: {type(exc).__name__}")
        return None


# ------------------------------------------------------------- page files


def _find_page_file(
    directory: str, kind: str, meta: dict, report: SalvageReport
) -> Optional[str]:
    """Locate a page file: catalog reference, then newest generation."""
    name = meta.get("files", {}).get(kind)
    candidates = [name] if name else []
    candidates += [n for _, k, n in _generation_files(directory) if k == kind]
    for candidate in candidates:
        path = os.path.join(directory, candidate)
        if os.path.exists(path):
            if name and candidate != name:
                report.notes.append(
                    f"{kind} page file from catalog missing; using {candidate}"
                )
            return path
    return None


def _load_noting(pagefile: PageFile, path: str, report: SalvageReport) -> None:
    if trailing := _load_pages(pagefile, path):
        report.notes.append(
            f"{os.path.basename(path)} has {trailing} trailing bytes "
            f"(truncated write); ignored"
        )


def _restore_damaged_raf(
    raf: RandomAccessFile, directory: str, meta: dict, report: SalvageReport
) -> bool:
    """Load the RAF's page file and restore its state from the catalog with
    the helper ``load_tree`` uses, but ``tail_flushed = 0``: the catalog's
    tail is authoritative for its generation — the disk tail page may be
    partial (batch-mode appends flush it lazily) or stale (a post-checkpoint
    write reused it).  Returns whether the end is a guess: with no recorded
    end offset the walk runs to the end of the last page, and the catalog's
    tail, which ends at that offset, has no known place."""
    path = _find_page_file(directory, "raf", meta, report)
    if path is None:
        report.notes.append("no RAF page file found")
    else:
        _load_noting(raf.pagefile, path, report)
    report.bad_raf_pages = len(raf.pagefile.verify_all())
    state = meta.get("raf", {})
    data_len = raf.pagefile.size_in_bytes
    end = state.get("end_offset")
    if end is not None and end < 0:
        report.notes.append(f"implausible end_offset {end!r} in catalog; ignored")
    padded = end is None or end < 0
    end = data_len if padded else end
    tail = b""
    if not padded and state.get("tail"):
        try:
            tail = base64.b64decode(state["tail"])
        except ValueError:
            report.notes.append("catalog tail bytes undecodable")
    if not 0 <= end - len(tail) <= data_len:
        tail = b""  # the catalog's tail cannot sit where it says it ends
    if end > data_len + len(tail):
        report.notes.append(
            f"{end - data_len} trailing bytes unrecoverable; "
            f"scanning what is present"
        )
        end = data_len
    deleted = [offset for offset in state.get("deleted", []) if type(offset) is int]
    _restore_raf(raf, {
        "end_offset": end, "tail": state["tail"] if tail else "", "tail_flushed": 0,
        "tail_page_id": None, "object_count": 0, "deleted": deleted,
    })  # fmt: skip
    return padded


# -------------------------------------------------------------- WAL replay


def _apply_wal(
    directory: str,
    meta: dict,
    serializer: Serializer,
    live: list,
    report: SalvageReport,
) -> list:
    """Replay a surviving write-ahead log on top of the recovered base state.

    The catalog (and therefore the walked RAF state) reflects the last
    checkpoint; mutations logged after it exist only in the WAL.  Inserts
    append their payload objects; deletes remove the first byte-identical
    recovered object — a list, not the tree's keyed replay, because salvage
    may re-select pivots and then the logged keys mean nothing.  A WAL
    that does not extend the recovered generation is ignored.
    """
    from repro.storage.wal import OP_INSERT, WAL_FILE, scan_wal

    path = os.path.join(directory, WAL_FILE)
    if not os.path.exists(path):
        return live
    header, records, _, torn = scan_wal(path)
    if header is None:
        report.notes.append("WAL present but has no readable header; ignored")
        return live
    generation = meta.get("generation")
    if not _wal_extends(header, generation):
        report.notes.append(
            f"WAL base generation {header.base_generation} does not match "
            f"catalog generation {generation}; WAL ignored"
        )
        return live
    if generation is None:
        report.notes.append(
            "catalog generation unrecoverable; assuming the WAL extends the "
            "recovered state"
        )
    if torn:
        report.notes.append("WAL tail torn; replaying the valid prefix")
    live = list(live)
    payloads = [serializer.serialize(obj) for obj in live]
    applied = skipped = 0
    for record in records:
        if record.op == OP_INSERT:
            try:
                obj = serializer.deserialize(record.payload)
            except Exception as exc:
                report.notes.append(
                    f"undecodable WAL insert skipped: {type(exc).__name__}"
                )
                skipped += 1
                continue
            live.append(obj)
            payloads.append(record.payload)
            applied += 1
        else:
            try:
                idx = payloads.index(record.payload)
            except ValueError:
                report.notes.append(
                    "WAL delete targets an unrecovered object; skipped"
                )
                skipped += 1
                continue
            del live[idx]
            del payloads[idx]
            applied += 1
    if applied or not skipped:
        report.used_wal = True
    if applied:
        report.notes.append(
            f"{applied} WAL mutations replayed on top of the recovered state"
        )
    return live


# ------------------------------------------------------------ record walk


def _sequential_pass(
    raf: RandomAccessFile, padded: bool, report: SalvageReport
) -> tuple[dict[int, Any], int, bool]:
    """Decode every record the walk frames; returns (objects by offset,
    records lost, whether framing broke).  A header the end of data cuts
    off ends the pass without breaking it: nothing follows.

    ``padded``: the catalog recorded no end, so the walk ran to the end of
    the last page, whose zero padding frames as empty id-0 records.
    """
    walked: list[tuple[int, int, Optional[bytes]]] = []
    broken: Optional[FramingError] = None
    try:
        walked.extend(raf.walk())
    except FramingError as exc:
        if exc.page is not None or exc.claimed is not None:
            broken = exc
    while padded and walked and walked[-1][1:] == (0, b""):
        walked.pop()
    objects: dict[int, Any] = {}
    lost = 0
    for offset, _, payload in walked:
        if raf.is_deleted(offset):
            continue
        try:
            if payload is not None:  # None: the record is on a corrupt page
                objects[offset] = raf.serializer.deserialize(payload)
                continue
        except Exception:  # a serializer rejects damaged bytes its own way
            pass
        lost += 1
    if broken is not None:
        report.notes.append(
            f"record framing lost at offset {broken.offset} (corrupt header page)"
            if broken.claimed is None
            else f"record at offset {broken.offset} claims {broken.claimed} "
            f"bytes beyond end of data; framing lost"
        )
    return objects, lost, broken is not None


def _mine_btree_pointers(
    directory: str,
    meta: dict,
    template: SPBTree,
    raf: RandomAccessFile,
    objects: dict[int, Any],
    report: SalvageReport,
) -> Optional[set[int]]:
    """Recover record offsets from surviving B+-tree leaf pages.

    Each leaf entry's ptr frames one record independently, so leaves rescue
    records beyond the point where sequential framing broke.  Only pages
    that pass their checksum are decoded; each pointer's record is read
    with :meth:`RandomAccessFile.read_object`.  Returns the set of leaf
    pointers whose records could not be recovered, or ``None`` when no
    B+-tree pages were available to mine.
    """
    btree_path = _find_page_file(directory, "btree", meta, report)
    if btree_path is None:
        report.notes.append("no B+-tree page file found; mining skipped")
        return None
    pages = PageFile(raf.pagefile.page_size, template.btree.pagefile.checksums)
    _load_noting(pages, btree_path, report)
    codec = template.btree.codec
    mined = 0
    failed: set[int] = set()
    for pid in range(pages.num_pages):
        if not pages.verify_page(pid):
            continue
        try:
            node = codec.decode(pages.read_page(pid), pid)
        except Exception:
            continue
        if not node.is_leaf or not -1 <= node.next_leaf < pages.num_pages:
            continue
        for entry in node.entries:
            if entry.ptr in objects:
                continue
            try:
                objects[entry.ptr] = raf.read_object(entry.ptr)
                mined += 1
            except Exception:
                failed.add(entry.ptr)
    failed -= objects.keys()
    if mined:
        report.used_btree = True
        report.notes.append(
            f"{mined} records recovered via B+-tree leaf pointers"
        )
    return failed
