"""Salvage a damaged SPB-tree index directory (graceful degradation).

``load_tree`` is strict: a corrupt catalog, a digest mismatch, or a torn
page makes it refuse the index.  :func:`salvage_tree` is the other half of
the durability story — it rebuilds a *consistent* tree from whatever RAF
records survive, instead of leaving the operator with a stack trace and no
data.  The RAF is the source of truth (it holds the actual objects; the
B+-tree and catalog are derived structures), so salvage:

1. reads the catalog *tolerantly* — any recoverable field (serializer,
   page size, pivot table, curve, tombstones) improves recovery, but none
   is required except a way to deserialize objects (pass ``serializer=``
   when the catalog is gone);
2. scans the RAF sequentially, skipping records that overlap pages failing
   checksum verification;
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
import json
import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.spbtree import SPBTree, _CURVES
from repro.distance.base import Metric
from repro.storage.pagefile import CHECKSUM_SIZE, DEFAULT_PAGE_SIZE
from repro.storage.raf import _HEADER as _RAF_HEADER
from repro.storage.serializers import Serializer

from repro.core.persist import _GEN_FILE_RE, _META_FILE, _SERIALIZERS


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
    meta = _tolerant_catalog(directory, report)
    if meta.get("metric_name") is not None and meta["metric_name"] != metric.name:
        raise ValueError(
            f"index was built with metric {meta['metric_name']!r}, "
            f"got {metric.name!r}"
        )
    serializer = _pick_serializer(meta, serializer, report)
    page_size = int(meta.get("page_size") or page_size or DEFAULT_PAGE_SIZE)
    if checksums is None:
        checksums = bool(meta.get("checksums", False))
    pivots = _recover_pivots(meta, serializer, report)

    raf_path = _find_page_file(directory, "raf", meta, report)
    if raf_path is None:
        data, bad_pages = b"", set()
        report.notes.append("no RAF page file found")
    else:
        data, bad_pages = _read_page_file(raf_path, page_size, checksums, report)
    report.bad_raf_pages = len(bad_pages)
    end_offset = _plausible_end(meta, len(data), report)
    deleted = set(meta.get("raf", {}).get("deleted") or [])
    tail = _recover_tail(meta, report)
    if tail:
        # The catalog's copy of the in-memory tail occupies
        # [end_offset - len(tail), end_offset) and is authoritative for its
        # generation: the disk tail page may be partial (batch-mode appends
        # flush it lazily) or stale (a post-checkpoint write reused it), so
        # overlay the whole region rather than just grafting missing bytes.
        tail_origin = end_offset - len(tail)
        if 0 <= tail_origin <= len(data):
            data = data[:tail_origin] + tail
    if end_offset > len(data):
        report.notes.append(
            f"{end_offset - len(data)} trailing bytes unrecoverable; "
            f"scanning what is present"
        )
        end_offset = len(data)

    objects, lost, framing_broken = _sequential_scan(
        data, end_offset, page_size, bad_pages, serializer, report
    )

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
            cache_pages=int(meta.get("cache_pages") or 32),
            serializer=serializer,
            checksums=checksums,
        )
        report.used_pivots = True

    if framing_broken and template is not None:
        failed = _mine_btree_pointers(
            directory, meta, template, data, end_offset, page_size,
            bad_pages, serializer, objects, report,
        )
        if failed is not None:
            # leaf entries enumerate every live record, so pointers that
            # could not be recovered are a tighter loss count than what the
            # broken sequential scan managed to attribute
            lost = max(lost, len(failed - deleted))
    elif framing_broken:
        report.notes.append(
            "record framing broken and no pivot table recovered; "
            "B+-tree mining skipped"
        )

    live = [obj for offset, obj in sorted(objects.items()) if offset not in deleted]
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


# ------------------------------------------------------- tolerant readers


def _tolerant_catalog(directory: str, report: SalvageReport) -> dict:
    path = os.path.join(directory, _META_FILE)
    try:
        with open(path, "rb") as fh:
            meta = json.loads(fh.read())
        if not isinstance(meta, dict):
            raise ValueError("catalog is not a JSON object")
    except (OSError, ValueError) as exc:
        report.notes.append(f"catalog unusable: {exc}")
        return {}
    report.used_catalog = True
    return meta


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


def _recover_tail(meta: dict, report: SalvageReport) -> bytes:
    blob = meta.get("raf", {}).get("tail")
    if not blob:
        return b""
    try:
        return base64.b64decode(blob)
    except Exception:
        report.notes.append("catalog tail bytes undecodable")
        return b""


def _find_page_file(
    directory: str, kind: str, meta: dict, report: SalvageReport
) -> Optional[str]:
    """Locate a page file: catalog reference, then newest generation."""
    candidates: list[str] = []
    name = (meta.get("files") or {}).get(kind)
    if name:
        candidates.append(name)
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    generations = sorted(
        (
            (int(match.group(2)), match.group(0))
            for match in (_GEN_FILE_RE.match(n) for n in names)
            if match and match.group(1) == kind
        ),
        reverse=True,
    )
    candidates.extend(n for _, n in generations)
    for candidate in candidates:
        path = os.path.join(directory, candidate)
        if os.path.exists(path):
            if name and candidate != name:
                report.notes.append(
                    f"{kind} page file from catalog missing; using {candidate}"
                )
            return path
    return None


def _read_page_file(
    path: str, page_size: int, checksums: bool, report: SalvageReport
) -> tuple[bytes, set[int]]:
    """Read payload bytes and the set of checksum-failing page ids."""
    slot = page_size + (CHECKSUM_SIZE if checksums else 0)
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % slot:
        report.notes.append(
            f"{os.path.basename(path)} has {len(raw) % slot} trailing bytes "
            f"(truncated write); ignored"
        )
        raw = raw[: len(raw) - (len(raw) % slot)]
    pages: list[bytes] = []
    bad: set[int] = set()
    for pid in range(len(raw) // slot):
        chunk = raw[pid * slot : (pid + 1) * slot]
        payload = chunk[:page_size]
        if checksums:
            stored = int.from_bytes(chunk[page_size:], "little")
            if zlib.crc32(payload) != stored:
                bad.add(pid)
        pages.append(payload)
    return b"".join(pages), bad


def _plausible_end(meta: dict, data_len: int, report: SalvageReport) -> int:
    end = meta.get("raf", {}).get("end_offset")
    if isinstance(end, int) and end >= 0:
        return end  # may exceed data_len; the caller grafts the tail back
    if end is not None:
        report.notes.append(f"implausible end_offset {end!r} in catalog; ignored")
    return data_len


# -------------------------------------------------------------- WAL replay


def _apply_wal(
    directory: str,
    meta: dict,
    serializer: Serializer,
    live: list,
    report: SalvageReport,
) -> list:
    """Replay a surviving write-ahead log on top of the recovered base state.

    The catalog (and therefore the scanned RAF state) reflects the last
    checkpoint; mutations logged after it exist only in the WAL.  Inserts
    append their payload objects; deletes remove the first byte-identical
    recovered object.  A WAL whose base generation provably differs from
    the recovered catalog is ignored (it describes a different snapshot).
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
    if generation is not None and header.base_generation != int(generation):
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


# ------------------------------------------------------------ record scan


def _range_ok(start: int, end: int, page_size: int, bad: set[int]) -> bool:
    if start >= end:
        return True
    return not any(
        pid in bad for pid in range(start // page_size, (end - 1) // page_size + 1)
    )


def _try_record(
    data: bytes,
    offset: int,
    end_offset: int,
    page_size: int,
    bad: set[int],
    serializer: Serializer,
) -> tuple[Optional[Any], Optional[int]]:
    """Parse one record; returns (object or None, record length or None).

    ``(None, length)`` means the record frames but its payload is damaged;
    ``(None, None)`` means even the frame is unusable.
    """
    header_size = _RAF_HEADER.size
    if offset < 0 or offset + header_size > end_offset:
        return None, None
    if not _range_ok(offset, offset + header_size, page_size, bad):
        return None, None
    _, length = _RAF_HEADER.unpack(data[offset : offset + header_size])
    if offset + header_size + length > end_offset:
        return None, None
    if not _range_ok(offset + header_size, offset + header_size + length,
                     page_size, bad):
        return None, header_size + length
    try:
        obj = serializer.deserialize(data[offset + header_size :
                                          offset + header_size + length])
    except Exception:
        return None, header_size + length
    return obj, header_size + length


def _sequential_scan(
    data: bytes,
    end_offset: int,
    page_size: int,
    bad: set[int],
    serializer: Serializer,
    report: SalvageReport,
) -> tuple[dict[int, Any], int, bool]:
    """Walk records front to back; returns (objects by offset, lost, broken)."""
    objects: dict[int, Any] = {}
    lost = 0
    offset = 0
    header_size = _RAF_HEADER.size
    while offset + header_size <= end_offset:
        if not _range_ok(offset, offset + header_size, page_size, bad):
            report.notes.append(
                f"record framing lost at offset {offset} (corrupt header page)"
            )
            return objects, lost, True
        obj_id, length = _RAF_HEADER.unpack(data[offset : offset + header_size])
        if obj_id == 0 and length == 0 and not any(data[offset:end_offset]):
            break  # zero padding at the tail, not a record
        if offset + header_size + length > end_offset:
            report.notes.append(
                f"record at offset {offset} claims {length} bytes beyond "
                f"end of data; framing lost"
            )
            return objects, lost, True
        obj, _ = _try_record(data, offset, end_offset, page_size, bad, serializer)
        if obj is None:
            lost += 1
        else:
            objects[offset] = obj
        offset += header_size + length
    return objects, lost, False


def _mine_btree_pointers(
    directory: str,
    meta: dict,
    template: SPBTree,
    data: bytes,
    end_offset: int,
    page_size: int,
    bad: set[int],
    serializer: Serializer,
    objects: dict[int, Any],
    report: SalvageReport,
) -> Optional[set[int]]:
    """Recover record offsets from surviving B+-tree leaf pages.

    Each leaf entry's ptr frames one record independently, so leaves rescue
    records beyond the point where sequential framing broke.  Returns the
    set of leaf pointers whose records could not be recovered, or ``None``
    when no B+-tree pages were available to mine.
    """
    btree_path = _find_page_file(directory, "btree", meta, report)
    if btree_path is None:
        report.notes.append("no B+-tree page file found; mining skipped")
        return None
    checksums = template.btree.pagefile.checksums
    pages_blob, bad_btree = _read_page_file(
        btree_path, page_size, checksums, report
    )
    codec = template.btree.codec
    num_pages = len(pages_blob) // page_size
    mined = 0
    failed: set[int] = set()
    for pid in range(num_pages):
        if pid in bad_btree:
            continue
        try:
            node = codec.decode(pages_blob[pid * page_size : (pid + 1) * page_size], pid)
        except Exception:
            continue
        if not node.is_leaf or not (-1 <= node.next_leaf < num_pages):
            continue
        for entry in node.entries:
            if entry.ptr in objects:
                continue
            obj, _ = _try_record(
                data, entry.ptr, end_offset, page_size, bad, serializer
            )
            if obj is not None:
                objects[entry.ptr] = obj
                mined += 1
            else:
                failed.add(entry.ptr)
    failed -= objects.keys()
    if mined:
        report.used_btree = True
        report.notes.append(
            f"{mined} records recovered via B+-tree leaf pointers"
        )
    return failed
