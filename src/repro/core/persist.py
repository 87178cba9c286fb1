"""Save/load SPB-trees to a directory on disk, crash-consistently.

The SPB-tree is a disk-based index, and its two page files round-trip
naturally; this module adds the catalog metadata (pivot table, curve
parameters, B+-tree and RAF state) so that a tree can be reopened in a new
process::

    save_tree(tree, "index_dir")
    tree = load_tree("index_dir", metric)     # same metric the tree used

The metric itself is code, not data — like any DBMS with user-defined
types, the caller must supply the same distance function when reopening.
A fingerprint of the metric's name is stored and checked to catch obvious
mismatches.

Durability protocol (format_version 2).  A save must never leave the
directory in a state where neither the old nor the new index loads, even if
the process dies between any two writes.  ``save_tree`` therefore:

1. dumps both page files under *generation-numbered* names
   (``btree.<gen>.pages``, ``raf.<gen>.pages``), each written to a ``.tmp``
   file, ``fsync``'d, then atomically renamed into place, recording a
   whole-file SHA-256 digest of each;
2. writes the catalog (``spbtree.json``) the same way — its rename is the
   commit point: before it, the old catalog still references the old
   generation's files (untouched); after it, the new generation is live;
3. fsyncs the directory and only then deletes the previous generation.

``load_tree`` verifies the recorded digests before trusting the page files
(raising :class:`CatalogError` on mismatch, as it does for a catalog of any
other ``format_version``).  A ``FaultInjector`` may be
passed to ``save_tree`` to place a simulated crash at any page-write or
rename boundary; the crash-consistency tests exercise every one.

Incremental durability.  A directory may also hold a write-ahead log
(``wal.log``, see :mod:`repro.storage.wal`) of mutations made since the
catalog's generation was committed.  ``load_tree`` replays a live WAL —
one whose header binds it to the loaded generation — on top of the loaded
state; a stale WAL (its base generation predates the catalog's, because a
checkpoint crashed between the catalog rename and the log truncation) is
ignored, since its records are already folded in.  :func:`open_tree` is
the writing-process entry point: load + replay + attach the WAL so further
mutations keep logging.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
from typing import Any, Optional

from repro.core.spbtree import SPBTree
from repro.distance.base import Metric
from repro.storage.faults import FaultInjector
from repro.storage.pagefile import PageFile
from repro.storage.raf import RandomAccessFile
from repro.storage.serializers import (
    BytesSerializer,
    PickleSerializer,
    Serializer,
    StringSerializer,
    UInt8VectorSerializer,
    VectorSerializer,
)
from repro.storage.wal import WAL_FILE, WriteAheadLog, scan_wal

FORMAT_VERSION = 2

_META_FILE = "spbtree.json"
_GEN_FILE_RE = re.compile(r"^(btree|raf)\.(\d+)\.pages$")

_SERIALIZERS: dict[str, type[Serializer]] = {
    "string": StringSerializer,
    "vector-f64": VectorSerializer,
    "vector-u8": UInt8VectorSerializer,
    "bytes": BytesSerializer,
    "pickle": PickleSerializer,
}


class CatalogError(ValueError):
    """The on-disk catalog or its page files are unusable (corrupt JSON,
    missing files, digest mismatch, unsupported version)."""


def save_tree(
    tree: SPBTree,
    directory: str,
    faults: Optional[FaultInjector] = None,
) -> int:
    """Persist ``tree`` into ``directory`` (created if needed), atomically.

    Either the save completes — the catalog's rename commits the new
    generation — or the previously saved index remains fully loadable.
    ``faults``, if given, marks every page write and rename as a crash
    boundary via :meth:`FaultInjector.checkpoint`.  Returns the committed
    generation number (``SPBTree.checkpoint`` binds the WAL to it).
    """
    if tree.raf is None:
        raise ValueError("cannot save an empty tree")
    os.makedirs(directory, exist_ok=True)
    _remove_stale_tmp(directory)
    generation = _next_generation(directory)
    btree_file = f"btree.{generation}.pages"
    raf_file = f"raf.{generation}.pages"
    btree_digest = _dump_pages(
        tree.btree.pagefile, directory, btree_file, faults
    )
    raf_digest = _dump_pages(tree.raf.pagefile, directory, raf_file, faults)
    serializer = tree.raf.serializer
    meta = {
        "format_version": FORMAT_VERSION,
        "generation": generation,
        "checksums": tree._checksums,
        "files": {"btree": btree_file, "raf": raf_file},
        "digests": {"btree": btree_digest, "raf": raf_digest},
        "metric_name": tree.distance.metric.name,
        "serializer": serializer.name,
        "curve": tree.curve.name,
        "page_size": tree.btree.pagefile.page_size,
        "cache_pages": tree._cache_pages,
        "d_plus": tree.space.d_plus,
        "delta": tree.space.delta,
        "pivots": [
            base64.b64encode(serializer.serialize(p)).decode("ascii")
            for p in tree.space.pivots
        ],
        "object_count": tree.object_count,
        "next_id": tree._next_id,
        "btree": {
            "root_page": tree.btree.root_page,
            "height": tree.btree.height,
            "entry_count": tree.btree.entry_count,
            "leaf_page_count": tree.btree.leaf_page_count,
        },
        "raf": {
            "end_offset": tree.raf._end_offset,
            "tail_page_id": tree.raf._tail_page_id,
            "tail": base64.b64encode(bytes(tree.raf._tail)).decode("ascii"),
            "tail_flushed": tree.raf._tail_flushed,
            "object_count": tree.raf.object_count,
            "deleted": sorted(tree.raf._deleted),
        },
    }
    # Commit point: once the catalog rename lands, the new generation is live.
    _atomic_write(
        directory, _META_FILE, json.dumps(meta).encode("utf-8"), faults
    )
    _fsync_dir(directory)
    _cleanup_old_generations(directory, keep={btree_file, raf_file}, faults=faults)
    return generation


def load_tree(
    directory: str, metric: Metric, replay_wal: bool = True
) -> SPBTree:
    """Reopen a tree saved with :func:`save_tree`.

    ``metric`` must be the same distance function the tree was built with;
    its name is checked against the stored fingerprint.  Page-file digests
    are verified before any page is trusted; a stale or damaged catalog, or
    one of another format version, raises :class:`CatalogError`.

    When the directory holds a live WAL — header bound to the loaded
    generation — its records are replayed on top of the loaded state
    (``replay_wal=False`` skips this, yielding the bare generation).  The
    returned tree is read-only durable: call :func:`open_tree` instead to
    continue logging mutations.
    """
    meta = _read_catalog(directory)
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise CatalogError(f"unsupported format version {version}")
    if meta["metric_name"] != metric.name:
        raise ValueError(
            f"index was built with metric {meta['metric_name']!r}, "
            f"got {metric.name!r}"
        )
    if meta["serializer"] not in _SERIALIZERS:
        raise CatalogError(f"unknown serializer {meta['serializer']!r}")
    serializer = _SERIALIZERS[meta["serializer"]]()
    pivots = [
        serializer.deserialize(base64.b64decode(blob))
        for blob in meta["pivots"]
    ]
    curve = meta["curve"]
    checksums = bool(meta.get("checksums", False))
    btree_path = os.path.join(directory, meta["files"]["btree"])
    raf_path = os.path.join(directory, meta["files"]["raf"])
    _check_digest(btree_path, meta["digests"]["btree"])
    _check_digest(raf_path, meta["digests"]["raf"])
    # SPBTree validates the curve name itself, raising ValueError on an
    # unrecognized one — no silent fallback to a different curve.
    tree = SPBTree(
        metric,
        pivots,
        meta["d_plus"],
        curve=curve,
        delta=meta["delta"],
        page_size=meta["page_size"],
        cache_pages=meta["cache_pages"],
        serializer=serializer,
        checksums=checksums,
    )
    _load_aligned(tree.btree.pagefile, btree_path)
    tree.btree.root_page = meta["btree"]["root_page"]
    tree.btree.height = meta["btree"]["height"]
    tree.btree.entry_count = meta["btree"]["entry_count"]
    tree.btree.leaf_page_count = meta["btree"]["leaf_page_count"]

    raf = RandomAccessFile(
        serializer,
        page_size=meta["page_size"],
        cache_pages=meta["cache_pages"],
        checksums=checksums,
    )
    _load_aligned(raf.pagefile, raf_path)
    _restore_raf(raf, meta["raf"])
    tree.raf = raf

    tree.object_count = meta["object_count"]
    tree._next_id = meta["next_id"]
    tree._generation = int(meta.get("generation", 0))
    if replay_wal:
        _replay_wal(tree, directory)
    tree.reset_counters()
    return tree


def _restore_raf(raf: RandomAccessFile, state: dict) -> None:
    """Put a RAF whose pages are loaded back into the state the catalog's
    ``raf`` section records: end of data, the tail, tombstones; the frame
    width is measured off the records themselves."""
    raf._end_offset = state["end_offset"]
    raf._tail_page_id = state["tail_page_id"]
    raf._tail = bytearray(base64.b64decode(state["tail"]))
    # Catalogs predating tail_flushed never mixed flush modes: the tail is
    # fully on its disk page when it has one, wholly in memory otherwise.
    raf._tail_flushed = state.get(
        "tail_flushed",
        len(raf._tail) if raf._tail_page_id is not None else 0,
    )
    raf.object_count = state["object_count"]
    raf._deleted = set(state["deleted"])
    raf.record_width = raf.measure_width()


def _wal_extends(header: Any, generation: Optional[int]) -> bool:
    """A WAL extends the generation its header names and no other (one
    bound elsewhere is stale: a checkpoint already folded it in, replaying
    would double-apply); an unknowable ``generation=None`` accepts any."""
    return generation is None or header.base_generation == generation


def _replay_wal(tree: SPBTree, directory: str) -> None:
    """Apply a live WAL's records to a freshly loaded tree."""
    wal_path = os.path.join(directory, WAL_FILE)
    if not os.path.exists(wal_path):
        return
    header, records, _, _ = scan_wal(wal_path)
    if header is None or not _wal_extends(header, tree._generation):
        return
    for record in records:
        tree._apply_wal_record(record)


def open_tree(
    directory: str,
    metric: Metric,
    wal_fsync: bool = True,
    faults: Optional[FaultInjector] = None,
) -> SPBTree:
    """Reopen a tree *for writing*: load, replay, and attach the WAL.

    The returned tree logs every subsequent ``insert``/``delete`` to
    ``<directory>/wal.log`` before applying it, and ``tree.checkpoint()``
    folds the log into a new generation.  ``faults`` is threaded into the
    WAL so tests can crash at its append/truncate boundaries.
    """
    tree = load_tree(directory, metric)
    wal = WriteAheadLog(
        os.path.join(directory, WAL_FILE), fsync=wal_fsync, faults=faults
    )
    tree.begin_logging(wal)
    return tree


# ------------------------------------------------------------ catalog I/O


def _read_catalog(directory: str, name: str = _META_FILE) -> dict:
    """The JSON object in ``directory/name`` (the index catalog unless
    ``name`` says otherwise); :class:`CatalogError` when it is unreadable,
    not JSON, or not an object."""
    path = os.path.join(directory, name)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {path!r}: {exc}") from exc
    try:
        meta = json.loads(raw)
    except ValueError as exc:
        raise CatalogError(f"catalog {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise CatalogError(f"catalog {path!r} is not a JSON object")
    return meta


def _generation_files(directory: str) -> list[tuple[int, str, str]]:
    """``(generation, kind, file name)`` of every page file in ``directory``
    (``kind`` is ``"btree"`` or ``"raf"``), newest generation first."""
    try:
        matches = filter(None, map(_GEN_FILE_RE.match, os.listdir(directory)))
    except OSError:
        return []
    return sorted(((int(m[2]), m[1], m[0]) for m in matches), reverse=True)


def _next_generation(directory: str) -> int:
    """One past the newest generation present (catalog first, files second)."""
    latest = 0
    try:
        latest = int(_read_catalog(directory).get("generation", 0))
    except CatalogError:
        pass  # corrupt or absent catalog: fall back to scanning file names
    newest = max((gen for gen, _, _ in _generation_files(directory)), default=0)
    return max(latest, newest) + 1


def _check_digest(path: str, expected: str) -> None:
    try:
        actual = _file_digest(path)
    except OSError as exc:
        raise CatalogError(f"cannot read page file {path!r}: {exc}") from exc
    if actual != expected:
        raise CatalogError(
            f"digest mismatch for {path!r}: catalog records {expected}, "
            f"file hashes to {actual}"
        )


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# --------------------------------------------------------------- file I/O


def _atomic_write(
    directory: str,
    name: str,
    payload: bytes,
    faults: Optional[FaultInjector],
) -> None:
    """Write ``payload`` to ``directory/name`` via tmp + fsync + rename."""
    tmp_path = os.path.join(directory, name + ".tmp")
    final_path = os.path.join(directory, name)
    with open(tmp_path, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    if faults is not None:
        faults.checkpoint(f"rename {name}")
    os.replace(tmp_path, final_path)


def _dump_pages(
    pagefile: Any,
    directory: str,
    name: str,
    faults: Optional[FaultInjector],
) -> str:
    """Dump a page file to ``directory/name`` atomically; returns its digest."""
    tmp_path = os.path.join(directory, name + ".tmp")
    digest = hashlib.sha256()
    with open(tmp_path, "wb") as fh:
        for page_id in range(pagefile.num_pages):
            if faults is not None:
                faults.checkpoint(f"page write {name}:{page_id}")
            slot = pagefile.raw_slot(page_id)
            fh.write(slot)
            digest.update(slot)
        fh.flush()
        os.fsync(fh.fileno())
    if faults is not None:
        faults.checkpoint(f"rename {name}")
    os.replace(tmp_path, os.path.join(directory, name))
    return digest.hexdigest()


def _load_pages(pagefile: PageFile, path: str) -> int:
    """Append every whole on-disk slot of ``path`` to ``pagefile`` (stored
    CRCs verbatim: a damaged page stays detectably damaged); returns the
    count of trailing bytes that make no whole slot."""
    with open(path, "rb") as fh:
        while len(chunk := fh.read(pagefile.slot_size)) == pagefile.slot_size:
            pagefile.append_raw_slot(chunk)
    return len(chunk)


def _load_aligned(pagefile: PageFile, path: str) -> None:
    if trailing := _load_pages(pagefile, path):
        raise CatalogError(
            f"{path} is not page aligned "
            f"(trailing {trailing} of {pagefile.slot_size} bytes)"
        )


def _fsync_dir(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platforms without directory fds; renames already issued
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _remove_stale_tmp(directory: str) -> None:
    """Drop ``.tmp`` leftovers from a previous crashed save."""
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        if name.endswith(".tmp") and (
            _GEN_FILE_RE.match(name[:-4]) or name == _META_FILE + ".tmp"
        ):
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass


def _cleanup_old_generations(
    directory: str,
    keep: set[str],
    faults: Optional[FaultInjector],
) -> None:
    """Best-effort removal of page files the new catalog no longer references.

    Runs after the commit point, so a crash mid-cleanup only leaves extra
    files behind.
    """
    for _, _, name in _generation_files(directory):
        if name not in keep:
            if faults is not None:
                faults.checkpoint(f"unlink {name}")
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass
