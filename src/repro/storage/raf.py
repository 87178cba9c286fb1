"""The random access file (RAF) that stores the actual metric objects.

Per §3.3, the SPB-tree "utilizes an RAF to store objects separately" from the
index, "in ascending order of their SFC values", and each RAF entry records
(1) an object identifier ``id``, (2) the length ``len`` of the object, and
(3) the real object ``obj``.  Variable-length objects (words, DNA strings)
are why ``len`` is stored explicitly.

Records are packed contiguously and may span page boundaries; reads fetch
exactly the pages a record overlaps, through an LRU buffer pool, which is
what makes the clustering property of the space-filling curve pay off:
records that are close in SFC order share pages, so nearby reads are cache
hits.

Two write modes exist:

* *batch mode* (``append(..., flush=False)``) — records accumulate in
  memory and full pages are written once; call :meth:`flush` (or
  :meth:`finalize`) to write the partial tail.  Used while bulk-loading in
  SFC order, and by WAL-backed inserts, where the write-ahead log already
  guarantees durability and a per-insert partial-page flush would only
  inflate PA counts;
* *write-through mode* (the default) — each append flushes the partial
  last page, which is what a single unlogged insertion (Appendix C /
  Table 7) costs.

The two modes may interleave: ``_tail_flushed`` tracks how many tail bytes
the on-disk tail page already holds, so reads always know which byte ranges
live on pages and which only in the in-memory tail.

With ``checksums=True`` the underlying page file verifies a CRC32 trailer
on every read, so a record overlapping a damaged page surfaces a
:class:`~repro.storage.pagefile.PageCorruptionError` (naming the bad page)
instead of silently deserializing garbage.

The record frame is parsed here and nowhere else: queries read by offset
(:meth:`~RandomAccessFile.read_many`); ``scan``, ``SPBTree.verify`` and
salvage read front to back with :meth:`~RandomAccessFile.walk`.
"""

from __future__ import annotations

import itertools
import struct
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.storage.buffer import BufferPool
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, PageCorruptionError, PageFile
from repro.storage.serializers import Serializer

_HEADER = struct.Struct("<qI")  # (object id: int64, payload length: uint32)


class FramingError(Exception):
    """The record walk lost the record boundaries at ``offset``: the header
    there lies on ``page``, which fails its checksum, or claims ``claimed``
    payload bytes that run past the end (both None: the end of the file
    cuts the header itself off)."""

    def __init__(
        self, offset: int, claimed: Optional[int] = None, page: Optional[int] = None
    ) -> None:
        super().__init__(f"record framing lost at offset {offset}")
        self.offset, self.claimed, self.page = offset, claimed, page


class RandomAccessFile:
    """Sequential-append, random-read object store."""

    def __init__(
        self,
        serializer: Serializer,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 32,
        checksums: bool = False,
    ) -> None:
        self.serializer = serializer
        self.pagefile = PageFile(page_size=page_size, checksums=checksums)
        self.buffer_pool = BufferPool(self.pagefile, capacity=cache_pages)
        self._tail = bytearray()  # bytes of the (partial) last page
        self._tail_page_id: Optional[int] = None  # where the tail lives on disk
        self._tail_flushed = 0  # how many tail bytes the disk tail page holds
        self._end_offset = 0  # logical end of data (bytes)
        self.object_count = 0
        self._deleted: set[int] = set()

    # ---------------------------------------------------------------- write

    def append(self, obj_id: int, obj: Any, flush: bool = True) -> int:
        """Append one record; returns its byte offset (the B+-tree's ptr).

        With ``flush=False`` (bulk loading) only full pages are written;
        call :meth:`finalize` afterwards.  With ``flush=True`` the partial
        last page is written through immediately.
        """
        payload = self.serializer.serialize(obj)
        record = _HEADER.pack(obj_id, len(payload)) + payload
        offset = self._end_offset
        self._tail.extend(record)
        self._end_offset += len(record)
        page_size = self.pagefile.page_size
        while len(self._tail) >= page_size:
            page_id = self._take_tail_page()
            self.buffer_pool.write_page(page_id, bytes(self._tail[:page_size]))
            del self._tail[:page_size]
            self._tail_page_id = None
            self._tail_flushed = 0
        if flush:
            self._flush_partial()
        self.object_count += 1
        return offset

    def finalize(self) -> None:
        """Flush the partial last page (call once after bulk loading)."""
        self._flush_partial()

    def _take_tail_page(self) -> int:
        if self._tail_page_id is not None:
            return self._tail_page_id
        return self.pagefile.allocate()

    def _flush_partial(self) -> None:
        if not self._tail or self._tail_flushed == len(self._tail):
            return
        page_id = self._take_tail_page()
        self.buffer_pool.write_page(page_id, bytes(self._tail))
        self._tail_page_id = page_id
        self._tail_flushed = len(self._tail)

    def mark_deleted(self, offset: int) -> None:
        """Tombstone a record; space is reclaimed on the next rebuild."""
        self._deleted.add(offset)
        self.object_count -= 1

    def is_deleted(self, offset: int) -> bool:
        return offset in self._deleted

    # ----------------------------------------------------------------- read

    def read(self, offset: int) -> tuple[int, Any]:
        """Read the record at ``offset``; returns ``(object id, object)``.

        Every page the record overlaps is fetched through the buffer pool,
        so the page-access count reflects both record size and cache state.
        """
        (obj_id,), (payload,) = self._read_frames((offset,))
        return obj_id, self.serializer.deserialize(payload)

    def read_object(self, offset: int) -> Any:
        """The object of the record at ``offset``, with :meth:`read`'s pool
        moves — the incremental kNN's one record per pop, as a straight line.

        A record whose header lies on a flushed page of a caching pool is
        read off that page, its payload through the pool's frame memo when
        the record lies wholly inside the page; any other record takes
        :meth:`read`'s path.  The object is a fresh ``deserialize``.
        """
        pool = self.buffer_pool
        page_size = self.pagefile.page_size
        page_id, start = divmod(offset, page_size)
        body = start + _HEADER.size
        if (
            not pool.capacity
            or body > page_size
            or page_id >= self._mem_start() // page_size
        ):
            return self.read(offset)[1]
        payload = pool.memo_get(page_id, start)
        if payload is None:
            page = pool.read_page(page_id)
            _, length = _HEADER.unpack_from(page, start)
            end = body + length
            if end > page_size:
                payload = self._read_bytes(offset + _HEADER.size, length)
            elif length:
                payload = page[body:end]
                pool.memo_put(page_id, page, start, payload)
            else:
                payload = b""
        return self.serializer.deserialize(payload)

    def read_many(
        self, offsets: Sequence[int], stop: Optional[Callable[[], bool]] = None
    ) -> Sequence[Any]:
        """The objects at ``offsets``, in the order given — what a loop of
        :meth:`read_object` returns, for the counters too (page-file reads,
        pool hits and misses, LRU order), at a fraction of the work.

        ``stop`` is asked before each record; a true answer ends the read
        there, so the result may be shorter than ``offsets`` (how a
        page-access budget trips at the record it always tripped at).  The
        result is whatever the serializer's ``deserialize_many`` builds: a
        list, or for vector records the rows of one ``(m, dim)`` array.
        """
        return self.serializer.deserialize_many(self._read_frames(offsets, stop)[1])

    def _read_frames(
        self, offsets: Iterable[int], stop: Optional[Callable[[], bool]] = None
    ) -> tuple[list[int], list[bytes]]:
        """``(object ids, payloads)`` of the records at ``offsets`` — the one
        place a record is sliced out of its pages.

        A record touches the pool once for its header and once for its
        payload.  When both lie inside one wholly flushed page, the header
        is unpacked from the pooled page and the payload is a slice of it;
        a touch of the page touched just before (the payload after its
        header, the next record of a leaf) is the hit it would have been —
        tallied, not looked up again.  A record that crosses a page or
        reaches the tail page goes through :meth:`_read_bytes`, and so does
        every record of a pool that caches nothing: there each touch is a
        page access, and none can be saved.
        """
        if stop is not None:
            offsets = itertools.takewhile(lambda _: not stop(), offsets)
        pool = self.buffer_pool
        read_page = pool.read_page
        page_size = self.pagefile.page_size
        header_size = _HEADER.size
        unpack_from = _HEADER.unpack_from
        flushed_pages = self._mem_start() // page_size if pool.capacity else 0
        ids: list[int] = []
        payloads: list[bytes] = []
        held = -1  # the page ``page`` holds: the pool's most recent touch
        page = b""
        repeats = 0  # touches of the held page not yet tallied as hits
        try:
            for offset in offsets:
                page_id, start = divmod(offset, page_size)
                body = start + header_size
                if page_id < flushed_pages and body <= page_size:
                    if page_id == held:
                        repeats += 1
                    else:
                        page = read_page(page_id)
                        held = page_id
                    obj_id, length = unpack_from(page, start)
                    end = body + length
                    if end <= page_size:
                        if length:
                            repeats += 1
                        payload = page[body:end]
                    else:
                        payload = self._read_bytes(offset + header_size, length)
                        held = -1
                else:
                    obj_id, length = _HEADER.unpack(
                        self._read_bytes(offset, header_size)
                    )
                    payload = self._read_bytes(offset + header_size, length)
                    held = -1
                ids.append(obj_id)
                payloads.append(payload)
        finally:
            if repeats:
                pool.tally_hits(repeats)
        return ids, payloads

    def _mem_start(self) -> int:
        """Bytes at or beyond this offset are only in the in-memory tail;
        everything below it is on a page.  The first ``_tail_flushed`` tail
        bytes are on the disk tail page too (mixed batch/write-through
        appends leave the tail partially flushed), so the disk serves them."""
        if self._tail:
            return self._end_offset - len(self._tail) + self._tail_flushed
        return self._end_offset

    def _read_bytes(self, offset: int, length: int) -> bytes:
        if length == 0:
            return b""
        end = offset + length
        if end > self._end_offset:
            raise IndexError(
                f"read of [{offset}, {end}) beyond end {self._end_offset}"
            )
        page_size = self.pagefile.page_size
        mem_start = self._mem_start()
        parts: list[bytes] = []
        disk_end = min(end, mem_start)
        if offset < disk_end:
            first_page = offset // page_size
            last_page = (disk_end - 1) // page_size
            chunks = [
                self.buffer_pool.read_page(page_id)
                for page_id in range(first_page, last_page + 1)
            ]
            data = b"".join(chunks)
            start = offset - first_page * page_size
            parts.append(data[start : start + (disk_end - offset)])
        if end > mem_start:
            tail_origin = self._end_offset - len(self._tail)
            lo = max(offset, mem_start) - tail_origin
            hi = end - tail_origin
            parts.append(bytes(self._tail[lo:hi]))
        return b"".join(parts)

    # ------------------------------------------------------------- metadata

    @property
    def page_accesses(self) -> int:
        return self.pagefile.counter.total

    @property
    def num_pages(self) -> int:
        return self.pagefile.num_pages

    @property
    def size_in_bytes(self) -> int:
        return self.pagefile.size_in_bytes

    @property
    def objects_per_page(self) -> float:
        """The f of eq. (6): average number of objects per RAF page."""
        if self.num_pages == 0:
            return 1.0
        return max(1.0, self.object_count / self.num_pages)

    def walk(self) -> Iterator[tuple[int, int, Optional[bytes]]]:
        """Every record front to back, as ``(offset, object id, payload)``,
        read through the buffer pool header first.

        ``payload`` is None for a tombstone (only its header is read) and
        for a record on a page that fails its checksum (the page file's
        :class:`PageCorruptionError`).  Where the next record boundary
        cannot be found the walk stops by raising :class:`FramingError`.
        """
        end = self._end_offset
        offset = 0
        while offset < end:
            try:
                obj_id, length = _HEADER.unpack(self._read_bytes(offset, _HEADER.size))
            except PageCorruptionError as exc:
                raise FramingError(offset, page=exc.page_id) from exc
            except IndexError as exc:
                raise FramingError(offset) from exc
            body = offset + _HEADER.size
            if body + length > end:
                raise FramingError(offset, claimed=length)
            payload = None
            if offset not in self._deleted:
                try:
                    payload = self._read_bytes(body, length)
                except PageCorruptionError:
                    pass
            yield offset, obj_id, payload
            offset = body + length

    def scan(self) -> Iterator[tuple[int, int, Any]]:
        """Yield ``(offset, object id, object)`` for all live records.

        A live record the walk could not read raises what :meth:`read`
        raises for it (the :class:`PageCorruptionError` naming its page).
        """
        for offset, obj_id, payload in self.walk():
            if payload is not None:
                yield offset, obj_id, self.serializer.deserialize(payload)
            elif offset not in self._deleted:
                self.read(offset)

    def flush_cache(self, reset_stats: bool = False) -> None:
        self.buffer_pool.flush(reset_stats=reset_stats)

    def flush(self) -> None:
        """Write through the partial tail page."""
        self._flush_partial()
