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

``len`` is there for variable-length objects, but a vector file's records
all have one width (12 + dim × itemsize bytes).  The file keeps that width
(``record_width``, kept by ``append`` and measured again on load), and
``read_many`` reads such records as the rows of one strided array over
their pages, with the record loop's pool touches and no record parsed on
its own; ragged records keep the loop.
"""

from __future__ import annotations

import itertools
import struct
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

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
        #: The frame length every record shares (header plus payload): None
        #: while the file is empty, 0 once two differ.
        self.record_width: Optional[int] = None

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
        if self.record_width != len(record):
            self.record_width = len(record) if offset == 0 else 0
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

    def measure_width(self) -> Optional[int]:
        """The :attr:`record_width` the appends of this file's records left,
        read off the bytes with no page access counted (for a file whose
        pages were loaded): the records share width w when the first header
        claims w and so does every header at a multiple of w up to the end,
        which is then n × w bytes."""
        end = self._end_offset
        if not end:
            return None
        page_size = self.pagefile.page_size
        data = b"".join(
            self.pagefile.raw_slot(page_id)[:page_size]
            for page_id in range(self.pagefile.num_pages)
        )
        mem_start = self._mem_start()
        if len(data) < mem_start or end < _HEADER.size:
            return 0
        if mem_start < end:
            data = data[:mem_start] + self._tail[mem_start - (end - len(self._tail)) :]
        width = _HEADER.size + _HEADER.unpack_from(data)[1]
        if end % width:
            return 0
        frames = np.frombuffer(data, dtype=np.uint8, count=end).reshape(-1, width)
        lengths = frames[:, 8 : _HEADER.size].view("<u4")
        return width if (lengths == width - _HEADER.size).all() else 0

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
        moves, as a straight line.

        The pool's frame memo is asked first: it holds a payload only for a
        record lying wholly inside a cached, flushed page, so a hit needs
        none of the checks below.  Otherwise a record whose header lies on
        a flushed page of a caching pool is read off that page, its payload
        memoised when the record lies wholly inside the page; any other
        record takes :meth:`read`'s path.  The object is a fresh
        ``deserialize``.
        """
        pool = self.buffer_pool
        page_size = self.pagefile.page_size
        page_id, start = divmod(offset, page_size)
        frames = pool.memo.get(page_id)
        payload = None if frames is None else frames.get(start)
        if payload is not None:
            pool.replay([page_id])
            return self.serializer.deserialize(payload)
        body = start + _HEADER.size
        if (
            not pool.capacity
            or body > page_size
            or page_id >= self._mem_start() // page_size
        ):
            return self.read(offset)[1]
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

    def frame_memo(self) -> dict[int, dict[int, bytes]]:
        """:attr:`BufferPool.memo` of this file's pool, for a reader that
        would otherwise call :meth:`read_object` per record (the incremental
        kNN's pop): a memo payload is the bytes ``read_object`` would
        deserialize for that record.

        Empty when ``read_object`` is replaced on this instance, so such a
        reader sends every record through the replacement.  Only tests do
        that — a spy counting reads, a twin reading as an earlier version
        did."""
        if "read_object" in vars(self):
            return {}
        return self.buffer_pool.memo

    def read_many(
        self, offsets: Sequence[int], stop: Optional[Callable[[], bool]] = None
    ) -> Sequence[Any]:
        """The objects at ``offsets`` (a sequence or an int64 array), in the
        order given — what a loop of :meth:`read_object` returns, for the
        counters too (page-file reads, pool hits and misses, LRU order), at
        a fraction of the work.

        ``stop`` is asked before the first record and again before each
        record whose answer can have changed (the record loop asks before
        every record; the strided read before each record that follows a
        page-file read); a true answer ends the read there, so the result
        may be shorter than ``offsets`` (how a page-access budget trips at
        the record it always tripped at).  The result is whatever the
        serializer's ``deserialize_many`` builds: a list, or for vector
        records the rows of one ``(m, dim)`` array.

        Records of one frame width whose serializer has an array dtype are
        read by :meth:`_read_rows` when the pool caches and every record
        asked for lies on pages; all others by :meth:`_read_frames`.
        """
        width, dtype = self.record_width, self.serializer.dtype
        if (
            width
            and width > _HEADER.size
            and dtype is not None
            and self.buffer_pool.capacity
            and len(offsets)
        ):
            at = np.asarray(offsets, dtype=np.int64)
            if at.max() + width <= self._mem_start():
                return self._read_rows(at, width, dtype, stop)
        if isinstance(offsets, np.ndarray):
            offsets = offsets.tolist()
        return self.serializer.deserialize_many(self._read_frames(offsets, stop)[1])

    def _read_rows(
        self,
        offsets: np.ndarray,
        width: int,
        dtype: type,
        stop: Optional[Callable[[], bool]],
    ) -> Sequence[Any]:
        """The payloads of the ``width``-byte records at ``offsets`` (all on
        pages, the pool caching) as the rows of one ``(m, dim)`` array of
        ``dtype``, with :meth:`_read_frames`' pool moves and no record parsed
        on its own.

        A record touches its header pages, then its payload pages.  A touch
        of the page touched just before is a hit (the page is the most
        recently used), so each page of a record is looked up once, and its
        first page not at all when the record before ended on it; the other
        touches are tallied.  The pages looked up, joined, hold every record
        contiguously: one strided view gives the length fields, checked
        against ``width`` at once, and another the payloads, gathered by one
        copy."""
        page_size = self.pagefile.page_size
        pool = self.buffer_pool
        m = len(offsets)
        head, within = np.divmod(offsets, page_size)  # a record's first page
        last = (offsets + (width - 1)) // page_size
        shared = np.zeros(m, dtype=np.int64)  # 1: starts where the one before ended
        shared[1:] = head[1:] == last[:-1]
        looks = last - head + 1 - shared  # pages looked up per record
        ends = np.cumsum(looks)
        first = ends - looks - shared  # the look-up holding a record's first page
        pages = np.repeat(head - first, looks) + np.arange(ends[-1])

        def before(record: int) -> int:
            """Touches of the records ahead of ``record``: each touches its
            pages, and its header's last page a second time unless the
            header ends on a page edge."""
            if not record:
                return 0
            edges = (within[:record] + _HEADER.size) % page_size == 0
            return int(
                ends[record - 1] + shared[:record].sum() + record
                - np.count_nonzero(edges)
            )

        read_page = pool.read_page
        got: list[bytes] = []
        cut = m  # records read
        reached: Optional[int] = None  # touches made, when not a failed look-up
        try:
            if stop is None:
                for page_id in pages.tolist():
                    got.append(read_page(page_id))
            else:
                # stop's answer only moves with a page-file read: a miss.
                owner = np.searchsorted(ends, np.arange(len(pages)), side="right")
                ask = 0  # stop is asked before this record
                for page_id, record in zip(pages.tolist(), owner.tolist()):
                    if ask <= record:
                        reached = before(ask)
                        if stop():
                            cut = ask
                            break
                        ask, reached = m, None
                    misses = pool.misses
                    got.append(read_page(page_id))
                    if pool.misses != misses:
                        ask = record + 1
                else:
                    if ask < m:
                        reached = before(ask)
                        if stop():
                            cut = ask
            reached = before(cut)
        finally:
            if reached is None:  # the look-up of pages[len(got)] raised
                record = int(np.searchsorted(ends, len(got), side="right"))
                page_id, offset = int(pages[len(got)]), int(offsets[record])
                header_last = (offset + _HEADER.size - 1) // page_size
                reached = before(record) + page_id - offset // page_size
                if page_id > header_last:  # after the header's last page, twice
                    reached += header_last + 1 - (offset + _HEADER.size) // page_size
            if reached > len(got):
                pool.tally_hits(reached - len(got))
        if not cut:
            return self.serializer.deserialize_many([])
        buf = b"".join(got)
        starts = first[:cut] * page_size + within[:cut]
        size = width - _HEADER.size
        # Element i of either view belongs to a frame starting at byte i:
        # its length field (byte 8), its payload (byte 12 on).
        fields = np.ndarray(len(buf) - width + 1, "<u4", buf, 8, strides=(1,))
        lengths = fields[starts]
        if (lengths != size).any():
            bad = int(np.flatnonzero(lengths != size)[0])
            raise FramingError(int(offsets[bad]), claimed=int(lengths[bad]))
        frames = np.ndarray(
            (len(buf) - width + 1, size), np.uint8, buf, _HEADER.size, strides=(1, 1)
        )
        return frames[starts].view(dtype)

    def _read_frames(
        self, offsets: Iterable[int], stop: Optional[Callable[[], bool]] = None
    ) -> tuple[list[int], list[bytes]]:
        """``(object ids, payloads)`` of the records at ``offsets``, a record
        at a time — the read of ragged records (:meth:`_read_rows` reads a
        fixed-width batch whole).

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
