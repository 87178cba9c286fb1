"""Fixed-size page file with page-access accounting and optional checksums.

The paper fixes the disk page size of every access method at 4 KB (§6) and
reports the number of page accesses (*PA*) as the I/O-cost metric.  This
module provides that abstraction: a flat array of fixed-size pages, where
every read and write of a page increments a counter.

The backing store is an in-memory list of ``bytes`` — the paper's PA metric
is a *logical* count, independent of the physical medium.  Pages reach disk
one way only: :func:`repro.core.persist.save_tree` dumps every page's raw
slot into a generation file, and the write-ahead log covers what changed
since.

With ``checksums=True`` every page carries a CRC32 trailer that is verified
on each read; a mismatch raises :class:`PageCorruptionError` identifying the
damaged page, which is how torn writes and bit rot are detected instead of
silently corrupting query results.  The trailer lives outside the logical
page (an on-disk slot is ``page_size + 4`` bytes), so page capacities, the
PA metric, and the Table 6 storage numbers are unaffected.
"""

from __future__ import annotations

import time
import zlib

from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.stats import PageAccessCounter

DEFAULT_PAGE_SIZE = 4096

#: Size in bytes of the CRC32 trailer appended to each checksummed page.
CHECKSUM_SIZE = 4


class PageCorruptionError(Exception):
    """A page's contents do not match its stored CRC32 checksum.

    Carries the damaged ``page_id`` so callers — the buffer pool, the RAF,
    ``SPBTree.verify`` — can report or salvage around the specific page
    instead of failing opaquely.
    """

    def __init__(self, page_id: int) -> None:
        self.page_id = page_id
        super().__init__(f"checksum mismatch on page {page_id}")


class PageFile:
    """A flat collection of fixed-size pages addressed by page id."""

    def __init__(
        self, page_size: int = DEFAULT_PAGE_SIZE, checksums: bool = False
    ) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.checksums = checksums
        self.counter = PageAccessCounter()
        self._pages: list[bytes] = []
        self._crcs: list[int] = []  # parallel to _pages when checksums on

    @property
    def slot_size(self) -> int:
        """On-disk bytes per page: the payload plus the optional trailer."""
        return self.page_size + (CHECKSUM_SIZE if self.checksums else 0)

    # ------------------------------------------------------------------ API

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def size_in_bytes(self) -> int:
        """Total storage footprint (the Storage column of Table 6)."""
        return self.num_pages * self.page_size

    def allocate(self) -> int:
        """Allocate a fresh, zero-filled page; returns its page id.

        Allocation itself is not a page access; the subsequent write is.
        """
        page = bytes(self.page_size)
        self._pages.append(page)
        if self.checksums:
            self._crcs.append(zlib.crc32(page))
        return len(self._pages) - 1

    def read_page(self, page_id: int) -> bytes:
        """Read one page, counting one page access.

        Raises :class:`PageCorruptionError` when checksums are enabled and
        the page's contents no longer match its trailer.
        """
        if not _obsreg.ENABLED:
            self._check(page_id)
            self.counter.count_read()
            data = self._pages[page_id]
            if self.checksums and zlib.crc32(data) != self._crcs[page_id]:
                raise PageCorruptionError(page_id)
            return data
        t0 = time.perf_counter()
        try:
            self._check(page_id)
            self.counter.count_read()
            data = self._pages[page_id]
            if self.checksums and zlib.crc32(data) != self._crcs[page_id]:
                raise PageCorruptionError(page_id)
            return data
        finally:
            _instruments.pagefile().read_seconds.observe(
                time.perf_counter() - t0
            )

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write one page, counting one page access."""
        if _obsreg.ENABLED:
            t0 = time.perf_counter()
            try:
                self._write_page(page_id, data)
            finally:
                _instruments.pagefile().write_seconds.observe(
                    time.perf_counter() - t0
                )
            return
        self._write_page(page_id, data)

    def _write_page(self, page_id: int, data: bytes) -> None:
        self._check(page_id)
        if len(data) > self.page_size:
            raise ValueError(
                f"data of {len(data)} bytes exceeds page size {self.page_size}"
            )
        self.counter.count_write()
        padded = data if len(data) == self.page_size else data + bytes(
            self.page_size - len(data)
        )
        self._pages[page_id] = padded
        if self.checksums:
            self._crcs[page_id] = zlib.crc32(padded)

    # --------------------------------------------------------- verification

    def verify_page(self, page_id: int) -> bool:
        """True when the page's checksum holds (always true without checksums).

        Does not count a page access: verification inspects the store, it
        does not execute a query.
        """
        self._check(page_id)
        if not self.checksums:
            return True
        return zlib.crc32(self._pages[page_id]) == self._crcs[page_id]

    def verify_all(self) -> list[int]:
        """Page ids of every page failing checksum verification."""
        return [pid for pid in range(self.num_pages) if not self.verify_page(pid)]

    # -------------------------------------------------------- raw slot view

    def raw_slot(self, page_id: int) -> bytes:
        """The page's on-disk representation (payload plus CRC trailer).

        Used by persistence to dump pages byte-identically, preserving any
        stale checksum so corruption survives a dump/load round trip and is
        still detected on the next read.
        """
        self._check(page_id)
        data = self._pages[page_id]
        if not self.checksums:
            return data
        return data + self._crcs[page_id].to_bytes(CHECKSUM_SIZE, "little")

    def append_raw_slot(self, slot: bytes) -> int:
        """Append a page from its on-disk slot bytes; returns the page id.

        The stored CRC is taken from the slot verbatim (not recomputed), so
        a corrupt slot stays detectably corrupt.
        """
        if len(slot) != self.slot_size:
            raise ValueError(
                f"slot of {len(slot)} bytes does not match slot size "
                f"{self.slot_size}"
            )
        if self.checksums:
            self._pages.append(slot[: self.page_size])
            self._crcs.append(
                int.from_bytes(slot[self.page_size :], "little")
            )
        else:
            self._pages.append(slot)
        return len(self._pages) - 1

    def _store_raw(self, page_id: int, payload: bytes) -> None:
        """Overwrite a page's payload *without* refreshing its checksum.

        This simulates medium-level damage (torn writes, bit rot): the
        stored CRC goes stale, so the next ``read_page`` detects the
        corruption.  Only :mod:`repro.storage.faults` should call this.
        """
        self._check(page_id)
        if len(payload) != self.page_size:
            raise ValueError("raw payload must be exactly one page")
        self._pages[page_id] = payload

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise IndexError(f"page {page_id} out of range (have {len(self._pages)})")
