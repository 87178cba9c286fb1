"""LRU buffer pool over a :class:`~repro.storage.pagefile.PageFile`.

The paper studies the effect of a small per-query cache on RAF page accesses
(Fig. 10): the cache "aims to improve the I/O efficiency of a single query"
and "is flushed before each of the 500 queries".  A read served from the pool
costs no page access; a miss costs exactly one.

Beside each cached page the pool can keep a *frame memo*: the payload
bytes of records already sliced out of it, keyed by record start.  Entries
are only ever added for the page bytes the cache holds, and are dropped
when their page is evicted, written or flushed, so a memo read is exactly
a read of the cached page.

The pool surfaces :class:`~repro.storage.pagefile.PageCorruptionError` from
checksummed page files unchanged: a page that fails verification is never
cached, so every retry re-reads (and re-verifies) the medium.

All operations are guarded by an internal lock, so a pool shared by the
concurrent workers of :class:`repro.service.QueryEngine` neither corrupts
its LRU ordering nor double-fetches under contention.  (Page-access
*attribution* stays per-thread through the stat shards of
:mod:`repro.stats`; the lock only protects the cache structure.)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.storage.pagefile import PageFile


class BufferPool:
    """A least-recently-used page cache.

    ``capacity`` is the number of pages held; a capacity of 0 disables
    caching entirely (every read is a page access), which is the leftmost
    point of Fig. 10.
    """

    def __init__(self, pagefile: PageFile, capacity: int = 32) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.pagefile = pagefile
        self.capacity = capacity
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        # page id -> {record start: payload}, for cached pages only
        self._memo: dict[int, dict[int, bytes]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def read_page(self, page_id: int) -> bytes:
        """Read through the cache; only misses reach the page file."""
        with self._lock:
            if self.capacity and page_id in self._cache:
                self._cache.move_to_end(page_id)
                self.hits += 1
                if _obsreg.ENABLED:
                    _instruments.buffer_pool().hits.inc()
                return self._cache[page_id]
            data = self.pagefile.read_page(page_id)
            self.misses += 1
            if _obsreg.ENABLED:
                _instruments.buffer_pool().misses.inc()
            if self.capacity:
                self._cache[page_id] = data
                self._evict()
            return data

    def tally_hits(self, count: int) -> None:
        """Count ``count`` more touches of the page read last — hits a
        caller that still holds the page's bytes has no need to look up
        (they would find it where it already is: most recently used)."""
        with self._lock:
            self.hits += count
            if _obsreg.ENABLED:
                _instruments.buffer_pool().hits.inc(count)

    def memo_get(self, page_id: int, start: int) -> Optional[bytes]:
        """The memoised payload of the record at ``start`` on ``page_id``,
        with the counter moves of slicing it off the cached page: one touch
        that hits (the page becomes most recently used) and one tallied hit
        for the payload.  None, with no move at all, when it is not memoised."""
        with self._lock:
            frames = self._memo.get(page_id)
            payload = frames.get(start) if frames is not None else None
            if payload is not None:
                self._cache.move_to_end(page_id)
                self.hits += 2
                if _obsreg.ENABLED:
                    _instruments.buffer_pool().hits.inc(2)
            return payload

    def memo_put(self, page_id: int, page: bytes, start: int, payload: bytes) -> None:
        """Tally the payload touch of a record just sliced out of ``page`` —
        the bytes :meth:`read_page` returned for ``page_id``, the last touch
        — and memoise the (non-empty) payload if the pool still holds those
        bytes (another thread may have evicted the page since)."""
        with self._lock:
            self.hits += 1
            if _obsreg.ENABLED:
                _instruments.buffer_pool().hits.inc()
            if self._cache.get(page_id) is page:
                self._memo.setdefault(page_id, {})[start] = payload

    def _evict(self) -> None:
        if len(self._cache) > self.capacity:
            evicted, _ = self._cache.popitem(last=False)
            self._memo.pop(evicted, None)

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write-through: the page file is updated and the cache refreshed."""
        with self._lock:
            self.pagefile.write_page(page_id, data)
            self._memo.pop(page_id, None)
            if self.capacity:
                page_size = self.pagefile.page_size
                if len(data) < page_size:
                    data = data + bytes(page_size - len(data))
                self._cache[page_id] = data
                self._cache.move_to_end(page_id)
                self._evict()

    def flush(self, reset_stats: bool = False) -> None:
        """Empty the pool (called before each query in Fig. 10's protocol).

        ``reset_stats=True`` also restarts the hit/miss tallies, so a
        flush-between-queries protocol measures each query on its own
        instead of silently accumulating across the run.
        """
        with self._lock:
            self._cache.clear()
            self._memo.clear()
            if reset_stats:
                self.hits = 0
                self.misses = 0

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
