"""LRU buffer pool over a :class:`~repro.storage.pagefile.PageFile`.

The paper studies the effect of a small per-query cache on RAF page accesses
(Fig. 10): the cache "aims to improve the I/O efficiency of a single query"
and "is flushed before each of the 500 queries".  A read served from the pool
costs no page access; a miss costs exactly one.

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
                if len(self._cache) > self.capacity:
                    self._cache.popitem(last=False)
            return data

    def tally_hits(self, count: int) -> None:
        """Count ``count`` more touches of the page read last — hits a
        caller that still holds the page's bytes has no need to look up
        (they would find it where it already is: most recently used)."""
        with self._lock:
            self.hits += count
            if _obsreg.ENABLED:
                _instruments.buffer_pool().hits.inc(count)

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write-through: the page file is updated and the cache refreshed."""
        with self._lock:
            self.pagefile.write_page(page_id, data)
            if self.capacity:
                page_size = self.pagefile.page_size
                if len(data) < page_size:
                    data = data + bytes(page_size - len(data))
                self._cache[page_id] = data
                self._cache.move_to_end(page_id)
                if len(self._cache) > self.capacity:
                    self._cache.popitem(last=False)

    def flush(self, reset_stats: bool = False) -> None:
        """Empty the pool (called before each query in Fig. 10's protocol).

        ``reset_stats=True`` also restarts the hit/miss tallies, so a
        flush-between-queries protocol measures each query on its own
        instead of silently accumulating across the run.
        """
        with self._lock:
            self._cache.clear()
            if reset_stats:
                self.hits = 0
                self.misses = 0

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
