"""LRU buffer pool over a :class:`~repro.storage.pagefile.PageFile`.

The paper studies the effect of a small per-query cache on RAF page accesses
(Fig. 10): the cache "aims to improve the I/O efficiency of a single query"
and "is flushed before each of the 500 queries".  A read served from the pool
costs no page access; a miss costs exactly one.

Beside each cached page the pool can keep a *frame memo*: the payload
bytes of records already sliced out of it, keyed by record start.  Entries
are only ever added for the page bytes the cache holds, and are dropped
when their page is evicted, written or flushed, so a memo read is exactly
a read of the cached page.  :attr:`BufferPool.memo` is read without the
lock; a reader owes the pool the moves of each read and hands them to
:meth:`BufferPool.replay` — at once (``RandomAccessFile.read_object``) or
queued after the first read of a page while it keeps to that page (the
incremental kNN), so the moves land in the order locked reads would have
made them.

The pool surfaces :class:`~repro.storage.pagefile.PageCorruptionError` from
checksummed page files unchanged: a page that fails verification is never
cached, so every retry re-reads (and re-verifies) the medium.

Every operation that changes the pool runs under an internal lock, so a
pool shared by the concurrent workers of :class:`repro.service.QueryEngine`
neither corrupts its LRU ordering nor double-fetches under contention.  A
lock-free memo read is safe beside them: a dict lookup is atomic, an entry
is the bytes of a page that readers never see rewritten (writers hold the
tree's epoch write lock), and a replayed touch of a page evicted meanwhile
only counts.  Under concurrent readers the pool's hits and misses still
add up to the serial total; a page whose later reads are queued is not
moved again by each of them, as a lock per read would move it.
(Page-access *attribution* stays per-thread through the
stat shards of :mod:`repro.stats`; the lock only protects the cache
structure.)
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

    @property
    def memo(self) -> dict[int, dict[int, bytes]]:
        """The frame memo, page id to {record start: payload}, for readers
        that look records up without the lock.  A payload found at
        ``memo[page_id][start]`` is what slicing the record at ``start``
        off the cached page would give, and the read owes the pool that
        slice's moves — a touch of ``page_id`` that hits and one tallied
        hit for the payload, two hits in all: hand ``page_id`` to
        :meth:`replay`, at once or queued with the reader's later ones."""
        return self._memo

    def replay(self, touches: list[int]) -> None:
        """Apply, in order, the moves of the :attr:`memo` reads of the
        pages in ``touches``, and empty it.  A page another thread evicted
        since is not moved, but its touch still counts, as it did when
        the read was made."""
        with self._lock:
            cache = self._cache
            for page_id in touches:
                if page_id in cache:
                    cache.move_to_end(page_id)
            self.hits += 2 * len(touches)
            if _obsreg.ENABLED:
                _instruments.buffer_pool().hits.inc(2 * len(touches))
        touches.clear()

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
