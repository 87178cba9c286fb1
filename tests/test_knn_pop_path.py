"""The incremental kNN's pop path against the read it replaced.

Each pop reads one record with ``RandomAccessFile.read_object``, which
slices a record that lies wholly inside a flushed page straight off the
pooled page, or takes its payload from the pool's frame memo.  A twin tree
reads every record as ``read_object`` did before either existed
(``reference.read_object_before``).  Both answer the same queries on
``reference.words_tree``, the words tree ``test_scan_golden`` pins —
tombstones, records crossing a page, a write-through tail — and must agree
on the answers and on ``reference.snapshot`` (compdists, page accesses,
page-file reads, pool hits, misses and LRU order) at every cache size,
through the moves that drop memo entries (a tail page filled and
rewritten, a flush, evictions), and with two threads sharing one pool.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets import generate_words
from repro.service.context import QueryContext
from repro.storage import RandomAccessFile, StringSerializer
from repro.storage.raf import _HEADER
from tests.reference import assert_twins, read_object_before, twin_trees, words_tree

PAGE = 256
CACHES = (0, 1, 4, 32, 64)
QUERIES = generate_words(10, seed=77) + generate_words(300, seed=5)[::60]


def _twins(cache_pages: int):
    """The tree under test and its twin that reads records the old way."""
    return twin_trees(
        lambda: words_tree(cache_pages), "raf.read_object", read_object_before
    )[:2]


def _memo_is_sound(raf: RandomAccessFile) -> None:
    """Every memo entry belongs to a cached page and holds the non-empty
    payload the record's header frames on it."""
    pool = raf.buffer_pool
    for page_id, frames in pool._memo.items():
        page = pool._cache[page_id]
        for start, payload in frames.items():
            _, length = _HEADER.unpack_from(page, start)
            body = start + _HEADER.size
            assert payload and len(payload) == length
            assert payload == page[body : body + length]


def _check(tree, twin) -> None:
    assert_twins(tree, twin, [("knn", q, k) for q in QUERIES for k in (1, 4, 9)])
    _memo_is_sound(tree.raf)


@pytest.mark.parametrize("cache_pages", CACHES)
def test_pops_move_every_counter_as_the_old_read(cache_pages):
    tree, twin = _twins(cache_pages)
    _check(tree, twin)
    _check(tree, twin)  # warm: the memo serves the repeats
    if cache_pages >= 32:
        assert tree.raf.buffer_pool._memo
    else:
        assert len(tree.raf.buffer_pool._memo) <= cache_pages


@pytest.mark.parametrize("cache_pages", CACHES)
def test_memo_follows_the_tail_page_and_the_flush(cache_pages):
    tree, twin = _twins(cache_pages)
    _check(tree, twin)
    raf = tree.raf
    tail = raf._tail_page_id
    assert tail is not None
    # Inserts until the tail page fills, is rewritten whole and becomes a
    # flushed page the pops may memoise.
    words = iter(generate_words(400, seed=91))
    while raf._tail_page_id == tail:
        word = next(words)
        tree.insert(word)
        twin.insert(word)
    assert tail < raf._mem_start() // PAGE
    assert tail not in raf.buffer_pool._memo
    _check(tree, twin)
    tree.flush_cache()
    twin.flush_cache()
    assert not raf.buffer_pool._memo
    _check(tree, twin)


def test_two_threads_sharing_one_pool():
    """Each query's answer and compdists are the serial ones, the pool's
    touches (hits + misses) add up to the serial total, and the memo stays
    sound under the interleaving."""
    tree, twin = _twins(4)
    serial = {}
    for q in QUERIES:
        ctx = QueryContext()
        serial[q] = (list(twin.knn_query(q, 6, context=ctx)), ctx.compdists)
    twin_pool = twin.raf.buffer_pool
    errors: list = []

    def worker(queries) -> None:
        try:
            for _ in range(3):
                for q in queries:
                    ctx = QueryContext()
                    got = tree.knn_query(q, 6, context=ctx)
                    assert (list(got), ctx.compdists) == serial[q]
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(qs,)) for qs in (QUERIES, QUERIES[::-1])]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    pool = tree.raf.buffer_pool
    assert pool.hits + pool.misses == 6 * (twin_pool.hits + twin_pool.misses)
    _memo_is_sound(tree.raf)


class TestPoolMemo:
    def _pool(self, capacity: int):
        """A RAF and the offsets of its records that lie wholly inside a
        flushed page."""
        raf = RandomAccessFile(StringSerializer(), page_size=64, cache_pages=capacity)
        words = generate_words(40, seed=3)
        offsets = [raf.append(i, w, flush=False) for i, w in enumerate(words)]
        raf.finalize()
        raf.flush_cache(reset_stats=True)
        flushed = raf._mem_start() // 64
        return raf, [
            o for o, w in zip(offsets, words)
            if o // 64 < flushed and o % 64 + _HEADER.size + len(w.encode()) <= 64
        ]

    def test_a_hit_is_a_touch_and_a_tally_under_one_lookup(self):
        raf, offsets = self._pool(8)
        pool = raf.buffer_pool
        first = raf.read_object(offsets[0])
        page_id, start = divmod(offsets[0], 64)
        assert (pool.hits, pool.misses) == (1, 1)
        assert pool._memo[page_id][start]
        raf.read_object(offsets[-1])  # another page becomes most recent
        hits = pool.hits
        again = raf.read_object(offsets[0])
        assert again == first and pool.hits == hits + 2
        assert list(pool._cache)[-1] == page_id

    def test_write_evict_and_flush_drop_entries(self):
        raf, offsets = self._pool(1)
        pool = raf.buffer_pool
        page_id = offsets[0] // 64
        raf.read_object(offsets[0])
        assert page_id in pool._memo
        other = next(o for o in offsets if o // 64 != page_id)
        raf.read_object(other)  # evicts page_id
        assert page_id not in pool._memo and len(pool._memo) <= 1
        pool.write_page(other // 64, pool.read_page(other // 64))
        assert not pool._memo
        raf.read_object(other)
        assert pool._memo
        pool.flush()
        assert not pool._memo
