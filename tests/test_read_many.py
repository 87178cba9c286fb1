"""``RandomAccessFile.read_many`` against the loop of ``read_object``.

Two RAFs are filled identically; one answers ``read_many(offsets)``, its twin
a loop of single reads.  They must agree on the objects *and* on everything
a reader can observe of the storage stack afterwards: page-file reads, the
pool's hits and misses, its LRU key order, and the page accesses credited to
the active stat shard — at every cache size, Fig. 10's ``cache_pages=0``
included.  The twin is read twice over: by ``read_object`` as it is now, and
by ``read_object`` as it was before ``read_many`` existed
(``reference.read_object_before``), since the first sits on the primitive
under test and would share its mistakes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.storage import (
    PageCorruptionError,
    RandomAccessFile,
    StringSerializer,
    UInt8VectorSerializer,
    VectorSerializer,
)
from tests.reference import (
    StatShard,
    read_object_before,
    snapshot,
    twin_rafs,
    under_shard,
)

CACHE_PAGES = (0, 1, 4, 32)
PAGE = 64


def _words(n: int, seed: int = 3) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 14))) for _ in range(n)]


def _twins(fill, cache_pages: int, serializer=StringSerializer, page_size=PAGE, checksums=False):
    """Two identically filled RAFs with cold caches, and their offsets."""
    return twin_rafs(
        fill, serializer, page_size=page_size, cache_pages=cache_pages, checksums=checksums
    )


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and bool((a == b).all())
    return a == b


def _check(batch: RandomAccessFile, loop: RandomAccessFile, offsets) -> None:
    """``read_many`` on ``batch`` against both single-read loops on ``loop``
    (the second from ``batch``'s starting state, restored in between)."""
    pool = loop.buffer_pool
    start = (dict(pool._cache), pool.hits, pool.misses, loop.pagefile.counter.reads)
    with under_shard() as (shard, _):
        got = batch.read_many(offsets)
    after_batch = snapshot(batch, shard)
    for read_object in (loop.read_object, lambda o: read_object_before(loop, o)):
        pool._cache.clear()
        pool._cache.update(start[0])
        pool.hits, pool.misses, loop.pagefile.counter.reads = start[1:]
        with under_shard() as (shard, _):
            expected = [read_object(o) for o in offsets]
        assert len(got) == len(expected)
        assert all(_same(a, b) for a, b in zip(got, expected))
        assert after_batch == snapshot(loop, shard)


def _bulk(objects, tail_unflushed: bool = False):
    def fill(raf):
        offsets = [raf.append(i, obj, flush=False) for i, obj in enumerate(objects)]
        if not tail_unflushed:
            raf.finalize()
        return offsets

    return fill


@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
class TestDifferential:
    def test_ascending_offsets(self, cache_pages):
        batch, loop, offsets = _twins(_bulk(_words(120)), cache_pages)
        _check(batch, loop, offsets)
        _check(batch, loop, offsets[10:90:3])  # a leaf's survivors, warm cache

    def test_shuffled_offsets(self, cache_pages):
        """Post-insert leaves point all over the file."""
        batch, loop, offsets = _twins(_bulk(_words(120)), cache_pages)
        shuffled = list(offsets)
        random.Random(11).shuffle(shuffled)
        _check(batch, loop, shuffled)
        _check(batch, loop, shuffled[:7] + shuffled[:7])  # repeats included

    def test_records_spanning_two_and_three_pages(self, cache_pages):
        words = ["ab", "c" * 70, "de", "f" * 150, "gh", "i" * 60, "jk"]
        batch, loop, offsets = _twins(_bulk(words), cache_pages)
        _check(batch, loop, offsets)
        _check(batch, loop, offsets[::-1])

    def test_header_straddling_a_page(self, cache_pages):
        # 12-byte header + 40-byte payload = 52: the second header starts at
        # byte 52 of a 64-byte page and ends in the next one
        batch, loop, offsets = _twins(_bulk(["x" * 40] * 6), cache_pages)
        _check(batch, loop, offsets)

    def test_partially_flushed_tail(self, cache_pages):
        """Mixed batch / write-through appends: some tail bytes are on the
        disk tail page, the rest only in memory."""

        def fill(raf):
            offsets = [raf.append(i, w, flush=False) for i, w in enumerate(_words(30))]
            offsets.append(raf.append(30, "through", flush=True))
            offsets += [
                raf.append(31 + i, w, flush=False) for i, w in enumerate(["m", "em", "ory"])
            ]
            return offsets

        batch, loop, offsets = _twins(fill, cache_pages)
        _check(batch, loop, offsets)
        _check(batch, loop, offsets[-6:])

    def test_unflushed_tail_only(self, cache_pages):
        batch, loop, offsets = _twins(_bulk(_words(3), tail_unflushed=True), cache_pages)
        _check(batch, loop, offsets)

    def test_zero_length_payloads(self, cache_pages):
        batch, loop, offsets = _twins(_bulk(["", "a", "", "", "bc", ""]), cache_pages)
        _check(batch, loop, offsets)

    def test_single_offset_and_none(self, cache_pages):
        batch, loop, offsets = _twins(_bulk(_words(40)), cache_pages)
        _check(batch, loop, offsets[17:18])
        _check(batch, loop, [])

    @pytest.mark.parametrize("serializer", (VectorSerializer, UInt8VectorSerializer))
    def test_vector_records(self, cache_pages, serializer):
        rng = np.random.default_rng(5)
        dtype = serializer.dtype
        vectors = [(rng.random(5) * 200).astype(dtype) for _ in range(50)]
        batch, loop, offsets = _twins(
            _bulk(vectors), cache_pages, serializer=serializer, page_size=128
        )
        _check(batch, loop, offsets)
        got = batch.read_many(offsets[3:9])
        for row, offset in zip(got, offsets[3:9]):
            one = loop.read_object(offset)
            assert row.dtype == one.dtype and row.flags.writeable == one.flags.writeable
            assert row.shape == one.shape

    def test_stop_ends_the_read_before_the_record(self, cache_pages):
        batch, loop, offsets = _twins(_bulk(_words(60)), cache_pages)
        asked = []

        def stop() -> bool:
            asked.append(batch.pagefile.counter.reads)
            return len(asked) > 9

        got = batch.read_many(offsets, stop)
        assert list(got) == [read_object_before(loop, o) for o in offsets[:9]]
        assert len(asked) == 10  # once before each record, the refused one included
        assert snapshot(batch) == snapshot(loop)

    def test_corrupt_page_raises_the_same_error_and_is_not_cached(self, cache_pages):
        batch, loop, offsets = _twins(_bulk(_words(80)), cache_pages, checksums=True)
        for raf in (batch, loop):
            page = bytearray(raf.pagefile._pages[2])
            page[5] ^= 0x01  # one flipped bit
            raf.pagefile._store_raw(2, bytes(page))
        with pytest.raises(PageCorruptionError) as from_batch:
            batch.read_many(offsets)
        with pytest.raises(PageCorruptionError) as from_loop:
            for offset in offsets:
                read_object_before(loop, offset)
        assert from_batch.value.page_id == from_loop.value.page_id == 2
        assert 2 not in batch.buffer_pool._cache
        shard = StatShard()
        assert snapshot(batch, shard) == snapshot(loop, shard)


class TestReadAndScanSitOnThePrimitive:
    def test_read_returns_id_and_object(self):
        raf = RandomAccessFile(StringSerializer(), page_size=PAGE)
        offsets = [raf.append(100 + i, w, flush=False) for i, w in enumerate(_words(20))]
        raf.finalize()
        assert [raf.read(o) for o in offsets] == [
            (100 + i, w) for i, w in enumerate(_words(20))
        ]

    @pytest.mark.parametrize("cache_pages", CACHE_PAGES)
    def test_scan_skips_tombstones_reading_only_their_headers(self, cache_pages):
        raf = RandomAccessFile(StringSerializer(), page_size=PAGE, cache_pages=cache_pages)
        words = _words(40)
        offsets = [raf.append(i, w, flush=False) for i, w in enumerate(words)]
        raf.finalize()
        for i in (0, 7, 8, 39):
            raf.mark_deleted(offsets[i])
        live = [(o, i, w) for i, (o, w) in enumerate(zip(offsets, words)) if i not in (0, 7, 8, 39)]
        assert list(raf.scan()) == live

    def test_read_past_end_raises(self):
        raf = RandomAccessFile(StringSerializer(), page_size=PAGE)
        raf.append(0, "word")
        with pytest.raises(IndexError):
            raf.read_many([10_000])


class TestDeserializeMany:
    @pytest.mark.parametrize("serializer", (VectorSerializer(), UInt8VectorSerializer()))
    def test_rows_equal_single_deserialize(self, serializer):
        rng = np.random.default_rng(9)
        payloads = [serializer.serialize(rng.random(7) * 100) for _ in range(12)]
        many = serializer.deserialize_many(payloads)
        assert isinstance(many, np.ndarray) and many.shape == (12, 7)
        for row, payload in zip(many, payloads):
            one = serializer.deserialize(payload)
            assert row.dtype == one.dtype
            assert row.flags.writeable and one.flags.writeable
            assert (row == one).all()

    def test_ragged_and_empty_take_the_loop(self):
        serializer = VectorSerializer()
        ragged = [serializer.serialize([1.0, 2.0]), serializer.serialize([3.0])]
        out = serializer.deserialize_many(ragged)
        assert [v.tolist() for v in out] == [[1.0, 2.0], [3.0]]
        assert list(serializer.deserialize_many([])) == []
        assert [v.tolist() for v in serializer.deserialize_many([b"", b""])] == [[], []]

    def test_default_is_the_loop(self):
        assert StringSerializer().deserialize_many([b"ab", b"", b"c"]) == ["ab", "", "c"]

    def test_strings_decode_as_single_deserialize(self):
        serializer = StringSerializer()
        words = ["", "abc", "Grüße", "日本", "\U0001f600", "a\x00b"]
        payloads = [serializer.serialize(w) for w in words]
        assert serializer.deserialize_many(payloads) == [
            serializer.deserialize(p) for p in payloads
        ] == words
        with pytest.raises(UnicodeDecodeError):
            serializer.deserialize_many([b"ok", b"\xff\xfe"])
