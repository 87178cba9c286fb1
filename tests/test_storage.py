"""Unit tests for the storage substrate: page file, buffer pool, serializers."""

import numpy as np
import pytest

from repro.storage import (
    BufferPool,
    BytesSerializer,
    PageFile,
    PickleSerializer,
    StringSerializer,
    UInt8VectorSerializer,
    VectorSerializer,
    serializer_for,
)


class TestPageFile:
    def test_round_trip(self):
        pf = PageFile(page_size=128)
        pid = pf.allocate()
        pf.write_page(pid, b"hello")
        data = pf.read_page(pid)
        assert data[:5] == b"hello"
        assert len(data) == 128  # padded

    def test_counts_accesses(self):
        pf = PageFile(page_size=64)
        pid = pf.allocate()
        assert pf.counter.total == 0  # allocation is free
        pf.write_page(pid, b"x")
        pf.read_page(pid)
        pf.read_page(pid)
        assert pf.counter.writes == 1
        assert pf.counter.reads == 2

    def test_size_accounting(self):
        pf = PageFile(page_size=256)
        for _ in range(5):
            pf.allocate()
        assert pf.num_pages == 5
        assert pf.size_in_bytes == 5 * 256

    def test_rejects_oversized_write(self):
        pf = PageFile(page_size=16)
        pid = pf.allocate()
        with pytest.raises(ValueError):
            pf.write_page(pid, b"x" * 17)

    def test_rejects_bad_page_id(self):
        pf = PageFile(page_size=16)
        with pytest.raises(IndexError):
            pf.read_page(0)
        with pytest.raises(IndexError):
            pf.read_page(-1)


class TestBufferPool:
    def test_hit_costs_no_page_access(self):
        pf = PageFile(page_size=64)
        pool = BufferPool(pf, capacity=4)
        pid = pf.allocate()
        pf.write_page(pid, b"data")
        before = pf.counter.reads
        pool.read_page(pid)
        pool.read_page(pid)
        pool.read_page(pid)
        assert pf.counter.reads == before + 1
        assert pool.hits == 2
        assert pool.misses == 1

    def test_zero_capacity_disables_caching(self):
        pf = PageFile(page_size=64)
        pool = BufferPool(pf, capacity=0)
        pid = pf.allocate()
        pf.write_page(pid, b"x")
        before = pf.counter.reads
        pool.read_page(pid)
        pool.read_page(pid)
        assert pf.counter.reads == before + 2

    def test_lru_eviction(self):
        pf = PageFile(page_size=64)
        pool = BufferPool(pf, capacity=2)
        pids = [pf.allocate() for _ in range(3)]
        for pid in pids:
            pf.write_page(pid, bytes([pid]))
        pool.read_page(pids[0])
        pool.read_page(pids[1])
        pool.read_page(pids[2])  # evicts pids[0]
        before = pf.counter.reads
        pool.read_page(pids[0])
        assert pf.counter.reads == before + 1  # miss again

    def test_write_through_updates_cache(self):
        pf = PageFile(page_size=64)
        pool = BufferPool(pf, capacity=2)
        pid = pf.allocate()
        pool.write_page(pid, b"v1")
        assert pool.read_page(pid)[:2] == b"v1"
        pool.write_page(pid, b"v2")
        before = pf.counter.reads
        assert pool.read_page(pid)[:2] == b"v2"
        assert pf.counter.reads == before  # served from cache, fresh data

    def test_flush(self):
        pf = PageFile(page_size=64)
        pool = BufferPool(pf, capacity=4)
        pid = pf.allocate()
        pf.write_page(pid, b"x")
        pool.read_page(pid)
        pool.flush()
        before = pf.counter.reads
        pool.read_page(pid)
        assert pf.counter.reads == before + 1

    def test_flush_keeps_stats_by_default(self):
        pf = PageFile(page_size=64)
        pool = BufferPool(pf, capacity=4)
        pid = pf.allocate()
        pf.write_page(pid, b"x")
        pool.read_page(pid)  # miss
        pool.read_page(pid)  # hit
        pool.flush()
        assert (pool.hits, pool.misses) == (1, 1)

    def test_flush_reset_stats(self):
        """Satellite: flush(reset_stats=True) restarts the hit/miss tallies,
        so a flush-between-queries protocol measures each query alone."""
        pf = PageFile(page_size=64)
        pool = BufferPool(pf, capacity=4)
        pid = pf.allocate()
        pf.write_page(pid, b"x")
        pool.read_page(pid)
        pool.read_page(pid)
        pool.flush(reset_stats=True)
        assert (pool.hits, pool.misses) == (0, 0)
        pool.read_page(pid)  # cache emptied: a miss again
        assert (pool.hits, pool.misses) == (0, 1)


class TestSerializers:
    def test_string_round_trip(self):
        s = StringSerializer()
        assert s.deserialize(s.serialize("héllo")) == "héllo"

    def test_vector_round_trip(self):
        s = VectorSerializer()
        v = np.array([1.5, -2.0, 3e10])
        out = s.deserialize(s.serialize(v))
        assert np.array_equal(out, v)
        assert out.flags.writeable

    def test_uint8_round_trip(self):
        s = UInt8VectorSerializer()
        v = np.array([0, 1, 255], dtype=np.uint8)
        assert np.array_equal(s.deserialize(s.serialize(v)), v)

    def test_bytes_round_trip(self):
        s = BytesSerializer()
        assert s.deserialize(s.serialize(b"\x00\xff")) == b"\x00\xff"

    def test_pickle_round_trip(self):
        s = PickleSerializer()
        obj = {"a": [1, 2], "b": ("x", 3.5)}
        assert s.deserialize(s.serialize(obj)) == obj

    def test_serializer_for_dispatch(self):
        assert isinstance(serializer_for("word"), StringSerializer)
        assert isinstance(serializer_for(b"raw"), BytesSerializer)
        assert isinstance(
            serializer_for(np.zeros(3, dtype=np.uint8)), UInt8VectorSerializer
        )
        assert isinstance(serializer_for(np.zeros(3)), VectorSerializer)
        assert isinstance(serializer_for([1.0, 2.0]), VectorSerializer)
        assert isinstance(serializer_for({"any": 1}), PickleSerializer)
