"""The strided read of a fixed-width RAF against the record loop.

A RAF whose records all share one frame width reads a batch of offsets as
the rows of one strided view (``RandomAccessFile._read_rows``); every other
RAF, and every batch that reaches the unflushed tail or a pool that caches
nothing, takes the record loop (``_read_frames``).  Twin RAFs are filled
identically; one answers ``read_many``, the other the loop.  They must agree
on the rows (values, dtype, shape, writability) and on everything a reader
can observe of the storage stack: page-file reads, the pool's hits and
misses, its LRU order and the page accesses credited to the stat shard — at
every cache size, with page-access budgets tripping at every value, and
when a checksummed page fails.  The width itself must survive every way a
tree is saved, reopened, rebuilt, salvaged or copied.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedIndex
from repro.core.persist import load_tree, open_tree, save_tree
from repro.core.spbtree import SPBTree
from repro.distance import EuclideanDistance
from repro.recovery import salvage_tree
from repro.replication import replicate
from repro.storage import (
    PageCorruptionError,
    RandomAccessFile,
    UInt8VectorSerializer,
    VectorSerializer,
)
from repro.storage.raf import _HEADER, FramingError
from tests.reference import (
    cold,
    read_frames,
    snapshot,
    spied,
    twin_rafs,
    under_shard,
)

CACHE_PAGES = (0, 1, 4, 32, 64)
SERIALIZERS = (VectorSerializer, UInt8VectorSerializer)


def _vectors(n: int, dim: int, serializer, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [(rng.random(dim) * 200).astype(serializer.dtype) for _ in range(n)]


def _twins(
    objects, serializer, page_size, cache_pages, appended=(), tail=(), checksums=False
):
    """Two identically filled RAFs with cold caches, and their offsets:
    ``objects`` bulk-loaded, ``appended`` written through one at a time
    after it, ``tail`` appended last and left unflushed."""

    def fill(raf):
        offsets = [raf.append(i, obj, flush=False) for i, obj in enumerate(objects)]
        raf.finalize()
        offsets += [raf.append(len(offsets), obj) for obj in appended]
        offsets += [raf.append(len(offsets), obj, flush=False) for obj in tail]
        return offsets

    return twin_rafs(
        fill, serializer, page_size=page_size, cache_pages=cache_pages, checksums=checksums
    )


def _check(batch, loop, offsets, budget=None, strided=True) -> None:
    """``read_many`` on ``batch`` against the loop on ``loop``; ``strided``
    says which of the two reads ``read_many`` must take."""
    with spied(batch, "_read_rows") as rows, spied(batch, "_read_frames") as frames:
        with under_shard(budget) as (got_shard, stop):
            got = batch.read_many(offsets, stop)
    with under_shard(budget) as (want_shard, stop):
        want = read_frames(loop, offsets, stop)
    assert (len(rows), len(frames)) == ((1, 0) if strided else (0, 1))
    assert len(got) == len(want)
    if len(want):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.writeable and want.flags.writeable
        assert (got == want).all()
        assert got.dtype == batch.serializer.dtype
    assert snapshot(batch, got_shard) == snapshot(loop, want_shard)


# ----------------------------------------------------------- page geometry


def _width(dim: int, serializer) -> int:
    return _HEADER.size + dim * np.dtype(serializer.dtype).itemsize


@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
@pytest.mark.parametrize(
    "page_size, why",
    [
        (64, "a header ends exactly on a page edge (52 + 12 = 64)"),
        (60, "a header straddles a page edge (52 .. 64 over 60)"),
        (32, "every record crosses a page"),
        (20, "a record covers three pages"),
        (4096, "a leaf's records on one or two pages"),
    ],
)
def test_page_geometry(cache_pages, page_size, why):
    objects = _vectors(40, 5, VectorSerializer)  # w = 12 + 5 * 8 = 52
    batch, loop, offsets = _twins(objects, VectorSerializer, page_size, cache_pages)
    assert batch.record_width == 52
    strided = cache_pages > 0
    _check(batch, loop, offsets, strided=strided)
    _check(batch, loop, offsets[::-1], strided=strided)  # warm, descending
    _check(batch, loop, offsets[5:9] + offsets[5:9] + offsets[:1], strided=strided)


def test_header_edges_occur():
    """The geometry cases above hold what they claim."""
    assert any(o % 64 == 64 - _HEADER.size for o in range(0, 40 * 52, 52))
    assert any(60 - _HEADER.size < o % 60 for o in range(0, 40 * 52, 52))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    serializer=st.sampled_from(SERIALIZERS),
    dim=st.integers(1, 24),
    page_size=st.integers(8, 300),
    cache_pages=st.sampled_from(CACHE_PAGES),
    bulk=st.integers(1, 40),
    appended=st.integers(0, 6),
)
def test_drawn_batches_match_the_loop(
    data, serializer, dim, page_size, cache_pages, bulk, appended
):
    objects = _vectors(bulk + appended, dim, serializer, seed=dim)
    batch, loop, offsets = _twins(
        objects[:bulk], serializer, page_size, cache_pages, appended=objects[bulk:]
    )
    assert batch.record_width == _width(dim, serializer)
    picks = data.draw(
        st.lists(st.sampled_from(offsets), min_size=1, max_size=3 * len(offsets))
    )
    for _ in range(2):  # cold, then warm
        _check(batch, loop, picks, strided=cache_pages > 0)
    as_array = np.asarray(picks, dtype=np.int64)
    _check(batch, loop, as_array, strided=cache_pages > 0)


@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
def test_a_batch_reaching_the_tail_takes_the_loop(cache_pages):
    objects = _vectors(30, 4, VectorSerializer)
    batch, loop, offsets = _twins(
        objects[:20], VectorSerializer, 64, cache_pages, tail=objects[20:]
    )
    assert batch.record_width == 44
    assert offsets[-1] + 44 > batch._mem_start()
    _check(batch, loop, offsets, strided=False)
    _check(batch, loop, offsets[-3:], strided=False)
    _check(batch, loop, offsets[:20], strided=cache_pages > 0)


# ------------------------------------------------------- page-access budget


@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
@pytest.mark.parametrize("page_size", (64, 60, 32, 4096))
def test_budget_trips_where_the_loop_trips(cache_pages, page_size):
    objects = _vectors(60, 5, VectorSerializer, seed=3)
    rng = np.random.default_rng(page_size)
    batch, loop, offsets = _twins(objects, VectorSerializer, page_size, cache_pages)
    order = [offsets[i] for i in rng.permutation(len(offsets))]
    for picks in (offsets, order, offsets[10:30] * 2):
        with under_shard() as (shard, _):
            read_frames(loop, picks)
        full = shard.page_accesses
        cold(loop)
        for budget in range(-1, full + 2):
            cold(batch, loop)
            _check(batch, loop, picks, budget=budget, strided=cache_pages > 0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    page_size=st.integers(8, 200),
    cache_pages=st.sampled_from(CACHE_PAGES[1:]),
)
def test_drawn_budgets_trip_where_the_loop_trips(data, page_size, cache_pages):
    objects = _vectors(30, 3, VectorSerializer, seed=page_size)
    batch, loop, offsets = _twins(objects, VectorSerializer, page_size, cache_pages)
    picks = data.draw(st.lists(st.sampled_from(offsets), min_size=1, max_size=60))
    budget = data.draw(st.integers(-1, len(picks) * 3))
    _check(batch, loop, picks, budget=budget)
    _check(batch, loop, picks[::-1], budget=budget)  # warm


# ------------------------------------------------------------------ faults


@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
@pytest.mark.parametrize("page_size", (64, 60, 32))
def test_corrupt_page_raises_from_the_same_touch(cache_pages, page_size):
    objects = _vectors(40, 5, VectorSerializer, seed=9)
    for bad in range(0, 40 * 52 // page_size, 3):
        batch, loop, offsets = _twins(
            objects, VectorSerializer, page_size, cache_pages, checksums=True
        )
        for raf in (batch, loop):
            page = bytearray(raf.pagefile._pages[bad])
            page[page_size // 2] ^= 0x01
            raf.pagefile._store_raw(bad, bytes(page))
        picks = offsets[::2] + offsets[1::2]

        def failed(read, raf):
            with under_shard() as (shard, _), pytest.raises(PageCorruptionError) as err:
                read(picks)
            assert bad not in raf.buffer_pool._cache
            return err.value.page_id, snapshot(raf, shard)

        with spied(batch, "_read_rows") as rows:
            raised = failed(batch.read_many, batch)
        assert len(rows) == (cache_pages > 0)
        assert raised == failed(lambda picks: read_frames(loop, picks), loop)
        assert raised[0] == bad


def test_a_length_field_that_disagrees_is_a_framing_error():
    raf = RandomAccessFile(VectorSerializer(), page_size=64)
    objects = _vectors(9, 5, VectorSerializer)
    offsets = [raf.append(i, obj, flush=False) for i, obj in enumerate(objects)]
    raf.finalize()
    page, start = divmod(offsets[4] + 8, 64)  # record 4's length field
    data = bytearray(raf.pagefile._pages[page])
    data[start] ^= 0x08
    raf.pagefile._pages[page] = bytes(data)
    raf.flush_cache()
    with pytest.raises(FramingError) as err:
        raf.read_many(offsets)
    assert err.value.offset == offsets[4] and err.value.claimed == 40 ^ 0x08
    assert len(raf.read_many(offsets[:4])) == 4


# -------------------------------------------------------------- the width


def test_width_is_none_then_shared_then_zero_for_good():
    raf = RandomAccessFile(VectorSerializer(), page_size=64)
    assert raf.record_width is None
    raf.append(0, np.zeros(3))
    assert raf.record_width == 12 + 24
    raf.append(1, np.ones(3))
    assert raf.record_width == 36
    raf.append(2, np.ones(4))
    assert raf.record_width == 0
    raf.append(3, np.ones(3))
    assert raf.record_width == 0


@pytest.mark.parametrize("cache_pages", CACHE_PAGES)
def test_a_mixed_width_raf_takes_the_loop(cache_pages):
    objects = _vectors(20, 5, VectorSerializer) + _vectors(5, 6, VectorSerializer)
    batch, loop, offsets = _twins(
        objects[:20], VectorSerializer, 64, cache_pages, appended=objects[20:]
    )
    assert batch.record_width == 0
    _check(batch, loop, offsets[:20], strided=False)
    with spied(batch, "_read_rows") as rows:
        got = batch.read_many(offsets)
    assert not rows
    assert [len(v) for v in got] == [5] * 20 + [6] * 5


def _color_tree(n: int = 300, **kwargs) -> SPBTree:
    rng = np.random.default_rng(4)
    objects = [rng.random(16) for _ in range(n)]
    return SPBTree.build(objects, EuclideanDistance(), num_pivots=3, seed=1, **kwargs)


WIDTH = 12 + 16 * 8
RADIUS = 1.0


def _query_uses_rows(tree: SPBTree) -> bool:
    query = next(tree.objects())
    with spied(tree.raf, "_read_rows") as rows:
        assert tree.range_query(query, RADIUS)
    return bool(rows)


def test_width_survives_save_load_and_wal_replay(tmp_path):
    tree = _color_tree()
    assert tree.raf.record_width == WIDTH
    directory = str(tmp_path / "idx")
    save_tree(tree, directory)
    loaded = load_tree(directory, tree.distance.metric)
    assert loaded.raf.record_width == WIDTH
    assert _query_uses_rows(loaded)
    writable = open_tree(directory, tree.distance.metric)
    writable.insert(np.full(16, 0.5))
    writable.wal.close()
    replayed = load_tree(directory, tree.distance.metric)
    assert replayed.object_count == tree.object_count + 1
    assert replayed.raf.record_width == WIDTH
    assert replayed.verify().ok
    assert replayed.rebuild().raf.record_width == WIDTH


def test_width_survives_salvage(tmp_path):
    tree = _color_tree(checksums=True)
    directory = str(tmp_path / "idx")
    save_tree(tree, directory)
    salvaged, report = salvage_tree(directory, tree.distance.metric)
    assert report.records_recovered == tree.object_count
    assert salvaged.raf.record_width == WIDTH
    assert _query_uses_rows(salvaged)


def test_width_survives_a_replica_copy(tmp_path, l2):
    rng = np.random.default_rng(8)
    objects = [rng.random(16) for _ in range(240)]
    directory = str(tmp_path / "cluster")
    cluster = ShardedIndex.build(objects, l2, shards=2, num_pivots=3, seed=3)
    cluster.save(directory)
    cluster.close()
    replicate(directory, l2, replicas=1)
    index = ShardedIndex.open(directory, l2)
    try:
        for rset in index._sets.values():
            for member in [rset.primary] + rset.followers:
                assert member.tree.raf.record_width == WIDTH
                assert _query_uses_rows(member.tree)
    finally:
        index.close()


@pytest.mark.parametrize("page_size", (64, 60, 20))
@pytest.mark.parametrize(
    "fill",
    [
        ((), (), ()),
        ((5,) * 30, (), ()),
        ((5,) * 30, (5,) * 3, ()),
        ((5,) * 30, (5,) * 3, (5,) * 2),
        ((5,) * 30, (), (5,) * 4),
        ((), (), (5,) * 4),
        ((5,) * 30, (6,), ()),
        ((5,) * 29 + (6,), (), ()),
        ((5,) * 30, (), (5, 4)),
    ],
)
def test_the_measured_width_is_the_appended_one(page_size, fill):
    """What a load measures is what the appends left: bulk-loaded, written
    through, left in the tail (partly flushed too), mixed, or empty."""
    bulk, appended, tail = ([np.ones(d) for d in dims] for dims in fill)
    raf = RandomAccessFile(VectorSerializer(), page_size=page_size)
    for obj in bulk:
        raf.append(0, obj, flush=False)
    raf.finalize()
    for obj in appended:
        raf.append(0, obj)
    for obj in tail:
        raf.append(0, obj, flush=False)
    assert raf.record_width == (None if not any(fill) else 0 if {6, 4} & {
        len(o) for o in bulk + appended + tail} else 52)
    assert raf.measure_width() == raf.record_width


def test_a_width_broken_on_disk_measures_zero(tmp_path):
    """A length field damaged on an unchecksummed page measures as a mixed
    file, whose reads take the record loop."""
    tree = _color_tree()
    directory = str(tmp_path / "idx")
    save_tree(tree, directory)
    loaded = load_tree(directory, tree.distance.metric)
    pagefile = loaded.raf.pagefile
    page = bytearray(pagefile._pages[0])
    page[WIDTH + 8] ^= 0x01  # the second record's length field
    pagefile._pages[0] = bytes(page)
    assert loaded.raf.measure_width() == 0
