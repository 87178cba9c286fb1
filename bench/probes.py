"""Layer probes: direct calls into one layer's public function, timed.

Each probe makes ``calls`` calls on inputs sampled from the workload (its
corpus, the keys and record offsets of its built tree, its real replies)
and reports microseconds per call at the reference clock — the median
over five equal chunks, each scaled by the clock factor taken just before
it, so one interrupted chunk does not move it.  Probes run after the
timed windows of a traced run: they advance the page-access counters,
which by then have been read.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Any, Callable, Iterable, Sequence

from repro.btree.tree import BPlusTree
from repro.net import protocol
from repro.sfc.zorder import ZCurve
from repro.storage.buffer import BufferPool
from repro.storage.pagefile import PageFile
from repro.storage.raf import RandomAccessFile
from repro.storage.wal import WriteAheadLog

from bench.harness import clock_factor

CHUNKS = 5


def per_call_us(fn: Callable, inputs: Sequence[tuple]) -> float:
    """Median over chunks of the mean time of ``fn(*args)``, in µs."""
    size = max(1, len(inputs) // CHUNKS)
    means = []
    for start in range(0, size * CHUNKS, size):
        chunk = inputs[start : start + size]
        if not chunk:
            break
        factor = clock_factor()
        t0 = time.perf_counter()
        for args in chunk:
            fn(*args)
        means.append((time.perf_counter() - t0) / len(chunk) / factor)
    return statistics.median(means) * 1e6


def _cycle(items: Sequence[Any], n: int) -> list[Any]:
    return [items[i % len(items)] for i in range(n)]


def probe_distance(metric: Any, corpus: Sequence[Any], calls: int, rng: random.Random) -> float:
    pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(calls)]
    return per_call_us(metric, pairs)


def probe_tree(
    tree: Any, corpus: Sequence[Any], calls: int, rng: random.Random
) -> dict[str, float]:
    """Probes of every layer a single ``SPBTree`` is made of."""
    out: dict[str, float] = {}
    space, curve, btree, raf = tree.space, tree.curve, tree.btree, tree.raf
    objects = [rng.choice(corpus) for _ in range(calls)]
    items = btree.items()  # (SFC key, RAF offset) of every indexed object
    sample = [items[rng.randrange(len(items))] for _ in range(calls)]
    keys = [(key,) for key, _ in sample]
    cells = [curve.decode(key) for key, _ in sample]

    # core.mapping: φ costs |P| distances; mind_to_cell is pure arithmetic
    out["core.mapping.phi_us"] = per_call_us(
        space.phi, [(o,) for o in objects[: max(CHUNKS, calls // 5)]]
    )
    phi_q = space.phi(objects[0])
    out["core.mapping.mind_to_cell_us"] = per_call_us(
        space.mind_to_cell, [(phi_q, cell) for cell in cells]
    )

    # sfc: through the class, past the per-instance decode memo
    curve_cls = type(curve)
    out["sfc.hilbert_encode_us"] = per_call_us(
        curve.encode, [(cell,) for cell in cells]
    )
    out["sfc.hilbert_decode_us"] = per_call_us(
        lambda key: curve_cls.decode(curve, key), keys
    )
    z = ZCurve(curve.ndims, curve.bits)
    out["sfc.z_encode_us"] = per_call_us(z.encode, [(cell,) for cell in cells])

    # btree: page -> decoded Node; then a scratch tree for the write side
    pages = [(rng.randrange(btree.num_pages),) for _ in range(calls)]
    out["btree.read_node_us"] = per_call_us(btree.read_node, pages)
    scratch = BPlusTree(curve, page_size=btree.pagefile.page_size)
    factor = clock_factor()
    t0 = time.perf_counter()
    scratch.bulk_load(items)
    out["btree.bulk_load_s"] = (time.perf_counter() - t0) / factor
    inserts = [(key, ptr + 1) for key, ptr in sample[: max(CHUNKS, calls // 2)]]
    out["btree.insert_us"] = per_call_us(scratch.insert, inserts)

    # storage.raf + serializers: record read, record append, payload decode
    offsets = [(ptr,) for _, ptr in sample]
    out["storage.raf.read_us"] = per_call_us(raf.read, offsets)
    scratch_raf = RandomAccessFile(raf.serializer, page_size=raf.pagefile.page_size)
    out["storage.raf.append_us"] = per_call_us(
        lambda i, obj: scratch_raf.append(i, obj, flush=False),
        list(enumerate(objects)),
    )
    payloads = [(raf.serializer.serialize(o),) for o in objects]
    kind = "string" if isinstance(objects[0], str) else "vector"
    out[f"storage.serializers.{kind}_deserialize_us"] = per_call_us(
        raf.serializer.deserialize, payloads
    )

    # storage.buffer over the tree's own RAF pages: all hits vs all misses
    page_ids = [(rng.randrange(raf.num_pages),) for _ in range(calls)]
    warm = BufferPool(raf.pagefile, capacity=raf.num_pages)
    for (page_id,) in page_ids:
        warm.read_page(page_id)
    out["storage.buffer.hit_us"] = per_call_us(warm.read_page, page_ids)
    cold = BufferPool(raf.pagefile, capacity=0)
    out["storage.buffer.miss_us"] = per_call_us(cold.read_page, page_ids)

    # storage.pagefile: a scratch in-memory file, one page image
    scratch_pages = PageFile(page_size=raf.pagefile.page_size)
    image = raf.pagefile.read_page(0)
    slots = [(scratch_pages.allocate(),) for _ in range(min(calls, 256))]
    out["storage.pagefile.write_us"] = per_call_us(
        lambda page_id: scratch_pages.write_page(page_id, image), _cycle(slots, calls)
    )
    out["storage.pagefile.read_us"] = per_call_us(
        scratch_pages.read_page, _cycle(slots, calls)
    )
    return out


def probe_wal(
    directory: str, serializer: Any, objects: Iterable[Any], calls: int
) -> dict[str, float]:
    """WAL append with and without fsync, on scratch files."""
    payloads = [serializer.serialize(o) for o in objects]
    out = {}
    for name, fsync, n in (
        ("storage.wal.append_us", False, calls),
        ("storage.wal.append_fsync_us", True, max(CHUNKS, calls // 10)),
    ):
        path = os.path.join(directory, f"probe-{int(fsync)}.wal")
        wal = WriteAheadLog(path, fsync=fsync)
        try:
            wal.start(0, 0, 0)
            empty = wal.size_in_bytes
            out[name] = per_call_us(
                wal.append_insert,
                [(i, i, payloads[i % len(payloads)]) for i in range(n)],
            )
            out["storage.wal.bytes_per_mutation"] = (wal.size_in_bytes - empty) / n
        finally:
            wal.close()
            os.unlink(path)
    return out


def probe_router(index: Any, queries: Sequence[Any], radius: float, calls: int) -> float:
    phis = [index.space.phi(q) for q in queries[:50]]
    return per_call_us(
        index.router.range_plan, [(phi, radius) for phi in _cycle(phis, calls)]
    )


def probe_codec(requests: Sequence[tuple], replies: Sequence[tuple], calls: int) -> dict[str, float]:
    """JSON codec cost on this workload's real requests and replies.

    ``requests`` are ``(op, args)`` as a client would send them,
    ``replies`` are ``(op, engine result)`` as the server would encode.
    """
    def encode_request(op: str, args: dict) -> bytes:
        return protocol.encode_frame(
            protocol.make_request(1, op, args, deadline_ms=250.0)
        )

    def encode_reply(op: str, result: Any) -> bytes:
        return protocol.encode_frame(
            protocol.make_response(1, protocol.result_to_json(op, result))
        )

    def decode_reply(op: str, frame: bytes) -> Any:
        return protocol.result_from_json(
            op, protocol.decode_frame(frame)[0]["result"]
        )

    frames = [(op, encode_reply(op, result)) for op, result in replies]
    return {
        "net.encode_request_us": per_call_us(encode_request, _cycle(requests, calls)),
        "net.encode_reply_us": per_call_us(encode_reply, _cycle(replies, calls)),
        "net.decode_reply_us": per_call_us(decode_reply, _cycle(frames, calls)),
        "net.bytes_per_reply": statistics.mean(len(frame) for _, frame in frames),
    }
