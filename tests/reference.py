"""The paths the hot paths replaced, and one harness to run them as twins.

Every hot-path change keeps the paper's counters (compdists, page accesses)
and the buffer pool's hits, misses and LRU order where the path it replaced
left them.  Its test proves that with a *twin*: a second tree or RAF built
by the same seeded calls, on which the new path is swapped back for the old
one, must agree with the first on every observable.

Part (a) holds each replaced path as one function, documented with the
change that replaced it.  Part (b) is the harness the twin tests share: a
stat-shard stub, one snapshot of the pool and the counters, ``canon``, the
span walk, the twin builders and ``assert_twins``.  A change that replaces a
hot path adds the path it replaced to part (a) and writes its test over
part (b).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import types
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from repro.btree.tree import BPlusTree
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance
from repro.distance import strings
from repro.obs.trace import QueryTrace
from repro.service.context import KnnCollector, QueryContext, _Exhausted
from repro.sfc.region import point_in_box
from repro.stats import pop_stat_shard, push_stat_shard
from repro.storage import RandomAccessFile
from repro.storage.raf import _HEADER

# ------------------------------------------------------ (a) replaced paths


def read_object_before(raf: RandomAccessFile, offset: int) -> Any:
    """``RandomAccessFile.read_object`` before ``read_many`` and the pool's
    frame memo: the header and the payload each fetched by ``_read_bytes``,
    one ``deserialize``."""
    _, length = _HEADER.unpack(raf._read_bytes(offset, _HEADER.size))
    return raf.serializer.deserialize(raf._read_bytes(offset + _HEADER.size, length))


def read_frames(raf: RandomAccessFile, offsets, stop=None):
    """``read_many`` before a fixed-width RAF read a batch as the rows of
    one strided view (``_read_rows``, the strided read): the record loop
    ``_read_frames``, then one ``deserialize_many``."""
    return raf.serializer.deserialize_many(raf._read_frames(list(offsets), stop)[1])


def select_by_compress(self: SPBTree, objs, mask) -> list:
    """``SPBTree._select`` before an array batch's rows were taken by the
    mask: the range take's and the greedy kNN offer's ``itertools.compress``
    over every record of the batch — a row view made per record, each kept
    one pinning the whole batch's array."""
    return list(itertools.compress(objs, mask.tolist()))


def verify_by_entry(
    self: SPBTree, ptrs, accepted, query, ctx, tr, bound, take, read_accepts=True
) -> None:
    """VerifyRQ an entry at a time — a budget checkpoint before each read,
    ``read_object``, one distance — as ``SPBTree._verify_leaf`` did before
    a leaf was verified as arrays (one ``read_many``, one ``batch``)."""
    raf = self.raf
    objs, dists, free, verified, accepts = [], [], 0, 0, 0
    try:
        for ptr, accept in zip(ptrs.tolist(), accepted.tolist()):
            if accept and not read_accepts:
                free += 1
                continue
            if ctx is not None:
                ctx.checkpoint()
            objs.append(raf.read_object(ptr))
            if accept:
                accepts += 1
                dists.append(-math.inf)
            else:
                verified += 1
                dists.append(self.distance(query, objs[-1]))
    finally:
        take(objs, np.array(dists, dtype=np.float64), free)
        if tr is not None:
            if verified:
                tr.bump("entries_verified", verified)
            if accepts + free:
                tr.bump("lemma2_accepts", accepts + free)


def knn_search_per_entry(
    self: SPBTree,
    query: Any,
    traversal: str,
    collector: KnnCollector,
    heap: list,
    ctx: Optional[QueryContext],
    phi_q: Optional[tuple[float, ...]] = None,
) -> None:
    """``SPBTree._knn_search`` before a leaf's Lemma 3 survivors became one
    MIND-sorted run: one heap item ``(mind, tiebreak, kind, payload,
    depth)`` per pushed leaf entry (kind 0) or child (kind 1), the bound
    read at every pop, every verified entry offered."""
    counter = itertools.count()
    heap.append((0.0, next(counter), 1, self.btree.root_page, 0))
    tr, phi_q = self._map_query(query, ctx, phi_q)
    distance = self.distance.against(query)
    raf = self.raf

    def offer(objs: Sequence[Any], dists: np.ndarray, _: int) -> None:
        if bound < math.inf:
            keep = dists < bound
            objs, dists = itertools.compress(objs, keep.tolist()), dists[keep]
        for d, obj in zip(dists.tolist(), objs):
            collector.offer(d, obj)

    while heap:
        if ctx is not None:
            ctx.checkpoint()
        mind, tb, kind, payload, depth = heapq.heappop(heap)
        bound = collector.bound()
        if mind >= bound:
            break
        record = tr.enter(tr.level(depth), ctx) if tr is not None else None
        try:
            if kind == 0:
                if tr is not None:
                    tr.bump("entries_verified")
                obj = raf.read_object(payload)
                collector.offer(distance(obj, bound), obj)
                continue
            node = self.btree.read_node(payload)
            if tr is not None:
                tr.bump("nodes_visited")
            if not node.is_leaf:
                minds = self.space.mind_to_boxes(phi_q, *self.btree.child_boxes(node))
            elif traversal == "greedy":
                self._verify_leaf(
                    self.btree.leaf_ptrs(node), np.zeros(node.count, dtype=bool),
                    query, ctx, tr, bound, offer,
                )
                continue
            else:
                minds = self.space.mind_to_cells(phi_q, self.btree.leaf_cells(node))
            keep = np.flatnonzero(minds < bound)
            entries = node.entries
            for i, mind in zip(keep.tolist(), minds[keep].tolist()):
                if node.is_leaf:
                    item = (mind, next(counter), 0, entries[i].ptr, depth)
                else:
                    item = (mind, next(counter), 1, entries[i].child, depth + 1)
                heapq.heappush(heap, item)
            if tr is not None and len(keep) < node.count:
                tr.bump(
                    "entries_pruned_lemma3" if node.is_leaf else "children_pruned_lemma3",
                    node.count - len(keep),
                )
        except _Exhausted:
            heapq.heappush(heap, (mind, tb, kind, payload, depth))
            raise
        finally:
            if record is not None:
                tr.exit(record)


def knn_search_by_run(
    self: SPBTree,
    query: Any,
    traversal: str,
    collector: KnnCollector,
    heap: list,
    ctx: Optional[QueryContext],
    phi_q: Optional[tuple[float, ...]] = None,
) -> None:
    """``SPBTree._knn_search`` before a pop read the frame memo without the
    pool lock: every head is read by ``raf.read_object``, which takes the
    pool lock per pop."""
    tiebreak = 1
    heap.append((0.0, 0, None, self.btree.root_page, 0))
    tr, phi_q = self._map_query(query, ctx, phi_q)
    distance = self.distance.against(query)
    read_object = self.raf.read_object
    inf = math.inf

    def offer(objs: Sequence[Any], dists: np.ndarray, _: int) -> None:
        if bound < inf:
            keep = dists < bound
            objs, dists = itertools.compress(objs, keep.tolist()), dists[keep]
        for d, obj in zip(dists.tolist(), objs):
            collector.offer(d, obj)

    bound = collector.bound()
    while heap:
        if ctx is not None:
            ctx.checkpoint()
        mind, tb, run, payload, depth = heap[0]
        if mind >= bound:
            break
        record = tr.enter(tr.level(depth), ctx) if tr is not None else None
        try:
            if run is not None:
                if tr is not None:
                    tr.bump("entries_verified")
                obj = read_object(payload)
                d = distance(obj, bound)
                if d < bound or bound == inf:
                    collector.offer(d, obj)
                    bound = collector.bound()
                head = next(run, None)
                if head is None:
                    heapq.heappop(heap)
                else:
                    heapq.heapreplace(heap, head)
                continue
            heapq.heappop(heap)
            node = self.btree.read_node(payload)
            if tr is not None:
                tr.bump("nodes_visited")
            if node.is_leaf and traversal == "greedy":
                self._verify_leaf(
                    self.btree.leaf_ptrs(node), np.zeros(node.count, dtype=bool),
                    query, ctx, tr, bound, offer,
                )
            elif node.is_leaf:
                minds = self.space.mind_to_cells(phi_q, self.btree.leaf_cells(node))
                keep = np.flatnonzero(minds < bound)
                if len(keep):
                    order = np.argsort(minds[keep], kind="stable")
                    chosen = keep[order]
                    items: list = []
                    rest = iter(items)
                    items.extend(zip(
                        minds[chosen].tolist(),
                        (order + tiebreak).tolist(),
                        itertools.repeat(rest),
                        self.btree.leaf_ptrs(node)[chosen].tolist(),
                        itertools.repeat(depth),
                    ))
                    tiebreak += len(keep)
                    heapq.heappush(heap, next(rest))
                if tr is not None and len(keep) < node.count:
                    tr.bump("entries_pruned_lemma3", node.count - len(keep))
            else:
                minds = self.space.mind_to_boxes(phi_q, *self.btree.child_boxes(node))
                keep = np.flatnonzero(minds < bound)
                entries = node.entries
                for i, child_mind in zip(keep.tolist(), minds[keep].tolist()):
                    heapq.heappush(
                        heap, (child_mind, tiebreak, None, entries[i].child, depth + 1)
                    )
                    tiebreak += 1
                if tr is not None and len(keep) < node.count:
                    tr.bump("children_pruned_lemma3", node.count - len(keep))
            bound = collector.bound()
        except _Exhausted:
            heapq.heappush(heap, (mind, tb, None, payload, depth))
            raise
        finally:
            if record is not None:
                tr.exit(record)


def lemma2_by_cell(space, phi_q, radius, cells) -> list[bool]:
    """Lemma 2 cell by cell, ``upper_bound_to_pivot(c) <= r - d(q, pᵢ)``
    for some pivot, as the leaf step asked it before it became one compare
    of packed words against per-pivot cell limits."""
    return [
        any(space.upper_bound_to_pivot(c) <= radius - dq for c, dq in zip(cell, phi_q))
        for cell in cells
    ]


def cell_array(space, cells) -> np.ndarray:
    """Cells as the ``(n, |P|)`` int64 array the array forms take."""
    return np.array(cells, dtype=np.int64).reshape(len(cells), space.num_pivots)


def range_leaf_by_entry(tree: SPBTree, leaf, phi_q, rr, radius):
    """``SPBTree._range_leaf`` before it compared packed words: Lemma 1 by
    ``point_in_box`` on each entry's decoded key, then Lemma 2 by cell.
    Returns ``(inside, accepted)`` as lists."""
    cells = [tree.curve.decode(e.key) for e in leaf.entries]
    inside = [i for i, c in enumerate(cells) if point_in_box(c, *rr)]
    return inside, lemma2_by_cell(tree.space, phi_q, radius, [cells[i] for i in inside])


def range_search_by_leaf(self: SPBTree, query, radius, ctx, phi_q, take, read_accepts):
    """``SPBTree._range_search`` before a context-free query verified all
    its survivors in one read and one distance batch: Algorithm 1's descent
    verifying each leaf as it reaches it."""
    tr, phi_q = self._map_query(query, ctx, phi_q)
    rr = self.space.range_region(phi_q, radius)
    packing = self.btree.packing
    box = packing.box_words(*rr)
    limits = packing.limit_words(
        self.space.lemma2_limits(phi_q, radius) if self.use_lemma2 else ()
    )
    stack = [(self.btree.root_page, 0)]
    while stack:
        if ctx is not None:
            ctx.checkpoint()
        page_id, depth = stack.pop()
        record = tr.enter(tr.level(depth), ctx) if tr is not None else None
        try:
            node = self.btree.read_node(page_id)
            if tr is not None:
                tr.bump("nodes_visited")
            if not node.is_leaf:
                meets = np.flatnonzero(
                    self.space.boxes_meet_region(*self.btree.child_boxes(node), rr)
                )
                for i in meets.tolist():
                    stack.append((node.entries[i].child, depth + 1))
                if tr is not None and len(meets) < node.count:
                    tr.bump("children_pruned_lemma1", node.count - len(meets))
                continue
            inside, accepted = self._range_leaf(node, box, limits, tr)
            self._verify_leaf(
                self.btree.leaf_ptrs(node)[inside], accepted,
                query, ctx, tr, radius, take, read_accepts,
            )
        finally:
            if record is not None:
                tr.exit(record)


def write_node_whole(self: BPlusTree, node, body=None) -> None:
    """``BPlusTree._write_node`` before a write spliced the page image it
    read: every node written is encoded whole."""
    BPlusTree._write_node(self, node)


def levenshtein(a, b) -> float:
    """The edit distance by the textbook dynamic programme, one row at a
    time, over any two sequences."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (ca != cb), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return float(prev[-1])


def bag_distance(a: str, b: str) -> int:
    """The bag distance the edit-distance kernel reads from its two cached
    ints, checked to be the same both ways round."""
    x, y = strings._bag(a), strings._bag(b)
    forth = strings._excess(x, y) + max(0, len(a) - len(b))
    assert forth == strings._excess(y, x) + max(0, len(b) - len(a))
    return forth


def within(got: float, exact: float, bound: float) -> bool:
    """``Metric.batch``'s contract for one row: d itself when d <= bound
    (or the bound is NaN), else a lower bound of d greater than ``bound``."""
    if not exact > bound:
        return got == exact
    return bound < got <= exact


# --------------------------------------------------------------- (b) harness


class CountedEdit(EditDistance):
    """Edit distance that counts its scalar calls: a subclass that
    overrides ``__call__``, which every batch must ask row by row."""

    calls = 0

    def __call__(self, a, b):
        self.calls += 1
        return super().__call__(a, b)


class StatShard:
    """A stat shard's counters, for reads outside any query."""

    def __init__(self) -> None:
        self.page_accesses = 0
        self.compdists = 0


@contextmanager
def under_shard(budget: Optional[int] = None) -> Iterator[tuple[StatShard, Any]]:
    """``with under_shard(budget) as (shard, stop):`` a fresh stat shard,
    active inside the block, and a ``stop`` that trips once the shard's
    page accesses pass ``budget`` (None, for no budget)."""
    shard = StatShard()
    push_stat_shard(shard)
    try:
        yield shard, None if budget is None else (lambda: shard.page_accesses > budget)
    finally:
        pop_stat_shard()


def snapshot(store, shard: Optional[StatShard] = None) -> dict:
    """What a reader can see of a tree's or a RAF's storage: page-file
    reads and the RAF pool's hits, misses and LRU order; a tree's
    compdists and page accesses; the page accesses ``shard`` was credited."""
    raf = store.raf if isinstance(store, SPBTree) else store
    pool = raf.buffer_pool
    out = {
        "reads": raf.pagefile.counter.reads,
        "hits": pool.hits,
        "misses": pool.misses,
        "lru": list(pool._cache),
    }
    if raf is not store:
        out.update(compdists=store.distance_computations, pa=store.page_accesses)
    if shard is not None:
        out["shard"] = shard.page_accesses
    return out


def memo_is_sound(raf: RandomAccessFile) -> None:
    """Every entry of the pool's frame memo belongs to a cached page and
    holds the non-empty payload the record's header frames on it."""
    pool = raf.buffer_pool
    for page_id, frames in pool._memo.items():
        page = pool._cache[page_id]
        for start, payload in frames.items():
            _, length = _HEADER.unpack_from(page, start)
            body = start + _HEADER.size
            assert payload and len(payload) == length
            assert payload == page[body : body + length]


def cold(*stores) -> None:
    """Empty each tree's or RAF's pool and zero its counters."""
    for store in stores:
        store.flush_cache(reset_stats=True)
        if isinstance(store, SPBTree):
            store.reset_counters()
        else:
            store.pagefile.counter.reset()


def twin_rafs(fill: Callable, serializer, **options):
    """``(raf, twin, offsets)``: two ``RandomAccessFile(serializer(),
    **options)`` filled by the same ``fill(raf) -> offsets``, cold."""
    rafs = [RandomAccessFile(serializer(), **options) for _ in range(2)]
    offsets = [fill(raf) for raf in rafs][0]
    cold(*rafs)
    return (*rafs, offsets)


def vectors(n: int, dim: int, seed: int, decimals: int = 2) -> list[np.ndarray]:
    """``n`` seeded ``dim``-d vectors in [0, 1), rounded to ``decimals``."""
    return list(np.random.default_rng(seed).random((n, dim)).round(decimals))


def canon(obj):
    """An answer object in a form ``==`` compares: a word, or a tuple."""
    return obj if isinstance(obj, str) else tuple(np.asarray(obj).tolist())


def kind(obj):
    """What ``canon`` drops of an answer object: its type, and an array's
    dtype, shape and writability."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.flags.writeable
    return type(obj).__name__


def same_key(obj):
    """An object on the same SFC key as ``obj``: the word again, or the
    vector nudged far below the grid's cell width (other bytes)."""
    if isinstance(obj, str):
        return obj
    twin = np.array(obj, dtype=np.float64)
    twin[-1] += 1e-9
    return twin


def spans(span) -> tuple:
    """A trace's span tree — name, compdists, page accesses, tallies and
    children — without its timings."""
    return (
        span.name, span.compdists, span.page_accesses, dict(span.counts),
        tuple(spans(child) for child in span.children),
    )


def tallies(tree: tuple) -> Counter:
    """The tallies of a ``spans`` tree, summed over every span."""
    total = Counter(tree[3])
    for child in tree[4]:
        total += tallies(child)
    return total


@contextmanager
def spied(owner, name: str, note: Callable = lambda *args, **kwargs: args) -> Iterator[list]:
    """Record ``note(*args)`` for every call of ``owner.name`` inside the
    block, passing the call through."""
    calls: list = []
    inner = getattr(owner, name)
    own = name in vars(owner)

    def spy(*args, **kwargs):
        calls.append(note(*args, **kwargs))
        return inner(*args, **kwargs)

    setattr(owner, name, spy)
    try:
        yield calls
    finally:
        if own:
            setattr(owner, name, inner)
        else:
            delattr(owner, name)


def mutated_tree(objects, metric, steps=(), **build) -> tuple[SPBTree, list]:
    """``SPBTree.build(objects, metric, **build)``, then ``steps`` in order:
    ``("insert", obj)`` or ``("delete", obj)``, each delete finding its
    object.  Returns the tree and its live objects."""
    tree = SPBTree.build(objects, metric, **build)
    live = list(objects)
    for op, obj in steps:
        if op == "insert":
            tree.insert(obj)
            live.append(obj)
        else:
            assert tree.delete(obj)
            del live[next(i for i, o in enumerate(live) if o is obj)]
    return tree, live


def words_tree(cache_pages: int) -> tuple[SPBTree, list]:
    """300 words on 256-byte pages with write-through appends after the
    bulk load and deletes: tombstones, records crossing a page boundary and
    a live tail (the tree ``test_scan_golden`` pins), and its live words."""
    words = generate_words(340, seed=5)
    return mutated_tree(
        words[:300], EditDistance(),
        [("insert", w) for w in words[300:]]
        + [("delete", w) for w in words[40:70] + words[305:310]],
        num_pivots=3, seed=1, page_size=256, cache_pages=cache_pages,
    )


def twin_trees(build: Callable[[], tuple], path: str, reference: Callable):
    """``(tree, twin, live)``: two ``(tree, live)`` pairs from the same
    seeded ``build()`` (``mutated_tree`` makes one), the trees with cold
    pools and zero counters; on the twin, ``path`` (an attribute of the
    tree, dotted: ``"raf.read_object"``) runs ``reference``, which takes its
    owner first."""
    (tree, live), (twin, _) = build(), build()
    *owners, name = path.split(".")
    owner = functools.reduce(getattr, owners, twin)
    setattr(owner, name, types.MethodType(reference, owner))
    cold(tree, twin)
    return tree, twin, live


def observe(
    tree: SPBTree, op: str, query, arg, limits=None, traversal="incremental",
    traced=True,
):
    """One query — ``op`` "range" or "count" with radius ``arg``, or "knn"
    with k ``arg`` — and everything it moved.  ``limits`` are the budgets
    of a context, traced unless ``traced`` is false; None runs the query
    with no context at all."""
    trace = QueryTrace(op) if traced else None
    ctx = None if limits is None else QueryContext(trace=trace, **limits)
    if op == "knn":
        res = tree.knn_query(query, arg, traversal=traversal, context=ctx)
    elif op == "range":
        res = tree.range_query(query, arg, context=ctx)
    else:
        res = tree.range_count(query, arg, context=ctx)
    out = snapshot(tree)
    if ctx is not None:
        out.update(
            complete=res.complete,
            reason=str(res.reason),
            frontier=res.frontier,
            ctx=(ctx.compdists, ctx.page_accesses),
            spans=None if trace is None else spans(trace.root),
        )
        res = res.count if op == "count" else res.items
    if op == "knn":
        out["kinds"] = [kind(o) for _, o in res]
        res = [(d, canon(o)) for d, o in res]
    elif op == "range":
        out["kinds"] = [kind(o) for o in res]
        res = [canon(o) for o in res]
    out["answer"] = res
    return out


def assert_twins(tree, twin, queries, limits=None, traversal="incremental") -> list:
    """Run ``queries`` — ``(op, query, arg)`` triples — in order on the
    tree and on its twin.  Query by query both must agree on the answer and
    its order, each answer object's ``kind``, completeness, reason and
    frontier, compdists and page accesses, page-file reads, pool hits,
    misses and LRU order, and every span of the trace.  ``limits`` is one
    budget dict for every query, or a function of the query's index.
    Returns the tree's observations."""
    got = []
    for i, (op, query, arg) in enumerate(queries):
        budget = limits(i) if callable(limits) else limits
        have = observe(tree, op, query, arg, budget, traversal)
        assert have == observe(twin, op, query, arg, budget, traversal), (op, arg, budget)
        got.append(have)
    return got


def check_against_scan(scan, queries, runs) -> None:
    """Each observation of ``runs`` against the linear scan: a complete
    answer is the scan's, a partial kNN answer a confirmed prefix of the
    true distances, a partial range answer only true hits and a partial
    count no more than the true count."""
    for (op, query, arg), run in zip(queries, runs):
        complete = run.get("complete", True)
        if op == "knn":
            true = [d for d, _ in scan.knn_query(query, arg)]
            dists = [d for d, _ in run["answer"]]
            assert dists == true[: len(dists)]
            assert not complete or len(dists) == len(true)
            continue
        truth = Counter(canon(o) for o in scan.range_query(query, arg))
        if op == "count":
            assert run["answer"] <= sum(truth.values())
            assert not complete or run["answer"] == sum(truth.values())
        else:
            got = Counter(run["answer"])
            assert not got - truth  # every hit is a true hit
            assert not complete or got == truth
