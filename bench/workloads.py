"""The five workloads: corpus, seeded op lists and the deployment each runs on.

A workload is a fixed corpus (the repo's synthetic dataset at its default
generator seed), a deployment built over it, and one op list per client
drawn from ``--seed``.  The program under test only ever sees the objects
and the ops; the seed picks *which* objects are queried, inserted and
deleted and in what order.  The corpus itself does not move with the seed:
a different corpus changes the pivot table, and with it compdists per
query by +-20 %, which would drown every bound in BENCHMARK.json (measured
while sizing this benchmark, see bench/README.md).

Ops are plain tuples — ``("range", q, r)``, ``("knn", q, k)``,
``("count", q, r)``, ``("insert", o)``, ``("delete", o)``,
``("checkpoint",)`` — and :func:`call` applies one to anything that has
the ``SPBTree`` method names, which ``NetClient`` shares.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from repro.cluster.sharded import ShardedIndex
from repro.core.persist import load_tree, open_tree, save_tree
from repro.core.pivots import select_pivots
from repro.core.spbtree import SPBTree
from repro.datasets import load_dataset
from repro.datasets.words import generate_words
from repro.distance import EditDistance, EuclideanDistance
from repro.distance.base import Metric
from repro.net.client import NetClient, RetryPolicy
from repro.net.server import serve_in_thread
from repro.replication.cluster import ReplicatedIndex, replicate
from repro.service.engine import QueryEngine

CORPUS_SEED = 42  # load_dataset's own default: the corpus every test uses
BUILD_SEED = 7
NUM_PIVOTS = 5
KNN_K = 8
WORD_RADIUS = 1
COLOR_RADIUS_FRAC = 0.08  # of d+: ~10 % of the corpus per answer
CHECKPOINT_EVERY = 400  # mutations between checkpoints on words-write
READ_DEADLINE_MS = 250.0
SHARDS = 2
REPLICAS = 1
ENGINE_WORKERS = 2
ENGINE_QUEUE = 32
CLIENTS = 2  # = nproc: the generator must not outnumber the cores

READ_KINDS = ("range", "knn", "count")
MUTATION_KINDS = ("insert", "delete")


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale; ``quick`` exists for the smoke test."""

    name: str
    words_n: int
    color_n: int
    write_n: int
    warmup: int  # untimed ops per client before the counters reset
    setup_reps: int  # set-ups per run; setup_s is their median
    checks: int  # answers re-answered by the linear scan per run
    probe_calls: int  # direct calls per layer probe
    ladder_ops: int  # read ops timed at each rung of the cluster ladder
    list_factor: int  # op lists are this much longer (small corpora are fast)
    count_div: int  # the count cut comes after 1/count_div of the workload's ops


FULL = Scale("full", 6000, 8000, 4000, 50, 3, 40, 2000, 80, 1, 1)
QUICK = Scale("quick", 400, 400, 300, 5, 1, 8, 100, 6, 8, 10)


@contextmanager
def phase(timings: dict, name: str) -> Iterator[None]:
    """Add the wall time of the block to ``timings[name]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0


def call(target: Any, op: tuple, limits: dict) -> Any:
    """Apply one op; ``limits`` are the keyword limits reads carry."""
    kind = op[0]
    if kind == "range":
        return target.range_query(op[1], op[2], **limits)
    if kind == "knn":
        return target.knn_query(op[1], op[2], **limits)
    if kind == "count":
        return target.range_count(op[1], op[2], **limits)
    if kind == "insert":
        return target.insert(op[1])
    if kind == "delete":
        return target.delete(op[1])
    if kind == "checkpoint":
        return target.checkpoint()
    raise ValueError(f"unknown op kind {kind!r}")


def rng_for(seed: int, *parts: Any) -> random.Random:
    """An independent stream per (seed, purpose); str seeds hash stably."""
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def fresh_words(corpus: Sequence[str], count: int, seed: int) -> list[str]:
    """``count`` distinct words that are not in ``corpus``."""
    taken = set(corpus)
    out: list[str] = []
    want = count
    while len(out) < count:
        want *= 2
        out = [w for w in generate_words(want, seed=seed) if w not in taken]
    return out[:count]


#: Queries are drawn in rounds of this many, one from each equal slice of
#: the corpus sorted by object size, so every stretch of a list has the
#: corpus's own mix of cheap and dear queries.  (A words kNN costs 3 ms
#: for a 2-letter query and 50 ms for a 20-letter one; drawn freely, ten
#: seeds of 300 kNN ops had a quartile spread of 11 % from the draw alone.)
ROUND = 25


def query_stream(
    rng: random.Random, corpus: Sequence[Any], slices: int = ROUND
) -> Iterator[Any]:
    """Endless queries, uniform over ``corpus``, stratified by size:
    every ``slices`` consecutive queries hold one from each slice."""
    ordered = sorted(corpus, key=len)
    n = len(ordered)
    cuts = [j * n // slices for j in range(slices + 1)]
    while True:
        picks = [
            ordered[rng.randrange(lo, max(lo + 1, hi))]
            for lo, hi in zip(cuts, cuts[1:])
        ]
        rng.shuffle(picks)
        yield from picks


def kind_stream(rng: random.Random, mix: dict[str, int]) -> Iterator[str]:
    """Endless op kinds in exactly the proportions of ``mix`` per round."""
    kinds = [kind for kind, count in mix.items() for _ in range(count)]
    while True:
        rng.shuffle(kinds)
        yield from kinds


def directory_bytes(directory: str) -> int:
    total = 0
    for base, _, names in os.walk(directory):
        for name in names:
            total += os.path.getsize(os.path.join(base, name))
    return total


# ------------------------------------------------------------- deployments


class TreeDeployment:
    """One on-disk ``SPBTree`` called directly by one client."""

    def __init__(
        self, tree: SPBTree, directory: str, metric: Metric, writable: bool
    ) -> None:
        self.tree = tree
        self.directory = directory
        self.metric = metric
        self.writable = writable

    def targets(self) -> list[tuple[Any, dict]]:
        return [(self.tree, {})]

    def store(self) -> SPBTree:
        return self.tree

    def trees(self) -> list[SPBTree]:
        return [self.tree]

    def counters(self) -> tuple[int, int]:
        return self.tree.distance_computations, self.tree.page_accesses

    def reset_counters(self) -> None:
        self.tree.reset_counters()
        self.tree.raf.buffer_pool.reset_stats()

    def buffer_stats(self) -> tuple[int, int]:
        pool = self.tree.raf.buffer_pool
        return pool.hits, pool.misses

    def serializer(self) -> Any:
        return self.tree.raf.serializer

    def reopen(self) -> None:
        """Close and open again from the directory alone (durability check)."""
        self.close()
        self.tree = open_tree(self.directory, self.metric, wal_fsync=True)

    def close(self) -> None:
        if self.tree.wal is not None:
            self.tree.wal.close()
            self.tree.wal = None


class ClusterDeployment:
    """The full stack served in-process: replicated shards, engine, TCP."""

    def __init__(
        self, index: ReplicatedIndex, directory: str, metric: Metric
    ) -> None:
        self.index = index
        self.directory = directory
        self.metric = metric
        self.writable = True
        self.engine = QueryEngine(
            index, workers=ENGINE_WORKERS, max_queue=ENGINE_QUEUE
        ).start()
        self.handle = serve_in_thread(self.engine)
        self._clients: list[NetClient] = []

    def client(self) -> NetClient:
        client = NetClient(
            "127.0.0.1", self.handle.port, retry=RetryPolicy(attempts=1)
        )
        self._clients.append(client)
        return client

    def targets(self) -> list[tuple[Any, dict]]:
        limits = {"deadline_ms": READ_DEADLINE_MS}
        return [(self.client(), limits) for _ in range(CLIENTS)]

    def store(self) -> ReplicatedIndex:
        return self.index

    def trees(self) -> list[SPBTree]:
        return [shard.tree for shard in self.index.shards]

    def counters(self) -> tuple[int, int]:
        return self.index.distance_computations, self.index.page_accesses

    def reset_counters(self) -> None:
        self.index.reset_counters()
        for tree in self.trees():
            tree.raf.buffer_pool.reset_stats()

    def buffer_stats(self) -> tuple[int, int]:
        pools = [tree.raf.buffer_pool for tree in self.trees()]
        return sum(p.hits for p in pools), sum(p.misses for p in pools)

    def serializer(self) -> Any:
        return self.trees()[0].raf.serializer

    def _stop_serving(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
        if self.engine is not None:
            self.engine.stop()
            self.engine = None

    def reopen(self) -> None:
        """Stop serving and reopen the cluster from its directory alone;
        the durability check then reads the index directly."""
        self.close()
        self.index = ReplicatedIndex.open(
            self.directory, self.metric, wal_fsync=True,
            heartbeat_timeout=3600.0,
        )

    def close(self) -> None:
        self._stop_serving()
        self.index.close()


# ---------------------------------------------------------------- workloads


class Workload:
    """Name, rationale and the three things that differ per workload."""

    name = ""
    why = ""
    dataset = "words"
    clients = 1
    #: A client takes the clock factor every ``calib_ops`` of its ops, ~0.2 s
    #: on the seed commit: the box's clock state moves every few hundred ms.
    calib_ops = 10
    #: Throughput and CPU per op are medians over blocks of ``block_ops``
    #: consecutive completions: whole rounds, so blocks hold the same mix.
    block_ops = 50
    #: Ops generated per client and per second of timed window: well above
    #: what the seed commit completes, so a faster program never runs dry.
    ops_per_second = 400
    #: The counts are read once every client has run this many timed ops,
    #: in whole rounds: as many as the seed commit completes in the
    #: contract's 10 s even when the box is slow (the fewer, the more the
    #: draw of the queries moves the counts from seed to seed).  Frozen:
    #: moving it moves the counts.
    count_at = 0

    def size(self, scale: Scale) -> int:
        return scale.words_n

    def count_ops(self, scale: Scale) -> int:
        return self.count_at // scale.count_div

    def corpus(self, scale: Scale) -> tuple[list[Any], Metric]:
        data = load_dataset(self.dataset, size=self.size(scale), seed=CORPUS_SEED)
        metric = EditDistance() if self.dataset == "words" else EuclideanDistance()
        return data.objects, metric

    def list_length(self, scale: Scale, seconds: float) -> int:
        timed = int(self.ops_per_second * seconds * scale.list_factor)
        return scale.warmup + max(self.count_ops(scale), timed)

    def make_ops(
        self, seed: int, corpus: list[Any], metric: Metric, scale: Scale,
        seconds: float,
    ) -> list[list[tuple]]:
        raise NotImplementedError

    def setup(
        self, corpus: list[Any], metric: Metric, directory: str,
        timings: dict, build_metric: Optional[Metric] = None,
    ) -> Any:
        raise NotImplementedError


def build_single_tree(
    corpus: list[Any], metric: Metric, directory: str, timings: dict,
    cache_pages: int, writable: bool, build_metric: Optional[Metric],
) -> TreeDeployment:
    """Pivot selection + bulk load + save + reopen, each phase timed.

    ``build_metric`` (traced runs only) stands in for the metric during the
    bulk load so the mapping pass can be timed from outside ``build``.
    """
    with phase(timings, "core.pivots.select_s"):
        pivots = select_pivots(
            corpus, NUM_PIVOTS, metric, method="hfi", seed=BUILD_SEED
        )
    with phase(timings, "build_s"):
        d_plus = metric.max_distance(corpus)
        tree = SPBTree.build(
            corpus, build_metric or metric, num_pivots=NUM_PIVOTS,
            pivots=pivots, d_plus=d_plus, cache_pages=cache_pages,
            seed=BUILD_SEED,
        )
    with phase(timings, "core.persist.save_s"):
        save_tree(tree, directory)
    with phase(timings, "core.persist.load_s"):
        if writable:
            tree = open_tree(directory, metric, wal_fsync=True)
        else:
            tree = load_tree(directory, metric)
    return TreeDeployment(tree, directory, metric, writable)


class _ReadOnlyTree(Workload):
    cache_pages = 32
    kind = "range"

    def argument(self, corpus: list[Any], metric: Metric) -> Any:
        raise NotImplementedError

    def make_ops(self, seed, corpus, metric, scale, seconds):
        queries = query_stream(rng_for(seed, self.name), corpus)
        arg = self.argument(corpus, metric)
        n = self.list_length(scale, seconds)
        return [[(self.kind, next(queries), arg) for _ in range(n)]]

    def setup(self, corpus, metric, directory, timings, build_metric=None):
        return build_single_tree(
            corpus, metric, directory, timings, self.cache_pages,
            writable=False, build_metric=build_metric,
        )


class WordsRange(_ReadOnlyTree):
    name = "words-range"
    why = (
        "selective range search (r=1) on a tree whose RAF fits its cache: "
        "sfc encode and btree node decode lead, distance and raf do little"
    )
    cache_pages = 64
    calib_ops = 20
    block_ops = 2 * ROUND
    ops_per_second = 500
    count_at = 40 * ROUND

    def argument(self, corpus, metric):
        return WORD_RADIUS


class WordsKnn(_ReadOnlyTree):
    name = "words-knn"
    why = (
        "incremental kNN (k=8) on the same tree: best-first traversal led "
        "by edit distance, mind_to_cell and raf reads; sfc encode idle"
    )
    cache_pages = 64
    kind = "knn"
    calib_ops = 5
    block_ops = ROUND
    ops_per_second = 120
    count_at = 8 * ROUND

    def argument(self, corpus, metric):
        return KNN_K


class ColorScan(_ReadOnlyTree):
    name = "color-scan"
    why = (
        "result-heavy range scan over vectors, RAF 8x the buffer pool: raf "
        "read, deserialize, buffer misses and numpy L2 lead; PA is visible"
    )
    dataset = "color"
    calib_ops = 8
    block_ops = ROUND
    ops_per_second = 200
    count_at = 16 * ROUND

    def size(self, scale):
        return scale.color_n

    def argument(self, corpus, metric):
        return COLOR_RADIUS_FRAC * metric.max_distance(corpus)


class WordsWrite(Workload):
    name = "words-write"
    why = (
        "60/20/20 insert/delete/range with fsync per mutation and periodic "
        "checkpoints, then reopen: wal, btree insert, raf append, persist"
    )
    calib_ops = 100
    block_ops = 200
    ops_per_second = 1500
    count_at = 4000

    def size(self, scale):
        return scale.write_n

    def make_ops(self, seed, corpus, metric, scale, seconds):
        rng = rng_for(seed, self.name)
        n = self.list_length(scale, seconds)
        # 60 % of the ops insert; 0.7 n fresh words cannot run out.
        fresh = iter(
            fresh_words(corpus, int(0.7 * n) + 8, seed=rng.randrange(1 << 30))
        )
        kinds = kind_stream(rng, {"insert": 6, "delete": 2, "range": 2})
        queries = query_stream(rng, corpus)
        live = list(corpus)
        ops: list[tuple] = []
        mutations = 0
        while len(ops) < n:
            kind = next(kinds)
            if kind == "range":
                ops.append(("range", next(queries), WORD_RADIUS))
                continue
            if kind == "insert":
                word = next(fresh)
                live.append(word)
                ops.append(("insert", word))
            else:
                at = rng.randrange(len(live))
                live[at], live[-1] = live[-1], live[at]
                ops.append(("delete", live.pop()))
            mutations += 1
            if mutations % CHECKPOINT_EVERY == 0:
                ops.append(("checkpoint",))
        return [ops]

    def setup(self, corpus, metric, directory, timings, build_metric=None):
        return build_single_tree(
            corpus, metric, directory, timings, cache_pages=32,
            writable=True, build_metric=build_metric,
        )


class ClusterNet(Workload):
    name = "cluster-net"
    why = (
        "2 shards x 2 replicas behind the engine and the TCP front end, 2 "
        "closed-loop clients, 60/20/15/5 range/count/knn/insert: the only "
        "workload that crosses cluster, replication, service and net"
    )
    clients = CLIENTS
    calib_ops = 8
    block_ops = 120  # three rounds of 20 from each client
    ops_per_second = 200
    count_at = 280  # per client: seven size-stratified rounds of each kind

    def make_ops(self, seed, corpus, metric, scale, seconds):
        n = self.list_length(scale, seconds)
        words = fresh_words(  # 1 op in 20 inserts
            corpus, n * self.clients // 10 + 8,
            seed=rng_for(seed, self.name).randrange(1 << 30),
        )
        lists = []
        for cid in range(self.clients):
            rng = rng_for(seed, self.name, cid)
            fresh = iter(words[cid::self.clients])
            mix = {"range": 12, "count": 4, "knn": 3, "insert": 1}
            kinds = kind_stream(rng, mix)
            # one stream per kind, each completing a size-stratified round
            # every 40 ops: each kind sees the corpus's own size mix
            queries = {k: query_stream(rng, corpus, 2 * mix[k]) for k in READ_KINDS}
            args = {"range": WORD_RADIUS, "count": WORD_RADIUS, "knn": KNN_K}
            ops: list[tuple] = []
            for _ in range(n):
                kind = next(kinds)
                if kind == "insert":
                    ops.append(("insert", next(fresh)))
                else:
                    ops.append((kind, next(queries[kind]), args[kind]))
            lists.append(ops)
        return lists

    def setup(self, corpus, metric, directory, timings, build_metric=None):
        with phase(timings, "core.pivots.select_s"):
            pivots = select_pivots(
                corpus, NUM_PIVOTS, metric, method="hfi", seed=BUILD_SEED
            )
        with phase(timings, "build_s"):
            d_plus = metric.max_distance(corpus)
            index = ShardedIndex.build(
                corpus, build_metric or metric, shards=SHARDS,
                num_pivots=NUM_PIVOTS, pivots=pivots, d_plus=d_plus,
                seed=BUILD_SEED,
            )
        with phase(timings, "core.persist.save_s"):
            index.save(directory)
            replicate(
                directory, metric, replicas=REPLICAS, read_policy="primary-only"
            )
        with phase(timings, "core.persist.load_s"):
            # No member may age out mid-run: nothing beats between inserts.
            opened = ReplicatedIndex.open(
                directory, metric, wal_fsync=True, heartbeat_timeout=3600.0
            )
        with phase(timings, "serve_s"):
            return ClusterDeployment(opened, directory, metric)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (WordsRange(), WordsKnn(), ColorScan(), WordsWrite(), ClusterNet())
}
