"""Command-line interface for quick, interactive use of the library.

``query``, ``build``, ``verify``, ``serve``, ``insert``, ``delete`` and
``checkpoint`` find their index one way: ``--dir D`` opens the saved tree or
cluster D's catalog names (writable for the last four), ``--connect
HOST:PORT`` (``query`` only) talks to a ``serve --listen`` server, and with
neither the dataset flags build one in memory (a cluster with ``--shards N``).

    info            dataset statistics: d+, intrinsic dimension, pivot precision
    query           one budgeted range / kNN / count query; --trace shows its spans
    join            self-split similarity join (SJA) with its cost estimate
    compare         one kNN query on all four access methods
    build           build and save a tree, or an N-shard cluster (--shards)
    verify          audit a saved tree or cluster for corruption (exit 1 on damage)
    salvage         rebuild a consistent index from a damaged directory
    insert          durably insert one object into a saved index (WAL)
    delete          durably delete one object from a saved index (WAL)
    checkpoint      fold the write-ahead log into a new on-disk generation
    log-stats       inspect an index's write-ahead log without loading it
    serve           a concurrent mixed workload through the QueryEngine, or --listen
    shard-rebalance split a hot shard or merge cold neighbours (crash-safe)
    replicate       turn a saved cluster into per-shard WAL-shipping replica sets
    shard-failover  promote a shard's best follower to primary
    scrub           one anti-entropy pass over a replicated cluster, repairing it
    shard-status    replication health per shard plus the journal tails
    trace           render span trees recorded in a flight dump or slow log
    metrics-diff    what happened between two metric expositions

Every subcommand answers bad input with exit code 1 and one
``<subcommand>: <message>`` line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import signal
import sys
import threading
import time
from typing import Any, Iterable, Optional, Sequence

from repro import obs

from repro import replication
from repro.baselines import MIndex, MTree, OmniRTree
from repro.cluster import CLUSTER_FILE, READ_POLICIES, ShardedIndex
from repro.core.costmodel import CostModel
from repro.core.join import similarity_join
from repro.core.persist import (
    _META_FILE, _read_catalog, load_tree, open_tree, save_tree,
)  # fmt: skip
from repro.core.pivots import (
    intrinsic_dimensionality,
    pivot_set_precision,
    select_pivots,
)
from repro.core.spbtree import SPBTree
from repro.datasets import DATASETS, load_dataset
from repro.distance import (
    ChebyshevDistance,
    EditDistance,
    HammingDistance,
    JaccardDistance,
    Metric,
    MinkowskiDistance,
    TriGramAngularDistance,
)
from repro.recovery import salvage_tree
from repro.service import Overloaded, QueryContext, QueryEngine
from repro.storage.serializers import serializer_for
from repro.storage.wal import OP_INSERT, WAL_FILE, scan_wal
from repro.supervisor import SUPERVISOR_JOURNAL, Supervisor, read_journal
from repro.tuning import TUNING_JOURNAL, Tuner


class CommandFailed(Exception):
    """A subcommand's own verdict — damage found, nothing to show — which
    :func:`main` reports the way it reports bad input."""


def _build(args: argparse.Namespace, shards: int = 0):
    """Load ``--dataset`` and build over it, timed: one SPB-tree, or an
    in-memory cluster of ``shards`` of them (``--shards``)."""
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    build = dict(
        num_pivots=args.pivots, d_plus=dataset.d_plus, seed=7,
        checksums=getattr(args, "checksums", False),
    )
    t0 = time.perf_counter()
    if shards > 0:
        index = ShardedIndex.build(
            dataset.objects, dataset.metric, shards=shards, **build
        )
        what = f"{index.num_shards}-shard SPB-tree cluster"
    else:
        index = SPBTree.build(dataset.objects, dataset.metric, **build)
        what = "SPB-tree"
    elapsed = time.perf_counter() - t0
    print(
        f"built {what} over {len(index):,} {args.dataset} objects in "
        f"{elapsed:.2f}s ({index.size_in_bytes / 1024:.0f} KB, "
        f"{index.distance_computations:,} compdists)"
    )
    return dataset, index


def _metric_from_name(name: str) -> Metric:
    """Reconstruct a metric from its stored fingerprint name."""
    fixed = {
        "edit": EditDistance,
        "hamming": HammingDistance,
        "jaccard": JaccardDistance,
        "trigram-angular": TriGramAngularDistance,
        "Linf": ChebyshevDistance,
    }
    if name in fixed:
        return fixed[name]()
    if name.startswith("L"):
        try:
            return MinkowskiDistance(float(name[1:]))
        except ValueError:
            pass
    raise ValueError(
        f"cannot reconstruct metric {name!r} from its name; "
        f"use the library API (repro.load_tree / repro.recovery.salvage_tree) "
        f"with the metric object instead"
    )


def _directory_catalog(directory: str) -> tuple[dict, bool]:
    """``directory``'s catalog, and whether it is a cluster's: a
    ``cluster.json`` there makes it one, else ``spbtree.json`` is read."""
    cluster = os.path.exists(os.path.join(directory, CLUSTER_FILE))
    return _read_catalog(directory, CLUSTER_FILE if cluster else _META_FILE), cluster


def _directory_metric(
    args: argparse.Namespace, catalog: Optional[dict] = None
) -> Metric:
    """The metric for a saved index: --metric wins, else the catalog's name."""
    if args.metric is not None:
        return _metric_from_name(args.metric)
    if catalog is None:
        catalog, _ = _directory_catalog(args.dir)
    name = catalog.get("metric_name")
    if not isinstance(name, str):
        raise ValueError(
            f"the catalog in {args.dir} names no metric; pass --metric explicitly"
        )
    return _metric_from_name(name)


def _parse_object(serializer: Optional[str], value: str):
    """A command-line object literal, per the index's serializer name."""
    if serializer in (None, "string"):
        return value
    if serializer in ("vector-f64", "vector-u8"):
        cast = float if serializer == "vector-f64" else int
        try:
            return tuple(cast(part) for part in value.split(","))
        except ValueError:
            raise ValueError(
                f"cannot parse {value!r} as a {serializer} vector "
                f"(expected comma-separated numbers)"
            ) from None
    if serializer == "bytes":
        return value.encode("utf-8")
    raise ValueError(
        f"objects stored with serializer {serializer!r} cannot be expressed "
        f"on the command line; use the library API (repro.open_tree)"
    )


def _query_object(
    args: argparse.Namespace, serializer: Optional[str], fallback: Iterable
):
    """The object a one-query command asks about: ``--query`` parsed by the
    index's serializer, else the first of ``fallback`` (the dataset's
    queries, the cluster's objects)."""
    if args.query is not None:
        return _parse_object(serializer, args.query)
    for obj in fallback:
        return obj
    raise ValueError("the index holds no object to query by; pass --query")


def _radius(percent: float, d_plus: float, metric: Metric) -> float:
    """``percent`` of d+ as a radius; a discrete metric takes whole steps."""
    radius = d_plus * percent / 100.0
    if metric.is_discrete:
        radius = max(1.0, round(radius))
    return radius


def _query_radius(args: argparse.Namespace, index) -> Optional[float]:
    """``--radius`` wins, else ``--radius-percent`` of the index's d+.  A
    server's d+ is not known here, so over the wire range and count need
    ``--radius`` (kNN takes none)."""
    if args.radius is not None:
        return args.radius
    if args.connect is None:
        return _radius(args.radius_percent, index.space.d_plus, index.distance)
    if args.mode != "knn":
        raise ValueError(
            f"--connect needs --radius for a {args.mode} query: the client "
            f"has no d+ to take --radius-percent of"
        )
    return None


def _run_query(target, mode: str, query, k: int, radius: float, **kw):
    """One query in ``mode`` against anything that answers the three calls —
    an ``SPBTree``, a ``ShardedIndex``, a ``NetClient``; ``kw`` is whatever
    that target's calls take (``context=``, ``traversal=``, wire limits)."""
    if mode == "range":
        return target.range_query(query, radius, **kw)
    if mode == "knn":
        return target.knn_query(query, k, **kw)
    return target.range_count(query, radius, **kw)


def _print_answer(mode: str, result, k: int, radius: float) -> None:
    """The headline of one answer, then what it holds."""
    if mode == "knn":
        print(f"kNN(q, {k}) -> {len(result)} neighbours")
        for dist, obj in result:
            print(f"  d={dist:.4g}  {obj!r}"[:100])
    elif mode == "range":
        print(f"RQ(q, O, {radius:g}) -> {len(result)} results")
        for obj in result[:10]:
            print(f"  {obj!r}"[:100])
        if len(result) > 10:
            print(f"  ... and {len(result) - 10} more")
    else:
        print(f"|RQ(q, O, {radius:g})| >= {result.count}")


def _state(complete: bool, reason) -> str:
    return "complete" if complete else f"PARTIAL — {reason}"


def _limits(args: argparse.Namespace) -> dict:
    return {
        "deadline_ms": args.deadline_ms,
        "max_compdists": args.max_compdists,
        "max_page_accesses": args.max_pa,
    }


def _hit_rate(hits: int, misses: int) -> str:
    rate = 100.0 * hits / (hits + misses) if hits + misses else 0.0
    return f"buffer hit-rate {rate:.1f}% ({hits} hits / {misses} misses)"


def _trees(index) -> list:
    """The trees an index reads: a tree itself, or a cluster's primaries."""
    if isinstance(index, ShardedIndex):
        return [s.tree for s in index.shards]
    return [index]


def _print_hit_rate(index, engine: QueryEngine) -> None:
    """The one-line buffer-pool summary ``serve`` ends with on stderr; the
    engine's admission-rejection tally rides along, so backpressure shows
    up in the same line operators already scrape."""
    pools = [t.raf.buffer_pool for t in _trees(index) if t.raf is not None]
    hit_rate = _hit_rate(sum(p.hits for p in pools), sum(p.misses for p in pools))
    print(f"serve: {hit_rate}, {engine.rejected} rejected", file=sys.stderr)


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"--listen/--connect needs HOST:PORT, got {value!r}")
    return (host or "127.0.0.1", int(port))


@contextlib.contextmanager
def _open_index(args: argparse.Namespace, writable: bool = False):
    """What ``query``, ``build``, ``verify``, ``serve`` and the write verbs
    talk to, as ``(index, serializer name, objects to query by when --query
    is absent)``: ``--connect`` gives a :class:`NetClient`, ``--dir`` the
    saved cluster or tree its catalog names (``writable``: with its logs
    attached, a cluster as a :class:`ReplicatedIndex`), and neither builds
    over the dataset flags.  What it opened, it closes on the way out."""
    connect, directory = getattr(args, "connect", None), getattr(args, "dir", None)
    if connect is not None:
        if directory is not None:
            raise ValueError("--dir and --connect each name an index; pass one")
        from repro.net import NetClient, RetryPolicy  # asyncio: only the wire pays

        host, port = _parse_hostport(connect)
        client = NetClient(
            host, port, deadline_ms=args.deadline_ms,
            retry=RetryPolicy(seed=args.seed), trace=args.trace,
        )
        with contextlib.closing(client):
            yield client, None, ()
        return
    if directory is None:
        dataset, index = _build(args, args.shards)
        yield index, serializer_for(dataset.objects[0]).name, dataset.queries
        return
    catalog, cluster = _directory_catalog(directory)
    metric = _directory_metric(args, catalog)
    try:
        if not writable:
            index = (ShardedIndex.load if cluster else load_tree)(directory, metric)
        elif cluster:
            timeout = getattr(args, "heartbeat_timeout", replication.DEFAULT_TIMEOUT)
            index = replication.ReplicatedIndex.open(
                directory, metric, heartbeat_timeout=timeout
            )
        else:
            index = open_tree(directory, metric)
    except ValueError as exc:
        print(f"index does not load: {exc}")
        print("hint: `repro salvage` may still recover the records")
        raise CommandFailed(f"FAILED — {directory}: index does not load") from exc
    try:
        yield index, catalog.get("serializer"), index.objects()
    finally:
        if writable:
            (index if isinstance(index, ShardedIndex) else index.wal).close()


def cmd_info(args: argparse.Namespace) -> None:
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    rho = intrinsic_dimensionality(dataset.objects, dataset.metric)
    pivots = select_pivots(
        dataset.objects, args.pivots, dataset.metric, seed=7
    )
    rng = random.Random(0)
    pairs = [
        (rng.choice(dataset.objects), rng.choice(dataset.objects))
        for _ in range(200)
    ]
    precision = pivot_set_precision(pivots, pairs, dataset.metric)
    print(f"dataset            : {args.dataset} ({len(dataset.objects):,} objects)")
    print(f"metric             : {dataset.metric.name}")
    print(f"d+ (estimated)     : {dataset.d_plus:.4g}")
    print(f"intrinsic dim. ρ   : {rho:.2f}")
    print(f"precision({args.pivots} pivots): {precision:.3f}")


def cmd_join(args: argparse.Namespace) -> None:
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    half = len(dataset.objects) // 2
    set_q, set_o = dataset.objects[:half], dataset.objects[half:]
    epsilon = _radius(args.epsilon_percent, dataset.d_plus, dataset.metric)
    pivots = select_pivots(set_o, args.pivots, dataset.metric, seed=7)
    tree_q = SPBTree.build(
        set_q, dataset.metric, pivots=pivots, d_plus=dataset.d_plus, curve="z"
    )
    tree_o = SPBTree.build(
        set_o, dataset.metric, pivots=pivots, d_plus=dataset.d_plus, curve="z"
    )
    estimate = CostModel.estimate_join(tree_q, tree_o, epsilon)
    result = similarity_join(tree_q, tree_o, epsilon)
    print(
        f"SJ(Q[{len(set_q)}], O[{len(set_o)}], {epsilon:g}) -> "
        f"{len(result.pairs)} pairs in {result.stats.elapsed_seconds:.2f}s"
    )
    print(
        f"actual    : {result.stats.distance_computations:,} compdists, "
        f"{result.stats.page_accesses} page accesses"
    )
    print(
        f"estimated : {estimate.edc:,.0f} compdists, "
        f"{estimate.epa:,.0f} page accesses"
    )


def cmd_compare(args: argparse.Namespace) -> None:
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    query = dataset.queries[0]
    builders = {
        "SPB-tree": lambda: SPBTree.build(
            dataset.objects, dataset.metric, d_plus=dataset.d_plus, seed=7
        ),
        "M-tree": lambda: MTree.build(dataset.objects, dataset.metric, seed=7),
        "OmniR-tree": lambda: OmniRTree.build(
            dataset.objects, dataset.metric, seed=7
        ),
        "M-Index": lambda: MIndex.build(
            dataset.objects, dataset.metric, d_plus=dataset.d_plus, seed=7
        ),
    }
    print(f"{'method':12s} {'build(s)':>9s} {'storage(KB)':>12s} "
          f"{'compdists':>10s} {'PA':>6s} {'query(ms)':>10s}")
    for name, builder in builders.items():
        t0 = time.perf_counter()
        index = builder()
        build_time = time.perf_counter() - t0
        index.reset_counters()
        if hasattr(index, "flush_cache"):
            index.flush_cache()
        t0 = time.perf_counter()
        index.knn_query(query, args.k)
        query_time = (time.perf_counter() - t0) * 1000
        print(
            f"{name:12s} {build_time:9.2f} {index.size_in_bytes / 1024:12.0f} "
            f"{index.distance_computations:10d} {index.page_accesses:6d} "
            f"{query_time:10.1f}"
        )


def _estimate(tree: SPBTree, mode: str, query, k: int, radius: float) -> str:
    """The cost model's forecast for the query a single tree just ran."""
    model = CostModel(tree)
    if mode == "knn":
        est = model.estimate_knn(query, k)
        note = f" (eND_k={est.radius:.4g})"
    else:
        est = model.estimate_range(query, radius)
        note = ""
    return f"estimated : {est.edc:.0f} compdists, {est.epa:.0f} page accesses{note}"


def cmd_query(args: argparse.Namespace) -> None:
    """One budgeted query with the graceful-degradation contract, against
    whatever :func:`_open_index` finds; each source adds what it can say
    about the cost (in-process the spend, plus a tree's estimate or a
    cluster's shards; over the wire the retries)."""
    ctx = None  # over the wire the spend is the server's to report
    with _open_index(args) as (index, serializer, fallback):
        query = _query_object(args, serializer, fallback)
        radius = _query_radius(args, index)
        if args.connect is not None:
            kw = dict(max_compdists=args.max_compdists, max_pa=args.max_pa)
        else:
            ctx = QueryContext.with_limits(
                request_id=obs.new_trace_id() if args.trace else None,
                **_limits(args),
            )
            if args.trace:
                ctx.trace = obs.QueryTrace(args.mode)
            kw = {"context": ctx}
            if args.mode == "knn":
                kw["traversal"] = args.traversal
            index.flush_cache(reset_stats=True)
        result = _run_query(index, args.mode, query, args.k, radius, **kw)
        if args.strict and not result.complete:
            raise CommandFailed(f"query aborted (strict): {result.reason}")
        _print_answer(args.mode, result, args.k, radius)
        print(f"status    : {_state(result.complete, result.reason)}")
        if ctx is not None:
            print(
                f"spent     : {ctx.compdists} compdists, "
                f"{ctx.page_accesses} page accesses"
            )
        if isinstance(index, SPBTree):
            print(_estimate(index, args.mode, query, args.k, radius))
        elif isinstance(index, ShardedIndex):
            print(
                f"shards    : {result.shards_visited} visited, "
                f"{result.shards_pruned} pruned of {index.num_shards}"
            )
            for shard_id, out in sorted(result.per_shard.items()):
                state = "complete" if out["complete"] else f"partial ({out['reason']})"
                print(
                    f"  shard {shard_id}: {state}, {out['compdists']} compdists, "
                    f"{out['page_accesses']} page accesses"
                )
        elif index.retries:
            print(f"retries   : {index.retries}", file=sys.stderr)
        if args.trace:
            _print_query_trace(index, ctx)


def _print_query_trace(index, ctx: Optional[QueryContext]) -> None:
    """``query --trace``: the span tree of the query just run — the
    context's own, whose sums must reconcile with its totals, or without
    one the tree the server stitched into its reply."""
    if ctx is None:
        if index.last_trace is None:
            raise CommandFailed(
                "the server returned no span tree (is it tracing? "
                "start it with serve --metrics or --flight-dir)"
            )
        _print_trace(index.last_trace.as_dict(), index.last_request_id)
        return
    _print_trace(ctx.trace.as_dict(), ctx.request_id)
    acd, apa = ctx.trace.attributed_totals()
    if (acd, apa) != (ctx.compdists, ctx.page_accesses):
        raise CommandFailed(
            f"WARNING — span sums ({acd}, {apa}) != context totals "
            f"({ctx.compdists}, {ctx.page_accesses})"
        )


def cmd_build(args: argparse.Namespace) -> None:
    with _open_index(args) as (index, _, _):
        if isinstance(index, ShardedIndex):
            index.save(args.out)
            print(f"saved cluster to {args.out}")
            print(_shard_table(index))
        else:
            save_tree(index, args.out)
            print(f"saved index to {args.out}")


def _mixed_ops(args: argparse.Namespace, index, fallback: Iterable) -> list:
    """The serve workload: shuffled queries (``fallback``'s first objects)
    plus optional writers churning the index's own objects."""
    n = args.num_queries
    pool = list(itertools.islice(fallback, n))
    queries = list(itertools.islice(itertools.cycle(pool), n))
    radius = _radius(args.radius_percent, index.space.d_plus, index.distance)
    kinds = ["range", "knn", "count"]
    ops = []
    for i, q in enumerate(queries):
        kind = kinds[i % len(kinds)]
        ops.append((kind, (q, args.k) if kind == "knn" else (q, radius)))
    rng = random.Random(args.seed)
    objects = list(index.objects()) if args.mutations > 0 else []
    for j in range(args.mutations):
        # Writers churn existing objects: re-insert a copy, then delete one.
        obj = objects[rng.randrange(len(objects))]
        ops.append(("insert" if j % 2 == 0 else "delete", (obj,)))
    rng.shuffle(ops)
    index.flush_cache(reset_stats=True)  # drawing read pages; the run starts cold
    return ops


def _serve_network(args: argparse.Namespace, engine: QueryEngine, snapshots) -> None:
    """The ``serve --listen`` path: expose the engine on a TCP socket
    until SIGTERM/SIGINT (graceful drain) or ``--duration`` elapses."""
    from repro.net import serve_in_thread  # asyncio: only this path pays for it

    host, port = _parse_hostport(args.listen)
    handle = serve_in_thread(engine, host, port)
    print(
        f"serving on {host}:{handle.port} with {args.workers} workers "
        f"(queue {args.queue_size}); SIGTERM drains within "
        f"{args.drain_deadline:g}s",
        flush=True,
    )
    stop = threading.Event()

    def _on_signal(signum: int, _frame) -> None:
        print(f"signal {signum}: draining", file=sys.stderr, flush=True)
        stop.set()

    old_term = signal.signal(signal.SIGTERM, _on_signal)
    old_int = signal.signal(signal.SIGINT, _on_signal)
    try:
        deadline = (
            time.monotonic() + args.duration if args.duration > 0 else None
        )
        while not stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                break
            stop.wait(0.2)
            if snapshots is not None:
                snapshots.maybe_write()
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
    summary = handle.stop(args.drain_deadline)
    server = handle.server
    print(
        f"\nserved {server.requests} wire requests over "
        f"{server.connections} connections "
        f"({server.rejected} backpressure rejections, "
        f"{server.protocol_errors} protocol errors)"
    )
    print(
        f"drain     : {summary['finished']} finished in-flight, "
        f"{summary['aborted']} aborted partial "
        f"(allowance {server.network_allowance_ms():.1f} ms)"
    )


def _serve_workload(
    args: argparse.Namespace, index, fallback, engine: QueryEngine, snapshots
) -> None:
    """The local ``serve`` path: the mixed workload through the engine."""
    ops = _mixed_ops(args, index, fallback)
    t0 = time.perf_counter()
    pending = []
    for kind, op_args in ops:
        while True:
            try:
                pending.append(engine.submit(kind, *op_args))
                break
            except Overloaded:
                # Backpressure: wait for the queue to drain a little.
                time.sleep(0.005)
        if snapshots is not None:
            snapshots.maybe_write()
    results = [p.result() for p in pending]
    partial = sum(1 for r in results if not getattr(r, "complete", True))
    elapsed = time.perf_counter() - t0
    print(
        f"\nserved {engine.served} operations ({len(ops)} submitted) "
        f"with {args.workers} workers in {elapsed:.2f}s "
        f"({len(ops) / elapsed:.0f} ops/s)"
    )
    print(
        f"complete  : {engine.served - partial - engine.mutated}\n"
        f"partial   : {partial}\n"
        f"mutations : {engine.mutated} "
        f"(tree now holds {index.object_count:,} objects)\n"
        f"rejections: {engine.rejected} (resubmitted after backpressure)\n"
        f"failures  : {engine.failed}"
    )


def _serve_epilogue(
    args: argparse.Namespace, index, engine, snapshots, flight
) -> None:
    """Shared tail of ``serve``: stop the loops, checkpoint a saved index
    the run changed, print the summaries and the exposition."""
    tuner = getattr(index, "tuner", None)
    if tuner is not None:
        tuner.stop()
        st = tuner.status()
        print(
            f"tuner     : {st['ticks']} ticks, "
            f"{st['pivot_checks']} pivot checks, "
            f"{st['pivot_rebuilds']} pivot rebuilds"
        )
        tuner.close()
    if flight is not None:
        print(
            f"flight    : {flight.recorded} queries recorded "
            f"({len(flight)} in ring), {flight.slow} over "
            f"{args.slow_ms:g} ms, {flight.dumps} dumps -> {args.flight_dir}"
        )
        flight.close()
    supervisor = getattr(index, "supervisor", None)
    if supervisor is not None:
        supervisor.stop()
        print(
            f"supervisor : {supervisor.ticks} ticks, "
            f"{supervisor.promotions} promotions, "
            f"{supervisor.rejoins} rejoins, {supervisor.repairs} repairs, "
            f"{supervisor.scrub_passes} scrub passes"
        )
        supervisor.close()
    if args.dir is not None and engine.mutated:
        index.checkpoint()  # the loops are stopped: nothing races the fold
    status = getattr(index, "replication_status", dict)()
    if status:
        worst = max(info["max_lag_bytes"] for info in status.values())
        degraded = sorted(s for s, info in status.items() if info["degraded"])
        print(
            f"replication: {len(status)} replica sets, max lag {worst} bytes, "
            f"degraded shards {degraded if degraded else 'none'}"
        )
    _print_hit_rate(index, engine)
    if snapshots is not None:
        # Last, so the final snapshot is the state --metrics-out holds.
        snapshots.write(event="final")
        print(f"snapshots : {snapshots.written} written to {args.snapshot_dir}")
    if args.metrics and args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(obs.render_text())
        print(f"metrics   : Prometheus text written to {args.metrics_out}")


def cmd_serve(args: argparse.Namespace) -> None:
    """Drive a concurrent mixed workload through the QueryEngine.  With
    ``--metrics`` and no ``--metrics-out`` the exposition is all stdout
    holds (every other line goes to stderr), so it pipes into a scraper."""
    if not args.metrics or args.metrics_out is not None:
        _serve(args)
        return
    with contextlib.redirect_stdout(sys.stderr):
        _serve(args)
    sys.stdout.write(obs.render_text())


def _serve(args: argparse.Namespace) -> None:
    with _open_index(args, writable=True) as (index, _, fallback):
        if args.supervise and not getattr(index, "replication_status", dict)():
            raise ValueError(
                "--supervise needs a replicated cluster: give a saved cluster "
                "followers with `replicate --dir DIR`, then serve --dir DIR"
            )
        flight = None
        if args.flight_dir:
            flight = obs.FlightRecorder(args.flight_dir, slow_ms=args.slow_ms)
        if args.supervise:
            supervisor = Supervisor(
                index,
                scrub_interval=5.0,  # a background scrub pass every 5 s
                journal_path=os.path.join(args.dir, SUPERVISOR_JOURNAL),
                flight=flight,
            )
            supervisor.start()
            print(
                f"supervising: tick {supervisor.tick_interval:g}s, "
                f"grace {supervisor.grace:g}s, "
                f"cooldown {supervisor.cooldown:g}s, "
                f"scrub every {supervisor.scrub_interval:g}s"
            )
        snapshots = None
        if args.snapshot_dir is not None:
            snapshots = obs.SnapshotWriter(
                args.snapshot_dir, interval_seconds=args.snapshot_interval
            )
        if args.metrics:
            obs.enable()
        engine = QueryEngine(
            index, workers=args.workers, max_queue=args.queue_size,
            trace_queries=args.metrics, flight=flight,
            **{f"default_{k}": v for k, v in _limits(args).items()},
        )
        with engine:
            if args.autotune:
                # The pivot-drift loop; the epilogue finds it on the index.
                tuner = Tuner(
                    index, tick_interval=args.tune_interval, auto_pivot_rebuild=True
                )
                tuner.start()
                print(
                    f"autotuning: tick {tuner.tick_interval:g}s, journal "
                    f"{tuner.journal.path if tuner.journal.path else '(in-memory)'}"
                )
            if args.listen:
                _serve_network(args, engine, snapshots)
            else:
                _serve_workload(args, index, fallback, engine, snapshots)
        _serve_epilogue(args, index, engine, snapshots, flight)


def _format_span(span: dict, depth: int, lines: list) -> None:
    pad = "  " * depth
    name = span.get("name", "span")
    line = (
        f"{pad}{name:<{max(2, 24 - len(pad))}} "
        f"compdists={span.get('compdists', 0):<8} "
        f"pa={span.get('page_accesses', 0):<6} "
        f"{span.get('elapsed_ms', 0.0):>9.3f} ms"
    )
    counts = span.get("counts")
    if counts:
        kv = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        line += f"  [{kv}]"
    lines.append(line)
    for child in span.get("children", ()):
        _format_span(child, depth + 1, lines)


def _print_trace(trace_data: dict, request_id: Optional[str] = None) -> None:
    """Render one serialised span tree (the as_dict / JSONL form)."""
    state = _state(trace_data.get("complete", True), trace_data.get("reason"))
    header = f"trace {trace_data.get('kind', 'query')} ({state})"
    if request_id:
        header += f"  request_id={request_id}"
    print(header)
    spans = trace_data.get("spans")
    if isinstance(spans, dict):
        lines: list = []
        _format_span(spans, 1, lines)
        print("\n".join(lines))
        cd, pa = obs.attributed_totals_from_dict(trace_data)
        print(f"  attributed: {cd} compdists, {pa} page accesses")


def cmd_trace(args: argparse.Namespace) -> None:
    """Render the span trees recorded in a flight dump or slow log (a live
    query's tree is ``query --trace``)."""
    pairs = [
        (entry.get("request_id"), entry["trace"])
        for entry in obs.read_jsonl(args.file)
        if isinstance(entry.get("trace"), dict)
        and args.request_id in (None, entry.get("request_id"))
    ]
    if not pairs:
        wanted = f" for request {args.request_id}" if args.request_id else ""
        raise CommandFailed(f"no traces{wanted} in {args.file}")
    for rid, trace_data in pairs:
        _print_trace(trace_data, rid)


def cmd_metrics_diff(args: argparse.Namespace) -> None:
    """What happened between two Prometheus expositions: snapshots (see
    --snapshot-dir), ``--metrics-out`` files or a saved scrape."""
    parsed = []
    for path in (args.before, args.after):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            parsed.append(obs.parse_text(text))
        except ValueError as exc:
            raise CommandFailed(f"{path}: {exc}") from exc
    delta = obs.diff_snapshots(*parsed)
    if args.json:
        json.dump(delta, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return
    shown = 0
    for name in sorted(delta):
        info = delta[name]
        samples = info.get("samples", {})
        lines = []
        for key in sorted(samples):
            value = samples[key]
            if info["type"] == "histogram":
                if not value["count"] and args.changed_only:
                    continue
                lines.append(
                    f"  {key or '(no labels)'}: +{value['count']} "
                    f"observations, sum +{value['sum']:g}"
                )
            elif info["type"] == "counter":
                if not value and args.changed_only:
                    continue
                lines.append(f"  {key or '(no labels)'}: +{value:g}")
            else:  # gauge
                if value["before"] == value["after"] and args.changed_only:
                    continue
                lines.append(
                    f"  {key or '(no labels)'}: "
                    f"{value['before']} -> {value['after']}"
                )
        if lines:
            print(f"{name} ({info['type']})")
            print("\n".join(lines))
            shown += 1
    if not shown:
        print("metrics-diff: no changes between the two snapshots")


def cmd_verify(args: argparse.Namespace) -> None:
    with _open_index(args) as (index, _, _):
        report = index.verify(check_objects=not args.fast)
    print(report.summary())
    # A cluster's verification reads are its shards'.
    parts = (
        report.shard_reports.values()
        if isinstance(index, ShardedIndex) else [report]
    )
    hit_rate = _hit_rate(
        sum(p.buffer_hits for p in parts), sum(p.buffer_misses for p in parts)
    )
    if not report.ok:
        raise CommandFailed(
            f"FAILED — {args.dir}: {len(report.errors)} error(s) found; {hit_rate}"
        )
    print(f"verify: OK — {args.dir}: {hit_rate}", file=sys.stderr)


def _wal_records(index) -> int:
    """Records in the write-ahead logs of a tree or a cluster's primaries."""
    return sum(t.wal.record_count for t in _trees(index) if t.wal is not None)


def cmd_insert(args: argparse.Namespace) -> None:
    with _open_index(args, writable=True) as (index, serializer, _):
        obj = _parse_object(serializer, args.object)
        index.insert(obj)
        print(
            f"inserted {obj!r} (index now holds {index.object_count:,} objects; "
            f"WAL holds {_wal_records(index)} records)"
        )


def cmd_delete(args: argparse.Namespace) -> None:
    with _open_index(args, writable=True) as (index, serializer, _):
        obj = _parse_object(serializer, args.object)
        if not index.delete(obj):
            raise CommandFailed(f"not found: {obj!r}")
        print(
            f"deleted {obj!r} (index now holds {index.object_count:,} objects; "
            f"WAL holds {_wal_records(index)} records)"
        )


def cmd_checkpoint(args: argparse.Namespace) -> None:
    with _open_index(args, writable=True) as (index, _, _):
        folded = _wal_records(index)
        generation = index.checkpoint()  # a cluster's shards each get their own
        where = f"generation {generation}" if generation else "new shard generations"
        print(
            f"checkpoint: folded {folded} WAL records into {where} "
            f"({index.object_count:,} objects)"
        )


def cmd_log_stats(args: argparse.Namespace) -> None:
    if not os.path.isdir(args.dir):
        raise FileNotFoundError(f"no index directory at {args.dir}")
    path = os.path.join(args.dir, WAL_FILE)
    if not os.path.exists(path):
        print("no write-ahead log (index is checkpoint-only)")
        return
    header, records, valid_end, torn = scan_wal(path)
    size = os.path.getsize(path)
    inserts = sum(1 for r in records if r.op == OP_INSERT)
    print(f"WAL       : {path}")
    print(f"size      : {size:,} bytes ({valid_end:,} valid)")
    if torn:
        print(f"torn tail : yes — {size - valid_end:,} bytes beyond the last "
              f"intact frame will be dropped on open")
    else:
        print("torn tail : no")
    if header is None:
        print("header    : missing (log never started)")
    else:
        print(
            f"base      : generation {header.base_generation} "
            f"({header.base_object_count:,} objects, "
            f"next id {header.base_next_id})"
        )
    print(f"records   : {len(records)} ({inserts} inserts, "
          f"{len(records) - inserts} deletes)")


def cmd_salvage(args: argparse.Namespace) -> None:
    metric = _directory_metric(args)
    try:
        tree, report = salvage_tree(args.dir, metric)
    except ValueError as exc:
        print(f"salvage failed: {exc}")
        raise CommandFailed(f"FAILED — {args.dir}: {exc}") from exc
    print(report.summary())
    out = args.out or args.dir.rstrip("/\\") + ".salvaged"
    if tree.raf is None:
        print("no records recovered; nothing to save")
        raise CommandFailed(f"FAILED — {args.dir}: no records recovered")
    save_tree(tree, out)
    print(f"salvaged index ({len(tree):,} objects) saved to {out}")


def _shard_table(cluster: ShardedIndex) -> str:
    lines = ["shard  key range                                object count"]
    for shard in cluster.shards:
        lines.append(
            f"{shard.shard_id:>5}  [{shard.key_lo}, {shard.key_hi})".ljust(46)
            + f"{shard.tree.object_count:,}"
        )
    return "\n".join(lines)


def cmd_shard_rebalance(args: argparse.Namespace) -> None:
    cluster = ShardedIndex.open(args.dir, _directory_metric(args))
    with contextlib.closing(cluster):
        merge = tuple(args.merge) if args.merge is not None else None
        action = cluster.rebalance(split=args.split, merge=merge)
        if action is None:
            print("cluster is balanced; nothing to do")
        elif action["action"] == "split":
            print(
                f"split shard {action['source']} at key {action['at']} into "
                f"shards {action['new'][0]} ({action['counts'][0]:,} objects) "
                f"and {action['new'][1]} ({action['counts'][1]:,} objects)"
            )
        else:
            print(
                f"merged shards {action['sources'][0]} and "
                f"{action['sources'][1]} into shard {action['new']} "
                f"({action['count']:,} objects)"
            )
        print(_shard_table(cluster))


def _replication_table(idx) -> str:
    lines = ["shard  replica  role      healthy  lag(bytes)"]
    for sid, info in sorted(idx.replication_status().items()):
        for m in info["members"]:
            lines.append(
                f"{sid:>5}  {m['replica']:>7}  {m['role']:<8}  "
                f"{'yes' if m['healthy'] else 'NO':>7}  {m['lag_bytes']:>10}"
            )
    return "\n".join(lines)


def cmd_replicate(args: argparse.Namespace) -> None:
    metric = _directory_metric(args)
    done = replication.replicate(
        args.dir, metric,
        replicas=args.replicas, read_policy=args.read_policy,
    )
    print(
        f"replicated shards {done}: {args.replicas} follower(s) each, "
        f"read policy {args.read_policy}"
    )
    with contextlib.closing(
        replication.ReplicatedIndex.open(args.dir, metric)
    ) as idx:
        idx.ship_all()  # seed every follower to lag zero
        print(_replication_table(idx))


def cmd_shard_failover(args: argparse.Namespace) -> None:
    idx = replication.ReplicatedIndex.open(args.dir, _directory_metric(args))
    with contextlib.closing(idx):
        info = idx.failover(args.shard)
        idx.ship_all()  # re-sync the demoted ex-primary right away
        print(
            f"shard {info['shard']}: promoted replica {info['promoted']} to "
            f"primary at generation {info['generation']}; replica "
            f"{info['demoted']} demoted to follower"
        )
        print(_replication_table(idx))


def cmd_scrub(args: argparse.Namespace) -> None:
    """One anti-entropy pass over a saved replicated cluster."""
    idx = replication.ReplicatedIndex.open(args.dir, _directory_metric(args))
    with contextlib.closing(idx), Supervisor(
        idx,
        journal_path=os.path.join(args.dir, SUPERVISOR_JOURNAL),
        scrub_interval=None,
    ) as supervisor:
        report = supervisor.scrub(
            shard_id=args.shard, pages=args.pages, deep=args.deep
        )
        # A corrupt primary heals through quarantine -> promotion ->
        # rebuild-as-follower; two ticks drive that chain to completion.
        primary_findings = [
            f
            for f in report.unrepaired()
            if f.kind.startswith("primary-") and f.replica is not None
        ]
        if primary_findings:
            supervisor.tick()
            supervisor.tick()
            for finding in primary_findings:
                if finding.replica not in supervisor.quarantined(
                    finding.shard
                ) and supervisor.shard_state(finding.shard) != "suspected":
                    finding.repaired = True
                    print(
                        f"shard {finding.shard}: corrupt primary replaced "
                        f"(failover), ex-primary rebuilt as follower"
                    )
        print(report.summary())
        for finding in report.findings:
            print(f"  {finding}")
        unrepaired = report.unrepaired()
        if unrepaired:
            raise CommandFailed(
                f"FAILED — {args.dir}: {len(unrepaired)} unrepaired finding(s)"
            )
        print(
            f"scrub: OK — {args.dir}: "
            f"{len(report.findings)} finding(s), all repaired"
            if report.findings
            else f"scrub: OK — {args.dir}: clean",
            file=sys.stderr,
        )


def _format_event(evt: dict) -> str:
    """One journal entry (supervisor's or tuner's) as an indented line."""
    parts = [f"  [{evt.get('ts')}] {evt.get('event')}"]
    for key in ("shard", "replica", "detail", "request_id"):
        if evt.get(key) is not None:
            parts.append(f"{key}={evt[key]}")
    return " ".join(parts)


def _print_journal_tail(whose: str, args: argparse.Namespace, name: str) -> None:
    events = read_journal(os.path.join(args.dir, name), limit=args.events)
    if events:
        print(f"{whose} events (last {len(events)}):")
        for evt in events:
            print(_format_event(evt))


def cmd_shard_status(args: argparse.Namespace) -> None:
    """Replication status plus supervisor event tail, one line per shard."""
    metric = _directory_metric(args)
    try:
        idx = replication.ReplicatedIndex.open(args.dir, metric)
    except (ValueError, replication.ReplicationError, OSError) as exc:
        raise CommandFailed(f"FAILED — {args.dir}: {exc}") from exc
    with contextlib.closing(idx):
        status = idx.replication_status()
        bad = []
        if not status:
            for shard in idx.shards:
                print(
                    f"shard {shard.shard_id}: unreplicated, "
                    f"{shard.tree.object_count:,} objects"
                )
        for sid, info in sorted(status.items()):
            primary_ok = info["primary_healthy"]
            state = "DEGRADED" if info["degraded"] else "ok"
            if not primary_ok:
                state = "NO HEALTHY PRIMARY"
                bad.append(sid)
            print(
                f"shard {sid}: primary r{info['primary']} "
                f"{'up' if primary_ok else 'DOWN'}, "
                f"{info['healthy_members']}/{len(info['members'])} members "
                f"healthy, max lag {info['max_lag_bytes']} bytes, {state}"
            )
        _print_journal_tail("supervisor", args, SUPERVISOR_JOURNAL)
        _print_journal_tail("tuning", args, TUNING_JOURNAL)
        if bad:
            raise CommandFailed(
                f"FAILED — {args.dir}: shard(s) {bad} lack a healthy primary"
            )
        print(
            f"shard-status: OK — {args.dir}: every shard has a healthy "
            "primary",
            file=sys.stderr,
        )


#: Every flag, declared once: flag -> ``add_argument`` keywords.  A row of
#: :data:`COMMANDS` names the flags its subcommand takes and states what it
#: changes about them (``query`` can name its index another way, so its
#: ``--dir`` is optional).
FLAGS: dict[str, dict[str, Any]] = {
    # which dataset to build over
    "--dataset": dict(choices=sorted(DATASETS), default="words"),
    "--size": dict(type=int, default=None),
    "--seed": dict(type=int, default=42),
    "--pivots": dict(type=int, default=5),
    # which saved index or cluster to open
    "--dir": dict(required=True, help="saved index / cluster directory"),
    "--metric": dict(
        default=None,
        help="metric name override (default: the catalog's metric_name)",
    ),
    # one query
    "--mode": dict(choices=["range", "knn", "count"], default="knn"),
    "--query": dict(
        default=None,
        help="query object, parsed by the index's serializer: a string, or "
             "comma-separated numbers for vectors (default: the dataset's "
             "first query / the saved index's first object)",
    ),
    "--k": dict(type=int, default=8),
    "--radius": dict(
        type=float, default=None,
        help="query radius (with --connect, needed for range and count)",
    ),
    "--radius-percent": dict(
        type=float, default=8.0,
        help="radius as a percentage of d+ when --radius is not given",
    ),
    "--traversal": dict(
        choices=["incremental", "greedy"], default="incremental",
        help="kNN traversal of an in-process index",
    ),
    "--epsilon-percent": dict(type=float, default=4.0),
    "--strict": dict(
        action="store_true",
        help="exit 1 instead of answering with a partial result",
    ),
    "--trace": dict(
        action="store_true",
        help="print the query's span tree (exit 1 when its sums do not "
             "reconcile with the query's totals)",
    ),
    # per-query limits
    "--deadline-ms": dict(
        type=float, default=None, help="per-query deadline in milliseconds"
    ),
    "--max-compdists": dict(
        type=int, default=None, help="per-query distance-computation budget"
    ),
    "--max-pa": dict(type=int, default=None, help="per-query page-access budget"),
    # the serve workload
    "--num-queries": dict(type=int, default=30),
    "--workers": dict(type=int, default=4),
    "--queue-size": dict(type=int, default=16),
    "--mutations": dict(
        type=int, default=0,
        help="insert/delete operations to mix into the workload (a --dir "
             "index logs them and is checkpointed on exit)",
    ),
    "--metrics": dict(
        action="store_true",
        help="instrument the workload and emit a Prometheus text exposition",
    ),
    "--metrics-out": dict(
        default=None, metavar="FILE",
        help="write the exposition to FILE instead of stdout",
    ),
    "--slow-ms": dict(
        type=float, default=100.0,
        help="slow-query threshold in milliseconds: slower queries are "
             "appended to <--flight-dir>/slow.jsonl (default: 100)",
    ),
    "--snapshot-dir": dict(
        default=None, metavar="DIR",
        help="write periodic diffable metric snapshots into DIR",
    ),
    "--snapshot-interval": dict(
        type=float, default=10.0,
        help="seconds between periodic snapshots (default: 10)",
    ),
    "--flight-dir": dict(
        default=None, metavar="DIR",
        help="record recent query traces in a bounded ring and dump them "
             "into DIR as JSONL on anomalies (degraded results, failover, "
             "quarantine, scrub divergence, rejection bursts)",
    ),
    "--shards": dict(
        type=int, default=0, help="number of shards (0: one SPB-tree)"
    ),
    "--replicas": dict(type=int, default=2, help="WAL-shipping followers per shard"),
    "--read-policy": dict(
        choices=list(READ_POLICIES), default="primary-only",
        help="replica read-routing policy (default: primary-only)",
    ),
    "--supervise": dict(
        action="store_true",
        help="on a replicated --dir cluster: run the self-healing supervisor "
             "(automatic failover, zombie rejoin, anti-entropy scrub) during "
             "the workload",
    ),
    "--heartbeat-timeout": dict(
        type=float, default=5.0,
        help="replica heartbeat timeout in seconds (default: 5)",
    ),
    "--autotune": dict(
        action="store_true",
        help="run the pivot-maintenance loop during the workload "
             "(drift-triggered pivot re-selection and rebuild)",
    ),
    "--tune-interval": dict(
        type=float, default=8.0,
        help="with --autotune: seconds between pivot checks (default: 8)",
    ),
    "--listen": dict(
        default=None, metavar="HOST:PORT",
        help="serve the wire protocol instead of a local workload "
             "(SIGTERM/SIGINT drains gracefully)",
    ),
    "--duration": dict(
        type=float, default=0.0,
        help="with --listen: stop after this many seconds (0 = until signal)",
    ),
    "--drain-deadline": dict(
        type=float, default=5.0,
        help="with --listen: seconds in-flight queries get to finish on "
             "shutdown before being aborted to honest partials (default: 5)",
    ),
    # the wire
    "--connect": dict(
        default=None, metavar="HOST:PORT",
        help="a serve --listen server to run the query against; the client "
             "cannot know the server's serializer, so --query goes as a string",
    ),
    # traces and snapshots
    "--file": dict(
        required=True, metavar="JSONL",
        help="render traces recorded in a flight dump or slow-query log",
    ),
    "--request-id": dict(
        default=None, help="with --file: only the trace(s) of this request id"
    ),
    "before": dict(metavar="BEFORE", help="a Prometheus text exposition"),
    "after": dict(metavar="AFTER", help="a Prometheus text exposition"),
    "--json": dict(
        action="store_true",
        help="emit the structured diff as JSON instead of text",
    ),
    "--changed-only": dict(
        action="store_true", help="hide samples with a zero delta"
    ),
    # a saved index
    "--out": dict(required=True, help="index / cluster directory to write"),
    "--object": dict(
        required=True,
        help="the object (string, or comma-separated numbers for vectors)",
    ),
    "--fast": dict(
        action="store_true", help="skip per-object SFC key re-verification"
    ),
    # a saved cluster
    "--checksums": dict(
        action="store_true",
        help="CRC32-checksum every page (lets scrub detect bit rot at rest)",
    ),
    "--split": dict(
        type=int, default=None, metavar="SHARD",
        help="split this shard at its SFC key midpoint",
    ),
    "--merge": dict(
        type=int, nargs=2, default=None, metavar=("A", "B"),
        help="merge these two range-adjacent shards",
    ),
    "--shard": dict(
        type=int, default=None, help="one shard only (default: every shard)"
    ),
    "--pages": dict(
        type=int, default=None,
        help="page spot-check budget per member (default: all pages)",
    ),
    "--deep": dict(
        action="store_true",
        help="additionally run the full structural verify on every member",
    ),
    "--events": dict(
        type=int, default=10, help="journal events to tail (default: 10)"
    ),
}

_DATASET = ("--dataset", "--size", "--seed", "--pivots")
_SAVED = ("--dir", "--metric")
_QUERY = ("--mode", "--query", "--k", "--radius", "--radius-percent")
_LIMITS = ("--deadline-ms", "--max-compdists", "--max-pa")
_WORKLOAD = ("--num-queries", "--workers", "--k", "--radius-percent", "--mutations")

#: subcommand -> (function, help, the flags it takes, what it changes about
#: them: flag -> keywords laid over the flag's row in :data:`FLAGS`).
COMMANDS: dict[str, tuple] = {
    "info": (cmd_info, "dataset statistics", _DATASET, {}),
    "join": (
        cmd_join, "self-split similarity join",
        (*_DATASET, "--epsilon-percent"), {},
    ),
    "compare": (
        cmd_compare, "all four MAMs on one kNN query", (*_DATASET, "--k"), {},
    ),
    "query": (
        cmd_query,
        "one budgeted query against a saved index (--dir), a server "
        "(--connect) or one built in memory",
        (
            *_DATASET, "--shards", *_SAVED, "--connect", *_QUERY,
            "--traversal", *_LIMITS, "--strict", "--trace",
        ),
        {"--dir": dict(required=False)},
    ),
    "serve": (
        cmd_serve,
        "run a concurrent mixed workload through the QueryEngine over a "
        "saved index (--dir) or one built in memory",
        (
            *_DATASET, "--shards", *_SAVED, *_WORKLOAD, "--queue-size",
            *_LIMITS, "--metrics", "--metrics-out", "--slow-ms",
            "--snapshot-dir", "--snapshot-interval", "--flight-dir",
            "--supervise", "--heartbeat-timeout", "--autotune",
            "--tune-interval", "--listen", "--duration", "--drain-deadline",
        ),
        {"--dir": dict(required=False)},
    ),
    "shard-rebalance": (
        cmd_shard_rebalance,
        "split a hot shard or merge cold neighbours (crash-safe)",
        (*_SAVED, "--split", "--merge"), {},
    ),
    "replicate": (
        cmd_replicate, "convert a saved cluster into per-shard replica sets",
        (*_SAVED, "--replicas", "--read-policy"), {},
    ),
    "shard-failover": (
        cmd_shard_failover, "promote the best follower of a shard to primary",
        (*_SAVED, "--shard"),
        {"--shard": dict(required=True, help="shard id to fail over")},
    ),
    "scrub": (
        cmd_scrub,
        "anti-entropy pass: WAL prefixes, page checksums, auto-repair",
        (*_SAVED, "--shard", "--pages", "--deep"), {},
    ),
    "shard-status": (
        cmd_shard_status,
        "one line of replication health per shard + supervisor events",
        (*_SAVED, "--events"), {},
    ),
    "trace": (
        cmd_trace,
        "render the span trees recorded in a flight dump / slow log",
        ("--file", "--request-id"), {},
    ),
    "metrics-diff": (
        cmd_metrics_diff,
        "diff two metric expositions (snapshots, --metrics-out files)",
        ("before", "after", "--json", "--changed-only"), {},
    ),
    "build": (
        cmd_build, "build and save an index directory, or an N-shard cluster",
        (*_DATASET, "--shards", "--checksums", "--out"), {},
    ),
    "verify": (
        cmd_verify, "audit a saved index or cluster for corruption",
        (*_SAVED, "--fast"), {},
    ),
    "insert": (
        cmd_insert, "durably insert one object into a saved index or cluster",
        (*_SAVED, "--object"), {},
    ),
    "delete": (
        cmd_delete, "durably delete one object from a saved index or cluster",
        (*_SAVED, "--object"), {},
    ),
    "checkpoint": (
        cmd_checkpoint,
        "fold the write-ahead log into a new on-disk generation", _SAVED, {},
    ),
    "log-stats": (
        cmd_log_stats, "inspect an index's write-ahead log", ("--dir",), {},
    ),
    "salvage": (
        cmd_salvage, "rebuild a consistent index from a damaged directory",
        (*_SAVED, "--out"),
        {
            "--out": dict(
                required=False, default=None,
                help="where to save the salvaged index (default: <dir>.salvaged)",
            ),
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SPB-tree demo CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags, changes) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(fn=fn)
        for flag in flags:
            command.add_argument(flag, **{**FLAGS[flag], **changes.get(flag, {})})
    return parser


def main(argv: Optional[Sequence[str]] = None) -> None:
    """Run one subcommand.  This is the error boundary: a command's own
    verdict (:class:`CommandFailed`) and bad input escaping it as a
    ``ValueError`` (hence ``CatalogError``), an ``OSError`` (hence
    ``NetError``) or a ``ReplicationError`` all end as one
    ``<subcommand>: <message>`` line on stderr and exit code 1."""
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (
        CommandFailed, ValueError, OSError, replication.ReplicationError
    ) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc


if __name__ == "__main__":
    main()
