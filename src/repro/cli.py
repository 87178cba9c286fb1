"""Command-line interface for quick, interactive use of the library.

    python -m repro.cli info      --dataset words --size 2000
    python -m repro.cli range     --dataset words --query defoliate --radius 1
    python -m repro.cli knn       --dataset color --k 8
    python -m repro.cli join      --dataset words --epsilon-percent 4
    python -m repro.cli compare   --dataset color --k 8
    python -m repro.cli build     --dataset words --out ./index
    python -m repro.cli verify    --dir ./index
    python -m repro.cli salvage   --dir ./index --out ./recovered
    python -m repro.cli insert    --dir ./index --object defoliate
    python -m repro.cli delete    --dir ./index --object defoliate
    python -m repro.cli log-stats --dir ./index
    python -m repro.cli checkpoint --dir ./index
    python -m repro.cli metrics   --dataset words --size 2000

``info`` prints dataset statistics (intrinsic dimensionality, d+, pivot-set
precision); ``range``/``knn`` build an SPB-tree and run one query with cost
reporting; ``join`` splits the dataset in half and runs SJA; ``compare``
runs the same kNN query on all four access methods; ``build`` saves an
index directory; ``verify`` audits a saved index for corruption (exit code
1 when damage is found); ``salvage`` rebuilds a consistent index from
whatever records survive in a damaged directory.

Every subcommand answers bad input with exit code 1 and one
``<subcommand>: <message>`` line on stderr, never a traceback.

Incremental writes: ``insert``/``delete`` open a saved index with its
write-ahead log and apply one durable mutation; ``log-stats`` inspects the
log without loading the index; ``checkpoint`` folds the log into a fresh
on-disk generation.  ``serve --mutations N`` mixes concurrent writes into
the query workload.

Sharding: ``shard-build`` partitions a dataset into an N-shard cluster and
saves it; ``shard-query`` runs one budgeted scatter-gather query against a
saved cluster; ``shard-rebalance`` splits a hot shard or merges cold
neighbours (crash-safe catalog swap); ``shard-verify`` audits the cluster —
ranges disjoint and covering, every object's key inside its shard's range —
plus each shard's own integrity checks.  ``serve --shards N`` drives the
mixed workload against a sharded cluster instead of a single tree.

    python -m repro.cli shard-build     --dataset words --shards 4 --out ./cluster
    python -m repro.cli shard-query     --dir ./cluster --mode knn --k 8
    python -m repro.cli shard-rebalance --dir ./cluster
    python -m repro.cli shard-verify    --dir ./cluster

Replication: ``replicate`` converts a saved cluster into per-shard replica
sets (one primary plus N WAL-shipping followers) with a read-routing
policy; ``shard-failover`` promotes the best follower of a shard to
primary (crash-safe catalog swap, generation fence); ``serve --replicas N
--read-policy P`` drives the mixed workload against a replicated cluster,
fanning reads across the replicas.

    python -m repro.cli replicate      --dir ./cluster --replicas 2 --read-policy round-robin
    python -m repro.cli shard-failover --dir ./cluster --shard 0

Self-healing: ``serve --replicas N --supervise`` runs the background
supervisor during the workload — automatic failover past a grace period
(with cooldown/single-flight guards against promotion storms), zombie
rejoin of demoted ex-primaries via snapshot resync, and rate-limited
anti-entropy scrubbing (``--scrub-interval``).  ``scrub`` runs one full
anti-entropy pass over a saved cluster (WAL byte-prefix comparison plus
page-checksum spot checks; divergent followers are quarantined and
rebuilt; exit 1 when anything stays unrepaired).  ``shard-status`` prints
one line of replication health per shard plus the supervisor's event
journal tail, exiting 1 when any shard lacks a healthy primary.

    python -m repro.cli serve        --dataset words --replicas 2 --supervise
    python -m repro.cli scrub        --dir ./cluster --deep
    python -m repro.cli shard-status --dir ./cluster

Observability: ``metrics`` runs a short instrumented workload and prints a
Prometheus text exposition on stdout (everything else goes to stderr, so it
pipes cleanly into a scraper); ``serve --metrics`` instruments the workload
and emits the same exposition (``--metrics-out FILE`` to write it to a
file), ``--slow-log FILE --slow-ms T`` appends JSON entries for queries over
the threshold, and ``--snapshot-dir DIR`` writes periodic diffable counter
snapshots.  ``verify`` and ``serve`` always end with a one-line buffer-pool
hit-rate summary on stderr (including the admission-rejection count when an
engine served the workload).

Tracing: every engine-traced query carries a ``request_id`` through its
slow-log entry, flight-recorder trace, and (over the wire) the server's
reply.  ``trace`` renders a span tree — from one live query, from a
``serve --listen`` server (``--connect``; the reply's stitched tree), or
from a recorded flight dump / slow log (``--file``, filter with
``--request-id``).  ``serve --flight-dir DIR`` keeps a bounded in-memory
ring of recent traces and dumps it to JSONL on anomalies (degraded
results, failover, quarantine, scrub divergence, rejection bursts).
``metrics-diff BEFORE.json AFTER.json`` prints what happened between two
snapshots.

    python -m repro.cli trace        --dataset words --mode knn
    python -m repro.cli trace        --file flights/flight-0001-failover.jsonl
    python -m repro.cli metrics-diff snaps/metrics-0001.json snaps/metrics-0002.json

Network: ``serve --listen HOST:PORT`` exposes the engine over the
length-prefixed JSON wire protocol until SIGTERM/SIGINT (graceful drain,
bounded by ``--drain-deadline``) or ``--duration`` elapses; ``net-query``
runs one query against such a server with client-side deadline and retry
handling.  (Load-testing the front end is the benchmark's job:
``python3 bench/run.py --workload cluster-net``.)

    python -m repro.cli serve      --dataset words --listen 127.0.0.1:7207
    python -m repro.cli net-query  --connect 127.0.0.1:7207 --query defoliate
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import sys
import tempfile
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
    _META_FILE, CatalogError, _read_catalog, load_tree, open_tree, save_tree,
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
from repro.service import BudgetExceeded, Overloaded, QueryContext, QueryEngine
from repro.storage.wal import OP_INSERT, WAL_FILE, WriteAheadLog, scan_wal
from repro.supervisor import SUPERVISOR_JOURNAL, Supervisor, read_journal
from repro.tuning import TUNING_JOURNAL, Tuner


class CommandFailed(Exception):
    """A subcommand's own verdict — damage found, nothing to show — which
    :func:`main` reports the way it reports bad input."""


def _build(args: argparse.Namespace, shards: int = 0):
    """Load ``--dataset`` and build over it, timed: one SPB-tree, or an
    in-memory cluster of ``shards`` of them (serve --shards, shard-build)."""
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    build = dict(num_pivots=args.pivots, d_plus=dataset.d_plus, seed=7)
    t0 = time.perf_counter()
    if shards > 0:
        index = ShardedIndex.build(
            dataset.objects, dataset.metric, shards=shards,
            checksums=getattr(args, "checksums", False), **build,
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


def _catalog_field(directory: str, key: str):
    """A field from the directory's catalog — single-tree or cluster."""
    for name in (_META_FILE, CLUSTER_FILE):
        try:
            return _read_catalog(directory, name).get(key)
        except CatalogError:
            continue
    return None


def _directory_metric(args: argparse.Namespace) -> Metric:
    """The metric for a saved index: --metric wins, else the catalog's name."""
    if args.metric is not None:
        return _metric_from_name(args.metric)
    name = _catalog_field(args.dir, "metric_name")
    if name is None:
        raise ValueError(
            f"cannot read the metric name from a catalog in "
            f"{args.dir}; pass --metric explicitly"
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


def _query_radius(args: argparse.Namespace, d_plus: float, metric: Metric) -> float:
    """``--radius`` wins, else ``--radius-percent`` of d+."""
    if args.radius is not None:
        return args.radius
    return _radius(args.radius_percent, d_plus, metric)


def _run_query(target, mode: str, query, k: int, radius: float, **kw):
    """One query in ``mode`` against anything that answers the three calls —
    an ``SPBTree``, a ``ShardedIndex``, a ``NetClient``; ``kw`` is whatever
    that target's calls take (``context=``, ``traversal=``, wire limits)."""
    if mode == "range":
        return target.range_query(query, radius, **kw)
    if mode == "knn":
        return target.knn_query(query, k, **kw)
    return target.range_count(query, radius, **kw)


def _print_answer(mode: str, result, k: int, radius: float, note: str = "") -> None:
    """The headline of one answer (plus ``note``), then what it holds."""
    if mode == "knn":
        print(f"kNN(q, {k}) -> {len(result)} neighbours{note}")
        for dist, obj in result:
            print(f"  d={dist:.4g}  {obj!r}"[:100])
    elif mode == "range":
        print(f"RQ(q, O, {radius:g}) -> {len(result)} results{note}")
        for obj in result[:10]:
            print(f"  {obj!r}"[:100])
        if len(result) > 10:
            print(f"  ... and {len(result) - 10} more")
    else:
        print(f"|RQ(q, O, {radius:g})| >= {result.count}{note}")


def _state(complete: bool, reason) -> str:
    return "complete" if complete else f"PARTIAL — {reason}"


def _limits(args: argparse.Namespace) -> dict:
    return {
        "deadline_ms": args.deadline_ms,
        "max_compdists": args.max_compdists,
        "max_page_accesses": args.max_pa,
    }


def _print_hit_rate(prog: str, tree, engine: QueryEngine) -> None:
    """The one-line buffer-pool summary serve/metrics end with on stderr;
    the engine's admission-rejection tally rides along, so backpressure
    shows up in the same line operators already scrape."""
    if isinstance(tree, ShardedIndex):
        pools = [
            s.tree.raf.buffer_pool
            for s in tree.shards
            if s.tree.raf is not None
        ]
    else:
        pools = [tree.raf.buffer_pool] if tree.raf is not None else []
    hits = sum(p.hits for p in pools)
    misses = sum(p.misses for p in pools)
    total = hits + misses
    rate = 100.0 * hits / total if total else 0.0
    print(
        f"{prog}: buffer hit-rate {rate:.1f}% "
        f"({hits} hits / {misses} misses), {engine.rejected} rejected",
        file=sys.stderr,
    )


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"--listen/--connect needs HOST:PORT, got {value!r}")
    return (host or "127.0.0.1", int(port))



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


def _measured_query(tree, mode: str, query, k, radius, note="", **kw) -> None:
    """One unbudgeted query on a cold tree, answered with its wall time and
    its actual compdists / PA (``range`` and ``knn`` add the estimate)."""
    tree.reset_counters()
    tree.flush_cache()
    t0 = time.perf_counter()
    results = _run_query(tree, mode, query, k, radius, **kw)
    elapsed = time.perf_counter() - t0
    print()
    _print_answer(mode, results, k, radius, f" in {elapsed * 1000:.1f} ms{note}")
    print(
        f"actual    : {tree.distance_computations} compdists, "
        f"{tree.page_accesses} page accesses"
    )


def cmd_range(args: argparse.Namespace) -> None:
    dataset, tree = _build(args)
    query = _query_object(args, tree.raf.serializer.name, dataset.queries)
    radius = _query_radius(args, dataset.d_plus, dataset.metric)
    estimate = CostModel(tree).estimate_range(query, radius)
    _measured_query(tree, "range", query, None, radius)
    print(f"estimated : {estimate.edc:.0f} compdists, {estimate.epa:.0f} page accesses")


def cmd_knn(args: argparse.Namespace) -> None:
    dataset, tree = _build(args)
    query = _query_object(args, tree.raf.serializer.name, dataset.queries)
    estimate = CostModel(tree).estimate_knn(query, args.k)
    _measured_query(
        tree, "knn", query, args.k, None, f" ({args.traversal})",
        traversal=args.traversal,
    )
    print(
        f"estimated : {estimate.edc:.0f} compdists, "
        f"{estimate.epa:.0f} page accesses (eND_k={estimate.radius:.4g})"
    )


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


def _budgeted_query(args: argparse.Namespace, target, query, radius: float):
    """``query`` / ``shard-query``: one query under the ``--deadline-ms`` /
    ``--max-*`` limits with the graceful-degradation contract; answered,
    then returned with its context for the caller's own summary."""
    ctx = QueryContext.with_limits(strict=args.strict, **_limits(args))
    try:
        result = _run_query(
            target, args.mode, query, args.k, radius, context=ctx
        )
    except BudgetExceeded as exc:
        raise CommandFailed(f"query aborted (strict): {exc}") from exc
    _print_answer(args.mode, result, args.k, radius)
    return result, ctx


def cmd_query(args: argparse.Namespace) -> None:
    """One budgeted query with the graceful-degradation contract."""
    dataset, tree = _build(args)
    query = _query_object(args, tree.raf.serializer.name, dataset.queries)
    radius = _query_radius(args, dataset.d_plus, dataset.metric)
    tree.flush_cache(reset_stats=True)
    print()
    result, ctx = _budgeted_query(args, tree, query, radius)
    print(
        f"status    : {_state(result.complete, result.reason)}\n"
        f"spent     : {ctx.compdists} compdists, {ctx.page_accesses} page accesses"
    )


def cmd_build(args: argparse.Namespace) -> None:
    _, tree = _build(args)
    save_tree(tree, args.out)
    print(f"saved index to {args.out}")



def _mixed_ops(args: argparse.Namespace, dataset) -> list:
    """The serve/metrics workload: shuffled queries plus optional writers."""
    n = args.num_queries
    queries = [dataset.queries[i % len(dataset.queries)] for i in range(n)]
    radius = _radius(args.radius_percent, dataset.d_plus, dataset.metric)
    kinds = ["range", "knn", "count"]
    ops = []
    for i, q in enumerate(queries):
        kind = kinds[i % len(kinds)]
        ops.append((kind, (q, args.k) if kind == "knn" else (q, radius)))
    rng = random.Random(args.seed)
    for j in range(args.mutations):
        # Writers churn existing objects: re-insert a copy, then delete one.
        obj = dataset.objects[rng.randrange(len(dataset.objects))]
        ops.append(("insert" if j % 2 == 0 else "delete", (obj,)))
    rng.shuffle(ops)
    return ops


def _submit_all(engine: QueryEngine, ops: list, snapshots=None) -> list:
    """Submit every op and wait for all of them; returns the results."""
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
    return [p.result() for p in pending]


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
    args: argparse.Namespace, dataset, tree, engine: QueryEngine, snapshots
) -> None:
    """The local ``serve`` path: the mixed workload through the engine."""
    ops = _mixed_ops(args, dataset)
    t0 = time.perf_counter()
    results = _submit_all(engine, ops, snapshots)
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
        f"(tree now holds {tree.object_count:,} objects)\n"
        f"rejections: {engine.rejected} (resubmitted after backpressure)\n"
        f"failures  : {engine.failed}"
    )


def _serve_epilogue(
    args: argparse.Namespace, tree, engine, snapshots, slow_log, rep_dir, flight
) -> None:
    """Shared tail of ``serve``: summaries, exposition, cleanup."""
    tuner = getattr(tree, "tuner", None)
    if tuner is not None:
        tuner.stop()
        st = tuner.status()
        print(
            f"tuner     : {st['ticks']} ticks, "
            f"{st['calibration']['calibrations']} calibrations, "
            f"{st['pivot_checks']} pivot checks, "
            f"{st['pivot_rebuilds']} pivot rebuilds"
        )
        tuner.close()
    if snapshots is not None:
        snapshots.write(meta={"event": "final"})
        print(f"snapshots : {snapshots.written} written to {args.snapshot_dir}")
    if slow_log is not None:
        print(
            f"slow log  : {slow_log.recorded} queries over "
            f"{args.slow_ms:g} ms -> {args.slow_log}"
        )
        slow_log.close()
    if flight is not None:
        print(
            f"flight    : {flight.recorded} traces recorded "
            f"({len(flight)} in ring), {flight.dumps} dumps -> "
            f"{args.flight_dir}"
        )
    supervisor = getattr(tree, "supervisor", None)
    if supervisor is not None:
        supervisor.stop()
        print(
            f"supervisor : {supervisor.ticks} ticks, "
            f"{supervisor.promotions} promotions, "
            f"{supervisor.rejoins} rejoins, {supervisor.repairs} repairs, "
            f"{supervisor.scrub_passes} scrub passes"
        )
        supervisor.close()
    if rep_dir is not None:
        status = tree.replication_status()
        worst = max(
            (m["lag_bytes"] for info in status.values() for m in info["members"]),
            default=0,
        )
        degraded = sorted(s for s, info in status.items() if info["degraded"])
        print(
            f"replication: {len(status)} replica sets, max lag {worst} bytes, "
            f"degraded shards {degraded if degraded else 'none'}"
        )
    _print_hit_rate("serve", tree, engine)
    if rep_dir is not None:
        tree.close()
        shutil.rmtree(rep_dir, ignore_errors=True)
    if args.metrics:
        text = obs.render_text()
        if args.metrics_out is not None:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"metrics   : Prometheus text written to {args.metrics_out}")
        else:
            print(text, end="")


def cmd_serve(args: argparse.Namespace) -> None:
    """Drive a concurrent mixed workload through the QueryEngine."""
    if args.supervise and args.replicas <= 0:
        raise ValueError("--supervise requires --replicas >= 1")
    flight = None
    if args.flight_dir:
        os.makedirs(args.flight_dir, exist_ok=True)
        flight = obs.FlightRecorder(directory=args.flight_dir)
    if args.replicas > 0 and args.shards <= 0:
        args.shards = 2  # replication implies a cluster
    dataset, tree = _build(args, args.shards)
    rep_dir = None
    if args.replicas > 0:
        # Replica sets need durable shard directories to ship between:
        # save the built cluster, replicate it, reopen with shipping on.
        rep_dir = tempfile.mkdtemp(prefix="repro-serve-repl-")
        tree.save(rep_dir)
        tree.close()
        replication.replicate(
            rep_dir, dataset.metric,
            replicas=args.replicas, read_policy=args.read_policy,
        )
        tree = replication.ReplicatedIndex.open(
            rep_dir, dataset.metric, wal_fsync=False,
            heartbeat_timeout=args.heartbeat_timeout,
        )
        print(
            f"replicated {tree.num_shards} shards x {args.replicas} followers "
            f"(read policy {args.read_policy})"
        )
    if args.supervise:
        supervisor = Supervisor(
            tree,
            scrub_interval=args.scrub_interval,
            journal_path=os.path.join(rep_dir, SUPERVISOR_JOURNAL),
            flight=flight,
        )
        supervisor.start()
        print(
            f"supervising: tick {supervisor.tick_interval:g}s, "
            f"grace {supervisor.grace:g}s, "
            f"cooldown {supervisor.cooldown:g}s, "
            f"scrub every {args.scrub_interval:g}s"
        )
    slow_log = None
    if args.slow_log is not None:
        slow_log = obs.SlowQueryLog(
            path=args.slow_log, threshold_ms=args.slow_ms
        )
    snapshots = None
    if args.snapshot_dir is not None:
        snapshots = obs.SnapshotWriter(
            args.snapshot_dir, interval_seconds=args.snapshot_interval
        )
    if args.metrics:
        obs.enable()
    wal_dir = None
    if (
        args.metrics and args.mutations > 0
        and rep_dir is None and not args.listen
    ):
        # Give the in-memory index a throwaway WAL so the write side of the
        # workload populates the WAL metric families too.
        wal_dir = tempfile.mkdtemp(prefix="repro-serve-wal-")
        if isinstance(tree, ShardedIndex):
            tree.save(wal_dir)
            tree = ShardedIndex.open(wal_dir, dataset.metric)
        else:
            tree.begin_logging(WriteAheadLog(os.path.join(wal_dir, "wal.log")))
    engine = QueryEngine(
        tree,
        workers=args.workers,
        max_queue=args.queue_size,
        trace_queries=args.metrics,
        slow_log=slow_log,
        flight=flight,
        **{f"default_{k}": v for k, v in _limits(args).items()},
    )
    try:
        with engine:
            if args.autotune:
                # Feed the calibrator from the engine and start the
                # background control loop; the epilogue finds it on the tree.
                tuner = Tuner(
                    tree,
                    engine=engine,
                    tick_interval=args.tune_interval,
                    auto_pivot_rebuild=True,
                )
                tuner.start()
                print(
                    f"autotuning: tick {tuner.tick_interval:g}s, journal "
                    f"{tuner.journal.path if tuner.journal.path else '(in-memory)'}"
                )
            if args.listen:
                _serve_network(args, engine, snapshots)
            else:
                _serve_workload(args, dataset, tree, engine, snapshots)
    finally:
        if wal_dir is not None:
            if isinstance(tree, ShardedIndex):
                tree.close()
            else:
                tree.wal.close()
            shutil.rmtree(wal_dir, ignore_errors=True)
    _serve_epilogue(args, tree, engine, snapshots, slow_log, rep_dir, flight)


def cmd_metrics(args: argparse.Namespace) -> None:
    """Run a short instrumented workload; print Prometheus text on stdout.

    Build progress and summaries go to stderr so stdout is *only* the
    exposition — ``python -m repro.cli metrics | your-scraper`` just works.
    """
    obs.enable()
    with contextlib.redirect_stdout(sys.stderr):
        dataset, tree = _build(args)
    ops = _mixed_ops(args, dataset)
    wal_dir = tempfile.mkdtemp(prefix="repro-metrics-wal-")
    try:
        # A throwaway WAL: its header commit alone exercises the fsync and
        # appended-bytes families even when --mutations is 0.
        tree.begin_logging(WriteAheadLog(os.path.join(wal_dir, "wal.log")))
        with QueryEngine(
            tree, workers=args.workers, trace_queries=True
        ) as engine:
            _submit_all(engine, ops)
        if args.mutations > 0:
            tree.checkpoint(os.path.join(wal_dir, "checkpoint"))
        print(
            f"metrics: instrumented {len(ops)} operations over "
            f"{args.dataset}; exposition follows on stdout",
            file=sys.stderr,
        )
        _print_hit_rate("metrics", tree, engine)
    finally:
        if tree.wal is not None:
            tree.wal.close()
        shutil.rmtree(wal_dir, ignore_errors=True)
    sys.stdout.write(obs.render_text())



def cmd_net_query(args: argparse.Namespace) -> None:
    """One query over the wire against a running ``serve --listen``."""
    from repro.net import NetClient, RemoteError, RetryPolicy

    host, port = _parse_hostport(args.connect)
    with NetClient(
        host, port,
        deadline_ms=args.deadline_ms,
        retry=RetryPolicy(seed=args.seed),
    ) as client:
        try:
            result = _run_query(
                client, args.mode, args.query, args.k, args.radius,
                max_compdists=args.max_compdists, max_pa=args.max_pa,
            )
        except RemoteError as exc:
            raise CommandFailed(f"server error {exc.code}: {exc}") from exc
        _print_answer(args.mode, result, args.k, args.radius)
        print(f"status    : {_state(result.complete, result.reason)}")
        if client.retries:
            print(f"retries   : {client.retries}", file=sys.stderr)


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


def _trace_entries_from_file(path: str) -> "list[tuple[Optional[str], dict]]":
    """``(request_id, trace_dict)`` pairs from a flight dump or slow log."""
    pairs: list = []
    try:
        _, entries = obs.read_flight(path)
    except ValueError:
        entries = obs.read_slow_log(path)
    for entry in entries:
        trace_data = entry.get("trace")
        if isinstance(trace_data, dict):
            pairs.append((entry.get("request_id"), trace_data))
    return pairs


def cmd_trace(args: argparse.Namespace) -> None:
    """Render span trees: recorded (--file), over the wire (--connect),
    or from one live in-process query."""
    if args.file is not None:
        pairs = _trace_entries_from_file(args.file)
        if args.request_id is not None:
            pairs = [p for p in pairs if p[0] == args.request_id]
        if not pairs:
            wanted = (
                f" for request {args.request_id}" if args.request_id else ""
            )
            raise CommandFailed(f"no traces{wanted} in {args.file}")
        for rid, trace_data in pairs:
            _print_trace(trace_data, rid)
        return
    if args.connect is not None:
        if args.query is None:
            raise ValueError("--connect needs --query")
        from repro.net import NetClient, RetryPolicy

        host, port = _parse_hostport(args.connect)
        with NetClient(
            host, port, retry=RetryPolicy(seed=args.seed), trace=True
        ) as client:
            radius = 1.0 if args.radius is None else args.radius
            _run_query(client, args.mode, args.query, args.k, radius)
            if client.last_trace is None:
                raise CommandFailed(
                    "the server returned no span tree (is it tracing? "
                    "start it with serve --metrics or --slow-log)"
                )
            _print_trace(client.last_trace.as_dict(), client.last_request_id)
        return
    # Live in-process mode: build, run one traced query, render.
    with contextlib.redirect_stdout(sys.stderr):
        dataset, tree = _build(args)
    query = _query_object(args, tree.raf.serializer.name, dataset.queries)
    radius = _query_radius(args, dataset.d_plus, dataset.metric)
    ctx = QueryContext.with_limits(
        request_id=obs.new_trace_id(), **_limits(args)
    )
    ctx.trace = obs.QueryTrace(args.mode)
    tree.flush_cache(reset_stats=True)
    _run_query(tree, args.mode, query, args.k, radius, context=ctx)
    _print_trace(ctx.trace.as_dict(), ctx.request_id)
    acd, apa = ctx.trace.attributed_totals()
    if (acd, apa) != (ctx.compdists, ctx.page_accesses):
        raise CommandFailed(
            f"WARNING — span sums ({acd}, {apa}) != context totals "
            f"({ctx.compdists}, {ctx.page_accesses})"
        )


def cmd_metrics_diff(args: argparse.Namespace) -> None:
    """What happened between two metric snapshots (see --snapshot-dir)."""
    delta = obs.diff_snapshots(
        obs.load_snapshot(args.before), obs.load_snapshot(args.after)
    )
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
    metric = _directory_metric(args)
    try:
        tree = load_tree(args.dir, metric)
    except ValueError as exc:
        print(f"index does not load: {exc}")
        print("hint: `repro salvage` may still recover the records")
        raise CommandFailed(f"FAILED — {args.dir}: index does not load") from exc
    report = tree.verify(check_objects=not args.fast)
    print(report.summary())
    rate = report.buffer_hit_rate * 100.0
    if not report.ok:
        raise CommandFailed(
            f"FAILED — {args.dir}: {len(report.errors)} error(s) found "
            f"(buffer hit-rate {rate:.1f}%)"
        )
    print(
        f"verify: OK — {args.dir}: buffer hit-rate {rate:.1f}% "
        f"({report.buffer_hits} hits / {report.buffer_misses} misses)",
        file=sys.stderr,
    )


@contextlib.contextmanager
def _logged_tree(args: argparse.Namespace):
    """The saved index opened with its write-ahead log; the log is closed
    on the way out, whatever the mutation did."""
    tree = open_tree(args.dir, _directory_metric(args))
    try:
        yield tree
    finally:
        tree.wal.close()


def cmd_insert(args: argparse.Namespace) -> None:
    obj = _parse_object(_catalog_field(args.dir, "serializer"), args.object)
    with _logged_tree(args) as tree:
        tree.insert(obj)
        print(
            f"inserted {obj!r} (index now holds {tree.object_count:,} objects; "
            f"WAL holds {tree.wal.record_count} records)"
        )


def cmd_delete(args: argparse.Namespace) -> None:
    obj = _parse_object(_catalog_field(args.dir, "serializer"), args.object)
    with _logged_tree(args) as tree:
        if not tree.delete(obj):
            raise CommandFailed(f"not found: {obj!r}")
        print(
            f"deleted {obj!r} (index now holds {tree.object_count:,} objects; "
            f"WAL holds {tree.wal.record_count} records)"
        )


def cmd_checkpoint(args: argparse.Namespace) -> None:
    with _logged_tree(args) as tree:
        folded = tree.wal.record_count
        generation = tree.checkpoint()
        print(
            f"checkpoint: folded {folded} WAL records into generation "
            f"{generation} ({tree.object_count:,} objects)"
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


def cmd_shard_build(args: argparse.Namespace) -> None:
    _, cluster = _build(args, args.shards)
    cluster.save(args.out)
    print(f"saved cluster to {args.out}")
    print(_shard_table(cluster))


def cmd_shard_query(args: argparse.Namespace) -> None:
    """One budgeted scatter-gather query against a saved cluster."""
    metric = _directory_metric(args)
    cluster = ShardedIndex.load(args.dir, metric)
    query = _query_object(
        args, _catalog_field(args.dir, "serializer"), cluster.objects()
    )
    radius = _query_radius(args, cluster.space.d_plus, metric)
    cluster.reset_counters()
    result, ctx = _budgeted_query(args, cluster, query, radius)
    print(
        f"status    : {_state(result.complete, result.reason)}\n"
        f"shards    : {result.shards_visited} visited, "
        f"{result.shards_pruned} pruned of {cluster.num_shards}\n"
        f"spent     : {ctx.compdists} compdists, {ctx.page_accesses} page accesses"
    )
    for shard_id in sorted(result.per_shard):
        out = result.per_shard[shard_id]
        status = "complete" if out["complete"] else f"partial ({out['reason']})"
        print(
            f"  shard {shard_id}: {status}, {out['compdists']} compdists, "
            f"{out['page_accesses']} page accesses"
        )


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


def cmd_shard_verify(args: argparse.Namespace) -> None:
    metric = _directory_metric(args)
    try:
        cluster = ShardedIndex.load(args.dir, metric)
    except ValueError as exc:
        print(f"cluster does not load: {exc}")
        raise CommandFailed(
            f"FAILED — {args.dir}: cluster does not load"
        ) from exc
    report = cluster.verify(check_objects=not args.fast)
    print(report.summary())
    if not report.ok:
        raise CommandFailed(
            f"FAILED — {args.dir}: {len(report.errors)} error(s) found"
        )
    print(
        f"shard-verify: OK — {args.dir}: {report.shards_checked} shards, "
        f"{report.objects_checked:,} objects checked",
        file=sys.stderr,
    )


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


def cmd_tune(args: argparse.Namespace) -> None:
    """Offline self-tuning pass over a saved cluster directory.

    Replays a sample of the cluster's own objects as kNN queries with
    the control loop ticking between batches — enough traffic for the
    calibrator to fit the cost-model scales and (with ``--auto-rebuild``)
    drift-triggered pivot re-selection to run.  Every decision lands in
    the directory's ``tuning-events.jsonl``; ``shard-status`` shows the
    tail.
    """
    cluster = ShardedIndex.open(args.dir, _directory_metric(args))
    with contextlib.closing(cluster), Tuner(
        cluster, auto_pivot_rebuild=args.auto_rebuild
    ) as tuner:
        objects = list(cluster.objects())
        if not objects:
            raise CommandFailed("cluster is empty; nothing to do")
        step = max(1, len(objects) // max(1, args.queries))
        sample = objects[::step][: args.queries]
        for i, query in enumerate(sample):
            ctx = QueryContext()
            cluster.knn_query(query, args.k, context=ctx)
            tuner.calibrator.observe_query(
                query, args.k, ctx.compdists, ctx.page_accesses
            )
            if (i + 1) % args.tick_every == 0:
                tuner.tick()
        tuner.tick()
        st = tuner.status()
        cal = st["calibration"]
        print(
            f"replayed {len(sample)} kNN queries (k={args.k}) over "
            f"{cluster.num_shards} shards; {st['ticks']} ticks"
        )
        print(
            f"calibrated: edc_scale {cal['edc_scale']} "
            f"epa_scale {cal['epa_scale']} "
            f"({cal['calibrations']} refits, window {cal['window']}); "
            f"prediction error edc={cal['error']['edc']} "
            f"epa={cal['error']['epa']}"
        )
        print(
            f"actions   : {st['pivot_checks']} pivot checks, "
            f"{st['pivot_rebuilds']} pivot rebuilds"
        )
        for evt in tuner.events(args.events):
            print(_format_event(evt))


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
            members = info["members"]
            primary_ok = any(
                m["role"] == "primary" and m["healthy"] for m in members
            )
            healthy = sum(1 for m in members if m["healthy"])
            worst = max((m["lag_bytes"] for m in members), default=0)
            state = "DEGRADED" if info["degraded"] else "ok"
            if not primary_ok:
                state = "NO HEALTHY PRIMARY"
                bad.append(sid)
            print(
                f"shard {sid}: primary r{info['primary']} "
                f"{'up' if primary_ok else 'DOWN'}, "
                f"{healthy}/{len(members)} members healthy, "
                f"max lag {worst} bytes, {state}"
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
#: changes about them (``metrics`` runs 2 workers; ``net-query`` has no d+ to
#: take a percentage of, so its ``--radius`` defaults to 1).
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
             "first query / the cluster's first object)",
    ),
    "--k": dict(type=int, default=8),
    "--radius": dict(type=float, default=None),
    "--radius-percent": dict(
        type=float, default=8.0,
        help="radius as a percentage of d+ when --radius is not given",
    ),
    "--traversal": dict(choices=["incremental", "greedy"], default="incremental"),
    "--epsilon-percent": dict(type=float, default=4.0),
    "--strict": dict(
        action="store_true",
        help="raise instead of returning a partial result on budget exhaustion",
    ),
    # per-query limits
    "--deadline-ms": dict(
        type=float, default=None, help="per-query deadline in milliseconds"
    ),
    "--max-compdists": dict(
        type=int, default=None, help="per-query distance-computation budget"
    ),
    "--max-pa": dict(type=int, default=None, help="per-query page-access budget"),
    # the serve / metrics workload
    "--num-queries": dict(type=int, default=30),
    "--workers": dict(type=int, default=4),
    "--queue-size": dict(type=int, default=16),
    "--mutations": dict(
        type=int, default=0,
        help="insert/delete operations to mix into the workload (with "
             "metrics on they exercise the WAL families)",
    ),
    "--metrics": dict(
        action="store_true",
        help="instrument the workload and emit a Prometheus text exposition",
    ),
    "--metrics-out": dict(
        default=None, metavar="FILE",
        help="write the exposition to FILE instead of stdout",
    ),
    "--slow-log": dict(
        default=None, metavar="FILE",
        help="append JSON entries for queries slower than --slow-ms",
    ),
    "--slow-ms": dict(
        type=float, default=100.0,
        help="slow-query threshold in milliseconds (default: 100)",
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
        type=int, default=4,
        help="number of shards (serve: 0 serves a single tree)",
    ),
    "--replicas": dict(type=int, default=2, help="WAL-shipping followers per shard"),
    "--read-policy": dict(
        choices=list(READ_POLICIES), default="primary-only",
        help="replica read-routing policy (default: primary-only)",
    ),
    "--supervise": dict(
        action="store_true",
        help="with --replicas: run the self-healing supervisor (automatic "
             "failover, zombie rejoin, anti-entropy scrub) during the "
             "workload",
    ),
    "--heartbeat-timeout": dict(
        type=float, default=5.0,
        help="replica heartbeat timeout in seconds (default: 5)",
    ),
    "--scrub-interval": dict(
        type=float, default=5.0,
        help="with --supervise: seconds between background anti-entropy "
             "scrub passes (default: 5)",
    ),
    "--autotune": dict(
        action="store_true",
        help="run the self-tuning control loop during the workload "
             "(online cost-model calibration, drift-triggered pivot "
             "re-selection)",
    ),
    "--tune-interval": dict(
        type=float, default=1.0,
        help="with --autotune: seconds between control-loop ticks (default: 1)",
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
        default=None, metavar="JSONL",
        help="render traces recorded in a flight dump or slow-query log",
    ),
    "--request-id": dict(
        default=None, help="with --file: only the trace(s) of this request id"
    ),
    "before": dict(metavar="BEFORE.json"),
    "after": dict(metavar="AFTER.json"),
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
    "--queries": dict(
        type=int, default=48, help="sample kNN queries to replay (default: 48)"
    ),
    "--tick-every": dict(
        type=int, default=8, help="control-loop tick every N queries (default: 8)"
    ),
    "--auto-rebuild": dict(
        action="store_true",
        help="allow a drift-triggered pivot re-selection and rebuild through "
             "a checkpoint",
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
    "range": (
        cmd_range, "run one range query",
        (*_DATASET, "--query", "--radius", "--radius-percent"), {},
    ),
    "knn": (
        cmd_knn, "run one kNN query",
        (*_DATASET, "--query", "--k", "--traversal"), {},
    ),
    "join": (
        cmd_join, "self-split similarity join",
        (*_DATASET, "--epsilon-percent"), {},
    ),
    "compare": (
        cmd_compare, "all four MAMs on one kNN query", (*_DATASET, "--k"), {},
    ),
    "query": (
        cmd_query, "one budgeted query with graceful degradation",
        (*_DATASET, *_QUERY, *_LIMITS, "--strict"), {},
    ),
    "serve": (
        cmd_serve, "run a concurrent mixed workload through the QueryEngine",
        (
            *_DATASET, *_WORKLOAD, "--queue-size", *_LIMITS, "--metrics",
            "--metrics-out", "--slow-log", "--slow-ms", "--snapshot-dir",
            "--snapshot-interval", "--flight-dir", "--shards", "--replicas",
            "--read-policy", "--supervise", "--heartbeat-timeout",
            "--scrub-interval", "--autotune", "--tune-interval", "--listen",
            "--duration", "--drain-deadline",
        ),
        {"--shards": dict(default=0), "--replicas": dict(default=0)},
    ),
    "net-query": (
        cmd_net_query,
        "run one query over the wire against a serve --listen server",
        ("--connect", "--mode", "--query", "--k", "--radius", "--seed", *_LIMITS),
        {
            "--connect": dict(required=True),
            "--query": dict(required=True, help="query object (a string)"),
            "--radius": dict(default=1.0),
        },
    ),
    "shard-build": (
        cmd_shard_build, "build and save an N-shard SPB-tree cluster",
        (*_DATASET, "--shards", "--out", "--checksums"), {},
    ),
    "shard-query": (
        cmd_shard_query,
        "one budgeted scatter-gather query against a saved cluster",
        (*_SAVED, *_QUERY, *_LIMITS, "--strict"), {},
    ),
    "shard-rebalance": (
        cmd_shard_rebalance,
        "split a hot shard or merge cold neighbours (crash-safe)",
        (*_SAVED, "--split", "--merge"), {},
    ),
    "shard-verify": (
        cmd_shard_verify, "audit a saved cluster for corruption",
        (*_SAVED, "--fast"), {},
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
    "tune": (
        cmd_tune,
        "offline self-tuning pass over a saved cluster "
        "(cost-model calibration, pivot maintenance)",
        (*_SAVED, "--queries", "--k", "--tick-every", "--auto-rebuild", "--events"),
        {},
    ),
    "metrics": (
        cmd_metrics,
        "run a short instrumented workload; Prometheus text on stdout",
        (*_DATASET, *_WORKLOAD),
        {
            "--num-queries": dict(default=12),
            "--workers": dict(default=2),
            "--mutations": dict(default=4),
        },
    ),
    "trace": (
        cmd_trace,
        "render one query's span tree — live, over the wire, or from a "
        "recorded flight dump / slow log",
        (*_DATASET, "--file", "--request-id", "--connect", *_QUERY, *_LIMITS),
        {},
    ),
    "metrics-diff": (
        cmd_metrics_diff,
        "diff two metric snapshots (see serve --snapshot-dir)",
        ("before", "after", "--json", "--changed-only"), {},
    ),
    "build": (
        cmd_build, "build and save an index directory", (*_DATASET, "--out"), {},
    ),
    "verify": (
        cmd_verify, "audit a saved index for corruption", (*_SAVED, "--fast"), {},
    ),
    "insert": (
        cmd_insert, "durably insert one object into a saved index",
        (*_SAVED, "--object"), {},
    ),
    "delete": (
        cmd_delete, "durably delete one object from a saved index",
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
