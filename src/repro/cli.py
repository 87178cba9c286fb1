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
handling; ``bench-load`` drives N client threads at a target QPS — against
a running server (``--connect``) or a self-served replicated 2-shard
cluster — and appends latency percentiles to ``results/BENCH_net.json``.

    python -m repro.cli serve      --dataset words --listen 127.0.0.1:7207
    python -m repro.cli net-query  --connect 127.0.0.1:7207 --query defoliate
    python -m repro.cli bench-load --clients 4 --qps 50 --duration 10
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import sys
import tempfile
import time
from typing import Optional, Sequence

from repro import obs

from repro import replication
from repro.baselines import MIndex, MTree, OmniRTree
from repro.cluster import READ_POLICIES, ShardedIndex
from repro.core.costmodel import CostModel
from repro.core.join import similarity_join
from repro.core.persist import load_tree, open_tree, save_tree
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
from repro.storage.wal import WriteAheadLog
from repro.supervisor import SUPERVISOR_JOURNAL, Supervisor, read_journal
from repro.tuning import TUNING_JOURNAL, Tuner


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=sorted(DATASETS), default="words"
    )
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pivots", type=int, default=5)


def _build(args: argparse.Namespace):
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    t0 = time.perf_counter()
    tree = SPBTree.build(
        dataset.objects,
        dataset.metric,
        num_pivots=args.pivots,
        d_plus=dataset.d_plus,
        seed=7,
    )
    elapsed = time.perf_counter() - t0
    print(
        f"built SPB-tree over {len(tree):,} {args.dataset} objects in "
        f"{elapsed:.2f}s ({tree.size_in_bytes / 1024:.0f} KB, "
        f"{tree.distance_computations:,} compdists)"
    )
    return dataset, tree


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


def cmd_range(args: argparse.Namespace) -> None:
    dataset, tree = _build(args)
    query = args.query if args.query is not None else dataset.queries[0]
    radius = args.radius
    if radius is None:
        radius = dataset.d_plus * args.radius_percent / 100.0
        if dataset.metric.is_discrete:
            radius = max(1.0, round(radius))
    model = CostModel(tree)
    estimate = model.estimate_range(query, radius)
    tree.reset_counters()
    tree.flush_cache()
    t0 = time.perf_counter()
    results = tree.range_query(query, radius)
    elapsed = time.perf_counter() - t0
    print(f"\nRQ(q, O, {radius:g}) -> {len(results)} results in {elapsed * 1000:.1f} ms")
    print(
        f"actual    : {tree.distance_computations} compdists, "
        f"{tree.page_accesses} page accesses"
    )
    print(f"estimated : {estimate.edc:.0f} compdists, {estimate.epa:.0f} page accesses")
    for obj in results[:10]:
        print(f"  {obj!r}"[:100])
    if len(results) > 10:
        print(f"  ... and {len(results) - 10} more")


def cmd_knn(args: argparse.Namespace) -> None:
    dataset, tree = _build(args)
    query = args.query if args.query is not None else dataset.queries[0]
    model = CostModel(tree)
    estimate = model.estimate_knn(query, args.k)
    tree.reset_counters()
    tree.flush_cache()
    t0 = time.perf_counter()
    results = tree.knn_query(query, args.k, traversal=args.traversal)
    elapsed = time.perf_counter() - t0
    print(f"\nkNN(q, {args.k}) in {elapsed * 1000:.1f} ms ({args.traversal}):")
    print(
        f"actual    : {tree.distance_computations} compdists, "
        f"{tree.page_accesses} page accesses"
    )
    print(
        f"estimated : {estimate.edc:.0f} compdists, "
        f"{estimate.epa:.0f} page accesses (eND_k={estimate.radius:.4g})"
    )
    for dist, obj in results:
        print(f"  d={dist:.4g}  {obj!r}"[:100])


def cmd_join(args: argparse.Namespace) -> None:
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    half = len(dataset.objects) // 2
    set_q, set_o = dataset.objects[:half], dataset.objects[half:]
    epsilon = dataset.d_plus * args.epsilon_percent / 100.0
    if dataset.metric.is_discrete:
        epsilon = max(1.0, round(epsilon))
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
    raise SystemExit(
        f"error: cannot reconstruct metric {name!r} from its name; "
        f"use the library API (repro.load_tree / repro.recovery.salvage_tree) "
        f"with the metric object instead"
    )


def _catalog_field(directory: str, key: str):
    """A field from the directory's catalog — single-tree or cluster."""
    for name in ("spbtree.json", "cluster.json"):
        try:
            with open(os.path.join(directory, name)) as fh:
                return json.load(fh).get(key)
        except (OSError, ValueError):
            continue
    return None


def _directory_metric(directory: str, override: Optional[str]) -> Metric:
    """The metric for a saved index: --metric wins, else the catalog's name."""
    if override is not None:
        return _metric_from_name(override)
    name = _catalog_field(directory, "metric_name")
    if name is None:
        raise SystemExit(
            f"error: cannot read the metric name from a catalog in "
            f"{directory}; pass --metric explicitly"
        )
    return _metric_from_name(name)


def _add_limits(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-query deadline in milliseconds",
    )
    parser.add_argument(
        "--max-compdists", type=int, default=None,
        help="per-query distance-computation budget",
    )
    parser.add_argument(
        "--max-pa", type=int, default=None,
        help="per-query page-access budget",
    )


def _limits(args: argparse.Namespace) -> dict:
    return {
        "deadline_ms": args.deadline_ms,
        "max_compdists": args.max_compdists,
        "max_page_accesses": args.max_pa,
    }


def cmd_query(args: argparse.Namespace) -> None:
    """One budgeted query with the graceful-degradation contract."""
    dataset, tree = _build(args)
    query = args.query if args.query is not None else dataset.queries[0]
    radius = args.radius
    if radius is None:
        radius = dataset.d_plus * args.radius_percent / 100.0
        if dataset.metric.is_discrete:
            radius = max(1.0, round(radius))
    ctx = QueryContext.with_limits(strict=args.strict, **_limits(args))
    tree.flush_cache(reset_stats=True)
    try:
        if args.mode == "range":
            result = tree.range_query(query, radius, context=ctx)
            print(f"\nRQ(q, O, {radius:g}) -> {len(result)} results")
            for obj in result[:10]:
                print(f"  {obj!r}"[:100])
        elif args.mode == "knn":
            result = tree.knn_query(query, args.k, context=ctx)
            print(f"\nkNN(q, {args.k}) -> {len(result)} neighbours")
            for dist, obj in result:
                print(f"  d={dist:.4g}  {obj!r}"[:100])
        else:
            result = tree.range_count(query, radius, context=ctx)
            print(f"\n|RQ(q, O, {radius:g})| >= {result.count}")
    except BudgetExceeded as exc:
        print(f"query aborted (strict): {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    state = "complete" if result.complete else f"PARTIAL — {result.reason}"
    print(
        f"status    : {state}\n"
        f"spent     : {ctx.compdists} compdists, {ctx.page_accesses} page accesses"
    )


def _hit_rate_line(prog: str, tree, rejected: Optional[int] = None) -> str:
    """The one-line buffer-pool summary verify/serve print on stderr.

    ``rejected`` (an engine's admission-rejection tally) rides along when
    a serving command has one, so backpressure shows up in the same line
    operators already scrape."""
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
    line = (
        f"{prog}: buffer hit-rate {rate:.1f}% "
        f"({hits} hits / {misses} misses)"
    )
    if rejected is not None:
        line += f", {rejected} rejected"
    return line


def _mixed_ops(args: argparse.Namespace, dataset) -> list:
    """The serve/metrics workload: shuffled queries plus optional writers."""
    n = args.num_queries
    queries = [dataset.queries[i % len(dataset.queries)] for i in range(n)]
    radius = dataset.d_plus * args.radius_percent / 100.0
    if dataset.metric.is_discrete:
        radius = max(1.0, round(radius))
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


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(
            f"error: --listen/--connect needs HOST:PORT, got {value!r}"
        )
    return (host or "127.0.0.1", int(port))


def _serve_network(args: argparse.Namespace, tree, slow_log, snapshots, flight):
    """The ``serve --listen`` path: expose the engine on a TCP socket
    until SIGTERM/SIGINT (graceful drain) or ``--duration`` elapses."""
    import signal as _signal
    import threading

    from repro.net import serve_in_thread

    host, port = _parse_hostport(args.listen)
    engine = QueryEngine(
        tree,
        workers=args.workers,
        max_queue=args.queue_size,
        trace_queries=args.metrics,
        slow_log=slow_log,
        flight=flight,
        **{f"default_{k}": v for k, v in _limits(args).items()},
    )
    with engine:
        _maybe_autotune(args, tree, engine)
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

        old_term = _signal.signal(_signal.SIGTERM, _on_signal)
        old_int = _signal.signal(_signal.SIGINT, _on_signal)
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
            _signal.signal(_signal.SIGTERM, old_term)
            _signal.signal(_signal.SIGINT, old_int)
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
    return engine


def _maybe_autotune(args: argparse.Namespace, tree, engine):
    """The ``serve --autotune`` path: hook the traversal advisor into the
    engine and start the background control loop."""
    if not getattr(args, "autotune", False):
        return None
    tuner = Tuner(
        tree,
        engine=engine,
        tick_interval=args.tune_interval,
        auto_pivot_rebuild=True,
    )
    tuner.start()
    print(
        f"autotuning: tick {tuner.tick_interval:g}s, "
        f"epsilon {tuner.advisor.epsilon:g}, journal "
        f"{tuner.journal.path if tuner.journal.path else '(in-memory)'}"
    )
    return tuner


def _serve_epilogue(
    args: argparse.Namespace, tree, engine, snapshots, slow_log, rep_dir,
    flight=None,
) -> None:
    """Shared tail of ``serve``: summaries, exposition, cleanup."""
    tuner = getattr(tree, "tuner", None)
    if tuner is not None:
        tuner.stop()
        st = tuner.status()
        policy = ", ".join(
            f"{bucket}={p['traversal']}"
            for bucket, p in sorted(st["policy"].items())
        )
        print(
            f"tuner     : {st['ticks']} ticks, "
            f"{st['advisor']['decisions']} advised "
            f"({st['advisor']['explorations']} explored), "
            f"{st['calibration']['calibrations']} calibrations, "
            f"{st['pivot_rebuilds']} pivot rebuilds; "
            f"policy {policy if policy else '(none yet)'}"
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
    print(
        _hit_rate_line("serve", tree, rejected=engine.rejected),
        file=sys.stderr,
    )
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
    flight = None
    if getattr(args, "flight_dir", None):
        os.makedirs(args.flight_dir, exist_ok=True)
        flight = obs.FlightRecorder(directory=args.flight_dir)
    replicas = getattr(args, "replicas", 0)
    if replicas > 0 and getattr(args, "shards", 0) <= 0:
        args.shards = 2  # replication implies a cluster
    if getattr(args, "shards", 0) > 0:
        dataset, tree = _build_cluster(args)
    else:
        dataset, tree = _build(args)
    rep_dir = None
    if replicas > 0:
        # Replica sets need durable shard directories to ship between:
        # save the built cluster, replicate it, reopen with shipping on.
        rep_dir = tempfile.mkdtemp(prefix="repro-serve-repl-")
        tree.save(rep_dir)
        tree.close()
        replication.replicate(
            rep_dir, dataset.metric,
            replicas=replicas, read_policy=args.read_policy,
        )
        tree = replication.ReplicatedIndex.open(
            rep_dir, dataset.metric, wal_fsync=False,
            heartbeat_timeout=args.heartbeat_timeout,
        )
        print(
            f"replicated {tree.num_shards} shards x {replicas} followers "
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
    elif args.supervise:
        raise SystemExit("error: --supervise requires --replicas >= 1")
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
    if getattr(args, "listen", None):
        engine = _serve_network(args, tree, slow_log, snapshots, flight)
        _serve_epilogue(
            args, tree, engine, snapshots, slow_log, rep_dir, flight
        )
        return
    ops = _mixed_ops(args, dataset)
    wal_dir = None
    if args.metrics and args.mutations > 0 and rep_dir is None:
        # Give the in-memory index a throwaway WAL so the write side of the
        # workload populates the WAL metric families too.
        wal_dir = tempfile.mkdtemp(prefix="repro-serve-wal-")
        if isinstance(tree, ShardedIndex):
            tree.save(wal_dir)
            tree = ShardedIndex.open(wal_dir, dataset.metric)
        else:
            tree.begin_logging(WriteAheadLog(os.path.join(wal_dir, "wal.log")))
    t0 = time.perf_counter()
    partial = 0
    try:
        with QueryEngine(
            tree,
            workers=args.workers,
            max_queue=args.queue_size,
            trace_queries=args.metrics,
            slow_log=slow_log,
            flight=flight,
            **{f"default_{k}": v for k, v in _limits(args).items()},
        ) as engine:
            _maybe_autotune(args, tree, engine)
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
            for p in pending:
                result = p.result()
                if not getattr(result, "complete", True):
                    partial += 1
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
    finally:
        if wal_dir is not None:
            if isinstance(tree, ShardedIndex):
                tree.close()
            else:
                tree.wal.close()
            shutil.rmtree(wal_dir, ignore_errors=True)
    _serve_epilogue(args, tree, engine, snapshots, slow_log, rep_dir, flight)


def cmd_net_query(args: argparse.Namespace) -> None:
    """One query over the wire against a running ``serve --listen``."""
    from repro.net import NetClient, RemoteError, RetryPolicy

    host, port = _parse_hostport(args.connect)
    client = NetClient(
        host, port,
        deadline_ms=args.deadline_ms,
        retry=RetryPolicy(seed=args.seed),
    )
    try:
        limits = {
            "max_compdists": args.max_compdists,
            "max_pa": args.max_pa,
        }
        if args.mode == "knn":
            result = client.knn_query(args.query, args.k, **limits)
            print(f"kNN(q, {args.k}) -> {len(result)} neighbours")
            for dist, obj in result:
                print(f"  d={dist:.4g}  {obj!r}"[:100])
        elif args.mode == "range":
            result = client.range_query(args.query, args.radius, **limits)
            print(f"RQ(q, O, {args.radius:g}) -> {len(result)} results")
            for obj in result[:10]:
                print(f"  {obj!r}"[:100])
        else:
            result = client.range_count(args.query, args.radius, **limits)
            print(f"|RQ(q, O, {args.radius:g})| >= {result.count}")
        state = (
            "complete" if result.complete else f"PARTIAL — {result.reason}"
        )
        print(f"status    : {state}")
        if client.retries:
            print(f"retries   : {client.retries}", file=sys.stderr)
    except RemoteError as exc:
        print(f"net-query: server error {exc.code}: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    except ConnectionError as exc:
        print(f"net-query: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    finally:
        client.close()


def cmd_bench_load(args: argparse.Namespace) -> None:
    """Load-test the network front end; append one record to the series.

    With ``--connect HOST:PORT`` the target is an already-running server;
    without it, a replicated 2-shard cluster is built, served on an
    ephemeral port, benchmarked, and drained — one self-contained,
    reproducible command.
    """
    from repro.net import serve_in_thread
    from repro.net.bench import append_series, run_load

    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    queries = list(dataset.queries)
    radius = dataset.d_plus * args.radius_percent / 100.0
    if dataset.metric.is_discrete:
        radius = max(1.0, round(radius))

    handle = engine = tree = None
    rep_dir = None
    target: tuple[str, int]
    mode = "connect"
    if args.connect is not None:
        target = _parse_hostport(args.connect)
    else:
        mode = "self-serve"
        args.shards = 2
        _, tree = _build_cluster(args)
        if args.replicas > 0:
            rep_dir = tempfile.mkdtemp(prefix="repro-bench-repl-")
            tree.save(rep_dir)
            tree.close()
            replication.replicate(
                rep_dir, dataset.metric,
                replicas=args.replicas, read_policy="primary-only",
            )
            tree = replication.ReplicatedIndex.open(
                rep_dir, dataset.metric, wal_fsync=False
            )
            mode = f"self-serve 2x{args.replicas} replicated"
        engine = QueryEngine(
            tree, workers=args.workers, max_queue=args.queue_size
        )
        engine.start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        target = ("127.0.0.1", handle.port)
        print(
            f"bench-load: self-serving {mode} cluster on port {handle.port}",
            file=sys.stderr,
        )
    try:
        record = run_load(
            target[0], target[1], queries,
            clients=args.clients,
            qps=args.qps,
            duration_s=args.duration,
            deadline_ms=args.deadline_ms,
            k=args.k,
            radius=radius,
            seed=args.seed,
        )
    finally:
        if handle is not None:
            handle.stop(5.0)
        if engine is not None:
            engine.stop()
        if rep_dir is not None:
            tree.close()
            shutil.rmtree(rep_dir, ignore_errors=True)
    meta = {
        "dataset": args.dataset,
        "mode": mode,
        "workers": args.workers if args.connect is None else None,
    }
    doc = append_series(args.out, record, meta)
    lat = record["latency_ms"]
    print(
        f"bench-load: {record['completed']} completed "
        f"({record['degraded']} degraded, {record['rejected']} rejected, "
        f"{record['errors']} errors, {record['client_retries']} retries) "
        f"at {record['qps_achieved']:.1f}/{record['qps_target']:g} qps"
    )
    print(
        f"latency ms: p50={lat['p50']:g} p90={lat['p90']:g} "
        f"p95={lat['p95']:g} p99={lat['p99']:g} max={lat['max']:g}"
    )
    print(f"series    : {len(doc['series'])} records in {args.out}")


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
            pending = []
            for kind, op_args in ops:
                while True:
                    try:
                        pending.append(engine.submit(kind, *op_args))
                        break
                    except Overloaded:
                        time.sleep(0.005)
            for p in pending:
                p.result()
        if args.mutations > 0:
            tree.checkpoint(os.path.join(wal_dir, "checkpoint"))
        print(
            f"metrics: instrumented {len(ops)} operations over "
            f"{args.dataset}; exposition follows on stdout",
            file=sys.stderr,
        )
        print(
            _hit_rate_line("metrics", tree, rejected=engine.rejected),
            file=sys.stderr,
        )
    finally:
        if tree.wal is not None:
            tree.wal.close()
        shutil.rmtree(wal_dir, ignore_errors=True)
    sys.stdout.write(obs.render_text())


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
    state = (
        "complete"
        if trace_data.get("complete", True)
        else f"PARTIAL — {trace_data.get('reason')}"
    )
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
            print(f"trace: no traces{wanted} in {args.file}", file=sys.stderr)
            raise SystemExit(1)
        for rid, trace_data in pairs:
            _print_trace(trace_data, rid)
        return
    if args.connect is not None:
        from repro.net import NetClient, RetryPolicy

        host, port = _parse_hostport(args.connect)
        if args.query is None:
            raise SystemExit("error: --connect needs --query")
        client = NetClient(
            host, port, retry=RetryPolicy(seed=args.seed), trace=True
        )
        try:
            if args.mode == "knn":
                client.knn_query(args.query, args.k)
            elif args.mode == "range":
                client.range_query(args.query, args.radius or 1.0)
            else:
                client.range_count(args.query, args.radius or 1.0)
            if client.last_trace is None:
                print(
                    "trace: the server returned no span tree (is it tracing? "
                    "start it with serve --metrics or --slow-log)",
                    file=sys.stderr,
                )
                raise SystemExit(1)
            _print_trace(client.last_trace.as_dict(), client.last_request_id)
        finally:
            client.close()
        return
    # Live in-process mode: build, run one traced query, render.
    with contextlib.redirect_stdout(sys.stderr):
        dataset, tree = _build(args)
    query = args.query if args.query is not None else dataset.queries[0]
    radius = args.radius
    if radius is None:
        radius = dataset.d_plus * args.radius_percent / 100.0
        if dataset.metric.is_discrete:
            radius = max(1.0, round(radius))
    ctx = QueryContext.with_limits(
        request_id=obs.new_trace_id(), **_limits(args)
    )
    ctx.trace = obs.QueryTrace(args.mode)
    tree.flush_cache(reset_stats=True)
    if args.mode == "range":
        tree.range_query(query, radius, context=ctx)
    elif args.mode == "knn":
        tree.knn_query(query, args.k, context=ctx)
    else:
        tree.range_count(query, radius, context=ctx)
    _print_trace(ctx.trace.as_dict(), ctx.request_id)
    acd, apa = ctx.trace.attributed_totals()
    if (acd, apa) != (ctx.compdists, ctx.page_accesses):
        print(
            f"trace: WARNING — span sums ({acd}, {apa}) != context totals "
            f"({ctx.compdists}, {ctx.page_accesses})",
            file=sys.stderr,
        )
        raise SystemExit(1)


def cmd_metrics_diff(args: argparse.Namespace) -> None:
    """What happened between two metric snapshots (see --snapshot-dir)."""
    try:
        before = obs.load_snapshot(args.before)
        after = obs.load_snapshot(args.after)
    except (OSError, ValueError) as exc:
        print(f"metrics-diff: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    delta = obs.diff_snapshots(before, after)
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


def cmd_build(args: argparse.Namespace) -> None:
    _, tree = _build(args)
    save_tree(tree, args.out)
    print(f"saved index to {args.out}")


def cmd_verify(args: argparse.Namespace) -> None:
    metric = _directory_metric(args.dir, args.metric)
    try:
        tree = load_tree(args.dir, metric)
    except ValueError as exc:
        print(f"index does not load: {exc}")
        print("hint: `repro salvage` may still recover the records")
        print(f"verify: FAILED — {args.dir}: index does not load", file=sys.stderr)
        raise SystemExit(1) from exc
    report = tree.verify(check_objects=not args.fast)
    print(report.summary())
    rate = report.buffer_hit_rate * 100.0
    if not report.ok:
        print(
            f"verify: FAILED — {args.dir}: {len(report.errors)} error(s) found "
            f"(buffer hit-rate {rate:.1f}%)",
            file=sys.stderr,
        )
        raise SystemExit(1)
    print(
        f"verify: OK — {args.dir}: buffer hit-rate {rate:.1f}% "
        f"({report.buffer_hits} hits / {report.buffer_misses} misses)",
        file=sys.stderr,
    )


def _parse_object(directory: str, value: str):
    """Parse a command-line object literal per the catalog's serializer."""
    name = _catalog_field(directory, "serializer")
    if name in (None, "string"):
        return value
    if name in ("vector-f64", "vector-u8"):
        cast = float if name == "vector-f64" else int
        try:
            return tuple(cast(part) for part in value.split(","))
        except ValueError as exc:
            raise SystemExit(
                f"error: cannot parse {value!r} as a {name} vector "
                f"(expected comma-separated numbers)"
            ) from exc
    if name == "bytes":
        return value.encode("utf-8")
    raise SystemExit(
        f"error: objects stored with serializer {name!r} cannot be expressed "
        f"on the command line; use the library API (repro.open_tree)"
    )


def cmd_insert(args: argparse.Namespace) -> None:
    metric = _directory_metric(args.dir, args.metric)
    obj = _parse_object(args.dir, args.object)
    tree = open_tree(args.dir, metric)
    try:
        tree.insert(obj)
        print(
            f"inserted {obj!r} (index now holds {tree.object_count:,} objects; "
            f"WAL holds {tree.wal.record_count} records)"
        )
    finally:
        tree.wal.close()


def cmd_delete(args: argparse.Namespace) -> None:
    metric = _directory_metric(args.dir, args.metric)
    obj = _parse_object(args.dir, args.object)
    tree = open_tree(args.dir, metric)
    try:
        if not tree.delete(obj):
            print(f"not found: {obj!r}", file=sys.stderr)
            raise SystemExit(1)
        print(
            f"deleted {obj!r} (index now holds {tree.object_count:,} objects; "
            f"WAL holds {tree.wal.record_count} records)"
        )
    finally:
        tree.wal.close()


def cmd_checkpoint(args: argparse.Namespace) -> None:
    metric = _directory_metric(args.dir, args.metric)
    tree = open_tree(args.dir, metric)
    try:
        folded = tree.wal.record_count
        generation = tree.checkpoint()
        print(
            f"checkpoint: folded {folded} WAL records into generation "
            f"{generation} ({tree.object_count:,} objects)"
        )
    finally:
        tree.wal.close()


def cmd_log_stats(args: argparse.Namespace) -> None:
    from repro.storage.wal import OP_INSERT, WAL_FILE, scan_wal

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
    metric = _directory_metric(args.dir, args.metric)
    try:
        tree, report = salvage_tree(args.dir, metric)
    except ValueError as exc:
        print(f"salvage failed: {exc}")
        print(f"salvage: FAILED — {args.dir}: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    print(report.summary())
    out = args.out or args.dir.rstrip("/\\") + ".salvaged"
    if tree.raf is None:
        print("no records recovered; nothing to save")
        print(
            f"salvage: FAILED — {args.dir}: no records recovered",
            file=sys.stderr,
        )
        raise SystemExit(1)
    save_tree(tree, out)
    print(f"salvaged index ({len(tree):,} objects) saved to {out}")


def _build_cluster(args: argparse.Namespace):
    """Build an in-memory sharded cluster from a dataset (serve --shards)."""
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    t0 = time.perf_counter()
    cluster = ShardedIndex.build(
        dataset.objects,
        dataset.metric,
        shards=args.shards,
        num_pivots=args.pivots,
        d_plus=dataset.d_plus,
        seed=7,
        checksums=getattr(args, "checksums", False),
    )
    elapsed = time.perf_counter() - t0
    print(
        f"built {cluster.num_shards}-shard SPB-tree cluster over "
        f"{len(cluster):,} {args.dataset} objects in {elapsed:.2f}s "
        f"({cluster.distance_computations:,} compdists)"
    )
    return dataset, cluster


def _shard_table(cluster: ShardedIndex) -> str:
    lines = ["shard  key range                                object count"]
    for shard in cluster.shards:
        lines.append(
            f"{shard.shard_id:>5}  [{shard.key_lo}, {shard.key_hi})".ljust(46)
            + f"{shard.tree.object_count:,}"
        )
    return "\n".join(lines)


def cmd_shard_build(args: argparse.Namespace) -> None:
    _, cluster = _build_cluster(args)
    cluster.save(args.out)
    print(f"saved cluster to {args.out}")
    print(_shard_table(cluster))


def _load_cluster(directory: str, metric, opener=ShardedIndex.load):
    try:
        return opener(directory, metric)
    except ValueError as exc:
        raise SystemExit(f"error: cannot load cluster: {exc}") from exc


def cmd_shard_query(args: argparse.Namespace) -> None:
    """One budgeted scatter-gather query against a saved cluster."""
    metric = _directory_metric(args.dir, args.metric)
    cluster = _load_cluster(args.dir, metric)
    if args.query is not None:
        query = _parse_object(args.dir, args.query)
    else:
        query = next(iter(cluster.objects()))
    radius = args.radius
    if radius is None:
        radius = cluster.space.d_plus * args.radius_percent / 100.0
        if metric.is_discrete:
            radius = max(1.0, round(radius))
    ctx = QueryContext.with_limits(strict=args.strict, **_limits(args))
    cluster.reset_counters()
    try:
        if args.mode == "range":
            result = cluster.range_query(query, radius, context=ctx)
            print(f"RQ(q, O, {radius:g}) -> {len(result)} results")
            for obj in result[:10]:
                print(f"  {obj!r}"[:100])
        elif args.mode == "knn":
            result = cluster.knn_query(query, args.k, context=ctx)
            print(f"kNN(q, {args.k}) -> {len(result)} neighbours")
            for dist, obj in result:
                print(f"  d={dist:.4g}  {obj!r}"[:100])
        else:
            result = cluster.range_count(query, radius, context=ctx)
            print(f"|RQ(q, O, {radius:g})| >= {result.count}")
    except BudgetExceeded as exc:
        print(f"query aborted (strict): {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    state = "complete" if result.complete else f"PARTIAL — {result.reason}"
    print(
        f"status    : {state}\n"
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
    metric = _directory_metric(args.dir, args.metric)
    cluster = _load_cluster(args.dir, metric, opener=ShardedIndex.open)
    try:
        merge = tuple(args.merge) if args.merge is not None else None
        try:
            action = cluster.rebalance(split=args.split, merge=merge)
        except ValueError as exc:
            print(f"rebalance failed: {exc}", file=sys.stderr)
            raise SystemExit(1) from exc
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
    finally:
        cluster.close()


def cmd_shard_verify(args: argparse.Namespace) -> None:
    metric = _directory_metric(args.dir, args.metric)
    try:
        cluster = ShardedIndex.load(args.dir, metric)
    except ValueError as exc:
        print(f"cluster does not load: {exc}")
        print(
            f"shard-verify: FAILED — {args.dir}: cluster does not load",
            file=sys.stderr,
        )
        raise SystemExit(1) from exc
    report = cluster.verify(check_objects=not args.fast)
    print(report.summary())
    if not report.ok:
        print(
            f"shard-verify: FAILED — {args.dir}: "
            f"{len(report.errors)} error(s) found",
            file=sys.stderr,
        )
        raise SystemExit(1)
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
    metric = _directory_metric(args.dir, args.metric)
    try:
        done = replication.replicate(
            args.dir, metric,
            replicas=args.replicas, read_policy=args.read_policy,
        )
    except (ValueError, replication.ReplicationError) as exc:
        print(f"replicate failed: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    print(
        f"replicated shards {done}: {args.replicas} follower(s) each, "
        f"read policy {args.read_policy}"
    )
    idx = _load_cluster(
        args.dir, metric, opener=replication.ReplicatedIndex.open
    )
    try:
        idx.ship_all()  # seed every follower to lag zero
        print(_replication_table(idx))
    finally:
        idx.close()


def cmd_shard_failover(args: argparse.Namespace) -> None:
    metric = _directory_metric(args.dir, args.metric)
    idx = _load_cluster(
        args.dir, metric, opener=replication.ReplicatedIndex.open
    )
    try:
        try:
            info = idx.failover(args.shard)
        except replication.ReplicationError as exc:
            print(f"shard-failover failed: {exc}", file=sys.stderr)
            raise SystemExit(1) from exc
        idx.ship_all()  # re-sync the demoted ex-primary right away
        print(
            f"shard {info['shard']}: promoted replica {info['promoted']} to "
            f"primary at generation {info['generation']}; replica "
            f"{info['demoted']} demoted to follower"
        )
        print(_replication_table(idx))
    finally:
        idx.close()


def cmd_scrub(args: argparse.Namespace) -> None:
    """One anti-entropy pass over a saved replicated cluster."""
    metric = _directory_metric(args.dir, args.metric)
    idx = _load_cluster(
        args.dir, metric, opener=replication.ReplicatedIndex.open
    )
    supervisor = Supervisor(
        idx,
        journal_path=os.path.join(args.dir, SUPERVISOR_JOURNAL),
        scrub_interval=None,
    )
    try:
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
            print(
                f"scrub: FAILED — {args.dir}: "
                f"{len(unrepaired)} unrepaired finding(s)",
                file=sys.stderr,
            )
            raise SystemExit(1)
        print(
            f"scrub: OK — {args.dir}: "
            f"{len(report.findings)} finding(s), all repaired"
            if report.findings
            else f"scrub: OK — {args.dir}: clean",
            file=sys.stderr,
        )
    finally:
        supervisor.close()
        idx.close()


def cmd_tune(args: argparse.Namespace) -> None:
    """Offline self-tuning pass over a saved cluster directory.

    Replays a sample of the cluster's own objects as advised kNN
    queries with the control loop ticking between batches — enough
    traffic for the advisor to converge a policy, the calibrator to fit
    the cost-model scales, and (with ``--auto-rebuild``) drift-triggered
    pivot re-selection to run.  Every decision lands in the directory's
    ``tuning-events.jsonl``; ``shard-status`` shows the tail.
    """
    metric = _directory_metric(args.dir, args.metric)
    cluster = _load_cluster(args.dir, metric, opener=ShardedIndex.open)
    try:
        tuner = Tuner(
            cluster,
            epsilon=args.epsilon,
            auto_pivot_rebuild=args.auto_rebuild,
        )
        objects = list(cluster.objects())
        if not objects:
            print("tune: cluster is empty; nothing to do", file=sys.stderr)
            raise SystemExit(1)
        step = max(1, len(objects) // max(1, args.queries))
        sample = objects[::step][: args.queries]
        advised = 0
        for i, query in enumerate(sample):
            tuner.advisor.run_knn(cluster, query, args.k, QueryContext())
            advised += 1
            if (i + 1) % args.tick_every == 0:
                tuner.tick()
        tuner.tick()
        st = tuner.status()
        cal = st["calibration"]
        print(
            f"advised {advised} kNN queries (k={args.k}) over "
            f"{cluster.num_shards} shards; {st['ticks']} ticks"
        )
        for bucket, p in sorted(st["policy"].items()):
            print(f"policy    : {bucket} -> {p['traversal']}")
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
        tuner.close()
    finally:
        cluster.close()


def _format_event(evt: dict) -> str:
    """One journal entry (supervisor's or tuner's) as an indented line."""
    parts = [f"  [{evt.get('ts')}] {evt.get('event')}"]
    for key in ("shard", "replica", "detail", "request_id"):
        if evt.get(key) is not None:
            parts.append(f"{key}={evt[key]}")
    return " ".join(parts)


def cmd_shard_status(args: argparse.Namespace) -> None:
    """Replication status plus supervisor event tail, one line per shard."""
    metric = _directory_metric(args.dir, args.metric)
    try:
        idx = replication.ReplicatedIndex.open(args.dir, metric)
    except (ValueError, replication.ReplicationError, OSError) as exc:
        print(f"shard-status: FAILED — {args.dir}: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    try:
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
        journal = os.path.join(args.dir, SUPERVISOR_JOURNAL)
        events = read_journal(journal, limit=args.events)
        if events:
            print(f"supervisor events (last {len(events)}):")
            for evt in events:
                print(_format_event(evt))
        # The same journal format the supervisor uses; the latest
        # per-bucket "policy" events ARE the traversal policy in force,
        # so surface them before the raw tail.
        tuning_journal = os.path.join(args.dir, TUNING_JOURNAL)
        policy: dict = {}
        for evt in read_journal(tuning_journal):
            if evt.get("event") == "policy":
                detail = evt.get("detail") or {}
                if "bucket" in detail:
                    policy[detail["bucket"]] = detail
        for bucket, p in sorted(policy.items()):
            print(f"tuning policy: {bucket} -> {p.get('traversal')}")
        tuning_events = read_journal(tuning_journal, limit=args.events)
        if tuning_events:
            print(f"tuning events (last {len(tuning_events)}):")
            for evt in tuning_events:
                print(_format_event(evt))
        if bad:
            print(
                f"shard-status: FAILED — {args.dir}: shard(s) "
                f"{bad} lack a healthy primary",
                file=sys.stderr,
            )
            raise SystemExit(1)
        print(
            f"shard-status: OK — {args.dir}: every shard has a healthy "
            "primary",
            file=sys.stderr,
        )
    finally:
        idx.close()


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro", description="SPB-tree demo CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="dataset statistics")
    _add_common(p_info)
    p_info.set_defaults(fn=cmd_info)

    p_range = sub.add_parser("range", help="run one range query")
    _add_common(p_range)
    p_range.add_argument("--query", default=None)
    p_range.add_argument("--radius", type=float, default=None)
    p_range.add_argument("--radius-percent", type=float, default=8.0)
    p_range.set_defaults(fn=cmd_range)

    p_knn = sub.add_parser("knn", help="run one kNN query")
    _add_common(p_knn)
    p_knn.add_argument("--query", default=None)
    p_knn.add_argument("--k", type=int, default=8)
    p_knn.add_argument(
        "--traversal", choices=["incremental", "greedy"], default="incremental"
    )
    p_knn.set_defaults(fn=cmd_knn)

    p_join = sub.add_parser("join", help="self-split similarity join")
    _add_common(p_join)
    p_join.add_argument("--epsilon-percent", type=float, default=4.0)
    p_join.set_defaults(fn=cmd_join)

    p_cmp = sub.add_parser("compare", help="all four MAMs on one kNN query")
    _add_common(p_cmp)
    p_cmp.add_argument("--k", type=int, default=8)
    p_cmp.set_defaults(fn=cmd_compare)

    p_query = sub.add_parser(
        "query", help="one budgeted query with graceful degradation"
    )
    _add_common(p_query)
    p_query.add_argument(
        "--mode", choices=["range", "knn", "count"], default="knn"
    )
    p_query.add_argument("--query", default=None)
    p_query.add_argument("--k", type=int, default=8)
    p_query.add_argument("--radius", type=float, default=None)
    p_query.add_argument("--radius-percent", type=float, default=8.0)
    _add_limits(p_query)
    p_query.add_argument(
        "--strict", action="store_true",
        help="raise instead of returning a partial result on budget exhaustion",
    )
    p_query.set_defaults(fn=cmd_query)

    p_serve = sub.add_parser(
        "serve", help="run a concurrent mixed workload through the QueryEngine"
    )
    _add_common(p_serve)
    p_serve.add_argument("--num-queries", type=int, default=30)
    p_serve.add_argument("--workers", type=int, default=4)
    p_serve.add_argument("--queue-size", type=int, default=16)
    p_serve.add_argument("--k", type=int, default=8)
    p_serve.add_argument("--radius-percent", type=float, default=8.0)
    p_serve.add_argument(
        "--mutations", type=int, default=0,
        help="number of concurrent insert/delete operations to mix in",
    )
    _add_limits(p_serve)
    p_serve.add_argument(
        "--metrics", action="store_true",
        help="instrument the workload and emit a Prometheus text exposition",
    )
    p_serve.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the exposition to FILE instead of stdout",
    )
    p_serve.add_argument(
        "--slow-log", default=None, metavar="FILE",
        help="append JSON entries for queries slower than --slow-ms",
    )
    p_serve.add_argument(
        "--slow-ms", type=float, default=100.0,
        help="slow-query threshold in milliseconds (default: 100)",
    )
    p_serve.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="write periodic diffable metric snapshots into DIR",
    )
    p_serve.add_argument(
        "--snapshot-interval", type=float, default=10.0,
        help="seconds between periodic snapshots (default: 10)",
    )
    p_serve.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="record recent query traces in a bounded ring and dump them "
             "into DIR as JSONL on anomalies (degraded results, failover, "
             "quarantine, scrub divergence, rejection bursts)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=0,
        help="serve from an N-shard cluster instead of a single tree",
    )
    p_serve.add_argument(
        "--replicas", type=int, default=0,
        help="replicate each shard with N WAL-shipping followers",
    )
    p_serve.add_argument(
        "--read-policy", choices=list(READ_POLICIES), default="primary-only",
        help="replica read-routing policy for --replicas (default: primary-only)",
    )
    p_serve.add_argument(
        "--supervise", action="store_true",
        help="with --replicas: run the self-healing supervisor (automatic "
             "failover, zombie rejoin, anti-entropy scrub) during the "
             "workload",
    )
    p_serve.add_argument(
        "--heartbeat-timeout", type=float, default=5.0,
        help="replica heartbeat timeout in seconds (default: 5)",
    )
    p_serve.add_argument(
        "--scrub-interval", type=float, default=5.0,
        help="with --supervise: seconds between background anti-entropy "
             "scrub passes (default: 5)",
    )
    p_serve.add_argument(
        "--autotune", action="store_true",
        help="run the self-tuning control loop during the workload "
             "(traversal advisor on the kNN path, online cost-model "
             "calibration, drift-triggered pivot re-selection)",
    )
    p_serve.add_argument(
        "--tune-interval", type=float, default=1.0,
        help="with --autotune: seconds between control-loop ticks "
             "(default: 1)",
    )
    p_serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the wire protocol instead of a local workload "
             "(SIGTERM/SIGINT drains gracefully)",
    )
    p_serve.add_argument(
        "--duration", type=float, default=0.0,
        help="with --listen: stop after this many seconds (0 = until signal)",
    )
    p_serve.add_argument(
        "--drain-deadline", type=float, default=5.0,
        help="with --listen: seconds in-flight queries get to finish on "
             "shutdown before being aborted to honest partials (default: 5)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_netq = sub.add_parser(
        "net-query",
        help="run one query over the wire against a serve --listen server",
    )
    p_netq.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="server address (see serve --listen)",
    )
    p_netq.add_argument(
        "--mode", choices=["range", "knn", "count"], default="knn"
    )
    p_netq.add_argument("--query", required=True, help="query object")
    p_netq.add_argument("--k", type=int, default=8)
    p_netq.add_argument("--radius", type=float, default=1.0)
    p_netq.add_argument("--seed", type=int, default=42)
    _add_limits(p_netq)
    p_netq.set_defaults(fn=cmd_net_query)

    p_bench = sub.add_parser(
        "bench-load",
        help="load-test the network front end; append to results/BENCH_net.json",
    )
    _add_common(p_bench)
    p_bench.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="benchmark a running server (default: self-serve a replicated "
             "2-shard cluster on an ephemeral port)",
    )
    p_bench.add_argument("--clients", type=int, default=4)
    p_bench.add_argument(
        "--qps", type=float, default=50.0,
        help="aggregate target queries per second (default: 50)",
    )
    p_bench.add_argument(
        "--duration", type=float, default=10.0,
        help="seconds of load (default: 10)",
    )
    p_bench.add_argument("--deadline-ms", type=float, default=250.0)
    p_bench.add_argument("--k", type=int, default=8)
    p_bench.add_argument("--radius-percent", type=float, default=8.0)
    p_bench.add_argument(
        "--workers", type=int, default=4,
        help="self-serve engine workers (default: 4)",
    )
    p_bench.add_argument("--queue-size", type=int, default=16)
    p_bench.add_argument(
        "--replicas", type=int, default=1,
        help="self-serve followers per shard (default: 1; 0 = unreplicated)",
    )
    p_bench.add_argument(
        "--out", default="results/BENCH_net.json",
        help="JSON series file to append to (default: results/BENCH_net.json)",
    )
    p_bench.set_defaults(fn=cmd_bench_load)

    p_sbuild = sub.add_parser(
        "shard-build", help="build and save an N-shard SPB-tree cluster"
    )
    _add_common(p_sbuild)
    p_sbuild.add_argument("--shards", type=int, default=4)
    p_sbuild.add_argument(
        "--out", required=True, help="cluster directory to write"
    )
    p_sbuild.add_argument(
        "--checksums", action="store_true",
        help="CRC32-checksum every page (lets scrub detect bit rot at rest)",
    )
    p_sbuild.set_defaults(fn=cmd_shard_build)

    p_squery = sub.add_parser(
        "shard-query",
        help="one budgeted scatter-gather query against a saved cluster",
    )
    p_squery.add_argument("--dir", required=True, help="cluster directory")
    p_squery.add_argument(
        "--metric", default=None,
        help="metric name override (default: the catalog's metric_name)",
    )
    p_squery.add_argument(
        "--mode", choices=["range", "knn", "count"], default="knn"
    )
    p_squery.add_argument("--query", default=None)
    p_squery.add_argument("--k", type=int, default=8)
    p_squery.add_argument("--radius", type=float, default=None)
    p_squery.add_argument("--radius-percent", type=float, default=8.0)
    _add_limits(p_squery)
    p_squery.add_argument(
        "--strict", action="store_true",
        help="raise instead of returning a partial result on budget exhaustion",
    )
    p_squery.set_defaults(fn=cmd_shard_query)

    p_srebal = sub.add_parser(
        "shard-rebalance",
        help="split a hot shard or merge cold neighbours (crash-safe)",
    )
    p_srebal.add_argument("--dir", required=True, help="cluster directory")
    p_srebal.add_argument(
        "--metric", default=None,
        help="metric name override (default: the catalog's metric_name)",
    )
    p_srebal.add_argument(
        "--split", type=int, default=None, metavar="SHARD",
        help="split this shard at its SFC key midpoint",
    )
    p_srebal.add_argument(
        "--merge", type=int, nargs=2, default=None, metavar=("A", "B"),
        help="merge these two range-adjacent shards",
    )
    p_srebal.set_defaults(fn=cmd_shard_rebalance)

    p_sverify = sub.add_parser(
        "shard-verify", help="audit a saved cluster for corruption"
    )
    p_sverify.add_argument("--dir", required=True, help="cluster directory")
    p_sverify.add_argument(
        "--metric", default=None,
        help="metric name override (default: the catalog's metric_name)",
    )
    p_sverify.add_argument(
        "--fast", action="store_true",
        help="skip per-object re-verification",
    )
    p_sverify.set_defaults(fn=cmd_shard_verify)

    p_repl = sub.add_parser(
        "replicate",
        help="convert a saved cluster into per-shard replica sets",
    )
    p_repl.add_argument("--dir", required=True, help="cluster directory")
    p_repl.add_argument(
        "--metric", default=None,
        help="metric name override (default: the catalog's metric_name)",
    )
    p_repl.add_argument(
        "--replicas", type=int, default=2,
        help="WAL-shipping followers per shard (default: 2)",
    )
    p_repl.add_argument(
        "--read-policy", choices=list(READ_POLICIES), default="primary-only",
        help="replica read-routing policy (default: primary-only)",
    )
    p_repl.set_defaults(fn=cmd_replicate)

    p_failover = sub.add_parser(
        "shard-failover",
        help="promote the best follower of a shard to primary",
    )
    p_failover.add_argument("--dir", required=True, help="cluster directory")
    p_failover.add_argument(
        "--metric", default=None,
        help="metric name override (default: the catalog's metric_name)",
    )
    p_failover.add_argument(
        "--shard", type=int, required=True, help="shard id to fail over"
    )
    p_failover.set_defaults(fn=cmd_shard_failover)

    p_scrub = sub.add_parser(
        "scrub",
        help="anti-entropy pass: WAL prefixes, page checksums, auto-repair",
    )
    p_scrub.add_argument("--dir", required=True, help="cluster directory")
    p_scrub.add_argument(
        "--metric", default=None,
        help="metric name override (default: the catalog's metric_name)",
    )
    p_scrub.add_argument(
        "--shard", type=int, default=None,
        help="scrub one shard only (default: every shard)",
    )
    p_scrub.add_argument(
        "--pages", type=int, default=None,
        help="page spot-check budget per member (default: all pages)",
    )
    p_scrub.add_argument(
        "--deep", action="store_true",
        help="additionally run the full structural verify on every member",
    )
    p_scrub.set_defaults(fn=cmd_scrub)

    p_status = sub.add_parser(
        "shard-status",
        help="one line of replication health per shard + supervisor events",
    )
    p_status.add_argument("--dir", required=True, help="cluster directory")
    p_status.add_argument(
        "--metric", default=None,
        help="metric name override (default: the catalog's metric_name)",
    )
    p_status.add_argument(
        "--events", type=int, default=10,
        help="supervisor journal events to tail (default: 10)",
    )
    p_status.set_defaults(fn=cmd_shard_status)

    p_tune = sub.add_parser(
        "tune",
        help="offline self-tuning pass over a saved cluster "
             "(advisor policy, cost-model calibration, maintenance)",
    )
    p_tune.add_argument("--dir", required=True, help="cluster directory")
    p_tune.add_argument(
        "--metric", default=None,
        help="metric name override (default: the catalog's metric_name)",
    )
    p_tune.add_argument(
        "--queries", type=int, default=48,
        help="advised sample queries to run (default: 48)",
    )
    p_tune.add_argument("--k", type=int, default=8)
    p_tune.add_argument(
        "--epsilon", type=float, default=0.05,
        help="advisor exploration floor (default: 0.05)",
    )
    p_tune.add_argument(
        "--tick-every", type=int, default=8,
        help="control-loop tick every N queries (default: 8)",
    )
    p_tune.add_argument(
        "--auto-rebuild", action="store_true",
        help="allow a drift-triggered pivot re-selection and rebuild "
             "through a checkpoint",
    )
    p_tune.add_argument(
        "--events", type=int, default=10,
        help="tuning journal events to print (default: 10)",
    )
    p_tune.set_defaults(fn=cmd_tune)

    p_metrics = sub.add_parser(
        "metrics",
        help="run a short instrumented workload; Prometheus text on stdout",
    )
    _add_common(p_metrics)
    p_metrics.add_argument("--num-queries", type=int, default=12)
    p_metrics.add_argument("--workers", type=int, default=2)
    p_metrics.add_argument("--k", type=int, default=8)
    p_metrics.add_argument("--radius-percent", type=float, default=8.0)
    p_metrics.add_argument(
        "--mutations", type=int, default=4,
        help="insert/delete operations mixed in (exercises the WAL families)",
    )
    p_metrics.set_defaults(fn=cmd_metrics)

    p_trace = sub.add_parser(
        "trace",
        help="render one query's span tree — live, over the wire, or from "
             "a recorded flight dump / slow log",
    )
    _add_common(p_trace)
    p_trace.add_argument(
        "--file", default=None, metavar="JSONL",
        help="render traces recorded in a flight dump or slow-query log",
    )
    p_trace.add_argument(
        "--request-id", default=None,
        help="with --file: only the trace(s) of this request id",
    )
    p_trace.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="run the query against a serve --listen server and render "
             "the stitched cross-process tree",
    )
    p_trace.add_argument(
        "--mode", choices=["range", "knn", "count"], default="knn"
    )
    p_trace.add_argument("--query", default=None)
    p_trace.add_argument("--k", type=int, default=8)
    p_trace.add_argument("--radius", type=float, default=None)
    p_trace.add_argument("--radius-percent", type=float, default=8.0)
    _add_limits(p_trace)
    p_trace.set_defaults(fn=cmd_trace)

    p_mdiff = sub.add_parser(
        "metrics-diff",
        help="diff two metric snapshots (see serve --snapshot-dir)",
    )
    p_mdiff.add_argument("before", metavar="BEFORE.json")
    p_mdiff.add_argument("after", metavar="AFTER.json")
    p_mdiff.add_argument(
        "--json", action="store_true",
        help="emit the structured diff as JSON instead of text",
    )
    p_mdiff.add_argument(
        "--changed-only", action="store_true",
        help="hide samples with a zero delta",
    )
    p_mdiff.set_defaults(fn=cmd_metrics_diff)

    p_build = sub.add_parser("build", help="build and save an index directory")
    _add_common(p_build)
    p_build.add_argument("--out", required=True, help="index directory to write")
    p_build.set_defaults(fn=cmd_build)

    p_verify = sub.add_parser(
        "verify", help="audit a saved index for corruption"
    )
    p_verify.add_argument("--dir", required=True, help="index directory")
    p_verify.add_argument(
        "--metric", default=None,
        help="metric name override (default: the catalog's metric_name)",
    )
    p_verify.add_argument(
        "--fast", action="store_true",
        help="skip per-object SFC key re-verification",
    )
    p_verify.set_defaults(fn=cmd_verify)

    def _index_dir_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dir", required=True, help="index directory")
        p.add_argument(
            "--metric", default=None,
            help="metric name override (default: the catalog's metric_name)",
        )
        return p

    p_insert = _index_dir_parser(
        "insert", "durably insert one object into a saved index"
    )
    p_insert.add_argument(
        "--object", required=True,
        help="the object (string, or comma-separated numbers for vectors)",
    )
    p_insert.set_defaults(fn=cmd_insert)

    p_delete = _index_dir_parser(
        "delete", "durably delete one object from a saved index"
    )
    p_delete.add_argument(
        "--object", required=True,
        help="the object (string, or comma-separated numbers for vectors)",
    )
    p_delete.set_defaults(fn=cmd_delete)

    p_ckpt = _index_dir_parser(
        "checkpoint", "fold the write-ahead log into a new on-disk generation"
    )
    p_ckpt.set_defaults(fn=cmd_checkpoint)

    p_log = sub.add_parser(
        "log-stats", help="inspect an index's write-ahead log"
    )
    p_log.add_argument("--dir", required=True, help="index directory")
    p_log.set_defaults(fn=cmd_log_stats)

    p_salvage = sub.add_parser(
        "salvage", help="rebuild a consistent index from a damaged directory"
    )
    p_salvage.add_argument("--dir", required=True, help="damaged index directory")
    p_salvage.add_argument(
        "--metric", default=None,
        help="metric name override (default: the catalog's metric_name)",
    )
    p_salvage.add_argument(
        "--out", default=None,
        help="where to save the salvaged index (default: <dir>.salvaged)",
    )
    p_salvage.set_defaults(fn=cmd_salvage)

    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
