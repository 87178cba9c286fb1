"""The traced run: per-layer metrics from probes, shims and the ladder.

A traced run never feeds the end-to-end table.  It sets the deployment up
once, warms it, then spends ``--seconds`` on a plain window followed by a
window over the *same ops* with the trace shims installed (on writable
deployments: over the ops that follow); the gap between the two rates is
``bench.trace_overhead_frac``.  After the windows come the layer probes
(:mod:`bench.probes`) and, on ``cluster-net``, the ladder: the same read
ops timed at every public boundary of the deployment, each rung's tax
being its median minus the median of the rung below.

A metric whose layer is not on the workload's path is reported as 0.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics
import time
from typing import Any, Optional

from repro import obs
from repro.cluster.sharded import ShardedIndex
from repro.net.protocol import obj_to_json
from repro.obs.trace import QueryTrace
from repro.service.context import QueryContext

from bench import probes
from bench.harness import (
    RunResult,
    Window,
    clock_factor,
    make_workdir,
    ops_run,
    remove_workdir,
    run_window,
    set_up,
    unpack,
    warm_up,
    window_metrics,
)
from bench.report import write_json
from bench.trace import OP, MappingClock, Tracer
from bench.workloads import (
    NUM_PIVOTS,
    READ_DEADLINE_MS,
    READ_KINDS,
    WORD_RADIUS,
    Scale,
    Workload,
    fresh_words,
    rng_for,
)

#: Shares of ``--seconds``: (plain window, traced window); the traced one
#: is also capped by the op count of the plain one.
PLAIN_SHARE, TRACED_SHARE = 0.3, 0.5
#: Extra plain windows some workloads need, as a share of ``--seconds``.
EXTRA_SHARE = 0.2
SHIMMED_LAYERS = (
    "distance", "core.mapping", "sfc", "btree", "storage.raf",
    "storage.buffer", "storage.pagefile", "storage.wal", "core.persist",
    "cluster",
)


class _ObservedTree:
    """``range_query`` the way an operator with observability on runs it."""

    def __init__(self, tree: Any) -> None:
        self.tree = tree

    def range_query(self, query: Any, radius: float) -> Any:
        context = QueryContext()
        context.trace = QueryTrace("range")
        return self.tree.range_query(query, radius, context=context)


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1000.0


def _result_size(out: Any) -> int:
    """Objects an answer holds (a count's own value); 0 for an op that raised."""
    if out is None:
        return 0
    items, count, _ = unpack(out)
    return len(items) or count or 0


def _kinds_run(op_lists: list, window: Window) -> list[str]:
    """The kind of every op of the window, in ``window.latencies()`` order."""
    return [
        op[0] for ops, log in zip(op_lists, window.logs)
        for _, op in ops_run(ops, log, log.first)
    ]


# ------------------------------------------------------------------ ladder


def _timed(fn: Any, *args: Any, **kwargs: Any) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


class _Rungs:
    """Samples per rung, each scaled to the reference clock."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.factor = 1.0

    def calibrate(self) -> None:
        self.factor = clock_factor()

    def note(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds / self.factor)

    def medians_ms(self) -> dict[str, float]:
        return {name: _median_ms(v) for name, v in self.samples.items()}


def ladder(deployment: Any, op_lists: list, first: int, scale: Scale, workdir: str) -> dict[str, float]:
    """Time the same read ops at each boundary of the ``cluster-net`` stack:
    shard trees -> ShardedIndex -> ReplicatedIndex -> QueryEngine -> NetClient.

    The rungs of one op run back to back, so drift on the box hits every
    rung alike.  Rung 0 asks each shard tree the router's plan names, one
    after the other, with nothing shared between them.
    """
    replicated, engine = deployment.index, deployment.engine
    sharded = ShardedIndex.load(deployment.directory, deployment.metric)
    client = deployment.client()
    timed_ops = op_lists[0][first:]
    ranges = [op for op in timed_ops if op[0] == "range"][: scale.ladder_ops]
    knns = [op for op in timed_ops if op[0] == "knn"][: max(2, scale.ladder_ops // 3)]
    rungs = _Rungs()
    note = rungs.note

    visited = []
    for _, query, radius in ranges:
        rungs.calibrate()
        plan, _ = sharded.router.range_plan(sharded.space.phi(query), radius)
        visited.append(len(plan))
        t0 = time.perf_counter()
        for shard, _ in plan:
            shard.tree.range_query(query, radius)
        note("range.shards", time.perf_counter() - t0)
        note("range.sharded", _timed(sharded.range_query, query, radius))
        note("range.replicated", _timed(replicated.range_query, query, radius))
        note("range.engine", _timed(engine.range, query, radius))
        note("range.net", _timed(
            client.range_query, query, radius, deadline_ms=READ_DEADLINE_MS
        ))
    for _, query, k in knns:
        rungs.calibrate()
        t0 = time.perf_counter()
        for shard in sharded.shards:
            shard.tree.knn_query(query, k)
        note("knn.shards", time.perf_counter() - t0)
        note("knn.sharded", _timed(sharded.knn_query, query, k))
    for _ in range(scale.probe_calls // 10):
        note("health", _timed(client.health))

    # Inserts: the same fresh words into a plain and the replicated cluster.
    copy = os.path.join(workdir, "sharded-copy")
    shutil.copytree(deployment.directory, copy)
    writable = ShardedIndex.open(copy, deployment.metric, wal_fsync=True)
    follower_logs = glob.glob(os.path.join(deployment.directory, "*.r*", "wal.log"))
    shipped = -sum(os.path.getsize(p) for p in follower_logs)
    words = fresh_words(
        list(replicated.objects()), max(4, scale.ladder_ops // 2), seed=first
    )
    try:
        for word in words:
            rungs.calibrate()
            note("insert.sharded", _timed(writable.insert, word))
            note("insert.replicated", _timed(replicated.insert, word))
    finally:
        writable.close()
    shipped += sum(os.path.getsize(p) for p in follower_logs)

    med = rungs.medians_ms()
    return {
        "cluster.range_tax_ms": med["range.sharded"] - med["range.shards"],
        "cluster.knn_tax_ms": med["knn.sharded"] - med["knn.shards"],
        "cluster.shards_visited_per_op": statistics.mean(visited),
        "replication.read_tax_ms": med["range.replicated"] - med["range.sharded"],
        "replication.insert_tax_ms": med["insert.replicated"] - med["insert.sharded"],
        "replication.ship_bytes_per_insert": shipped / len(words),
        "service.queue_hop_us": (med["range.engine"] - med["range.replicated"]) * 1000.0,
        "net.rtt_tax_ms": med["range.net"] - med["range.engine"],
        "net.health_rtt_us": med["health"] * 1000.0,
        "ladder.rungs_ms": med,
    }


def _codec_inputs(deployment: Any, op_lists: list, first: int, scale: Scale) -> tuple[list, list]:
    """This workload's requests as the client sends them and the engine's
    real replies to them, in the workload's own mix."""
    requests, replies = [], []
    reads = [op for op in op_lists[0][first:] if op[0] in READ_KINDS]
    for kind, query, arg in reads[: scale.ladder_ops]:
        key = "k" if kind == "knn" else "radius"
        requests.append((kind, {"query": obj_to_json(query), key: arg}))
        replies.append((kind, deployment.engine.submit(kind, query, arg).result()))
    return requests, replies


# -------------------------------------------------------------- traced run


def _shim_values(tracer: Tracer, traced_ops: int) -> dict[str, float]:
    """(b) what the shims saw: busy shares, calls per op, fsyncs."""
    totals = tracer.totals()
    calls, self_time = totals["calls"], tracer.layer_self_time()
    op_seconds = totals["total_time"][OP]
    out = {
        f"{layer}.busy_frac": self_time.get(layer, 0.0) / op_seconds
        for layer in SHIMMED_LAYERS
    }
    # The op span's own time where the work runs on the client's thread;
    # on cluster-net it runs on others, so take the remainder.
    out["core.spbtree.self_frac"] = max(0.0, 1.0 - sum(out.values()))

    def per_op(*spans: str) -> float:
        return sum(calls.get(span, 0) for span in spans) / traced_ops

    out["core.mapping.calls_per_op"] = per_op(
        *(span for span in calls if span.startswith("core.mapping:"))
    )
    out["sfc.encode_calls_per_op"] = per_op("sfc:encode")
    out["btree.nodes_per_op"] = per_op("btree:read_node")
    out["storage.raf.reads_per_op"] = per_op("storage.raf:read")
    mutations = per_op("storage.wal:append_insert", "storage.wal:append_delete")
    if mutations:
        syncs = sum(
            n for span, n in totals["fsyncs"].items() if span.startswith("storage.wal:")
        )
        out["storage.wal.fsyncs_per_mutation"] = syncs / traced_ops / mutations
    return out


def _window_values(
    workload: Workload, deployment: Any, op_lists: list, plain: Window, compdists: int,
) -> dict[str, float]:
    """Counts of the plain window: results, checkpoint stalls, degraded replies."""
    out = {}
    kinds = _kinds_run(op_lists, plain)
    sizes = [_result_size(answer) for log in plain.logs for answer in log.kept.values()]
    reads = sum(kind in READ_KINDS for kind in kinds)
    results = statistics.mean(sizes) * reads if sizes else 0.0
    out["core.spbtree.compdists_per_result"] = compdists / max(1.0, results)
    stalls = [
        seconds for kind, seconds in zip(kinds, plain.latencies()) if kind == "checkpoint"
    ]
    if stalls:
        out["core.persist.checkpoint_s"] = statistics.median(stalls)
        out["core.persist.checkpoint_max_s"] = max(stalls)
        out["core.persist.checkpoints"] = len(stalls)
    if workload.clients > 1:
        out["service.degraded_frac"] = sum(log.degraded for log in plain.logs) / plain.ops
        out["service.rejected_frac"] = deployment.engine.rejected / plain.ops
    return out


def _probe_values(
    workload: Workload, deployment: Any, corpus: list, metric: Any, op_lists: list,
    first: int, seed: int, scale: Scale, workdir: str,
) -> tuple[dict[str, float], dict[str, float]]:
    """(a) the probes and (c) the ladder; returns the values and the rungs."""
    rng = rng_for(seed, workload.name, "probes")
    kind = "edit" if workload.dataset == "words" else "l2"
    out = {
        f"distance.{kind}_call_us": probes.probe_distance(
            metric, corpus, scale.probe_calls, rng
        )
    }
    out.update(probes.probe_tree(deployment.trees()[0], corpus, scale.probe_calls, rng))
    if deployment.writable:
        out.update(probes.probe_wal(
            workdir, deployment.serializer(), corpus[:200], scale.probe_calls // 2
        ))
    rungs: dict[str, float] = {}
    if workload.clients > 1:
        out.update(ladder(deployment, op_lists, first, scale, workdir))
        rungs = out.pop("ladder.rungs_ms")
        queries = [op[1] for op in op_lists[0][:50]]
        out["cluster.router_plan_us"] = probes.probe_router(
            deployment.index, queries, WORD_RADIUS, scale.probe_calls
        )
        out.update(probes.probe_codec(
            *_codec_inputs(deployment, op_lists, first, scale), scale.probe_calls // 4
        ))
    return out, rungs


def run_traced(
    workload: Workload, seed: int, seconds: float, scale: Scale, root: str,
    names: list[str], spans_out: Optional[str] = None,
) -> RunResult:
    """One traced run; ``names`` are the per-layer metrics to report."""
    corpus, metric = workload.corpus(scale)
    op_lists = workload.make_ops(seed, corpus, metric, scale, seconds)
    workdir = make_workdir(root, workload.name + "-traced")
    values: dict[str, float] = {}
    deployment = None
    tracer = Tracer()
    try:
        clock = MappingClock(metric, len(corpus) * NUM_PIVOTS)
        deployment, _, timings = set_up(
            workload, corpus, metric, workdir, 1, build_metric=clock
        )
        targets, warm = warm_up(workload, deployment, op_lists, scale)
        firsts = [log.executed for log in warm.logs]
        cyclic = not deployment.writable
        calib = workload.calib_ops

        # -- plain window (shims off), then the extra plain windows
        plain = run_window(
            targets, op_lists, firsts, PLAIN_SHARE * seconds, None, cyclic, calib
        )
        compdists, page_accesses = deployment.counters()
        hits, misses = deployment.buffer_stats()
        timed = window_metrics(plain, workload.block_ops)
        ops = plain.ops
        after_plain = [log.executed for log in plain.logs]
        if workload.name == "words-range":
            obs.enable()
            try:
                observed = run_window(
                    [(_ObservedTree(deployment.tree), {})], op_lists, firsts,
                    EXTRA_SHARE * seconds, ops, cyclic, calib,
                )
            finally:
                obs.disable()
            values["obs.enabled_slowdown"] = observed.rate() / plain.rate()
        if workload.clients > 1:
            alone = run_window(
                targets[:1], op_lists[:1], after_plain[:1], EXTRA_SHARE * seconds,
                None, cyclic, calib,
            )
            values["net.scaling_2c"] = plain.rate() / alone.rate()
            after_plain[0] = alone.logs[0].executed

        # -- traced window: the same ops again where the index is read-only
        tracer.install(deployment)
        try:
            traced = run_window(
                targets, op_lists, firsts if cyclic else after_plain,
                TRACED_SHARE * seconds, max(1, ops // len(targets)), cyclic, calib,
                tracer,
            )
        finally:
            tracer.uninstall()
        values.update(_shim_values(tracer, traced.ops))
        values.update(_window_values(workload, deployment, op_lists, plain, compdists))
        values["bench.trace_overhead_frac"] = 1.0 - traced.rate() / plain.rate()
        values["bench.generator_late_frac"] = timed["generator_late_frac"]
        values["bench.clock_factor"] = timed["clock_factor"]
        values["storage.buffer.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for phase_name in ("core.pivots.select_s", "core.persist.save_s", "core.persist.load_s"):
            values[phase_name] = timings[phase_name]
        values["core.spbtree.build_map_s"] = clock.mapping_seconds / timings["clock_factor"]

        probed, rungs = _probe_values(
            workload, deployment, corpus, metric, op_lists, firsts[0], seed, scale, workdir
        )
        values.update(probed)
        distance_us = probed.get("distance.edit_call_us") or probed["distance.l2_call_us"]
        values["core.spbtree.explained_frac"] = (
            compdists / ops * distance_us
            + page_accesses / ops * probed["storage.buffer.miss_us"]
        ) / (timed["mean_ms"] * 1000.0)
        if spans_out is not None:
            write_json(spans_out, tracer.dump())
    finally:
        tracer.uninstall()
        if deployment is not None:
            deployment.close()
        remove_workdir(workdir)

    # A metric whose layer is not on this workload's path reads 0.
    metrics = {name: float(values.get(name, 0.0)) for name in names}
    errors = sum(len(log.errors) for window in (plain, traced) for log in window.logs)
    detail = {
        "notes": [f"ladder rung {rung}: median {ms:.3f} ms" for rung, ms in rungs.items()],
        "ladder_rungs_ms": rungs,
    }
    return RunResult(workload.name, seed, metrics, ops + traced.ops, errors, detail)
