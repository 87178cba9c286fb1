"""Observability-overhead smoke: tracing must not change the science.

Runs the same Fig.-12-style range workload twice over one on-disk
sharded index — once with observability fully off, once with everything
on (metrics registry, per-query traces, and the query recorder at
threshold 0, so every query is both a slow-log entry and a ring entry)
— and enforces two claims the tracing layer makes:

* **Bit-identical counters.**  Per-query ``compdists`` and
  ``page_accesses`` must match exactly between the two runs.  Tracing
  snapshots counters; it never adds to them.
* **Bounded wall-clock overhead.**  The fully-instrumented run may not
  exceed the quiet run by more than ``--max-overhead`` (a generous
  multiplier — CI machines are noisy; the point is catching a 10x
  regression, not benchmarking the fast path).

Every traced query must also reconcile (attributed span totals equal the
context totals) — the invariant is free to check here, so we do.

Appends one record to ``results/BENCH_obs_overhead.json`` and exits
nonzero on any mismatch.  CI runs this as the obs-overhead smoke.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead.py \
        [--size 600] [--queries 40] [--radius 2.0] \
        [--max-overhead 2.5] [--out results/BENCH_obs_overhead.json]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import obs
from repro.cluster import ShardedIndex
from repro.datasets import generate_words
from repro.distance import EditDistance
from repro.obs.flight import FlightRecorder
from repro.obs.ids import new_trace_id
from repro.obs.trace import QueryTrace
from repro.service.context import QueryContext
from series import append_series  # benchmarks/series.py


def run_pass(directory, metric, queries, radius, instrumented, tmp):
    """One full pass over the workload on a cold-opened index.

    Returns ``(per_query_counters, elapsed_seconds, reconcile_failures)``.
    """
    flight = None
    if instrumented:
        obs.enable()
        flight = FlightRecorder(os.path.join(tmp, "flight"), slow_ms=0.0)
    else:
        obs.disable()
    idx = ShardedIndex.open(directory, metric)
    counters = []
    failures = 0
    t0 = time.perf_counter()
    for q in queries:
        ctx = QueryContext()
        if instrumented:
            ctx.request_id = new_trace_id()
            ctx.trace = QueryTrace("range")
        out = idx.range_query(q, radius, context=ctx)
        counters.append((ctx.compdists, ctx.page_accesses))
        if instrumented:
            if ctx.trace.attributed_totals() != (
                ctx.compdists,
                ctx.page_accesses,
            ):
                failures += 1
            flight.observe(
                "range", ctx, out, elapsed=0.001, source="bench"
            )
    elapsed = time.perf_counter() - t0
    if flight is not None:
        flight.close()
    obs.disable()
    return counters, elapsed, failures


def run(args: argparse.Namespace) -> int:
    words = generate_words(args.size + args.queries, seed=23)
    base, queries = words[: args.size], words[args.size : args.size + args.queries]
    edit = EditDistance()

    with tempfile.TemporaryDirectory(prefix="obs-overhead-") as tmp:
        directory = os.path.join(tmp, "cluster")
        ShardedIndex.build(
            base, edit, shards=2, num_pivots=3, seed=11
        ).save(directory)

        quiet, t_quiet, _ = run_pass(
            directory, edit, queries, args.radius, False, tmp
        )
        loud, t_loud, bad = run_pass(
            directory, edit, queries, args.radius, True, tmp
        )

    identical = quiet == loud
    overhead = t_loud / t_quiet if t_quiet > 0 else float("inf")
    print(
        f"obs-overhead: {len(queries)} range queries, "
        f"quiet {t_quiet:.3f}s, instrumented {t_loud:.3f}s "
        f"({overhead:.2f}x), counters identical: {identical}, "
        f"reconcile failures: {bad}"
    )
    if not identical:
        diffs = [
            (i, a, b) for i, (a, b) in enumerate(zip(quiet, loud)) if a != b
        ]
        for i, a, b in diffs[:5]:
            print(f"  query {i}: quiet {a} != instrumented {b}")
        print("FAIL: tracing changed the counters", file=sys.stderr)
        return 1
    if bad:
        print(f"FAIL: {bad} traces did not reconcile", file=sys.stderr)
        return 1
    if overhead > args.max_overhead:
        print(
            f"FAIL: overhead {overhead:.2f}x exceeds "
            f"--max-overhead {args.max_overhead}",
            file=sys.stderr,
        )
        return 1

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    append_series(
        args.out,
        {
            "size": args.size,
            "queries": len(queries),
            "radius": args.radius,
            "quiet_s": round(t_quiet, 4),
            "instrumented_s": round(t_loud, 4),
            "overhead_x": round(overhead, 3),
            "counters_identical": identical,
        },
    )
    print(f"ok: appended to {args.out}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=600)
    ap.add_argument("--queries", type=int, default=40)
    ap.add_argument("--radius", type=float, default=2.0)
    ap.add_argument(
        "--max-overhead", type=float, default=2.5,
        help="max allowed instrumented/quiet wall-clock ratio (default 2.5)",
    )
    ap.add_argument("--out", default="results/BENCH_obs_overhead.json")
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
