"""Kill-primary-under-load smoke for the self-healing supervisor.

Real clocks, real threads, ~10 seconds: a writer streams inserts and
readers hammer scatter-gather queries against a replicated 2-shard
cluster while the supervisor runs on its own thread.  Partway through,
shard 0's primary is hard-killed; later the zombie comes back up.  The
supervisor must promote within its cooldown (eight ticks), re-admit the
zombie as a follower, and the run must end with **zero acknowledged
writes lost**.

Appends one MTTR record to ``results/BENCH_supervisor.json`` and exits
nonzero on any lost write, missed promotion, or failed verify — CI runs
this as the supervisor smoke.

Usage::

    PYTHONPATH=src python benchmarks/supervisor_smoke.py \
        [--size 500] [--duration 10] [--tick-interval 0.2] \
        [--out results/BENCH_supervisor.json]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster import ShardedIndex
from repro.datasets import generate_words
from repro.distance import EditDistance
from repro.replication import PrimaryDownError, replicate
from repro.service.context import QueryContext
from repro.supervisor import Supervisor
from series import append_series  # benchmarks/series.py


def run(args: argparse.Namespace) -> int:
    words = generate_words(args.size + 400, seed=99)
    base, stream = words[: args.size], words[args.size :]
    edit = EditDistance()

    with tempfile.TemporaryDirectory(prefix="supervisor-smoke-") as tmp:
        directory = os.path.join(tmp, "cluster")
        ShardedIndex.build(
            base, edit, shards=2, num_pivots=3, seed=11
        ).save(directory)
        replicate(directory, edit, replicas=2, read_policy="round-robin")
        idx = ShardedIndex.open(directory, edit, wal_fsync=False)
        baseline = set(str(o) for o in idx.objects())
        sup = Supervisor(
            idx, scrub_interval=args.duration / 4.0,
            tick_interval=args.tick_interval,
        )
        sup.start()

        acked: list[str] = []
        refused: list[str] = []
        errors: list[BaseException] = []
        reads = [0]
        stop = threading.Event()
        kill_at = args.duration / 3.0
        revive_at = 2.0 * args.duration / 3.0
        started = time.monotonic()
        killed_rid = idx._sets[0].primary.replica_id
        kill_time = [0.0]
        promoted_time = [0.0]

        def chaos() -> None:
            time.sleep(kill_at)
            kill_time[0] = time.monotonic()
            idx.monitor.mark_down(0, killed_rid)
            while sup.promotions < 1 and not stop.is_set():
                time.sleep(0.01)
            promoted_time[0] = time.monotonic()
            delay = revive_at - (time.monotonic() - started)
            if delay > 0:
                time.sleep(delay)
            idx.monitor.mark_up(0, killed_rid)  # the zombie returns

        def writer() -> None:
            try:
                for i, word in enumerate(stream):
                    if stop.is_set():
                        break
                    try:
                        idx.insert(word)
                        acked.append(word)
                    except PrimaryDownError:
                        refused.append(word)
                    time.sleep(args.duration / len(stream))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def reader() -> None:
            try:
                i = 0
                while not stop.is_set():
                    idx.range_query(
                        base[i % 50], 2.0, context=QueryContext()
                    )
                    reads[0] += 1
                    i += 1
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        chaos_t = threading.Thread(target=chaos, daemon=True)
        writer_t = threading.Thread(target=writer)
        reader_ts = [
            threading.Thread(target=reader, daemon=True) for _ in range(2)
        ]
        for t in [chaos_t, writer_t, *reader_ts]:
            t.start()
        deadline = started + args.duration + 30.0
        writer_t.join(max(1.0, deadline - time.monotonic()))
        chaos_t.join(max(1.0, deadline - time.monotonic()))
        stop.set()
        for t in reader_ts:
            t.join(2.0)

        # Let the repair pass finish re-admitting the zombie.
        grace_deadline = time.monotonic() + 2.0 * sup.cooldown
        while time.monotonic() < grace_deadline:
            status = idx.replication_status()[0]
            if all(m["healthy"] for m in status["members"]):
                break
            time.sleep(0.05)
        for word in refused:  # refused writes go through after failover
            idx.insert(word)

        mttr = promoted_time[0] - kill_time[0] if kill_time[0] else None
        survived = set(str(o) for o in idx.objects())
        lost = (baseline | set(acked) | set(refused)) - survived
        vreport = idx.verify()
        status0 = idx.replication_status()[0]
        record = {
            "bench": "supervisor-smoke",
            "size": args.size,
            "duration_s": args.duration,
            "tick_interval_s": args.tick_interval,
            "acked": len(acked),
            "refused": len(refused),
            "reads": reads[0],
            "mttr_s": round(mttr, 4) if mttr is not None else None,
            "promotions": sup.promotions,
            "rejoins": sup.rejoins,
            "repairs": sup.repairs,
            "scrub_passes": sup.scrub_passes,
            "ticks": sup.ticks,
            "lost_acked_writes": len(lost),
            "verify_ok": vreport.ok,
            "shard0_members_healthy": sum(
                1 for m in status0["members"] if m["healthy"]
            ),
        }
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        append_series(args.out, record)
        sup.close()
        idx.close()

    print(
        "supervisor smoke: %d acked, %d refused-then-replayed, %d reads, "
        "mttr %s s, %d promotions, %d rejoins"
        % (
            record["acked"],
            record["refused"],
            record["reads"],
            record["mttr_s"],
            record["promotions"],
            record["rejoins"],
        )
    )
    failures = []
    if errors:
        failures.append(f"worker errors: {errors!r}")
    if lost:
        failures.append(f"lost acked writes: {sorted(lost)[:5]}")
    if sup.promotions < 1 or mttr is None:
        failures.append("no automatic promotion happened")
    elif mttr > sup.cooldown:
        failures.append(
            f"MTTR {mttr:.2f}s exceeds the cooldown ({sup.cooldown:.2f}s)"
        )
    if sup.rejoins < 1:
        failures.append("zombie was never re-admitted")
    if not vreport.ok:
        failures.append(f"verify failed: {vreport.errors[:3]}")
    if record["shard0_members_healthy"] != len(status0["members"]):
        failures.append(f"shard 0 did not fully heal: {status0}")
    if failures:
        for f in failures:
            print("FAIL:", f, file=sys.stderr)
        return 1
    print("ok: converged with zero acked writes lost", file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=500)
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--tick-interval", type=float, default=0.2)
    parser.add_argument(
        "--out", default=os.path.join("results", "BENCH_supervisor.json")
    )
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
