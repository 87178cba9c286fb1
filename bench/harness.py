"""Closed-loop measurement of one workload, and the check of its answers.

One end-to-end run: set the deployment up ``setup_reps`` times (``setup_s``
is the median), run ``warmup`` untimed ops per client, reset the counters,
then let every client work through its op list for ``seconds`` — each
client sends its next op only when the previous one returned.  Per op the
client records start, end and the process CPU clock; nothing else happens
inside the timed window.  Afterwards, outside the window, sampled answers
are re-answered by ``LinearScan`` and, on writable deployments, the index
is reopened from its directory and compared with the acked mutations.

The counts (compdists, PA, stored bytes) are read at the *count cut*: the
moment every client has run its first ``count_ops`` timed ops.  A window
cut by time holds a few more or fewer ops on a faster or slower box; the
cut does not, so on a 1-client workload the counts repeat exactly for a
seed.  A client that reaches the end of ``seconds`` before the cut runs
on until it gets there.

Steadiness on a shared 2-core box: ``ops_per_s`` and ``cpu_ms_per_op`` are
medians over blocks of ``block_ops`` consecutive completions — whole
rounds of the op list, so every block holds the same mix — and a stolen
half-second moves one block, not the result; ``p50_ms``/``p95_ms`` are
taken over every op of the window.

Reference clock.  This box's cores drift between two clock states, 1.26x
apart, that last tens of seconds each and slow every kind of work alike
(measured while sizing the benchmark, see bench/README.md) — identical
work in two runs differs by up to a quarter.  So every client times a
fixed pure-Python kernel every ~0.2 s (:func:`clock_factor`), and
every duration is divided by how much slower than the reference the
kernel ran: all reported times are times *at the reference clock*.
"""

from __future__ import annotations

import heapq
import os
import random
import shutil
import statistics
import struct
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from repro.baselines.linear import LinearScan

from bench.workloads import (
    MUTATION_KINDS,
    READ_KINDS,
    Scale,
    Workload,
    call,
    directory_bytes,
)

#: Every KEEP_EVERY-th op's answer is retained for the linear-scan check.
KEEP_EVERY = 10

#: Thread-CPU time of one :func:`_kernel` call in this box's fast clock
#: state; a time measured while the kernel takes twice that is halved.
KERNEL_REFERENCE_S = 270e-6

_PAGE = bytes(range(256)) * 16
_RECORDS = struct.Struct("<" + "QI" * 200)
_TABLE: dict[int, tuple[int, int]] = {}
_KEYS: list[int] = []


def _kernel() -> int:
    """Fixed work with the program's own texture: integer arithmetic,
    lookups that miss the cache, record unpacking, heap and dict churn.
    (A bare integer loop tracked the box's clock states, but less well
    the slow-downs that come from a neighbour's memory traffic.)"""
    total = 0
    for i in range(4000):
        total += i * i
    table = _TABLE
    for key in _KEYS:
        total += table[key][1]
    fields = _RECORDS.unpack_from(_PAGE)
    heap: list[tuple[int, int, tuple[int, int]]] = []
    for i in range(0, 400, 2):
        heapq.heappush(heap, (fields[i] % 97, i, (fields[i + 1], i)))
    seen = {}
    while heap:
        a, b = heapq.heappop(heap)[2]
        seen[a] = b
    return total + len(seen)


def clock_factor() -> float:
    """How much slower than the reference clock this thread runs right now.

    Thread CPU time, so a client thread waiting for the interpreter lock
    does not look slow.  The median of five calls, not the best: ops run
    in the box's average conditions, and over a 15-minute watch the
    median tracked a tree query's 10 s means to 1.6 % where the best of
    five left 3.5 % (6.1 % raw).
    """
    if not _TABLE:  # ~20 MB, well past the caches; built on first use
        _TABLE.update((i, (i, i + 1)) for i in range(200_000))
        _KEYS.extend(random.Random(0).randrange(200_000) for _ in range(1500))
    took = []
    for _ in range(5):
        t0 = time.thread_time()
        _kernel()
        took.append(time.thread_time() - t0)
    return statistics.median(took) / KERNEL_REFERENCE_S


def canon(obj: Any) -> Any:
    """A hashable, comparable identity for a dataset object."""
    return obj if isinstance(obj, str) else obj.tobytes()


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted values (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# ------------------------------------------------------------ timed window


@dataclass
class ClientLog:
    """What one closed-loop client recorded."""

    first: int = 0  # index of its first op in its list
    executed: int = 0  # one past the index of its last op
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)  # clock factor per op
    kept: dict[int, Any] = field(default_factory=dict)
    errors: dict[int, str] = field(default_factory=dict)
    delete_misses: int = 0
    degraded: int = 0  # replies with complete=False (not failures)


def ops_run(ops: list[tuple], log: ClientLog, start: int = 0) -> Iterator[tuple[int, tuple]]:
    """``(index, op)`` of the ops ``log``'s client ran, from ``start`` on
    (read-only lists are cyclic, so an index may exceed the list)."""
    n = len(ops)
    for i in range(start, log.executed):
        yield i, ops[i % n]


@dataclass
class Window:
    logs: list[ClientLog]
    begin: float
    end: float
    cpu_begin: float

    @property
    def ops(self) -> int:
        return sum(len(log.ends) for log in self.logs)

    def latencies(self) -> list[float]:
        """Every op's latency at the reference clock, in seconds."""
        return [
            (end - start) / factor
            for log in self.logs
            for start, end, factor in zip(log.starts, log.ends, log.factors)
        ]

    def rate(self) -> float:
        """Ops per reference-clock second (clients never idle in a closed loop)."""
        return self.ops * len(self.logs) / sum(self.latencies())


class CountCut:
    """The deployment's counts at the moment every client has run its
    first ``ops`` timed ops (the last client to get there reads them)."""

    def __init__(self, deployment: Any, ops: int) -> None:
        self.ops = ops
        self.taken = False
        self.compdists = self.page_accesses = self.stored_bytes = 0
        self.executed: list[int] = []  # per client: one past its last op then
        self._deployment = deployment
        self._logs: list[ClientLog] = []
        self._lock = threading.Lock()

    def watch(self, logs: list[ClientLog]) -> None:
        self._logs = logs
        self._waiting = len(logs)

    def passed(self) -> None:
        with self._lock:
            self._waiting -= 1
            if self._waiting == 0:
                self.take()

    def take(self) -> None:
        self.compdists, self.page_accesses = self._deployment.counters()
        self.stored_bytes = directory_bytes(self._deployment.directory)
        self.executed = [log.first + len(log.ends) for log in self._logs]
        self.taken = True

    @property
    def counted_ops(self) -> int:
        return sum(at - log.first for at, log in zip(self.executed, self._logs))


def client_loop(
    target: Any, limits: dict, ops: list[tuple], log: ClientLog,
    stop_at: float, max_ops: Optional[int], cyclic: bool, calib_ops: int,
    tracer: Any = None, cut: Optional[CountCut] = None,
) -> None:
    """Send ops one after the other until the time or the list runs out,
    and not before the count cut."""
    perf, cpu = time.perf_counter, time.process_time
    n = len(ops)
    i = log.first
    factor = 1.0
    until_cut = cut.ops if cut is not None else 0
    while max_ops is None or i - log.first < max_ops:
        if i >= n and not cyclic:
            break
        if (i - log.first) % calib_ops == 0:
            factor = clock_factor()
        op = ops[i % n]
        t0 = perf()
        if t0 >= stop_at and i - log.first >= until_cut:
            break
        out = None
        try:
            if tracer is None:
                out = call(target, op, limits)
            else:
                with tracer.op(i):
                    out = call(target, op, limits)
        except Exception:  # the client must survive and report any failure
            log.errors[i] = traceback.format_exc(limit=4)
        log.ends.append(perf())
        log.starts.append(t0)
        log.cpus.append(cpu())
        log.factors.append(factor)
        kind = op[0]
        if kind in READ_KINDS:
            if i % KEEP_EVERY == 0:
                log.kept[i] = out
            if getattr(out, "complete", True) is False:
                log.degraded += 1
        elif kind == "delete" and out is False:
            log.delete_misses += 1
        i += 1
        if i - log.first == until_cut:
            cut.passed()
    log.executed = i


def run_window(
    targets: list[tuple[Any, dict]], op_lists: list[list[tuple]],
    firsts: Sequence[int], seconds: float, max_ops: Optional[int],
    cyclic: bool, calib_ops: int, tracer: Any = None,
    cut: Optional[CountCut] = None,
) -> Window:
    """Run every client's loop (threads only when there are several)."""
    logs = [ClientLog(first=first) for first in firsts]
    if cut is not None:
        cut.watch(logs)
    cpu_begin = time.process_time()
    begin = time.perf_counter()
    stop_at = begin + seconds
    jobs = [
        (target, limits, ops, log, stop_at, max_ops, cyclic, calib_ops, tracer, cut)
        for (target, limits), ops, log in zip(targets, op_lists, logs)
    ]
    if len(jobs) == 1:
        client_loop(*jobs[0])
    else:
        threads = [
            threading.Thread(target=client_loop, args=job, name=f"bench-client-{i}")
            for i, job in enumerate(jobs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    end = max((log.ends[-1] for log in logs if log.ends), default=begin)
    return Window(logs, begin, end, cpu_begin)


def window_metrics(window: Window, block_ops: int) -> dict[str, float]:
    """ops/s, latency percentiles and CPU per op of one timed window, all
    at the reference clock."""
    done = sorted(
        (end, cpu, factor)
        for log in window.logs
        for end, cpu, factor in zip(log.ends, log.cpus, log.factors)
    )
    ops = len(done)
    if ops == 0:
        raise RuntimeError("the timed window completed no operation")
    size = min(block_ops, ops)  # shorter than one block: one block
    rates, cpu_ms = [], []
    prev_end, prev_cpu = window.begin, window.cpu_begin
    wall = cpu_s = 0.0  # of the current block, at the reference clock
    for count, (end, cpu, factor) in enumerate(done, 1):
        wall += (end - prev_end) / factor
        cpu_s += (cpu - prev_cpu) / factor
        prev_end, prev_cpu = end, cpu
        if count % size == 0:
            rates.append(size / wall)
            cpu_ms.append(cpu_s * 1000.0 / size)
            wall = cpu_s = 0.0
    latencies = sorted(seconds * 1000.0 for seconds in window.latencies())
    busy = sum(end - start for log in window.logs for start, end in zip(log.starts, log.ends))
    window_s = window.end - window.begin
    return {
        "ops": ops,
        "window_s": window_s,
        "ops_per_s": statistics.median(rates),
        "p50_ms": percentile(latencies, 0.50),
        "p95_ms": percentile(latencies, 0.95),
        "cpu_ms_per_op": statistics.median(cpu_ms),
        "mean_ms": sum(latencies) / ops,
        "clock_factor": statistics.median(f for _, _, f in done),
        # share of the clients' wall time spent outside a request
        "generator_late_frac": max(0.0, 1.0 - busy / (window_s * len(window.logs))),
    }


# ------------------------------------------------------------- correctness


@dataclass
class Verdict:
    checked: int = 0
    wrong: int = 0
    durability_misses: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.wrong += 1
        if len(self.notes) < 5:
            self.notes.append(what)


def unpack(out: Any) -> tuple[list, Optional[int], bool]:
    """(items, count, complete) of a plain answer or a ``QueryResult``."""
    if hasattr(out, "complete"):
        return out.items, out.count, out.complete
    if isinstance(out, int):
        return [], out, True
    return out, len(out), True


def _check_read(
    op: tuple, out: Any, metric: Any, live: list[Any], extra: list[Any],
    verdict: Verdict,
) -> None:
    """Compare one answer with the linear scan.

    ``live`` is the object set the answer must at least reflect; ``extra``
    holds objects other clients may have inserted meanwhile (empty on
    1-client workloads, where the comparison is therefore exact).
    """
    kind, query, arg = op
    verdict.checked += 1
    if out is None:
        return  # the op raised: already counted as an error
    items, count, complete = unpack(out)
    oracle = LinearScan(live, metric)
    maybe = LinearScan(extra, metric)
    if kind == "knn":
        if any(abs(metric(query, obj) - d) > 1e-9 for d, obj in items):
            return verdict.fail(f"knn({query!r}) reports a wrong distance")
        if not complete:
            return  # a confirmed prefix: nothing more to hold it to
        got = [d for d, _ in items]
        at_most = [d for d, _ in oracle.knn_query(query, arg)]
        at_least = sorted(
            at_most + [d for d, _ in maybe.knn_query(query, arg)]
        )[:arg] if extra else at_most
        if len(got) != len(at_most) or any(
            g > hi + 1e-9 or g < lo - 1e-9
            for g, hi, lo in zip(got, at_most, at_least)
        ):
            verdict.fail(f"knn({query!r}, {arg}) distances {got}, scan {at_most}")
        return
    must = {canon(o) for o in oracle.range_query(query, arg)}
    may = must | {canon(o) for o in maybe.range_query(query, arg)}
    if kind == "count":
        low = 0 if not complete else len(must)
        if not low <= count <= len(may):
            verdict.fail(f"count({query!r}, {arg}) = {count}, scan {len(must)}")
        return
    got = [canon(o) for o in items]
    got_set = set(got)
    if len(got_set) != len(got):
        verdict.fail(f"range({query!r}, {arg}) returned duplicates")
    elif not got_set <= may or (complete and not must <= got_set):
        verdict.fail(
            f"range({query!r}, {arg}): {len(got)} objects, scan {len(must)}"
        )


def verify_answers(
    corpus: list[Any], metric: Any, op_lists: list[list[tuple]],
    logs: list[ClientLog], checks: int, cut_at: Sequence[int],
) -> tuple[Verdict, dict[Any, Any], dict[Any, Any]]:
    """Replay the acked mutations and check sampled answers on the way.

    Returns the verdict, the object set the index must hold at the end,
    and the set it held when client ``c`` had run its ops up to ``cut_at[c]``.
    """
    verdict = Verdict()
    acked_inserts: list[list[Any]] = []
    for ops, log in zip(op_lists, logs):
        acked_inserts.append([
            op[1] for i, op in ops_run(ops, log)
            if op[0] == "insert" and i not in log.errors
        ])
    kept = sorted((i, c) for c, log in enumerate(logs) for i in log.kept)
    step = max(1, -(-len(kept) // max(1, checks)))
    chosen = set(kept[::step])
    final = {canon(o): o for o in corpus}
    at_cut = dict(final)
    for cid, (ops, log) in enumerate(zip(op_lists, logs)):
        live = {canon(o): o for o in corpus}
        others = [
            o for c, objs in enumerate(acked_inserts) if c != cid for o in objs
        ]
        for i, op in ops_run(ops, log):
            kind = op[0]
            if (i, cid) in chosen:
                _check_read(
                    op, log.kept[i], metric, list(live.values()), others, verdict
                )
            if kind not in MUTATION_KINDS or i in log.errors:
                continue
            key = canon(op[1])
            sets = (live, final, at_cut) if i < cut_at[cid] else (live, final)
            for objects in sets:
                if kind == "insert":
                    objects[key] = op[1]
                else:
                    objects.pop(key, None)
    return verdict, final, at_cut


def verify_durability(
    index: Any, expected: dict[Any, Any], corpus_keys: set, checks: int,
    verdict: Verdict,
) -> None:
    """After the reopen: the index holds exactly the acked object set (no
    acked insert missing, no acked delete still there), and point lookups
    find sampled acked inserts."""
    actual = {canon(o) for o in index.objects()}
    missing = expected.keys() - actual
    unexpected = actual - expected.keys()
    verdict.durability_misses += len(missing) + len(unexpected)
    if missing or unexpected:
        verdict.notes.append(
            f"after reopen: {len(missing)} acked objects missing, "
            f"{len(unexpected)} deleted objects still present"
        )
    inserted = [o for key, o in expected.items() if key not in corpus_keys]
    step = max(1, len(inserted) // max(1, checks))
    for obj in inserted[::step][:checks]:
        if canon(obj) not in {canon(o) for o in index.range_query(obj, 0)}:
            verdict.durability_misses += 1
            verdict.notes.append(f"range_query({obj!r}, 0) misses an acked insert")


# ------------------------------------------------------------- one full run


@dataclass
class RunResult:
    workload: str
    seed: int
    metrics: dict[str, float]
    attempted: int
    failed: int
    detail: dict[str, Any]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def make_workdir(root: str, label: str) -> str:
    path = os.path.join(root, ".bench_work", f"{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))  # .bench_work, unless another run uses it
    except OSError:
        pass


def set_up(
    workload: Workload, corpus: list[Any], metric: Any, workdir: str,
    reps: int, build_metric: Any = None,
) -> tuple[Any, list[float], dict]:
    """Set the deployment up ``reps`` times; keep the last one.

    Returns it with every set-up's duration and the last one's phases,
    all at the reference clock (factor taken before and after each).
    """
    deployment, samples, timings = None, [], {}
    after = clock_factor()
    for rep in range(reps):
        if deployment is not None:
            deployment.close()
            shutil.rmtree(deployment.directory, ignore_errors=True)
        timings = {}
        before = after
        t0 = time.perf_counter()
        deployment = workload.setup(
            corpus, metric, os.path.join(workdir, f"index-{rep}"), timings,
            build_metric=build_metric,
        )
        took = time.perf_counter() - t0
        after = clock_factor()
        factor = (before + after) / 2.0
        samples.append(took / factor)
    timings = {name: seconds / factor for name, seconds in timings.items()}
    timings["clock_factor"] = factor
    return deployment, samples, timings


def warm_up(
    workload: Workload, deployment: Any, op_lists: list[list[tuple]], scale: Scale,
) -> tuple[list[tuple[Any, dict]], Window]:
    """Connect the clients, run the untimed warm-up ops, reset the counters."""
    targets = deployment.targets()
    warm = run_window(
        targets, op_lists, [0] * len(targets), float("inf"), scale.warmup,
        not deployment.writable, workload.calib_ops,
    )
    deployment.reset_counters()
    return targets, warm


def run_e2e(
    workload: Workload, seed: int, seconds: float, scale: Scale, root: str,
) -> RunResult:
    """One end-to-end run of ``workload``; every optional subsystem is off."""
    corpus, metric = workload.corpus(scale)
    op_lists = workload.make_ops(seed, corpus, metric, scale, seconds)
    workdir = make_workdir(root, workload.name)
    deployment = None
    try:
        deployment, setup_samples, _ = set_up(
            workload, corpus, metric, workdir, scale.setup_reps
        )
        targets, warm = warm_up(workload, deployment, op_lists, scale)
        cut = CountCut(deployment, workload.count_ops(scale))
        window = run_window(
            targets, op_lists, [log.executed for log in warm.logs], seconds,
            None, not deployment.writable, workload.calib_ops, cut=cut,
        )
        if not cut.taken:  # a list ran out first
            cut.take()
        timed = window_metrics(window, workload.block_ops)

        # Everything below is outside the timed window.
        for warm_log, log in zip(warm.logs, window.logs):
            log.errors.update(warm_log.errors)
        verdict, expected, at_cut = verify_answers(
            corpus, metric, op_lists, window.logs, scale.checks, cut.executed
        )
        serializer = deployment.serializer()
        if deployment.writable:
            deployment.reopen()
            verify_durability(
                deployment.store(), expected, {canon(o) for o in corpus},
                scale.checks, verdict,
            )
        payload = sum(len(serializer.serialize(o)) for o in at_cut.values())
    finally:
        if deployment is not None:
            deployment.close()
        remove_workdir(workdir)

    ops = timed["ops"]
    errors = sum(
        1 for log in window.logs for i in log.errors if i >= log.first
    )
    failed = (
        errors + verdict.wrong + verdict.durability_misses
        + sum(log.delete_misses for log in window.logs)
    )
    metrics = {
        "ops_per_s": timed["ops_per_s"],
        "p50_ms": timed["p50_ms"],
        "p95_ms": timed["p95_ms"],
        "cpu_ms_per_op": timed["cpu_ms_per_op"],
        "compdists_per_op": cut.compdists / cut.counted_ops,
        "pa_per_op": cut.page_accesses / cut.counted_ops,
        "failed_frac": failed / ops,
        "space_amp": cut.stored_bytes / payload,
        "setup_s": statistics.median(setup_samples),
    }
    first_error = next(
        (text for log in window.logs for text in log.errors.values()), None
    )
    notes = [f"clock factor {timed['clock_factor']:.3f}: a raw time is a reported one x this"]
    detail = {
        "checked": verdict.checked,
        "degraded": sum(log.degraded for log in window.logs),
        "notes": notes + verdict.notes + ([first_error] if first_error else []),
    }
    return RunResult(workload.name, seed, metrics, ops, failed, detail)
