"""Per-query kNN traversal choice, learned online.

The SPB-tree offers two kNN traversals: ``incremental`` — optimal
compdists, Lemma 4 — and ``greedy`` — optimal RAF page accesses (the
paper's Table 5 choice).  Which is cheapest depends on the workload: k,
the dataset's distance distribution, the shard layout, and how much the
buffer pool absorbs.  The paper's cost models predict the *range-query*
part of that cost well but cannot separate the traversal variants — so
the advisor treats them as bandit arms.  A cluster has the same two arms
as a single tree: its scatter visits shards best-first, always.

``TraversalAdvisor`` is an epsilon-greedy contextual bandit over the two
traversal arms, bucketed by k.  Every advised query feeds back its
observed compdists + page accesses — the paper's two cost currencies,
weighted equally — into a per-arm EWMA; the greedy choice minimises that
counter cost, with counter-ties broken by a fixed dominance order, never
by timing (timing differences at tie margin are machine noise — see
:meth:`TraversalAdvisor._select`).  With probability ``epsilon`` (the
exploration floor) a non-greedy arm is replayed so the policy keeps
learning as the workload drifts.  All randomness comes from one seeded
generator — a replayed workload makes identical choices.

The advisor never overrides an operator: only kNN submissions that leave
the traversal to the engine (plain ``(query, k)``) are advised, and the
chosen arm is passed through the exact public ``knn_query`` arguments a
human would use — correctness is the tree's own (Hetland's region bounds
hold under every arm), so a wrong choice costs time, never answers.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Optional

from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg

#: The arms: ``knn_query``'s two traversals, on a tree and a cluster alike.
_ARMS = ("incremental", "greedy")

#: k-bucket upper bounds: queries in the same bucket share arm statistics.
_BUCKETS = (2, 8, 32)

#: Weight of the newest observation in an arm's cost EWMA.
_EWMA_ALPHA = 0.3

#: Arms within this fraction of the best cost are counter-ties (``_select``).
_TIE_MARGIN = 0.05


def _bucket(k: int) -> str:
    for bound in _BUCKETS:
        if k <= bound:
            return f"k<={bound}"
    return f"k>{_BUCKETS[-1]}"


class _Choice:
    """One advised decision, carried from :meth:`advise` to :meth:`observe`."""

    __slots__ = ("traversal", "bucket", "k", "explored", "query")

    def __init__(self, traversal, bucket, k, explored, query):
        self.traversal = traversal
        self.bucket = bucket
        self.k = k
        self.explored = explored
        #: The query object, carried so the calibrator can predict its
        #: cost later, off the query path.
        self.query = query


class TraversalAdvisor:
    """Epsilon-greedy kNN traversal policy with cost-model feedback."""

    def __init__(
        self,
        calibrator: Any = None,
        epsilon: float = 0.05,
        seed: int = 17,
        journal: Any = None,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.calibrator = calibrator
        self.epsilon = epsilon
        #: Optional EventJournal (attached by the Tuner); decisions are
        #: journalled when present.  Entries are buffered in memory on
        #: the query path and written by :meth:`flush_journal` (the
        #: Tuner calls it every tick) — a synchronous JSONL append costs
        #: more than the advisor's own bookkeeping and would tax every
        #: advised query.
        self.journal = journal
        self._journal_buffer: list = []
        self.rng = random.Random(seed)
        self._lock = threading.Lock()
        #: bucket -> {arm -> {"cost": EWMA or None, "n": count}}
        self._stats: dict[str, dict[str, dict]] = {}
        self._best: dict[str, str] = {}
        self.decisions = 0
        self.explorations = 0

    # ------------------------------------------------------------- choosing

    def _select(self, stats: dict) -> str:
        """Greedy arm: lowest counter cost, dominance breaking ties.

        Arms whose costs are within ``_TIE_MARGIN`` of the best are
        counter-ties — the counters cannot separate them, and any timing
        signal at that margin is machine noise.  Ties fall back to the
        arm declaration order, which encodes a dominance argument rather
        than a measurement: incremental is compdist-optimal (Lemma 4), so
        on equal counters it cannot be doing more work than greedy.

        Caller holds the lock; every arm in ``stats`` has been visited
        (insertion order of ``stats`` is the declaration order).
        """
        order = list(stats)
        best_cost = min(s["cost"] for s in stats.values())
        threshold = best_cost * (1.0 + _TIE_MARGIN)
        near = [a for a, s in stats.items() if s["cost"] <= threshold]
        return min(near, key=order.index)

    def advise(self, tree: Any, query: Any, k: int, trace=None) -> _Choice:
        """Pick an arm for one kNN query (no side effects on counters).
        ``tree`` is the index it will run on; a single tree and a cluster
        have the same arms, so it does not enter the choice."""
        bucket = _bucket(k)
        with self._lock:
            stats = self._stats.setdefault(
                bucket,
                {arm: {"cost": None, "n": 0} for arm in _ARMS},
            )
            unvisited = [arm for arm in _ARMS if stats[arm]["n"] == 0]
            if unvisited:
                # Deterministic coverage: visit every arm once before
                # trusting any comparison between them.
                arm, explored = unvisited[0], True
            elif self.rng.random() < self.epsilon:
                arm, explored = _ARMS[self.rng.randrange(len(_ARMS))], True
            else:
                arm = self._select(stats)
                explored = False
            self.decisions += 1
            if explored:
                self.explorations += 1
        if _obsreg.ENABLED:
            bundle = _instruments.tuning()
            bundle.decisions.labels(kind="traversal").inc()
            if explored:
                bundle.explorations.inc()
        if trace is not None:
            trace.span(f"advise:{arm}").bump("explored", 1 if explored else 0)
        return _Choice(arm, bucket, k, explored, query)

    # ------------------------------------------------------------- feedback

    def observe(
        self,
        choice: _Choice,
        compdists: int,
        page_accesses: int,
        elapsed: float,
        request_id: Optional[str] = None,
    ) -> None:
        """Feed one advised query's observed cost back into the policy."""
        cost = compdists + page_accesses
        arm = choice.traversal
        policy_changed = None
        with self._lock:
            stats = self._stats.get(choice.bucket)
            if stats is None or arm not in stats:
                return
            entry = stats[arm]
            entry["n"] += 1
            if entry["cost"] is None:
                entry["cost"] = float(cost)
            else:
                a = _EWMA_ALPHA
                entry["cost"] = (1 - a) * entry["cost"] + a * cost
            visited = {a: s for a, s in stats.items() if s["cost"] is not None}
            if len(visited) == len(stats):
                best = self._select(stats)
                if self._best.get(choice.bucket) != best:
                    self._best[choice.bucket] = best
                    policy_changed = best
            ewma = entry["cost"]
        if _obsreg.ENABLED:
            _instruments.tuning().arm_cost.labels(
                traversal=choice.traversal
            ).set(ewma)
        if self.calibrator is not None:
            try:
                self.calibrator.observe_query(
                    choice.query, choice.k, compdists, page_accesses, elapsed
                )
            except Exception:
                pass
        if self.journal is not None:
            detail = {
                "traversal": choice.traversal,
                "k": choice.k,
                "bucket": choice.bucket,
                "explored": choice.explored,
                "compdists": compdists,
                "page_accesses": page_accesses,
                "elapsed_ms": round(elapsed * 1000.0, 3),
            }
            with self._lock:
                self._journal_buffer.append(
                    ("traversal", detail, request_id)
                )
                if policy_changed is not None:
                    self._journal_buffer.append(
                        (
                            "policy",
                            {"bucket": choice.bucket, "traversal": policy_changed},
                            None,
                        )
                    )

    def flush_journal(self) -> int:
        """Write buffered decision entries to the journal; returns the
        number written.  Called by the Tuner's tick (and close)."""
        if self.journal is None:
            return 0
        with self._lock:
            buffered, self._journal_buffer = self._journal_buffer, []
        for event, detail, request_id in buffered:
            self.journal.record(event, detail=detail, request_id=request_id)
        return len(buffered)

    # ------------------------------------------------------------ execution

    def run_knn(self, tree: Any, query: Any, k: int, ctx: Any) -> Any:
        """Advise, run through the public ``knn_query``, observe.

        This is the :class:`repro.service.QueryEngine` hook: the context's
        per-attempt counters measure exactly the advised execution (the
        engine resets them before each attempt), so the feedback is the
        same number the experiment harnesses report.
        """
        choice = self.advise(
            tree, query, k, trace=getattr(ctx, "trace", None)
        )
        # Thread CPU time, not wall: the journal and the calibrator want
        # the executing thread's own cost, immune to scheduler preemption
        # and (virtualised) steal time.  It never enters the arm choice.
        started = time.thread_time()
        result = tree.knn_query(query, k, traversal=choice.traversal, context=ctx)
        elapsed = time.thread_time() - started
        self.observe(
            choice,
            getattr(ctx, "compdists", 0),
            getattr(ctx, "page_accesses", 0),
            elapsed,
            request_id=getattr(ctx, "request_id", None),
        )
        return result

    # -------------------------------------------------------------- surface

    def policy(self) -> dict:
        """The current greedy arm per bucket (only fully-explored buckets)."""
        with self._lock:
            out = {}
            for bucket, arm in sorted(self._best.items()):
                out[bucket] = {"traversal": arm}
            return out

    def status(self) -> dict:
        with self._lock:
            arms = {
                bucket: {
                    arm: {
                        "n": entry["n"],
                        "cost": (
                            round(entry["cost"], 2)
                            if entry["cost"] is not None
                            else None
                        ),
                    }
                    for arm, entry in stats.items()
                }
                for bucket, stats in sorted(self._stats.items())
            }
            return {
                "epsilon": self.epsilon,
                "decisions": self.decisions,
                "explorations": self.explorations,
                "policy": {
                    bucket: {"traversal": arm}
                    for bucket, arm in sorted(self._best.items())
                },
                "arms": arms,
            }
