"""Pivot maintenance: the one self-tuning loop the numbers back.

The paper's pivot selection (§3.2, HFI) maximises Definition 1's
precision over the data the index was built on.  Inserts and deletes
move the data under a fixed pivot set; the :class:`Tuner` is the
:class:`repro.control.ControlLoop` that notices.  Each ``tick()`` is one
**pivot check** — re-measure that precision on a fresh sample and compare
it with the first measurement.  Drift past the threshold schedules pivot
re-selection and a guarded rebuild through a checkpoint (run at once with
``auto_pivot_rebuild``), announced in the supervisor's journal when one
is attached.  :meth:`Tuner.rebuild_pivots` is the same rebuild on demand.

Nothing else is adapted: the kNN traversal (§4.3 / Table 5) is the
caller's ``traversal=`` argument, buffer size is a fixed experimental
parameter in the paper (Fig. 10), and shard layout and admission depth
are the operator's (``docs/architecture.md`` §16 has the numbers).  Every
decision resolves to one journal event (with a request id on the ones
that mutate the cluster), and nothing here runs unless a ``Tuner`` is
constructed: the untuned query path is untouched.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Optional

from repro.control import ControlLoop
from repro.core.pivots import pivot_set_precision, select_pivots
from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.obs.ids import new_trace_id

#: Journal filename inside a tuned cluster directory (same format and
#: torn-tail contract as ``supervisor-events.jsonl``).
TUNING_JOURNAL = "tuning-events.jsonl"

#: A candidate pivot set must beat the current one's Definition 1
#: precision by this fraction, or the rebuild is journalled as skipped.
_MIN_REBUILD_GAIN = 0.02


class Tuner(ControlLoop):
    """Background pivot-drift loop over one index (tree or cluster)."""

    name = "tuner"
    _bundle = staticmethod(_instruments.tuning)

    def __init__(
        self,
        index: Any,
        tick_interval: float = 8.0,
        journal_path: Optional[str] = None,
        clock: Any = None,
        seed: int = 17,
        pivot_drift_threshold: float = 0.15,
        auto_pivot_rebuild: bool = False,
        pivot_sample: int = 64,
        pivot_pairs: int = 128,
    ) -> None:
        if journal_path is None and getattr(index, "directory", None):
            journal_path = os.path.join(index.directory, TUNING_JOURNAL)
        super().__init__(
            index, tick_interval, clock or time.monotonic, journal_path
        )
        self.pivot_drift_threshold = pivot_drift_threshold
        self.auto_pivot_rebuild = auto_pivot_rebuild
        self.pivot_sample = pivot_sample
        self.pivot_pairs = pivot_pairs
        # + 1: the pair sequence every recorded A/B row was measured on.
        self._pair_rng = random.Random(seed + 1)
        #: Plain tallies (mirror the obs counters; always available).
        self.pivot_checks = 0
        self.pivot_rebuilds = 0
        self.pivot_rebuild_due = False
        self._pivot_baseline: Optional[float] = None

    # ------------------------------------------------------------- the pass

    def _pass(self, now: float) -> dict:
        """One ``tick()``: one pivot check."""
        return {"pivots": self._check_pivots()}

    # --------------------------------------------------------------- pivots

    def _sample_objects(self, limit: int) -> list:
        """Every ``len // limit``-th live object, in global SFC order.  The
        scan is maintenance, not a workload: each tree is read under its
        epoch view (no writer appends mid-scan) and no counter moves."""
        shards = getattr(self.index, "shards", None)
        trees = (
            [self.index]
            if shards is None
            else [s.tree for s in sorted(shards, key=lambda s: s.key_lo)]
        )
        objects: list = []

        def scan(tree: Any) -> None:
            with tree.unobserved():
                objects.extend(tree.objects())

        for tree in trees:
            tree.read_frame(None, lambda: scan(tree))
        if len(objects) <= limit:
            return objects
        step = max(1, len(objects) // limit)
        return objects[::step][:limit]

    def _precision_pairs(self, sample: list) -> list:
        if len(sample) < 2:
            return []
        pairs = []
        for _ in range(self.pivot_pairs):
            i = self._pair_rng.randrange(len(sample))
            j = self._pair_rng.randrange(len(sample))
            if i != j:
                pairs.append((sample[i], sample[j]))
        return pairs

    def _raw_metric(self):
        return self.index.distance.metric

    def _measure_precision(self) -> Optional[float]:
        sample = self._sample_objects(self.pivot_sample)
        pairs = self._precision_pairs(sample)
        if not pairs:
            return None
        return pivot_set_precision(
            self.index.space.pivots, pairs, self._raw_metric()
        )

    def _check_pivots(self) -> Optional[dict]:
        """Track HFI's objective (Definition 1 precision) against the
        first measurement; past-threshold drift schedules a rebuild."""
        self.pivot_checks += 1
        precision = self._measure_precision()
        if precision is None:
            return None
        if self._pivot_baseline is None or self._pivot_baseline <= 0:
            self._pivot_baseline = precision
            return {"baseline": round(precision, 4)}
        drift = (self._pivot_baseline - precision) / self._pivot_baseline
        detail = {
            "baseline": round(self._pivot_baseline, 4),
            "precision": round(precision, 4),
            "drift": round(drift, 4),
        }
        if drift < self.pivot_drift_threshold or self.pivot_rebuild_due:
            return detail
        request_id = new_trace_id()
        self.pivot_rebuild_due = True
        self.journal.record("pivot-drift", detail=detail, request_id=request_id)
        supervisor = getattr(self.index, "supervisor", None)
        if supervisor is not None:
            supervisor.journal.record(
                "maintenance-scheduled",
                detail={"kind": "pivot-rebuild", **detail},
                request_id=request_id,
            )
        replicated = getattr(self.index, "_sets", None)
        if self.auto_pivot_rebuild and not replicated:
            rebuilt = self.rebuild_pivots(request_id=request_id)
            if rebuilt is not None:
                detail = {**detail, "rebuilt": rebuilt}
        return detail

    def rebuild_pivots(self, request_id: Optional[str] = None) -> Optional[dict]:
        """Re-select pivots (HFI) and rebuild the cluster onto them.

        Runs through a checkpoint first (WALs folded into the pagefiles)
        so the rebuild starts from a durable state, then compares the
        candidate set's precision against the current one on the same
        pairs — a rebuild that would not actually improve Definition 1's
        objective is journalled as skipped, not executed.
        """
        with self._lock:
            index = self.index
            if not hasattr(index, "rebuild_with_pivots"):
                self.pivot_rebuild_due = False
                return None
            rid = request_id if request_id is not None else new_trace_id()
            sample = self._sample_objects(256)
            if len(sample) < 2:
                self.pivot_rebuild_due = False
                return None
            metric = self._raw_metric()
            pairs = self._precision_pairs(sample)
            current = pivot_set_precision(index.space.pivots, pairs, metric)
            candidate = select_pivots(
                sample, len(index.space.pivots), metric, method="hfi"
            )
            proposed = pivot_set_precision(candidate, pairs, metric)
            if proposed < current * (1.0 + _MIN_REBUILD_GAIN):
                self.journal.record(
                    "pivot-rebuild-skipped",
                    detail={
                        "current": round(current, 4),
                        "candidate": round(proposed, 4),
                    },
                    request_id=rid,
                )
                self.pivot_rebuild_due = False
                self._pivot_baseline = None
                return None
            if getattr(index, "directory", None) and getattr(
                index, "_logging", False
            ):
                index.checkpoint()
            try:
                result = index.rebuild_with_pivots(candidate)
            except Exception as exc:
                self.journal.record(
                    "pivot-rebuild-failed", detail=repr(exc), request_id=rid
                )
                return None
            self.pivot_rebuilds += 1
            self.pivot_rebuild_due = False
            self._pivot_baseline = None
            detail = {
                **result,
                "precision_before": round(current, 4),
                "precision_after": round(proposed, 4),
            }
            self.journal.record("pivot-rebuilt", detail=detail, request_id=rid)
            supervisor = getattr(index, "supervisor", None)
            if supervisor is not None:
                supervisor.journal.record(
                    "maintenance-done",
                    detail={"kind": "pivot-rebuild"},
                    request_id=rid,
                )
            if _obsreg.ENABLED:
                _instruments.tuning().decisions.labels(
                    kind="pivot-rebuild"
                ).inc()
            return detail

    # -------------------------------------------------------------- surface

    def status(self) -> dict:
        with self._lock:
            return {
                "running": self.running,
                "ticks": self.ticks,
                "tick_interval": self.tick_interval,
                "pivot_checks": self.pivot_checks,
                "pivot_rebuilds": self.pivot_rebuilds,
                "pivot_rebuild_due": self.pivot_rebuild_due,
            }
