"""Online calibration of the paper's EDC/EPA cost models.

``repro.core.costmodel`` fits its constants once, from a handful of probe
queries at construction.  In a long-lived serving process the dataset
drifts (inserts, deletes, rebalances), so the fitted constants go stale.
The ``OnlineCalibrator`` closes that loop from *real* traffic:

* predictions — one :class:`~repro.core.costmodel.CostModel` per shard
  (built lazily, probe-free, rebuilt when the shard's population moves
  by more than a quarter), summed across shards, times two online scale
  constants;
* observations — every default-traversal kNN query the engine serves
  enters a sliding window as a (query, k, actual-cost) triple via
  :meth:`observe_query` (the models predict the default traversal, so a
  pinned one is never observed); the matching
  prediction is computed *later*, inside :meth:`recalibrate` on the
  tuner's tick thread, so the query path never pays the estimator's
  grid-sample walk (storing the triple is O(1));
* refits — each tuner tick resolves the pending predictions, then
  re-fits ``edc_scale``/``epa_scale`` as the median actual/raw-predicted
  ratio over the window (the same robust estimator the build-time
  calibration uses), and reports the remaining median
  ``|log(predicted/actual)|`` per model — the prediction-error gauge the
  acceptance bar bounds.

Prediction uses the raw (uncounted) metric for query mapping, exactly
like ``CostModel._phi``: estimating a query's cost must never show up in
the query counters the paper's experiments report.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Optional

from repro.core.costmodel import CostModel


def _median(values: list) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


class OnlineCalibrator:
    """Fit EDC/EPA scales from observed (prediction, outcome) pairs."""

    def __init__(
        self,
        index: Any,
        window: int = 64,
        min_observations: int = 8,
    ) -> None:
        self.index = index
        self.min_observations = min_observations
        self.edc_scale = 1.0
        self.epa_scale = 1.0
        self.calibrations = 0
        #: Median |log(predicted/actual)| per model after the last refit.
        self.error: dict[str, Optional[float]] = {"edc": None, "epa": None}
        self._observations: deque = deque(maxlen=window)
        #: (query, k, compdists, page_accesses) awaiting their prediction,
        #: resolved on the next :meth:`recalibrate`.
        self._pending: deque = deque(maxlen=window)
        self._since_fit = 0
        #: shard id (or None for a single tree) -> (model, object_count at
        #: build).  Dropped on :meth:`refresh` and when population drifts.
        self._models: dict = {}
        self._lock = threading.RLock()

    # ----------------------------------------------------------- prediction

    def _trees(self) -> list:
        shards = getattr(self.index, "shards", None)
        if shards is None:
            return [(None, self.index)]
        return [(s.shard_id, s.tree) for s in shards]

    def _model_for(self, key: Any, tree: Any) -> Optional[CostModel]:
        count = tree.object_count
        cached = self._models.get(key)
        if cached is not None:
            model, built_count = cached
            if abs(count - built_count) <= max(8, built_count // 4):
                return model
        if count == 0 or not tree.grid_sample:
            return None
        try:
            # Structure reads (the B+-tree node walk) race concurrent
            # writers without the tree's epoch lock.
            lock = getattr(tree, "_epoch_lock", None)
            if lock is not None:
                with lock.read():
                    model = CostModel(tree, calibrate=False)
            else:
                model = CostModel(tree, calibrate=False)
        except Exception:
            return None
        self._models[key] = (model, count)
        return model

    def predict_knn(self, query: Any, k: int) -> Optional[tuple]:
        """Raw (unscaled) (EDC, EPA) summed over shards, or None.

        The caller applies :attr:`edc_scale`/:attr:`epa_scale` for a
        calibrated number; the raw pair is what :meth:`observe` stores so
        refits stay independent of the scale in force when the query ran.
        """
        with self._lock:
            edc = epa = 0.0
            seen = False
            for key, tree in self._trees():
                model = self._model_for(key, tree)
                if model is None:
                    continue
                try:
                    estimate = model.estimate_knn(query, k)
                except Exception:
                    continue
                edc += estimate.edc
                epa += estimate.epa
                seen = True
            if not seen:
                return None
            return (edc, epa)

    # ---------------------------------------------------------- observation

    def observe_query(
        self, query: Any, k: int, compdists: int, page_accesses: int
    ) -> None:
        """Record one default-traversal kNN outcome; prediction deferred.

        This is the query-path entry point, so it only appends — the
        cost-model walk happens on the tick thread in
        :meth:`recalibrate`.
        """
        with self._lock:
            self._pending.append(
                (query, int(k), int(compdists), int(page_accesses))
            )

    def observe(
        self, predicted: tuple, compdists: int, page_accesses: int
    ) -> None:
        if predicted is None:
            return
        with self._lock:
            self._observations.append(
                (
                    float(predicted[0]),
                    float(predicted[1]),
                    int(compdists),
                    int(page_accesses),
                )
            )
            self._since_fit += 1

    # --------------------------------------------------------------- refits

    def recalibrate(self) -> Optional[dict]:
        """Resolve pending predictions, then refit the scales from the
        window; None when too little is new."""
        with self._lock:
            pending = list(self._pending)
            self._pending.clear()
        for query, k, compdists, page_accesses in pending:
            try:
                predicted = self.predict_knn(query, k)
            except Exception:
                continue
            self.observe(predicted, compdists, page_accesses)
        with self._lock:
            if self._since_fit == 0:
                return None
            edc_obs = [
                (raw_edc, cd)
                for raw_edc, _, cd, _ in self._observations
                if raw_edc > 0 and cd > 0
            ]
            if len(edc_obs) < self.min_observations:
                return None
            self.edc_scale = _median([cd / raw for raw, cd in edc_obs])
            epa_obs = [
                (raw_epa, pa)
                for _, raw_epa, _, pa in self._observations
                if raw_epa > 0 and pa > 0
            ]
            if len(epa_obs) >= self.min_observations:
                self.epa_scale = _median([pa / raw for raw, pa in epa_obs])
            self.error["edc"] = _median(
                [
                    abs(math.log((self.edc_scale * raw) / cd))
                    for raw, cd in edc_obs
                ]
            )
            if epa_obs:
                self.error["epa"] = _median(
                    [
                        abs(math.log((self.epa_scale * raw) / pa))
                        for raw, pa in epa_obs
                    ]
                )
            self.calibrations += 1
            self._since_fit = 0
            return {
                "edc_scale": round(self.edc_scale, 4),
                "epa_scale": round(self.epa_scale, 4),
                "error_edc": round(self.error["edc"], 4),
                "error_epa": (
                    round(self.error["epa"], 4)
                    if self.error["epa"] is not None
                    else None
                ),
                "observations": len(self._observations),
            }

    def refresh(self) -> None:
        """Drop cached per-shard models (call after structural changes)."""
        with self._lock:
            self._models.clear()

    # -------------------------------------------------------------- surface

    def calibration(self) -> dict:
        with self._lock:
            return {
                "edc_scale": round(self.edc_scale, 4),
                "epa_scale": round(self.epa_scale, 4),
                "calibrations": self.calibrations,
                "error": {
                    model: (round(err, 4) if err is not None else None)
                    for model, err in self.error.items()
                },
                "window": len(self._observations),
            }
