"""The LAESA baseline (Micó, Oncina & Vidal [7]).

The purest pivot-based approach: precompute an n × |P| matrix of distances
from every object to every pivot, and answer queries by a filtered linear
scan — an object survives only if its pivot-space lower bound
max_i |d(q,pᵢ) − d(o,pᵢ)| does not already exceed the query threshold.

LAESA is the extreme point of the design space the paper positions the
SPB-tree against (§2.1): nearly optimal in distance computations, but the
full distance matrix costs |O|·|P| floats of storage and every query scans
it — exactly the "pre-computed distances accelerate the search but objects
are stored without clustering" critique.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional, Sequence

from repro.core.pivots import select_pivots
from repro.distance.base import CountingDistance, Metric


class LAESA:
    """Linear AESA: pivot-distance matrix + filtered scan."""

    def __init__(
        self,
        objects: Sequence[Any],
        metric: Metric,
        num_pivots: int = 5,
        pivots: Optional[Sequence[Any]] = None,
        seed: int = 7,
    ) -> None:
        if not objects:
            raise ValueError("LAESA requires a non-empty dataset")
        self.distance = CountingDistance(metric)
        if pivots is None:
            pivots = select_pivots(objects, num_pivots, metric, seed=seed)
        self.pivots = list(pivots)
        self.objects = list(objects)
        #: The n × |P| matrix of precomputed distances.
        self.matrix = [
            tuple(self.distance(o, p) for p in self.pivots)
            for o in self.objects
        ]

    def _phi(self, query: Any) -> tuple[float, ...]:
        return tuple(self.distance(query, p) for p in self.pivots)

    def range_query(self, query: Any, radius: float) -> list[Any]:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        phi_q = self._phi(query)
        results = []
        for obj, row in zip(self.objects, self.matrix):
            lower = max(abs(a - b) for a, b in zip(phi_q, row))
            if lower > radius:
                continue  # pivot filter
            if self.distance(query, obj) <= radius:
                results.append(obj)
        return results

    def knn_query(self, query: Any, k: int) -> list[tuple[float, Any]]:
        """Scan in ascending lower-bound order, stopping when the next
        lower bound cannot beat the current k-th distance."""
        if k < 1:
            raise ValueError("k must be >= 1")
        phi_q = self._phi(query)
        order = sorted(
            (
                max(abs(a - b) for a, b in zip(phi_q, row)),
                i,
            )
            for i, row in enumerate(self.matrix)
        )
        result: list[tuple[float, int, Any]] = []
        for lower, i in order:
            if len(result) >= k and lower >= -result[0][0]:
                break
            d = self.distance(query, self.objects[i])
            if len(result) < k:
                heapq.heappush(result, (-d, i, self.objects[i]))
            elif d < -result[0][0]:
                heapq.heapreplace(result, (-d, i, self.objects[i]))
        ordered = sorted((-negd, i, obj) for negd, i, obj in result)
        return [(d, obj) for d, _, obj in ordered]

    # ------------------------------------------------------------ accessors

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def distance_computations(self) -> int:
        return self.distance.count

    @property
    def page_accesses(self) -> int:
        return 0  # in-memory structure

    def reset_counters(self) -> None:
        self.distance.reset()
