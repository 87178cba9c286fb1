"""Base classes for metric distance functions."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

import numpy as np

from repro.stats import current_stat_shard, record_compdist


class Metric(ABC):
    """A distance function over a generic metric space (M, d).

    Subclasses must guarantee the metric axioms:

    1. symmetry        d(q, o) == d(o, q)
    2. non-negativity  d(q, o) >= 0
    3. identity        d(q, o) == 0 iff q == o
    4. triangle        d(q, o) <= d(q, p) + d(p, o)

    ``is_discrete`` tells the index whether the range of ``d`` is the
    non-negative integers; if it is, the SPB-tree skips δ-approximation
    (δ is effectively 1), exactly as the paper describes in §3.1.
    """

    #: Human-readable name used in benchmark output.
    name: str = "metric"

    #: Whether the metric's range is the non-negative integers.
    is_discrete: bool = False

    @abstractmethod
    def __call__(self, a: Any, b: Any) -> float:
        """Return d(a, b)."""

    def batch(
        self, q: Any, objs: Sequence[Any], bound: float = math.inf
    ) -> list[float]:
        """d(q, o) for every ``o`` in ``objs``, exactly when it is at most
        ``bound``; otherwise a lower bound of it that is greater than
        ``bound`` (a NaN bound asks for every distance exactly).

        A caller that only needs ``d <= bound`` — a range verification, a
        kNN candidate against the k-th distance — passes it, and a metric
        with a cut-off stops early.  This default is the loop, which
        ignores the bound; a subclass's kernel answers within it
        bit-identically to the loop."""
        return [self(q, o) for o in objs]

    def batch_array(
        self, q: Any, objs: Sequence[Any], bound: float = math.inf
    ) -> np.ndarray:
        """:meth:`batch` as a float64 array, for a caller that goes on in
        arrays (a leaf's verification).  This default converts the list; a
        subclass with an array kernel answers with the kernel's array, whose
        ``tolist()`` is its ``batch``."""
        return np.asarray(self.batch(q, objs, bound), dtype=np.float64)

    def against(self, q: Any) -> Callable[[Any, float], float]:
        """``f(o, bound)``: ``batch(q, [o], bound)[0]``, bit for bit, with
        whatever the query alone decides resolved once.

        A search that verifies objects one at a time (the incremental kNN's
        pops) binds its query here and calls ``f`` per object.  This default
        is that call; a subclass binds its kernel's per-query state."""
        batch = self.batch
        return lambda o, bound: batch(q, (o,), bound)[0]

    def max_distance(self, sample: Sequence[Any], pairs: int = 2000) -> float:
        """Estimate d+ — the maximum pairwise distance — from ``sample``.

        d+ bounds the pivot-space coordinates (§3.1), so overestimating it is
        safe while underestimating it is not.  We therefore take the maximum
        over a deterministic systematic scan of ``pairs`` pairs and pad the
        result by 5 % for continuous metrics.
        """
        n = len(sample)
        if n < 2:
            return 1.0
        best = 0.0
        total = n * (n - 1) // 2
        step = max(1, total // max(1, pairs))
        # Every step-th pair of the row-major enumeration of i < j, located
        # directly: row i holds the n - 1 - i pairs (i, i+1) .. (i, n-1).
        i, row_start, row_len = 0, 0, n - 1
        for t in range(step - 1, total, step):
            while t - row_start >= row_len:
                row_start += row_len
                row_len -= 1
                i += 1
            d = self(sample[i], sample[i + 1 + t - row_start])
            if d > best:
                best = d
        if best == 0.0:
            best = 1.0
        if not self.is_discrete:
            best *= 1.05
        return best


class CountingDistance:
    """Wraps a :class:`Metric` and counts every distance computation.

    The paper uses the number of distance computations (*compdists*) as the
    CPU-cost proxy for every access method; wrapping the metric is how each
    index reports that number without any index-specific bookkeeping.
    """

    def __init__(self, metric: Metric) -> None:
        self.metric = metric
        self.count = 0

    @property
    def name(self) -> str:
        return self.metric.name

    @property
    def is_discrete(self) -> bool:
        return self.metric.is_discrete

    def __call__(self, a: Any, b: Any) -> float:
        self.count += 1
        record_compdist()
        return self.metric(a, b)

    def batch(
        self, q: Any, objs: Sequence[Any], bound: float = math.inf
    ) -> list[float]:
        """:meth:`Metric.batch`, counted per object, cut off or not."""
        self.count += len(objs)
        record_compdist(len(objs))
        return self.metric.batch(q, objs, bound)

    def batch_array(
        self, q: Any, objs: Sequence[Any], bound: float = math.inf
    ) -> np.ndarray:
        """:meth:`Metric.batch_array`, counted as :meth:`batch` counts."""
        self.count += len(objs)
        record_compdist(len(objs))
        return self.metric.batch_array(q, objs, bound)

    def against(self, q: Any) -> Callable[[Any, float], float]:
        """:meth:`Metric.against`, counted one per call on ``count`` and on
        the stat shard active *when it is bound* — resolved once, so bind it
        inside the frame that activates the query's context."""
        f = self.metric.against(q)
        shard = current_stat_shard()

        def counted(o: Any, bound: float) -> float:
            self.count += 1
            if shard is not None:
                shard.compdists += 1
            return f(o, bound)

        return counted

    def reset(self) -> None:
        self.count = 0

    def max_distance(self, sample: Sequence[Any], pairs: int = 2000) -> float:
        # d+ estimation happens once, offline; it is not part of compdists.
        return self.metric.max_distance(sample, pairs)

