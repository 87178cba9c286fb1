"""Vector-space metrics: Minkowski (Lp) norms and Hamming distance."""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

import numpy as np

from repro.distance.base import Metric


def _rows(
    q: Any, objs: Sequence[Any], dtype: Optional[type] = None
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``q`` as a 1-D array and ``objs`` as an ``(m, len(q))`` matrix, or
    None when they are not that (ragged, nested, not numeric, no rows) and
    the scalar loop has to answer — and raise what it raises."""
    try:
        qv = np.asarray(q, dtype=dtype)
        rows = np.ascontiguousarray(objs, dtype=dtype)
    except (ValueError, TypeError):
        return None
    if qv.ndim != 1 or rows.ndim != 2 or rows.shape[1] != qv.shape[0]:
        return None
    if rows.dtype == object or qv.dtype == object:
        return None
    return qv, rows


class MinkowskiDistance(Metric):
    """The Lp-norm metric for real vectors.

    The paper uses L2 for the synthetic dataset, L5 for the Color dataset,
    and L-infinity (as ``D()``) for the mapped pivot space.
    """

    def __init__(self, p: float) -> None:
        if p < 1:
            raise ValueError("Minkowski metrics require p >= 1")
        self.p = float(p)
        self.name = "Linf" if math.isinf(self.p) else f"L{p:g}"
        self.is_discrete = False

    def __call__(self, a: Sequence[float], b: Sequence[float]) -> float:
        av = np.asarray(a, dtype=np.float64)
        bv = np.asarray(b, dtype=np.float64)
        if av.shape != bv.shape:
            raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
        diff = np.abs(av - bv)
        if math.isinf(self.p):
            return float(diff.max(initial=0.0))
        if self.p == 1.0:
            return float(diff.sum())
        if self.p == 2.0:
            return float(math.sqrt(float((diff * diff).sum())))
        return float((diff**self.p).sum() ** (1.0 / self.p))

    def batch(
        self,
        q: Sequence[float],
        objs: Sequence[Sequence[float]],
        bound: float = math.inf,
    ) -> list[float]:
        """:meth:`batch_array` as a list."""
        return self.batch_array(q, objs, bound).tolist()

    def batch_array(
        self,
        q: Sequence[float],
        objs: Sequence[Sequence[float]],
        bound: float = math.inf,
    ) -> np.ndarray:
        """One pass over an ``(m, dim)`` matrix, bit-identical to the scalar
        form: its element-wise operations in one ``(m, dim)`` temporary —
        ``rows``, which may be the caller's own array, is only read — then
        numpy's same pairwise sum along each contiguous row.  The root of a
        general ``p`` is taken per element with the C ``pow`` the scalar
        form calls, on Python floats (an array ``**`` rounds differently).
        Every distance is exact: ``bound`` is ignored.  Input that is no
        matrix takes the scalar loop."""
        matrix = _rows(q, objs, np.float64)
        if matrix is None:
            return np.array(Metric.batch(self, q, objs), dtype=np.float64)
        qv, rows = matrix
        diff = np.subtract(qv, rows)
        np.abs(diff, out=diff)
        if math.isinf(self.p):
            return diff.max(axis=1, initial=0.0)
        if self.p == 1.0:
            return diff.sum(axis=1)
        if self.p == 2.0:
            np.multiply(diff, diff, out=diff)
            sums = diff.sum(axis=1)
            return np.sqrt(sums, out=sums)
        np.power(diff, self.p, out=diff)
        root = 1.0 / self.p
        return np.array(
            [total**root for total in diff.sum(axis=1).tolist()], dtype=np.float64
        )


class ManhattanDistance(MinkowskiDistance):
    """L1-norm."""

    def __init__(self) -> None:
        super().__init__(1.0)


class EuclideanDistance(MinkowskiDistance):
    """L2-norm."""

    def __init__(self) -> None:
        super().__init__(2.0)


class ChebyshevDistance(MinkowskiDistance):
    """L-infinity norm; this is the D() metric of the mapped vector space."""

    def __init__(self) -> None:
        super().__init__(math.inf)


class HammingDistance(Metric):
    """Number of positions at which two equal-length sequences differ.

    Used for the Signature dataset (64-dimensional signatures).  The range is
    the integers 0..len, so the SPB-tree indexes it without δ-approximation.
    """

    name = "hamming"
    is_discrete = True

    def __call__(self, a: Sequence[int], b: Sequence[int]) -> float:
        if len(a) != len(b):
            raise ValueError("Hamming distance requires equal-length inputs")
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            return float(np.count_nonzero(a != b))
        return float(sum(1 for x, y in zip(a, b) if x != y))

    def batch(
        self, q: Sequence[int], objs: Sequence[Sequence[int]], bound: float = math.inf
    ) -> list[float]:
        """:meth:`batch_array` as a list."""
        return self.batch_array(q, objs, bound).tolist()

    def batch_array(
        self, q: Sequence[int], objs: Sequence[Sequence[int]], bound: float = math.inf
    ) -> np.ndarray:
        """One ``!=`` over an ``(m, dim)`` matrix and a count per row;
        exact, ``bound`` ignored.  Input that is no matrix takes the scalar
        loop."""
        matrix = _rows(q, objs)
        if matrix is None:
            return np.array(Metric.batch(self, q, objs), dtype=np.float64)
        qv, rows = matrix
        return np.count_nonzero(rows != qv, axis=1).astype(np.float64)
