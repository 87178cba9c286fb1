"""Pivot mapping and δ-approximation (§3.1).

Stage one of the SPB-tree's two-stage mapping: an object ``o`` becomes the
point φ(o) = <d(o, p₁), …, d(o, pₙ)> in the pivot space (Rⁿ, L∞).  By the
triangle inequality, D(φ(o_i), φ(o_j)) — the L∞ distance in the pivot
space — is a *lower bound* on d(o_i, o_j), which is what every pruning lemma
in the paper builds on.

Stage two discretizes φ(o) to grid coordinates <⌊d(o,p₁)/δ⌋, …> so an SFC
can map it to one integer.  For discrete metrics (edit distance, Hamming) the
grid is exact (δ = 1); for continuous metrics a cell ``c`` only tells us
d ∈ [cδ, (c+1)δ), and all bounds here round conservatively so pruning never
produces false drops.

The three pruning tests exist twice.  The scalar forms (``mind_to_cell``,
``mind_to_box``, ``upper_bound_to_pivot`` and ``sfc.region.point_in_box``)
are the tested reference and serve the joins, the cluster router and the
benchmark probes; the array forms below them evaluate a whole B+-tree node
in one call and are what the query algorithms run.  Each float array form
does the scalar form's IEEE-754 operations in the scalar form's order per
element (an integer cell converts to the same double either way; ``max`` is
exact), so the two agree bit for bit, not just to a tolerance.  Lemma 1 and
Lemma 2 over a leaf are integer tests on packed cells
(:class:`~repro.sfc.region.PackedGrid`): RR is a box of cells already, and
Lemma 2 becomes one cell limit per pivot, found by stepping the scalar
``upper_bound_to_pivot`` itself, once per query.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Optional, Sequence

import numpy as np

from repro.distance.base import CountingDistance, Metric
from repro.sfc.region import PackedGrid

GridPoint = tuple[int, ...]
GridBox = tuple[GridPoint, GridPoint]


class PivotSpace:
    """The mapped vector space defined by a pivot set, d+ and δ."""

    def __init__(
        self,
        pivots: Sequence[Any],
        metric: Metric | CountingDistance,
        d_plus: float,
        delta: Optional[float] = None,
    ) -> None:
        if not pivots:
            raise ValueError("at least one pivot is required")
        if d_plus <= 0:
            raise ValueError("d_plus must be positive")
        self.pivots = list(pivots)
        self.metric = metric
        self.d_plus = float(d_plus)
        if delta is None:
            # Discrete metrics need no approximation (δ = 1); continuous
            # metrics default to a 256-cell grid per dimension.
            delta = 1.0 if metric.is_discrete else self.d_plus / 256.0
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)
        #: Grid cells per dimension: distances lie in [0, d+].
        self.cells = int(math.floor(self.d_plus / self.delta)) + 1
        #: Bits per dimension for the space-filling curve.
        self.bits = max(1, (self.cells - 1).bit_length())
        #: Whether grid coordinates are exact distances (δ-free metrics).
        self.exact = metric.is_discrete and self.delta == 1.0

    @property
    def num_pivots(self) -> int:
        return len(self.pivots)

    # -------------------------------------------------------------- mapping

    def phi(self, obj: Any) -> tuple[float, ...]:
        """φ(obj): distances to every pivot (costs |P| compdists)."""
        return tuple(self.metric(obj, p) for p in self.pivots)

    def phi_many(self, objects: Sequence[Any]) -> list[tuple[float, ...]]:
        """φ of every object, a pivot at a time: one ``metric.batch(p,
        objects)`` per pivot — ``len(objects)`` × |P| compdists, as the loop
        of :meth:`phi`, and the same values (d is symmetric)."""
        return list(zip(*(self.metric.batch(p, objects) for p in self.pivots)))

    def grid_from_phi(self, phi: Sequence[float]) -> GridPoint:
        """δ-approximate a φ vector to grid coordinates."""
        top = self.cells - 1
        return tuple(min(top, max(0, int(d // self.delta))) for d in phi)

    def grid_from_phi_many(self, phis: Sequence[Sequence[float]]) -> np.ndarray:
        """:meth:`grid_from_phi` of every row of ``phis`` (a :meth:`phi_many`
        result), as an ``(n, |P|)`` int64 array.  ``np.floor_divide`` on
        doubles is Python's float ``//`` — the same fmod-based rounding — so
        a distance exactly on a cell edge gets the scalar form's cell."""
        phi = np.asarray(phis, dtype=np.float64).reshape(-1, self.num_pivots)
        with np.errstate(invalid="ignore"):
            cells = np.floor_divide(phi, self.delta)
        if not np.isfinite(cells).all():
            raise ValueError("a NaN or infinite distance has no grid cell")
        # Clamped as doubles first: an integral double up to 2**62 converts
        # to int64 exactly, and the top cell is an int.
        clamped = np.clip(cells, 0.0, 2.0**62).astype(np.int64)
        return np.minimum(clamped, self.cells - 1)

    def grid(self, obj: Any) -> GridPoint:
        return self.grid_from_phi(self.phi(obj))

    # ------------------------------------------------------------- regions

    def range_region(self, phi_q: Sequence[float], radius: float) -> GridBox:
        """RR(q, r) of Lemma 1, as an inclusive grid box.

        Rounded outward: any object within distance ``radius`` of q maps to
        a grid cell inside this box.  A corner past the grid, infinite or
        NaN (an infinite or NaN radius, a NaN distance) is the grid's edge
        on its side, so such a box holds every cell it could need.
        """
        top = self.cells - 1
        delta = self.delta
        lo: list[int] = []
        hi: list[int] = []
        for d in phi_q:
            # A NaN fails every compare, so lo takes 0 and hi the top cell.
            c = (d - radius) // delta
            lo.append(int(c) if 0 < c < top else top if c >= top else 0)
            c = (d + radius) // delta
            hi.append(int(c) if 0 < c < top else 0 if c <= 0 else top)
        return tuple(lo), tuple(hi)

    # ------------------------------------------------------- lower bounds

    def cell_interval(self, coord: int) -> tuple[float, float]:
        """The distance interval a grid coordinate stands for."""
        if self.exact:
            return float(coord), float(coord)
        return coord * self.delta, (coord + 1) * self.delta

    def mind_to_cell(self, phi_q: Sequence[float], cell: Sequence[int]) -> float:
        """Lower bound of d(q, o) given only o's grid cell (kNN ordering)."""
        worst = 0.0
        for dq, c in zip(phi_q, cell):
            lo, hi = self.cell_interval(c)
            gap = max(0.0, lo - dq, dq - hi)
            if gap > worst:
                worst = gap
        return worst

    def mind_to_box(
        self, phi_q: Sequence[float], lo: Sequence[int], hi: Sequence[int]
    ) -> float:
        """Lower bound of d(q, o) over all cells of a node MBB (Lemma 3)."""
        worst = 0.0
        for dq, cl, ch in zip(phi_q, lo, hi):
            lo_d, _ = self.cell_interval(cl)
            _, hi_d = self.cell_interval(ch)
            gap = max(0.0, lo_d - dq, dq - hi_d)
            if gap > worst:
                worst = gap
        return worst

    def lower_bound(self, grid_a: Sequence[int], grid_b: Sequence[int]) -> float:
        """Lower bound of d(a, b) from the two grid cells alone."""
        worst = 0.0
        for ca, cb in zip(grid_a, grid_b):
            lo_a, hi_a = self.cell_interval(ca)
            lo_b, hi_b = self.cell_interval(cb)
            gap = max(0.0, lo_a - hi_b, lo_b - hi_a)
            if gap > worst:
                worst = gap
        return worst

    def upper_bound_to_pivot(self, coord: int) -> float:
        """Upper bound of d(o, pᵢ) from a grid coordinate (Lemma 2)."""
        return self.cell_interval(coord)[1]

    def lemma2_limits(self, phi_q: Sequence[float], radius: float) -> list[int]:
        """Lemma 2 as one cell per pivot: the largest c with
        ``upper_bound_to_pivot(c) <= radius - d(q, pᵢ)``, or -1 where no
        cell passes (a negative or NaN slack).  The bound grows with c, so
        the cells that pass are a prefix of the grid; its end is found by
        stepping from ``slack // δ`` over that very expression, so a slack
        on a cell edge, ±inf or NaN gets the scalar test's answer."""
        upper = self.upper_bound_to_pivot
        top = self.cells - 1
        first, last = upper(0), upper(top)
        limits = []
        for dq in phi_q:
            slack = radius - dq
            if not first <= slack:
                c = -1
            elif last <= slack:
                c = top
            else:
                # upper(0) <= slack < upper(top): the end lies in [0, top).
                c = min(max(int(slack // self.delta), 0), top)
                while not upper(c) <= slack:
                    c -= 1
                while upper(c + 1) <= slack:
                    c += 1
            limits.append(c)
        return limits

    # -------------------------------------------------- whole-node forms

    def _interval_arrays(
        self, lo_cells: np.ndarray, hi_cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``cell_interval`` lower ends of one array, upper ends of another."""
        if self.exact:
            return lo_cells.astype(np.float64), hi_cells.astype(np.float64)
        return lo_cells * self.delta, (hi_cells + 1) * self.delta

    @functools.cached_property
    def packing(self) -> PackedGrid:
        """The packed form of this space's cells (the B+-tree's, too)."""
        return PackedGrid(self.num_pivots, self.bits)

    def cells_in_region(self, cells: np.ndarray, region: GridBox) -> np.ndarray:
        """Lemma 1 over a leaf: which rows of ``cells`` lie inside RR."""
        packing = self.packing
        return packing.in_box(packing.pack_many(cells), packing.box_words(*region))

    def boxes_meet_region(
        self, lo_cells: np.ndarray, hi_cells: np.ndarray, region: GridBox
    ) -> np.ndarray:
        """Lemma 1 over a non-leaf node: which child MBBs intersect RR."""
        lo, hi = region
        return ((lo_cells <= hi) & (hi_cells >= lo)).all(axis=1)

    def lemma2_accepts(
        self, cells: np.ndarray, phi_q: Sequence[float], radius: float
    ) -> np.ndarray:
        """Lemma 2 over a leaf: rows some pivot proves to be within
        ``radius`` of q, ``upper_bound_to_pivot(c) <= radius - d(q, pᵢ)``."""
        packing = self.packing
        limits = packing.limit_words(self.lemma2_limits(phi_q, radius))
        return packing.at_most(packing.pack_many(cells), limits)

    def mind_to_cells(self, phi_q: Sequence[float], cells: np.ndarray) -> np.ndarray:
        """``mind_to_cell`` for every row of ``cells`` (kNN ordering)."""
        return self.mind_to_boxes(phi_q, cells, cells)

    def mind_to_boxes(
        self, phi_q: Sequence[float], lo_cells: np.ndarray, hi_cells: np.ndarray
    ) -> np.ndarray:
        """``mind_to_box`` for every child MBB of a node (Lemma 3)."""
        lo_d, hi_d = self._interval_arrays(lo_cells, hi_cells)
        dq = np.asarray(phi_q, dtype=np.float64)
        # fmax, like the scalar form's ``gap > worst``, lets a NaN lose.
        gaps = np.fmax(lo_d - dq, dq - hi_d)
        return np.fmax(np.fmax.reduce(gaps, axis=1), 0.0)


def linf(phi_a: Sequence[float], phi_b: Sequence[float]) -> float:
    """D(φ(a), φ(b)): the L∞ metric of the mapped vector space."""
    return max(abs(x - y) for x, y in zip(phi_a, phi_b))
