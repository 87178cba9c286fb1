"""Grid-box helpers for query processing.

A mapped range region RR(q, r) (Lemma 1) and a node MBB are both axis-aligned
boxes on the SFC grid, represented as a pair of inclusive corner tuples
``(lo, hi)``.  These helpers implement the box algebra the query algorithms
need: intersection tests, cell counting and enumeration (Algorithm 1's
``computeSFC``, line 15 — the reference the SPB-tree's whole-leaf Lemma 1
mask is tested against, no longer on the query path), and the L-infinity
point-to-box minimum distance used to order the kNN heap (Lemma 3).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from repro.sfc.base import SpaceFillingCurve

Box = tuple[tuple[int, ...], tuple[int, ...]]


def boxes_intersect(
    lo_a: Sequence[int],
    hi_a: Sequence[int],
    lo_b: Sequence[int],
    hi_b: Sequence[int],
) -> bool:
    """Whether two inclusive integer boxes overlap."""
    return all(la <= hb and lb <= ha for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b))


def box_intersection(
    lo_a: Sequence[int],
    hi_a: Sequence[int],
    lo_b: Sequence[int],
    hi_b: Sequence[int],
) -> Optional[Box]:
    """Intersection of two inclusive boxes, or None if disjoint."""
    lo = tuple(max(la, lb) for la, lb in zip(lo_a, lo_b))
    hi = tuple(min(ha, hb) for ha, hb in zip(hi_a, hi_b))
    if any(l > h for l, h in zip(lo, hi)):
        return None
    return lo, hi


def box_contains(
    lo_outer: Sequence[int],
    hi_outer: Sequence[int],
    lo_inner: Sequence[int],
    hi_inner: Sequence[int],
) -> bool:
    """Whether the outer box fully contains the inner box."""
    return all(
        lo <= li and hi >= hi_i
        for lo, hi, li, hi_i in zip(lo_outer, hi_outer, lo_inner, hi_inner)
    )


def point_in_box(
    point: Sequence[int], lo: Sequence[int], hi: Sequence[int]
) -> bool:
    """Whether a grid point lies inside an inclusive box."""
    return all(l <= p <= h for p, l, h in zip(point, lo, hi))


def box_cell_count(lo: Sequence[int], hi: Sequence[int]) -> int:
    """Number of grid cells inside an inclusive box (0 if empty)."""
    count = 1
    for l, h in zip(lo, hi):
        if h < l:
            return 0
        count *= h - l + 1
    return count


def cells_in_box(lo: Sequence[int], hi: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Enumerate all grid cells of an inclusive box."""
    ranges = [range(l, h + 1) for l, h in zip(lo, hi)]
    return itertools.product(*ranges)


def sfc_values_in_box(
    curve: SpaceFillingCurve, lo: Sequence[int], hi: Sequence[int]
) -> list[int]:
    """All curve values inside a box, ascending (Algorithm 1, line 15)."""
    return sorted(curve.encode(cell) for cell in cells_in_box(lo, hi))


def mind_point_to_box(
    point: Sequence[int], lo: Sequence[int], hi: Sequence[int]
) -> int:
    """L-infinity distance from a grid point to an inclusive box (0 inside).

    This is MIND(q, E) of Lemma 3, measured in grid cells; the caller scales
    it by δ to get a metric-space lower bound.
    """
    worst = 0
    for p, l, h in zip(point, lo, hi):
        if p < l:
            gap = l - p
        elif p > h:
            gap = p - h
        else:
            gap = 0
        if gap > worst:
            worst = gap
    return worst


def minmax_keys_for_box(
    curve: SpaceFillingCurve, lo: Sequence[int], hi: Sequence[int]
) -> tuple[int, int]:
    """(minRR, maxRR) of Lemma 6: the curve keys of a box's two corners.

    Only valid for monotone curves (the Z-order curve); for the Hilbert
    curve the corner keys do not bound the box's keys.
    """
    if not curve.is_monotone:
        raise ValueError(
            f"{curve.name} is not monotone; Lemma 6 corner-key bounds "
            "require the Z-order curve"
        )
    side = curve.side
    clamped_lo = tuple(min(max(c, 0), side - 1) for c in lo)
    clamped_hi = tuple(min(max(c, 0), side - 1) for c in hi)
    return curve.encode(clamped_lo), curve.encode(clamped_hi)
