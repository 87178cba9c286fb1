"""Grid-box helpers for query processing.

A mapped range region RR(q, r) (Lemma 1) and a node MBB are both axis-aligned
boxes on the SFC grid, represented as a pair of inclusive corner tuples
``(lo, hi)``.  These helpers implement the box algebra the query algorithms
need: intersection tests, cell counting and enumeration (Algorithm 1's
``computeSFC``, line 15 — the reference the SPB-tree's whole-leaf Lemma 1
mask is tested against, no longer on the query path), and the L-infinity
point-to-box minimum distance used to order the kNN heap (Lemma 3).
:class:`PackedGrid` runs the two box tests of a range query's leaf step —
a point inside a box (Lemma 1), some coordinate at most its limit
(Lemma 2) — over many points at once as integer compares on packed words.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Optional, Sequence

import numpy as np

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


class PackedGrid:
    """Grid points of ``ndims`` coordinates below ``2**bits``, packed into
    uint64 words so that a box test is a few integer operations per word.

    Coordinate i takes a field of ``bits + 1`` bits whose top bit is a
    guard; ``64 // (bits + 1)`` fields share a word, so a point takes
    ``words = ceil(ndims / (64 // (bits + 1)))`` words.  Many points are a
    ``(words, n)`` array, one contiguous row per word.  A code has no guard
    bit set, so with G the guard bits, ``(x | G) - y`` keeps field i's guard
    exactly when ``x_i >= y_i`` and borrows from no other field.
    """

    def __init__(self, ndims: int, bits: int) -> None:
        if not 1 <= bits <= 62:
            raise ValueError(
                f"{bits}-bit grid coordinates do not fit a guarded 64-bit field"
            )
        self.bits = bits
        per_word = 64 // (bits + 1)
        self.words = -(-ndims // per_word)
        shifts = [(i % per_word) * (bits + 1) for i in range(ndims)]
        self._field_shifts = np.array(shifts, dtype=np.uint64)
        #: Each word's coordinates, as ``(start, stop, their shifts)``.
        self._words = [
            (i, i + per_word, shifts[i : i + per_word])
            for i in range(0, ndims, per_word)
        ]
        self._guard = self.pack([1 << bits] * ndims)
        self._guard_words = [np.uint64(g) for g in self._guard]

    def pack(self, point: Sequence[int]) -> list[int]:
        """One point's words (fields never overlap, so their sum is their
        OR); missing trailing coordinates pack as 0."""
        return [
            sum(map(operator.lshift, point[start:stop], shifts))
            for start, stop, shifts in self._words
        ]

    def pack_many(self, cells: np.ndarray) -> np.ndarray:
        """The ``(words, n)`` codes of an ``(n, ndims)`` cell array."""
        fields = cells.astype(np.uint64) << self._field_shifts
        return np.stack(
            [
                np.bitwise_or.reduce(fields[:, start:stop], axis=1)
                for start, stop, _ in self._words
            ]
        )

    def box_words(self, lo: Sequence[int], hi: Sequence[int]) -> list:
        """:meth:`in_box`'s constants for the inclusive box ``(lo, hi)``,
        whose corners lie on the grid: ``(G - LO, HI | G, G)`` per word."""
        return [
            (np.uint64(g - l), np.uint64(h | g), g_word)
            for g, g_word, l, h in zip(
                self._guard, self._guard_words, self.pack(lo), self.pack(hi)
            )
        ]

    def in_box(self, codes: np.ndarray, box: list) -> np.ndarray:
        """Which packed points lie inside the box of :meth:`box_words`:
        ``c + (G - LO)`` is ``(c | G) - LO``, which keeps a field's guard iff
        ``c >= lo``, and ``(HI | G) - c`` keeps it iff ``c <= hi``.  A point
        is inside iff every guard survives both."""
        inside = None
        for w, (g_lo, hi_g, g) in enumerate(box):
            c = codes[w]
            ok = (c + g_lo) & (hi_g - c) & g == g
            inside = ok if inside is None else inside & ok
        return inside

    def limit_words(self, limits: Sequence[int]) -> list:
        """:meth:`at_most`'s constants for one limit per coordinate, each
        below ``2**bits``; a negative limit holds no coordinate, and missing
        trailing limits count as negative.  ``(word, T | G, M)`` for every
        word with some limit ``>= 0``, M the guards of those coordinates."""
        guard = 1 << self.bits
        tops = self.pack([max(t, 0) for t in limits])
        masks = self.pack([guard if t >= 0 else 0 for t in limits])
        return [
            (w, np.uint64(t | g), np.uint64(m))
            for w, (t, g, m) in enumerate(zip(tops, self._guard, masks))
            if m
        ]

    def at_most(
        self,
        codes: np.ndarray,
        limits: list,
        rows: np.ndarray | slice = slice(None),
    ) -> np.ndarray:
        """Which packed points ``codes[:, rows]`` have some coordinate at
        most its limit (of :meth:`limit_words`): ``(T | G) - c`` keeps a
        field's guard iff ``c <= t``."""
        hit = None
        for w, t_g, m in limits:
            some = (t_g - codes[w, rows]) & m != 0
            hit = some if hit is None else hit | some
        if hit is None:
            return np.zeros(codes.shape[1], dtype=bool)[rows]
        return hit


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
