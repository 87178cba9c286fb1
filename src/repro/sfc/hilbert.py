"""n-dimensional Hilbert curve via Skilling's transpose algorithm.

Reference: John Skilling, "Programming the Hilbert curve", AIP Conference
Proceedings 707 (2004).  The algorithm works on the "transpose" form of the
Hilbert index — ``ndims`` integers whose bit columns, read most significant
first and interleaved, spell the index — and converts between that form and
grid coordinates in O(ndims * bits) time with no lookup tables, which keeps
it practical for the 1..9 pivots the paper sweeps over.

The Hilbert curve visits grid neighbours consecutively, so it clusters
better than the Z-curve; Table 4 of the paper (and our reproduction of it)
measures exactly that difference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sfc.base import SpaceFillingCurve

_ZERO = np.uint64(0)


class HilbertCurve(SpaceFillingCurve):
    """Hilbert order over an ``ndims``-dimensional, ``bits``-bit grid."""

    is_monotone = False
    name = "hilbert"

    # -------------------------------------------------------------- public

    def encode(self, coords: Sequence[int]) -> int:
        self._check_coords(coords)
        transpose = self._axes_to_transpose(list(coords))
        return self._transpose_to_int(transpose)

    def decode(self, value: int) -> tuple[int, ...]:
        self._check_value(value)
        transpose = self._int_to_transpose(value)
        return tuple(self._transpose_to_axes(transpose))

    # ---------------------------------------------------- Skilling kernels

    def _axes_to_transpose(self, x: list[int]) -> list[int]:
        n, bits = self.ndims, self.bits
        m = 1 << (bits - 1)
        # Inverse undo of the excess work done by _transpose_to_axes.
        q = m
        while q > 1:
            p = q - 1
            for i in range(n):
                if x[i] & q:
                    x[0] ^= p
                else:
                    t = (x[0] ^ x[i]) & p
                    x[0] ^= t
                    x[i] ^= t
            q >>= 1
        # Gray encode.
        for i in range(1, n):
            x[i] ^= x[i - 1]
        t = 0
        q = m
        while q > 1:
            if x[n - 1] & q:
                t ^= q - 1
            q >>= 1
        for i in range(n):
            x[i] ^= t
        return x

    def _transpose_to_axes(self, x: list[int]) -> list[int]:
        n, bits = self.ndims, self.bits
        z = 2 << (bits - 1)
        # Gray decode by H ^ (H/2).
        t = x[n - 1] >> 1
        for i in range(n - 1, 0, -1):
            x[i] ^= x[i - 1]
        x[0] ^= t
        # Undo excess work.
        q = 2
        while q != z:
            p = q - 1
            for i in range(n - 1, -1, -1):
                if x[i] & q:
                    x[0] ^= p
                else:
                    t = (x[0] ^ x[i]) & p
                    x[0] ^= t
                    x[i] ^= t
            q <<= 1
        return x

    # ------------------------------------------ the same, across all rows

    def _to_transpose(self, x: list[np.ndarray]) -> list[np.ndarray]:
        """:meth:`_axes_to_transpose` with each step applied to every row."""
        n, bits = self.ndims, self.bits
        m = 1 << (bits - 1)
        q = m
        while q > 1:
            _excess_step(x, range(n), q)
            q >>= 1
        for i in range(1, n):
            x[i] ^= x[i - 1]
        t = np.zeros_like(x[0])
        q = m
        while q > 1:
            t ^= np.where(x[n - 1] & np.uint64(q), np.uint64(q - 1), _ZERO)
            q >>= 1
        for i in range(n):
            x[i] ^= t
        return x

    def _from_transpose(self, x: list[np.ndarray]) -> list[np.ndarray]:
        """:meth:`_transpose_to_axes` with each step applied to every row."""
        n, bits = self.ndims, self.bits
        z = 2 << (bits - 1)
        t = x[n - 1] >> np.uint64(1)
        for i in range(n - 1, 0, -1):
            x[i] ^= x[i - 1]
        x[0] ^= t
        q = 2
        while q != z:
            _excess_step(x, range(n - 1, -1, -1), q)
            q <<= 1
        return x

    # ------------------------------------------------- transpose <-> index

    def _transpose_to_int(self, transpose: Sequence[int]) -> int:
        """Interleave the bit columns of the transpose form, MSB first."""
        value = 0
        for bit in range(self.bits - 1, -1, -1):
            for t in transpose:
                value = (value << 1) | ((t >> bit) & 1)
        return value

    def _int_to_transpose(self, value: int) -> list[int]:
        transpose = [0] * self.ndims
        total_bits = self.ndims * self.bits
        for pos in range(total_bits):
            bit = (value >> (total_bits - 1 - pos)) & 1
            dim = pos % self.ndims
            transpose[dim] = (transpose[dim] << 1) | bit
        return transpose


def _excess_step(x: list[np.ndarray], dims: range, q: int) -> None:
    """One pass of Skilling's excess-work loop at bit ``q``, over every row:
    for each dimension i of ``dims`` in turn, a row whose x[i] has bit q set
    inverts the low bits of its x[0]; any other row swaps them with x[i]'s."""
    bit, low = np.uint64(q), np.uint64(q - 1)
    for i in dims:
        hit = (x[i] & bit) != 0
        t = np.where(hit, _ZERO, (x[0] ^ x[i]) & low)
        x[0] ^= np.where(hit, low, t)
        x[i] ^= t
