"""Common interface for space-filling curves."""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np


class SpaceFillingCurve(ABC):
    """A bijection between an n-dimensional integer grid and [0, 2^(n*bits)).

    ``ndims`` is the number of pivots |P|; ``bits`` is the per-dimension
    resolution, chosen so that 2^bits > d+/δ (every grid coordinate fits).

    Both directions are memoized per instance: query processing decodes the
    same leaf keys and MBB corners over and over (the paper counts this
    "transformation between SFC values and vectors" as real CPU cost, §6.1),
    and the mapping is pure, so an LRU cache is safe and considerably
    cheaper.

    ``encode_many`` / ``decode_many`` are the same maps over a whole column
    of cells or keys, one array step per bit instead of one Python step per
    bit and object — the build's bulk paths; the scalar pair is the
    reference they are tested against.
    """

    def __init__(self, ndims: int, bits: int) -> None:
        if ndims < 1:
            raise ValueError("ndims must be >= 1")
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.ndims = ndims
        self.bits = bits
        self.decode = functools.lru_cache(maxsize=1 << 16)(self.decode)  # type: ignore[method-assign]

    #: Whether the curve value is monotone in every grid coordinate
    #: (true for the Z-order curve — the property Lemma 6 relies on —
    #: false for the Hilbert curve).
    is_monotone: bool = False

    name: str = "sfc"

    @property
    def side(self) -> int:
        """Grid extent per dimension."""
        return 1 << self.bits

    @property
    def max_value(self) -> int:
        """Exclusive upper bound of curve values."""
        return 1 << (self.ndims * self.bits)

    @abstractmethod
    def encode(self, coords: Sequence[int]) -> int:
        """Map grid coordinates to the curve value."""

    @abstractmethod
    def decode(self, value: int) -> tuple[int, ...]:
        """Map a curve value back to grid coordinates."""

    def encode_many(self, cells: "np.ndarray | Sequence[Sequence[int]]") -> list[int]:
        """``[encode(c) for c in cells]`` for an ``(n, ndims)`` integer array
        of grid cells, as Python ints; keys wider than 64 bits are assembled
        from 64-bit limbs at the end."""
        grid = np.asarray(cells)
        if grid.size == 0:
            return []
        self._check_width()
        if grid.ndim != 2 or grid.shape[1] != self.ndims:
            raise ValueError(
                f"expected rows of {self.ndims} coordinates, got shape {grid.shape}"
            )
        if grid.min() < 0 or grid.max() >= self.side:
            raise ValueError(
                f"coordinate out of range [0, {self.side}) "
                f"for {self.bits}-bit curve"
            )
        columns = [grid[:, i].astype(np.uint64) for i in range(self.ndims)]
        return self._interleave(self._to_transpose(columns))

    def decode_many(self, keys: Sequence[int]) -> np.ndarray:
        """``[decode(k) for k in keys]`` for Python-int keys, as an
        ``(n, ndims)`` int64 array."""
        self._check_width()
        if len(keys) and (min(keys) < 0 or max(keys) >= self.max_value):
            bad = next(k for k in keys if not 0 <= k < self.max_value)
            self._check_value(bad)
        columns = self._from_transpose(self._deinterleave(keys))
        return np.stack(columns, axis=1).astype(np.int64)

    def _to_transpose(self, columns: list[np.ndarray]) -> list[np.ndarray]:
        """The columns whose bits a key interleaves: the cells themselves,
        unless the curve transforms them first (in place)."""
        return columns

    def _from_transpose(self, columns: list[np.ndarray]) -> list[np.ndarray]:
        """The inverse of :meth:`_to_transpose` (in place)."""
        return columns

    def _interleave(self, columns: list[np.ndarray]) -> list[int]:
        """Keys whose bits, most significant first, are bit ``bits - 1`` of
        every column in column order, then bit ``bits - 2``, and so on."""
        n, bits, rows = self.ndims, self.bits, len(columns[0])
        width = 64 * -(-n * bits // 64)
        big_endian = np.stack(columns, axis=1).astype(">u8")
        planes = np.unpackbits(big_endian.view(np.uint8).reshape(rows, n, 8), axis=2)
        stream = np.zeros((rows, width), dtype=np.uint8)
        stream[:, width - n * bits :] = (
            planes[:, :, 64 - bits :].transpose(0, 2, 1).reshape(rows, n * bits)
        )
        limbs = np.packbits(stream, axis=1).view(">u8")
        keys = limbs[:, 0].tolist()
        for w in range(1, width // 64):
            keys = [(key << 64) | low for key, low in zip(keys, limbs[:, w].tolist())]
        return keys

    def _deinterleave(self, keys: Sequence[int]) -> list[np.ndarray]:
        """The columns :meth:`_interleave` made ``keys`` from."""
        n, bits, rows = self.ndims, self.bits, len(keys)
        width = 64 * -(-n * bits // 64)
        raw = b"".join(key.to_bytes(width // 8, "big") for key in keys)
        stream = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(rows, width // 8), axis=1
        )
        planes = np.zeros((rows, n, 64), dtype=np.uint8)
        planes[:, :, 64 - bits :] = (
            stream[:, width - n * bits :].reshape(rows, bits, n).transpose(0, 2, 1)
        )
        packed = np.packbits(planes, axis=2).reshape(rows, 8 * n).view(">u8")
        return [packed[:, i].astype(np.uint64) for i in range(n)]

    def _check_width(self) -> None:
        if self.bits > 63:
            raise ValueError(
                f"{self.bits}-bit coordinates do not fit the int64 arrays of "
                "encode_many / decode_many"
            )

    def _check_coords(self, coords: Sequence[int]) -> None:
        if len(coords) != self.ndims:
            raise ValueError(
                f"expected {self.ndims} coordinates, got {len(coords)}"
            )
        side = self.side
        for c in coords:
            if not 0 <= c < side:
                raise ValueError(
                    f"coordinate {c} out of range [0, {side}) "
                    f"for {self.bits}-bit curve"
                )

    def _check_value(self, value: int) -> None:
        if not 0 <= value < self.max_value:
            raise ValueError(
                f"curve value {value} out of range [0, {self.max_value})"
            )
