"""Object serializers for the random access file.

The SPB-tree "makes use of a separate random access file to support a broad
range of data" (§1): the index never interprets the stored objects, it only
needs them as bytes of a known length.  A :class:`Serializer` provides that
bytes round trip per data type; :func:`serializer_for` picks the right one
for a dataset's objects automatically.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence

import numpy as np


class Serializer(ABC):
    """Converts objects of one data type to/from bytes."""

    name: str = "serializer"
    #: The numpy dtype of a record whose payload is an array of it; None
    #: when the objects are not arrays.
    dtype: Optional[type] = None

    @abstractmethod
    def serialize(self, obj: Any) -> bytes:
        """Encode ``obj`` as bytes."""

    @abstractmethod
    def deserialize(self, data: bytes) -> Any:
        """Decode bytes produced by :meth:`serialize`."""

    def deserialize_many(self, payloads: Sequence[bytes]) -> Sequence[Any]:
        """Decode a batch; element ``i`` equals ``deserialize(payloads[i])``."""
        return [self.deserialize(data) for data in payloads]


class StringSerializer(Serializer):
    """UTF-8 strings (words, DNA sequences)."""

    name = "string"

    def serialize(self, obj: str) -> bytes:
        return obj.encode("utf-8")

    def deserialize(self, data: bytes) -> str:
        return data.decode("utf-8")

    def deserialize_many(self, payloads: Sequence[bytes]) -> Sequence[str]:
        """One C-level ``bytes.decode`` (UTF-8, strict) over the batch, no
        method call per record; the RAF hands over its payloads as
        ``bytes``."""
        return list(map(bytes.decode, payloads))


class VectorSerializer(Serializer):
    """Fixed-precision float64 vectors (color histograms, synthetic data)."""

    name = "vector-f64"
    dtype = np.float64

    def serialize(self, obj: Any) -> bytes:
        return np.asarray(obj, dtype=self.dtype).tobytes()

    def deserialize(self, data: bytes) -> np.ndarray:
        return np.frombuffer(data, dtype=self.dtype).copy()

    def deserialize_many(self, payloads: Sequence[bytes]) -> Sequence[np.ndarray]:
        """Equal-length payloads become the rows of one writable ``(m, dim)``
        array built by one ``np.frombuffer`` — each row equal in value, dtype
        and writability to what :meth:`deserialize` returns, but a view: a
        row that is kept keeps the whole batch's array alive (for a query,
        one leaf's records — about a page group).  Ragged payloads take the
        loop."""
        if len(set(map(len, payloads))) != 1 or not payloads[0]:
            return super().deserialize_many(payloads)
        flat = np.frombuffer(b"".join(payloads), dtype=self.dtype)
        return flat.reshape(len(payloads), -1).copy()


class UInt8VectorSerializer(VectorSerializer):
    """Small-integer vectors (bit signatures); one byte per dimension."""

    name = "vector-u8"
    dtype = np.uint8


class BytesSerializer(Serializer):
    """Raw bytes pass-through."""

    name = "bytes"

    def serialize(self, obj: bytes) -> bytes:
        return bytes(obj)

    def deserialize(self, data: bytes) -> bytes:
        return data


class PickleSerializer(Serializer):
    """Fallback for arbitrary Python objects (used by tests, not benchmarks)."""

    name = "pickle"

    def serialize(self, obj: Any) -> bytes:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    def deserialize(self, data: bytes) -> Any:
        return pickle.loads(data)


def serializer_for(example: Any) -> Serializer:
    """Choose a serializer matching the type of ``example``."""
    if isinstance(example, str):
        return StringSerializer()
    if isinstance(example, bytes):
        return BytesSerializer()
    if isinstance(example, np.ndarray):
        if example.dtype == np.uint8:
            return UInt8VectorSerializer()
        return VectorSerializer()
    if isinstance(example, (list, tuple)) and example and isinstance(
        example[0], (int, float, np.integer, np.floating)
    ):
        return VectorSerializer()
    return PickleSerializer()
