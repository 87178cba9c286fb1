"""Versioned length-prefixed JSON wire protocol.

Frame layout (everything after the prefix is UTF-8 JSON)::

    +----------------+----------------------------------+
    | 4 bytes, !I    | payload: one JSON object          |
    | payload length | {"v": 1, "id": 7, "op": ...}      |
    +----------------+----------------------------------+

The length prefix is unsigned big-endian and must be in
``(0, max_frame]``; anything else is a :class:`ProtocolError` and the
connection is torn down — a corrupt prefix must never cause a multi-GB
allocation or an unbounded read.

Requests carry ``v`` (protocol version), ``id`` (echoed back so a client
can pipeline), ``op``, an op-specific ``args`` object, and optional
limits (``deadline_ms``, ``max_compdists``, ``max_pa``).  Responses echo
``v``/``id`` and carry either ``result`` or ``error`` (with a structured
``code`` from :data:`ERROR_CODES`).

The payload codec is deliberately lossless for the degradation metadata:
:func:`reason_to_json` / :func:`reason_from_json` round-trip
:class:`~repro.service.ExhaustionReason` *and* its sharded subclass
:class:`~repro.cluster.ShardExhaustion` (including the replication
``kind="quorum"`` case naming the shard), so a degraded answer read off
the wire states exactly why and where it degraded.  Dataset objects
round-trip through :func:`obj_to_json` / :func:`obj_from_json`: strings
and numbers as themselves, vectors as lists (restored to tuples), bytes
and sets behind explicit tags.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any, Optional

PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's JSON payload (1 MiB).  Large enough for a
#: several-thousand-hit range answer, small enough that a corrupt or
#: hostile length prefix cannot balloon server memory.
MAX_FRAME = 1 << 20

_PREFIX = struct.Struct("!I")
PREFIX_SIZE = _PREFIX.size

#: Operations the server accepts, and the subset that mutates the index
#: (mutations are never retried by the client — not idempotent).
OPS = ("range", "knn", "count", "insert", "delete", "metrics", "health")
MUTATION_OPS = ("insert", "delete")

#: Structured error codes a response may carry.
#:
#: * ``RETRY_LATER``    — admission queue full; carries ``queue_depth``
#:   and ``retry_after_ms`` backpressure hints.
#: * ``BAD_REQUEST``    — malformed op/args; do not retry.
#: * ``SHUTTING_DOWN``  — server is draining; reconnect elsewhere/later.
#: * ``ENGINE_STOPPED`` — the engine stopped under the request.
#: * ``PRIMARY_DOWN``   — a replicated shard has no writable primary.
#: * ``UNSUPPORTED``    — op not available on the served index.
#: * ``INTERNAL``       — anything else; the message names the exception.
ERROR_CODES = (
    "RETRY_LATER",
    "BAD_REQUEST",
    "SHUTTING_DOWN",
    "ENGINE_STOPPED",
    "PRIMARY_DOWN",
    "UNSUPPORTED",
    "INTERNAL",
)


class ProtocolError(ValueError):
    """The peer violated the framing or message schema."""


# ------------------------------------------------------------------ framing


def encode_frame(message: dict, max_frame: int = MAX_FRAME) -> bytes:
    """Serialize one message to ``prefix + JSON`` bytes."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > max_frame:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte limit"
        )
    return _PREFIX.pack(len(payload)) + payload


def decode_frame(data: bytes, max_frame: int = MAX_FRAME) -> tuple[dict, int]:
    """Decode one frame from the head of ``data``.

    Returns ``(message, bytes_consumed)``; raises :class:`ProtocolError`
    on a bad prefix or payload, ``IndexError``-free short reads are the
    caller's job (use :func:`frame_size` to know how much to read).
    """
    if len(data) < PREFIX_SIZE:
        raise ProtocolError("short frame: missing length prefix")
    (length,) = _PREFIX.unpack_from(data)
    check_frame_length(length, max_frame)
    if len(data) < PREFIX_SIZE + length:
        raise ProtocolError(
            f"short frame: prefix promises {length} bytes, "
            f"{len(data) - PREFIX_SIZE} present"
        )
    payload = data[PREFIX_SIZE : PREFIX_SIZE + length]
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return message, PREFIX_SIZE + length


def check_frame_length(length: int, max_frame: int = MAX_FRAME) -> None:
    """Validate a decoded length prefix before allocating for it."""
    if length == 0:
        raise ProtocolError("frame length prefix is zero")
    if length > max_frame:
        raise ProtocolError(
            f"frame length prefix {length} exceeds the {max_frame}-byte "
            f"limit (corrupt prefix or hostile peer)"
        )


# ------------------------------------------------------------ object codec


def obj_to_json(obj: Any) -> Any:
    """Encode one dataset object for the wire (lossless, tagged).

    Vectors — tuples, lists, and numpy arrays alike — become JSON lists
    and come back as tuples of floats; every metric in the library takes
    any real sequence, so a vector that crossed the wire queries the same
    as the ndarray the dataset loaded."""
    if obj is None or isinstance(obj, bool):
        return obj
    if isinstance(obj, str):
        return obj
    # numpy scalars (e.g. float64 from an ndarray element) duck-type as
    # Python numbers via item(); plain int/float pass through.
    if isinstance(obj, (int, float)):
        return obj
    if hasattr(obj, "item") and hasattr(obj, "dtype") and not hasattr(obj, "__len__"):
        return obj.item()
    if isinstance(obj, bytes):
        return {"__bytes__": base64.b64encode(obj).decode("ascii")}
    if isinstance(obj, (frozenset, set)):
        return {"__set__": sorted(obj_to_json(x) for x in obj)}
    if isinstance(obj, (tuple, list)):
        return [obj_to_json(x) for x in obj]
    if hasattr(obj, "tolist") and hasattr(obj, "dtype"):  # numpy ndarray
        return obj_to_json(obj.tolist())
    raise ProtocolError(
        f"object of type {type(obj).__name__} has no wire encoding"
    )


def obj_from_json(data: Any) -> Any:
    """Invert :func:`obj_to_json` (lists come back as tuples — the
    vector datasets store tuples, and tuples hash)."""
    if isinstance(data, dict):
        if "__bytes__" in data:
            return base64.b64decode(data["__bytes__"])
        if "__set__" in data:
            return frozenset(obj_from_json(x) for x in data["__set__"])
        raise ProtocolError(f"unknown object tag in {sorted(data)!r}")
    if isinstance(data, list):
        return tuple(obj_from_json(x) for x in data)
    return data


# ------------------------------------------------------------ reason codec


def reason_to_json(reason: Any) -> Optional[dict]:
    """Encode an :class:`ExhaustionReason` (or ``None``) losslessly."""
    if reason is None:
        return None
    out: dict[str, Any] = {
        "kind": reason.kind,
        "limit": reason.limit,
        "spent": reason.spent,
    }
    shard = getattr(reason, "shard", None)
    if shard is not None:
        out["shard"] = shard
    return out


def reason_from_json(data: Optional[dict]) -> Any:
    """Invert :func:`reason_to_json`; a ``shard`` key yields the sharded
    subclass so ``str()`` keeps naming the shard (quorum included)."""
    if data is None:
        return None
    try:
        kind = data["kind"]
        limit = data["limit"]
        spent = data["spent"]
    except (TypeError, KeyError) as exc:
        raise ProtocolError(f"malformed exhaustion reason: {data!r}") from exc
    from repro.service.context import ExhaustionReason, ShardExhaustion

    if "shard" in data:
        return ShardExhaustion(
            kind=kind, limit=limit, spent=spent, shard=data["shard"]
        )
    return ExhaustionReason(kind=kind, limit=limit, spent=spent)


# ------------------------------------------------------------ result codec


def result_to_json(op: str, result: Any) -> Any:
    """Encode an engine result for ``op`` (mutations return plain bools)."""
    if op in MUTATION_OPS:
        return bool(result)
    payload: dict[str, Any] = {
        "complete": bool(getattr(result, "complete", True)),
        "reason": reason_to_json(getattr(result, "reason", None)),
        "count": getattr(result, "count", None),
    }
    frontier = getattr(result, "frontier", None)
    if frontier is not None:
        payload["frontier"] = frontier
    if op == "knn":
        payload["items"] = [
            [d, obj_to_json(obj)] for d, obj in getattr(result, "items", [])
        ]
    elif op == "range":
        payload["items"] = [
            obj_to_json(obj) for obj in getattr(result, "items", [])
        ]
    else:  # count
        payload["items"] = []
    visited = getattr(result, "shards_visited", None)
    if visited is not None:
        payload["shards_visited"] = visited
        payload["shards_pruned"] = getattr(result, "shards_pruned", 0)
    return payload


def result_from_json(op: str, data: Any) -> Any:
    """Decode a response payload back into a
    :class:`~repro.service.QueryResult` (or a bool for mutations)."""
    if op in MUTATION_OPS:
        return bool(data)
    from repro.service.context import QueryResult

    if not isinstance(data, dict):
        raise ProtocolError(f"malformed {op} result: {data!r}")
    if op == "knn":
        items = [(d, obj_from_json(o)) for d, o in data.get("items", [])]
    elif op == "range":
        items = [obj_from_json(o) for o in data.get("items", [])]
    else:
        items = []
    return QueryResult(
        items,
        complete=data.get("complete", True),
        reason=reason_from_json(data.get("reason")),
        count=data.get("count"),
        frontier=data.get("frontier"),
    )


# ----------------------------------------------------------- message shape


def make_request(
    request_id: int,
    op: str,
    args: dict,
    deadline_ms: Optional[float] = None,
    max_compdists: Optional[int] = None,
    max_pa: Optional[int] = None,
    trace_id: Optional[str] = None,
) -> dict:
    message: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "op": op,
        "args": args,
    }
    if deadline_ms is not None:
        message["deadline_ms"] = deadline_ms
    if max_compdists is not None:
        message["max_compdists"] = max_compdists
    if max_pa is not None:
        message["max_pa"] = max_pa
    if trace_id is not None:
        # Backward-compatible: validate_request ignores unknown keys, so
        # an old server just drops the correlation id.
        message["trace_id"] = trace_id
    return message


def make_response(request_id: Optional[int], result: Any) -> dict:
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True, "result": result}


def make_error(
    request_id: Optional[int],
    code: str,
    message: str,
    **extra: Any,
) -> dict:
    assert code in ERROR_CODES, code
    error: dict[str, Any] = {"code": code, "message": message}
    error.update({k: v for k, v in extra.items() if v is not None})
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False, "error": error}


def validate_request(message: dict) -> None:
    """Schema-check one decoded request; :class:`ProtocolError` on failure."""
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})"
        )
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    if not isinstance(message.get("args", {}), dict):
        raise ProtocolError("request args must be a JSON object")
    deadline = message.get("deadline_ms")
    if deadline is not None and (
        not isinstance(deadline, (int, float)) or deadline <= 0
    ):
        raise ProtocolError(f"deadline_ms must be a positive number, got {deadline!r}")
