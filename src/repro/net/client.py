"""Blocking wire client with deadline-aware retries.

:class:`NetClient` speaks the :mod:`repro.net.protocol` frame format over
one TCP connection (re-dialled transparently after a failure) and decodes
responses back into :class:`~repro.service.QueryResult` objects, so a
caller sees the same honest ``complete``/``reason`` contract the
in-process API gives.

Retry discipline (the part that keeps retries *safe*):

* Only **idempotent reads** (``range``/``knn``/``count``/``metrics``/
  ``health``) are ever retried.  A mutation is sent exactly once — a
  connection that dies after the request is written leaves the server
  free to have applied it, and a blind resend could double-insert; the
  caller gets the error and the cluster's WAL the truth.
* ``RETRY_LATER`` responses (admission backpressure) are honoured by
  sleeping the **server's** ``retry_after_ms`` hint when present,
  otherwise the local schedule.
* The local schedule reuses the :func:`repro.storage.faults.retry_io`
  semantics: exponential doubling from ``base_delay`` capped at
  ``max_delay``, with seeded shorten-only jitter
  (``delay * (1 - jitter * rng.random())``) so a herd of clients
  desynchronizes deterministically.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.net import protocol
from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.obs.ids import new_trace_id
from repro.obs.trace import QueryTrace

#: Slack (ms) added to a request's deadline for its socket timeout.
DEADLINE_GRACE_MS = 500.0


class NetError(ConnectionError):
    """Base class for client-side wire failures."""


class RemoteError(NetError):
    """The server answered with a structured error frame."""

    def __init__(self, code: str, message: str, details: Optional[dict] = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.details = details or {}


class RetryLater(RemoteError):
    """Admission backpressure (``RETRY_LATER``) that outlived the retry
    budget (or hit a non-retryable mutation); carries the server's hints."""

    @property
    def queue_depth(self) -> Optional[int]:
        return self.details.get("queue_depth")

    @property
    def retry_after_ms(self) -> Optional[float]:
        return self.details.get("retry_after_ms")


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded jittered exponential backoff (``retry_io`` schedule)."""

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delays(self) -> "list[float]":
        """The full backoff schedule (one pause per retry)."""
        rng = random.Random(self.seed) if self.jitter else None
        delays = []
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            pause = min(delay, self.max_delay)
            if rng is not None:
                pause *= 1.0 - self.jitter * rng.random()
            delays.append(pause)
            delay *= 2
        return delays


class NetClient:
    """A synchronous client for one server address.

    ``deadline_ms`` (per call or the constructor default) is the *total*
    time the caller will wait for that request; it is sent to the server,
    which answers — possibly degraded — before it expires.  The socket
    timeout is derived from it (deadline plus a small grace), so a dead
    server surfaces as :class:`NetError` rather than a hang.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        deadline_ms: Optional[float] = None,
        connect_timeout: float = 5.0,
        op_timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        max_frame: int = protocol.MAX_FRAME,
        trace: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.default_deadline_ms = deadline_ms
        self.connect_timeout = connect_timeout
        #: Wait bound for ops without a deadline (seconds).
        self.op_timeout = op_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_frame = max_frame
        #: When True, mint one trace id per *logical* call (shared by all
        #: its retry attempts) and stitch the server's span tree from the
        #: reply into :attr:`last_trace`.
        self.trace = trace
        self._sock: Optional[socket.socket] = None
        self._request_id = 0
        #: Retry attempts actually performed (observability / tests).
        self.retries = 0
        #: The server-side identity of the last query answered (the
        #: correlation key into its slow log / flight dumps), and the
        #: stitched span tree when the server returned one.  A retried
        #: call's fields describe only the attempt that succeeded.
        self.last_request_id: Optional[str] = None
        self.last_trace: Optional[QueryTrace] = None

    # ------------------------------------------------------------ transport

    def connect(self) -> "NetClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "NetClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _drop_connection(self) -> None:
        self.close()

    def _recv_exactly(self, sock: socket.socket, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                raise NetError("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _roundtrip(self, message: dict, timeout_s: float) -> dict:
        """One request/response exchange on the live connection."""
        try:
            self.connect()
        except OSError as exc:
            # Refused/unreachable is retryable for reads (a server
            # restarting behind us); surface it as a NetError.
            self._drop_connection()
            raise NetError(f"connect failed: {exc}") from exc
        sock = self._sock
        assert sock is not None
        sock.settimeout(timeout_s)
        try:
            sock.sendall(protocol.encode_frame(message, self.max_frame))
            prefix = self._recv_exactly(sock, protocol.PREFIX_SIZE)
            (length,) = protocol._PREFIX.unpack(prefix)
            protocol.check_frame_length(length, self.max_frame)
            payload = self._recv_exactly(sock, length)
        except socket.timeout as exc:
            self._drop_connection()
            raise NetError(
                f"no response within {timeout_s:.3f}s (deadline missed)"
            ) from exc
        except (ConnectionError, OSError) as exc:
            self._drop_connection()
            raise NetError(f"connection failed: {exc}") from exc
        except protocol.ProtocolError:
            self._drop_connection()
            raise
        response, _ = protocol.decode_frame(prefix + payload, self.max_frame)
        return response

    # -------------------------------------------------------------- calling

    def _call(
        self,
        op: str,
        args: dict,
        *,
        deadline_ms: Optional[float] = None,
        max_compdists: Optional[int] = None,
        max_pa: Optional[int] = None,
    ) -> Any:
        deadline_ms = (
            deadline_ms if deadline_ms is not None else self.default_deadline_ms
        )
        timeout_s = (
            (deadline_ms + DEADLINE_GRACE_MS) / 1000.0
            if deadline_ms is not None
            else self.op_timeout
        )
        idempotent = op not in protocol.MUTATION_OPS
        delays = self.retry.delays() if idempotent else []
        # One trace id per *logical* call: retry attempts reuse it, so
        # every record the request leaves behind — on whichever attempt
        # finally succeeded — shares one correlation key.
        trace_id = (
            new_trace_id()
            if self.trace and op not in ("metrics", "health")
            else None
        )
        attempt = 0
        while True:
            self._request_id += 1
            message = protocol.make_request(
                self._request_id, op, args,
                deadline_ms=deadline_ms,
                max_compdists=max_compdists,
                max_pa=max_pa,
                trace_id=trace_id,
            )
            try:
                response = self._roundtrip(message, timeout_s)
            except (NetError, protocol.ProtocolError) as exc:
                if isinstance(exc, RemoteError):
                    raise
                if attempt < len(delays):
                    self._sleep_backoff(delays[attempt], None)
                    attempt += 1
                    continue
                raise
            if response.get("ok"):
                if op in ("metrics", "health"):
                    return response.get("result")
                payload = response.get("result")
                result = protocol.result_from_json(op, payload)
                self._harvest_riders(payload)
                return result
            error = response.get("error") or {}
            code = error.get("code", "INTERNAL")
            if code == "RETRY_LATER":
                # Backpressure: only reads may try again, and the server's
                # hint outranks the local schedule.
                if idempotent and attempt < len(delays):
                    self._sleep_backoff(
                        delays[attempt], error.get("retry_after_ms")
                    )
                    attempt += 1
                    continue
                raise RetryLater(code, error.get("message", ""), error)
            raise RemoteError(code, error.get("message", ""), error)

    def _harvest_riders(self, payload: Any) -> None:
        """Record the reply's correlation riders (absent on old servers
        and on mutations, whose payload is a plain bool)."""
        self.last_request_id = None
        self.last_trace = None
        if not isinstance(payload, dict):
            return
        rid = payload.get("request_id")
        if isinstance(rid, str):
            self.last_request_id = rid
        trace_data = payload.get("trace")
        if isinstance(trace_data, dict):
            try:
                self.last_trace = QueryTrace.from_dict(trace_data)
            except (TypeError, ValueError):
                self.last_trace = None  # malformed rider: not worth a raise

    def _sleep_backoff(
        self, local_delay: float, server_hint_ms: Optional[float]
    ) -> None:
        self.retries += 1
        if _obsreg.ENABLED:
            _instruments.net().client_retries.inc()
        pause = local_delay
        if server_hint_ms is not None:
            pause = max(local_delay, server_hint_ms / 1000.0)
        time.sleep(pause)

    # ------------------------------------------------------------------ ops

    def range_query(
        self, query: Any, radius: float, **limits: Any
    ) -> Any:
        return self._call(
            "range",
            {"query": protocol.obj_to_json(query), "radius": radius},
            **limits,
        )

    def knn_query(self, query: Any, k: int, **limits: Any) -> Any:
        return self._call(
            "knn", {"query": protocol.obj_to_json(query), "k": k}, **limits
        )

    def range_count(self, query: Any, radius: float, **limits: Any) -> Any:
        return self._call(
            "count",
            {"query": protocol.obj_to_json(query), "radius": radius},
            **limits,
        )

    def insert(self, obj: Any, **limits: Any) -> bool:
        return self._call(
            "insert", {"object": protocol.obj_to_json(obj)}, **limits
        )

    def delete(self, obj: Any, **limits: Any) -> bool:
        return self._call(
            "delete", {"object": protocol.obj_to_json(obj)}, **limits
        )

    def metrics(self) -> str:
        result = self._call("metrics", {})
        return result["exposition"]

    def health(self) -> dict:
        return self._call("health", {})
