"""Asyncio TCP front end mapping wire requests onto the QueryEngine.

Robustness contract, end to end:

* **Deadline propagation** — a client sends the deadline *it* will give
  up at (``deadline_ms``).  The server arms the engine's
  :class:`~repro.service.QueryContext` with that budget minus a measured
  **network allowance** (an EWMA of recent serialize-and-flush costs,
  floored at :data:`ALLOWANCE_FLOOR_MS`), so the degraded-but-honest
  response is on the wire *before* the client's timer fires.  A request
  whose remaining budget is already inside the allowance is answered
  immediately with an empty ``complete=False`` result — still honest,
  still on time.
* **Backpressure** — :class:`~repro.service.Overloaded` admission
  rejections become structured ``RETRY_LATER`` errors carrying the
  engine's ``queue_depth`` and ``retry_after_ms`` hint; the server never
  queues on behalf of a full engine.
* **Hostile wire input** — half-written frames, corrupt length prefixes,
  and oversized frames are :class:`ProtocolError`\\ s that close only the
  offending connection; slow-loris clients are bounded by a
  per-connection ``read_timeout`` (time allowed to deliver one complete
  frame) and :data:`WRITE_TIMEOUT_S` (time allowed to accept one
  response).
* **Graceful drain** — :meth:`NetServer.drain` stops accepting, lets
  in-flight requests finish inside the drain deadline, then trips their
  cancellation tokens so they return honest ``complete=False`` partials,
  and finally closes every connection.  The CLI wires SIGTERM/SIGINT to
  it.

The engine is thread-based; the server bridges with
``run_in_executor`` so one slow query never blocks the event loop.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Optional

from repro.net import protocol
from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.obs.ids import clean_trace_id
from repro.service import (
    EngineStopped,
    ExhaustionReason,
    Overloaded,
    QueryEngine,
    QueryResult,
)

#: Seconds a connection gets to accept one response.
WRITE_TIMEOUT_S = 10.0
#: Floor (ms) of the network allowance subtracted from client deadlines.
ALLOWANCE_FLOOR_MS = 5.0
#: Seconds a request without a deadline may wait on the engine.
DEFAULT_OP_TIMEOUT_S = 60.0


class NetServer:
    """One TCP listener serving a :class:`~repro.service.QueryEngine`.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  The server does not own the engine — callers start
    and stop it — but it does refuse new work once draining.
    """

    def __init__(
        self,
        engine: QueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame: int = protocol.MAX_FRAME,
        read_timeout: float = 30.0,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.read_timeout = read_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        #: Reply-cost EWMA (ms): measured serialize+flush time, feeding the
        #: deadline allowance so it tracks the deployment's real wire cost.
        self._reply_cost_ms = 0.0
        self._conn_tasks: set[asyncio.Task] = set()
        self._inflight: set[Any] = set()
        self._idle = asyncio.Event()
        self._idle.set()
        #: Tallies (read by health/tests; single event loop, no lock).
        self.connections = 0
        self.requests = 0
        self.rejected = 0
        self.drained_partial = 0
        self.protocol_errors = 0

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> "NetServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def drain(self, deadline_s: float = 5.0) -> dict:
        """Stop accepting, finish in-flight within ``deadline_s``, then
        abort the rest with honest partial responses.

        Returns a summary dict (``finished``/``aborted``) so callers can
        report drain behaviour.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        aborted = 0
        try:
            await asyncio.wait_for(self._idle.wait(), deadline_s)
        except asyncio.TimeoutError:
            # Deadline spent: trip every in-flight cancellation token.  The
            # cooperative checkpoints turn each one into a complete=False
            # partial that the normal reply path still writes out.
            for pending in list(self._inflight):
                aborted += 1
                try:
                    pending.cancel()
                except Exception:
                    pass
            try:
                await asyncio.wait_for(self._idle.wait(), deadline_s + 5.0)
            except asyncio.TimeoutError:
                pass
        # Connections are request/response; once in-flight work is gone the
        # remaining tasks are blocked reading the next request — cancel them.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        return {"finished": self.drained_partial, "aborted": aborted}

    @property
    def draining(self) -> bool:
        return self._draining

    # ----------------------------------------------------------- connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.connections += 1
        if _obsreg.ENABLED:
            net = _instruments.net()
            net.connections_total.inc()
            net.connections_open.inc()
        peer = writer.get_extra_info("peername")
        peer_name = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else str(peer)
        try:
            while True:
                try:
                    message = await self._read_request(reader)
                except asyncio.IncompleteReadError:
                    break  # peer closed (possibly mid-frame); nothing to say
                except (asyncio.TimeoutError, ConnectionError, OSError):
                    break  # slow-loris or dead wire: reclaim the connection
                except protocol.ProtocolError as exc:
                    # Framing is unrecoverable after a bad prefix: answer
                    # once (best effort), then hang up.
                    self.protocol_errors += 1
                    await self._send(
                        writer,
                        protocol.make_error(None, "BAD_REQUEST", str(exc)),
                        best_effort=True,
                    )
                    break
                if message is None:
                    break
                done = await self._serve_one(message, writer, peer_name)
                if not done:
                    break
        finally:
            if _obsreg.ENABLED:
                _instruments.net().connections_open.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError here is the drain path cancelling a
                # connection that is already closing — it has nothing
                # left to interrupt.
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[dict]:
        """Read one length-prefixed frame; ``read_timeout`` bounds the
        whole frame, so trickling one byte per second cannot pin a
        connection open indefinitely."""
        deadline = time.monotonic() + self.read_timeout
        prefix = await asyncio.wait_for(
            reader.readexactly(protocol.PREFIX_SIZE), self.read_timeout
        )
        (length,) = protocol._PREFIX.unpack(prefix)
        protocol.check_frame_length(length, self.max_frame)
        remaining = max(0.05, deadline - time.monotonic())
        payload = await asyncio.wait_for(reader.readexactly(length), remaining)
        message, _ = protocol.decode_frame(prefix + payload, self.max_frame)
        if _obsreg.ENABLED:
            net = _instruments.net()
            net.frames.labels(direction="rx").inc()
            net.frame_bytes.labels(direction="rx").inc(
                protocol.PREFIX_SIZE + length
            )
        return message

    async def _send(
        self, writer: asyncio.StreamWriter, message: dict, best_effort: bool = False
    ) -> bool:
        try:
            data = protocol.encode_frame(message, self.max_frame)
        except protocol.ProtocolError:
            if best_effort:
                return False
            # A response too large for one frame: degrade to a structured
            # error rather than killing the connection with silence.
            data = protocol.encode_frame(
                protocol.make_error(
                    message.get("id"),
                    "INTERNAL",
                    "response exceeded the frame limit",
                )
            )
        try:
            writer.write(data)
            await asyncio.wait_for(writer.drain(), WRITE_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            return False
        if _obsreg.ENABLED:
            net = _instruments.net()
            net.frames.labels(direction="tx").inc()
            net.frame_bytes.labels(direction="tx").inc(len(data))
        return True

    # -------------------------------------------------------------- request

    async def _serve_one(
        self, message: dict, writer: asyncio.StreamWriter, peer: str
    ) -> bool:
        """Handle one request; returns False when the connection must die."""
        request_id = message.get("id")
        t0 = time.perf_counter()
        try:
            protocol.validate_request(message)
        except protocol.ProtocolError as exc:
            self.protocol_errors += 1
            self._count_error("BAD_REQUEST")
            return await self._send(
                writer, protocol.make_error(request_id, "BAD_REQUEST", str(exc))
            )
        op = message["op"]
        if self._draining:
            self._count_error("SHUTTING_DOWN")
            await self._send(
                writer,
                protocol.make_error(
                    request_id, "SHUTTING_DOWN", "server is draining"
                ),
            )
            return False
        self.requests += 1
        try:
            response = await self._dispatch(message, op, request_id, peer)
        except Exception as exc:  # noqa: BLE001 — wire boundary
            response = self._error_response(request_id, exc)
        elapsed = time.perf_counter() - t0
        if _obsreg.ENABLED:
            _instruments.net().op_latency.labels(op=op).observe(elapsed)
        send_t0 = time.perf_counter()
        ok = await self._send(writer, response)
        self._note_reply_cost((time.perf_counter() - send_t0) * 1000.0)
        return ok

    async def _dispatch(
        self, message: dict, op: str, request_id: Optional[int], peer: str
    ) -> dict:
        if op == "health":
            return protocol.make_response(request_id, self._health())
        if op == "metrics":
            text = ""
            if _obsreg.ENABLED:
                from repro.obs import render_text

                text = render_text()
            return protocol.make_response(request_id, {"exposition": text})
        args = self._query_args(op, message.get("args", {}))
        # The client's correlation id (sanitised: hostile peers cannot
        # inject arbitrary bytes into logs).  Absent or invalid, the
        # engine mints one itself when tracing is on.
        trace_id = clean_trace_id(message.get("trace_id"))
        deadline_ms = message.get("deadline_ms")
        effective_ms: Optional[float] = None
        if deadline_ms is not None:
            effective_ms = deadline_ms - self.network_allowance_ms()
            if effective_ms <= 0 and op not in protocol.MUTATION_OPS:
                # The whole budget is inside the wire allowance: answer
                # degraded right now, before the client's timer fires.
                if _obsreg.ENABLED:
                    _instruments.net().deadline_pretrips.inc()
                reason = ExhaustionReason(
                    "deadline", deadline_ms / 1000.0, deadline_ms / 1000.0
                )
                empty = QueryResult(
                    [], complete=False, reason=reason, count=0
                )
                payload = protocol.result_to_json(op, empty)
                if trace_id is not None:
                    payload["request_id"] = trace_id
                return protocol.make_response(request_id, payload)
        try:
            pending = self.engine.submit(
                op,
                *args,
                deadline_ms=effective_ms,
                max_compdists=message.get("max_compdists"),
                max_page_accesses=message.get("max_pa"),
                strict=False,
                source=f"net:{peer}",
                request_id=trace_id,
            )
        except Overloaded as exc:
            self.rejected += 1
            if _obsreg.ENABLED:
                net = _instruments.net()
                net.rejected.inc()
                net.errors.labels(code="RETRY_LATER").inc()
            return protocol.make_error(
                request_id,
                "RETRY_LATER",
                str(exc),
                queue_depth=exc.queue_depth,
                retry_after_ms=exc.retry_after_ms,
            )
        # The engine enforces the deadline cooperatively; the executor wait
        # gets the same budget plus slack, so a wedged worker cannot park
        # this handler forever.
        wait_s = (
            effective_ms / 1000.0 + 5.0
            if effective_ms is not None
            else DEFAULT_OP_TIMEOUT_S
        )
        self._inflight.add(pending)
        self._idle.clear()
        try:
            result = await self._await_pending(pending, wait_s)
        finally:
            self._inflight.discard(pending)
            if not self._inflight:
                self._idle.set()
            if self._draining:
                self.drained_partial += 1
                if _obsreg.ENABLED:
                    _instruments.net().drained.inc()
        payload = protocol.result_to_json(op, result)
        if isinstance(payload, dict):
            # Reply riders: the request's server-side identity and its
            # span tree, so the client can stitch a cross-process trace.
            # Old clients decode with .get() and never see these keys.
            ctx = getattr(pending, "context", None)
            if ctx is not None and getattr(ctx, "request_id", None) is not None:
                payload["request_id"] = ctx.request_id
                if ctx.trace is not None:
                    if deadline_ms is not None:
                        # The wire share of the client's deadline, as a
                        # zero-cost span: per-stage timing survives the
                        # network boundary.
                        ctx.trace.span("net-allowance").elapsed += (
                            self.network_allowance_ms() / 1000.0
                        )
                    payload["trace"] = ctx.trace.as_dict()
                    if _obsreg.ENABLED:
                        _instruments.trace().stitched.inc()
        return protocol.make_response(request_id, payload)

    async def _await_pending(self, pending: Any, wait_s: float) -> Any:
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                None, pending.result, wait_s
            )
        except TimeoutError:
            # Budget and slack both gone: abandon cooperatively and give
            # the cancellation a moment to produce the honest partial.
            pending.cancel()
            return await loop.run_in_executor(None, pending.result, 10.0)

    def _query_args(self, op: str, args: dict) -> tuple:
        query = protocol.obj_from_json(args.get("query"))
        obj = protocol.obj_from_json(args.get("object"))
        if op in ("range", "count"):
            radius = args.get("radius")
            if not isinstance(radius, (int, float)):
                raise protocol.ProtocolError(
                    f"{op} needs a numeric radius, got {radius!r}"
                )
            return (query, radius)
        if op == "knn":
            k = args.get("k")
            if not isinstance(k, int) or k < 1:
                raise protocol.ProtocolError(f"knn needs a positive k, got {k!r}")
            return (query, k)
        assert op in protocol.MUTATION_OPS, op
        if obj is None:
            raise protocol.ProtocolError(f"{op} needs an object")
        return (obj,)

    # ---------------------------------------------------------------- misc

    def _health(self) -> dict:
        tree = self.engine.tree
        health = {
            "status": "draining" if self._draining else "ok",
            "queue_depth": self.engine.queue_depth,
            "workers": self.engine.workers,
            "objects": getattr(tree, "object_count", None),
            "shards": getattr(tree, "num_shards", None),
            "served": self.engine.served,
            "rejected": self.engine.rejected,
            "allowance_ms": self.network_allowance_ms(),
        }
        # Per-shard replication status, so a load balancer can act on
        # degradation before queries start coming back partial.
        status_fn = getattr(tree, "replication_status", None)
        if callable(status_fn):
            status = status_fn()
            if status:
                health["replication"] = {
                    str(sid): {
                        "primary": info["primary"],
                        "primary_healthy": info["primary_healthy"],
                        "healthy_members": info["healthy_members"],
                        "members": len(info["members"]),
                        "max_lag_bytes": info["max_lag_bytes"],
                        "degraded": info["degraded"],
                    }
                    for sid, info in status.items()
                }
        supervisor = getattr(tree, "supervisor", None)
        if supervisor is not None:
            health["supervisor"] = supervisor.health_summary()
        return health

    def network_allowance_ms(self) -> float:
        """The slice of a client deadline reserved for the wire: the
        measured reply-cost EWMA, floored at :data:`ALLOWANCE_FLOOR_MS`."""
        return max(ALLOWANCE_FLOOR_MS, 2.0 * self._reply_cost_ms)

    def _note_reply_cost(self, ms: float) -> None:
        self._reply_cost_ms = (
            ms
            if self._reply_cost_ms == 0.0
            else 0.8 * self._reply_cost_ms + 0.2 * ms
        )

    def _count_error(self, code: str) -> None:
        if _obsreg.ENABLED:
            _instruments.net().errors.labels(code=code).inc()

    def _error_response(self, request_id: Optional[int], exc: Exception) -> dict:
        code = "INTERNAL"
        extra: dict[str, Any] = {}
        if isinstance(exc, protocol.ProtocolError):
            code = "BAD_REQUEST"
        elif isinstance(exc, EngineStopped):
            code = "ENGINE_STOPPED"
        elif isinstance(exc, RuntimeError) and "engine is not running" in str(exc):
            code = "ENGINE_STOPPED"
        elif isinstance(exc, ValueError):
            code = "BAD_REQUEST"
        else:
            try:
                from repro.replication import PrimaryDownError

                if isinstance(exc, PrimaryDownError):
                    code = "PRIMARY_DOWN"
            except ImportError:  # pragma: no cover — replication is in-tree
                pass
        self._count_error(code)
        return protocol.make_error(request_id, code, str(exc), **extra)


# ----------------------------------------------------------- thread runner


class ServerHandle:
    """A :class:`NetServer` running on an event loop in a daemon thread.

    Lets synchronous code (the CLI, tests, the bench harness) host the
    asyncio front end: ``handle.port`` to connect, ``handle.stop()`` to
    drain and shut down.
    """

    def __init__(
        self, server: NetServer, loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    def drain(self, deadline_s: float = 5.0) -> dict:
        fut = asyncio.run_coroutine_threadsafe(
            self.server.drain(deadline_s), self.loop
        )
        return fut.result(2.0 * deadline_s + 15.0)

    def stop(self, drain_deadline_s: float = 5.0) -> dict:
        """Drain (graceful), then stop the loop and join the thread."""
        try:
            summary = self.drain(drain_deadline_s)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30.0)
        return summary


def serve_in_thread(
    engine: QueryEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> ServerHandle:
    """Start a :class:`NetServer` on a fresh event loop in a daemon
    thread; returns once the socket is bound and accepting."""
    started = threading.Event()
    box: dict[str, Any] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = NetServer(engine, host, port, **kwargs)
        try:
            loop.run_until_complete(server.start())
        except Exception as exc:  # bind failure: surface to the caller
            box["error"] = exc
            started.set()
            loop.close()
            return
        box["server"] = server
        box["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_default_executor())
                loop.run_until_complete(loop.shutdown_asyncgens())
            except Exception:
                pass
            loop.close()

    thread = threading.Thread(target=run, name="net-server", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("network server failed to start within 30s")
    if "error" in box:
        raise box["error"]
    return ServerHandle(box["server"], box["loop"], thread)
