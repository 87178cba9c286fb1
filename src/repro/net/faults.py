"""Wire-level fault injection: a frame-aware chaos proxy.

:class:`FaultyTransport` sits between a client and a :class:`NetServer`,
forwarding length-prefixed frames while injecting the failure modes real
networks produce:

* **delay** — hold a frame for ``delay_s`` before forwarding (latency
  spikes, head-of-line blocking);
* **drop** — swallow a frame whole; the connection stays up and the peer
  waits on a response that never comes (a lost packet past the retry
  horizon, a silently wedged middlebox);
* **truncate** — forward the length prefix and only part of the payload,
  then kill the connection (a peer dying mid-write; the receiver must
  treat the half frame as garbage, never as a short answer);
* **corrupt** — rewrite the length prefix to a huge lie before the
  payload (bit rot / hostile peer; the receiver's max-frame guard must
  refuse to allocate for it);
* **reset** — close both sockets immediately (RST mid-conversation).

Faults fire from a seeded RNG per direction (``client->server`` and
``server->client`` schedules are independent), so a chaos run is exactly
reproducible; tests can also force the next fault deterministically with
:meth:`FaultyTransport.force`.

The proxy is thread-based (an accept loop plus two pump threads per
connection) so synchronous tests can drive it without an event loop.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
from dataclasses import dataclass
from typing import Optional

_PREFIX = struct.Struct("!I")

#: Fault kinds the proxy can inject, in roll order.
FAULT_KINDS = ("delay", "drop", "truncate", "corrupt", "reset")


@dataclass
class FaultPlan:
    """Per-direction fault probabilities (rolled once per frame)."""

    delay_rate: float = 0.0
    delay_s: float = 0.05
    drop_rate: float = 0.0
    truncate_rate: float = 0.0
    corrupt_rate: float = 0.0
    reset_rate: float = 0.0

    def __post_init__(self) -> None:
        total = (
            self.delay_rate + self.drop_rate + self.truncate_rate
            + self.corrupt_rate + self.reset_rate
        )
        if total > 1.0:
            raise ValueError("fault rates must sum to <= 1.0")

    def roll(self, rng: random.Random) -> Optional[str]:
        """One seeded draw: the fault to inject on this frame, or None."""
        x = rng.random()
        for kind, rate in (
            ("delay", self.delay_rate),
            ("drop", self.drop_rate),
            ("truncate", self.truncate_rate),
            ("corrupt", self.corrupt_rate),
            ("reset", self.reset_rate),
        ):
            if x < rate:
                return kind
            x -= rate
        return None


class _Conn:
    """One proxied connection: two frame pumps sharing a kill switch."""

    def __init__(
        self, proxy: "FaultyTransport", client: socket.socket,
        upstream: socket.socket,
    ) -> None:
        self.proxy = proxy
        self.client = client
        self.upstream = upstream
        self._dead = threading.Event()
        self.threads = [
            threading.Thread(
                target=self._pump, args=(client, upstream, "c2s"),
                daemon=True, name="faulty-c2s",
            ),
            threading.Thread(
                target=self._pump, args=(upstream, client, "s2c"),
                daemon=True, name="faulty-s2c",
            ),
        ]
        for t in self.threads:
            t.start()

    def kill(self) -> None:
        self._dead.set()
        for sock in (self.client, self.upstream):
            try:
                sock.close()
            except OSError:
                pass

    def _recv_exactly(self, sock: socket.socket, n: int) -> Optional[bytes]:
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = sock.recv(remaining)
            except OSError:
                return None
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _pump(self, src: socket.socket, dst: socket.socket, direction: str) -> None:
        try:
            while not self._dead.is_set():
                prefix = self._recv_exactly(src, _PREFIX.size)
                if prefix is None:
                    break
                (length,) = _PREFIX.unpack(prefix)
                # Oversized claims pass through untouched — refusing them is
                # the *endpoint's* job; the proxy forwards what the wire had.
                payload = self._recv_exactly(src, length)
                if payload is None:
                    break
                fault = self.proxy._next_fault(direction)
                with self.proxy._lock:
                    self.proxy.frames_forwarded += 1
                    if fault is not None:
                        self.proxy.injected[fault] += 1
                try:
                    if fault == "delay":
                        self._dead.wait(self.proxy.plan_for(direction).delay_s)
                        dst.sendall(prefix + payload)
                    elif fault == "drop":
                        pass  # the frame simply never happened
                    elif fault == "truncate":
                        dst.sendall(prefix + payload[: max(1, length // 2)])
                        break  # die mid-frame
                    elif fault == "corrupt":
                        dst.sendall(_PREFIX.pack(0xFFFFFFF0) + payload)
                        break  # a liar's prefix, then silence
                    elif fault == "reset":
                        break
                    else:
                        dst.sendall(prefix + payload)
                except OSError:
                    break
        finally:
            self.kill()


class FaultyTransport:
    """A chaos TCP proxy in front of ``(upstream_host, upstream_port)``.

    ``plan_c2s`` faults requests, ``plan_s2c`` faults responses; both
    default to pass-through.  Use as a context manager::

        with FaultyTransport(host, port, seed=7,
                             plan_s2c=FaultPlan(reset_rate=0.1)) as proxy:
            client = NetClient("127.0.0.1", proxy.port)
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        seed: int = 0,
        plan_c2s: Optional[FaultPlan] = None,
        plan_s2c: Optional[FaultPlan] = None,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan_c2s = plan_c2s if plan_c2s is not None else FaultPlan()
        self.plan_s2c = plan_s2c if plan_s2c is not None else FaultPlan()
        self._rng_c2s = random.Random(seed)
        self._rng_s2c = random.Random(seed + 1)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((listen_host, listen_port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        self._conns: list[_Conn] = []
        self._forced: list[tuple[str, str]] = []  # (direction, kind)
        self._lock = threading.Lock()
        self._closing = False
        self.frames_forwarded = 0
        self.injected = {kind: 0 for kind in FAULT_KINDS}
        self.connections = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="faulty-accept"
        )
        self._accept_thread.start()

    # ------------------------------------------------------------- control

    def force(self, kind: str, direction: str = "s2c") -> None:
        """Queue one deterministic fault for the next frame in
        ``direction`` (overrides the seeded roll)."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault {kind!r}; expected {FAULT_KINDS}")
        if direction not in ("c2s", "s2c"):
            raise ValueError("direction must be 'c2s' or 's2c'")
        with self._lock:
            self._forced.append((direction, kind))

    def plan_for(self, direction: str) -> FaultPlan:
        return self.plan_c2s if direction == "c2s" else self.plan_s2c

    def _next_fault(self, direction: str) -> Optional[str]:
        with self._lock:
            for i, (d, kind) in enumerate(self._forced):
                if d == direction:
                    del self._forced[i]
                    return kind
        rng = self._rng_c2s if direction == "c2s" else self._rng_s2c
        with self._lock:
            return self.plan_for(direction).roll(rng)

    def kill_all_connections(self) -> int:
        """Hard-reset every live proxied connection (chaos lever)."""
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.kill()
        return len(conns)

    # ----------------------------------------------------------------- run

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                client, _ = self._listener.accept()
            except OSError:
                break
            try:
                upstream = socket.create_connection(
                    (self.upstream_host, self.upstream_port), timeout=5.0
                )
            except OSError:
                client.close()
                continue
            for sock in (client, upstream):
                try:
                    sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                except OSError:
                    pass
            conn = _Conn(self, client, upstream)
            with self._lock:
                self.connections += 1
                self._conns.append(conn)
                # Opportunistic sweep of finished connections.
                self._conns = [
                    c for c in self._conns
                    if any(t.is_alive() for t in c.threads)
                ]

    def close(self) -> None:
        self._closing = True
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux; shutting it down does.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self.kill_all_connections()
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "FaultyTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
