"""Resilient network front end for the metric-index cluster.

``repro.net`` puts the serving stack behind a real wire:

* :mod:`repro.net.protocol` — a versioned, length-prefixed JSON protocol
  (``range`` / ``knn`` / ``count`` / ``insert`` / ``delete`` / ``metrics``
  / ``health``) with lossless round-trips for the degradation metadata
  (:class:`~repro.service.ExhaustionReason`, including the sharded and
  quorum variants) so a truncated-by-deadline answer carries the same
  honesty guarantees over TCP that it carries in process;
* :mod:`repro.net.server` — an asyncio TCP server mapping each request
  onto the existing :class:`~repro.service.QueryEngine` admission queue:
  client deadlines propagate into :class:`~repro.service.QueryContext`
  minus a measured network allowance, admission rejections become
  structured ``RETRY_LATER`` responses carrying queue depth and a backoff
  hint, slow-loris clients are bounded by per-connection read/write
  timeouts and a max-frame guard, and SIGTERM triggers a graceful drain;
* :mod:`repro.net.client` — a blocking client with seeded jittered
  exponential backoff that retries idempotent reads only (never
  mutations) and honours the server's ``retry_after_ms`` hint;
* :mod:`repro.net.faults` — a wire-level fault-injection proxy (delay,
  drop, truncate-mid-frame, corrupt-length-prefix, reset) for chaos
  testing.

Load on the front end comes from the repo's benchmark (``bench/``, the
``cluster-net`` workload), not from this package.
"""

from repro.net import protocol
from repro.net.client import (
    NetClient,
    NetError,
    RemoteError,
    RetryLater,
    RetryPolicy,
)
from repro.net.faults import FaultPlan, FaultyTransport
from repro.net.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    reason_from_json,
    reason_to_json,
)
from repro.net.server import NetServer, ServerHandle, serve_in_thread

__all__ = [
    "FaultPlan",
    "FaultyTransport",
    "MAX_FRAME",
    "NetClient",
    "NetError",
    "NetServer",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteError",
    "RetryLater",
    "RetryPolicy",
    "ServerHandle",
    "decode_frame",
    "encode_frame",
    "protocol",
    "reason_from_json",
    "reason_to_json",
    "serve_in_thread",
]
