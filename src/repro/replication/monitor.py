"""Replica liveness: a registered member is healthy unless marked down.

Every member is an object in this process, so nothing can go silent and
no clock plays a part.  A member goes down only when something says so:
:meth:`Monitor.mark_down` (the chaos harness, the CLI, a supervisor
quarantine) or a ship to it that failed.  ``mark_up`` lifts the mark.
The read router stops sending a down member traffic and, for a primary,
the shard reports degraded reads until a promotion installs a new one.

A member that was never registered (or was forgotten when its set
closed) is unhealthy: a retired shard's members must not look alive.

Both sets are guarded by one lock: engine worker threads mark a member
down when a ship to it fails while the supervisor thread reads health
on its own tick, and neither set may be observed mid-mutation.
"""

from __future__ import annotations

import threading


class Monitor:
    """Liveness bookkeeping for every replica of every shard."""

    def __init__(self) -> None:
        #: ``(shard_id, replica_id)`` of every tracked member.
        self._registered: set[tuple[int, int]] = set()
        #: Members held down until :meth:`mark_up`.
        self._forced_down: set[tuple[int, int]] = set()
        self._lock = threading.Lock()

    # ----------------------------------------------------------- membership

    def register(self, shard_id: int, replica_id: int) -> None:
        """Start tracking a member; it is healthy unless marked down."""
        with self._lock:
            self._registered.add((shard_id, replica_id))

    def forget(self, shard_id: int, replica_id: int) -> None:
        with self._lock:
            self._registered.discard((shard_id, replica_id))
            self._forced_down.discard((shard_id, replica_id))

    # ------------------------------------------------------------ liveness

    def mark_down(self, shard_id: int, replica_id: int) -> None:
        """Hold a member unhealthy until :meth:`mark_up` (chaos, CLI,
        quarantine, a failed ship)."""
        with self._lock:
            self._forced_down.add((shard_id, replica_id))

    def mark_up(self, shard_id: int, replica_id: int) -> None:
        """Lift a down mark."""
        with self._lock:
            self._forced_down.discard((shard_id, replica_id))

    def forced_down(self, shard_id: int, replica_id: int) -> bool:
        """True when the member is held down by :meth:`mark_down`."""
        with self._lock:
            return (shard_id, replica_id) in self._forced_down

    def healthy(self, shard_id: int, replica_id: int) -> bool:
        key = (shard_id, replica_id)
        with self._lock:
            return key in self._registered and key not in self._forced_down
