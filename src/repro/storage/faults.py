"""Deterministic fault injection for the storage layer.

Real disks tear writes across sector boundaries, flip bits at rest, return
transient errors under load, and lose power mid-write.  A disk-based index
is only trustworthy if it survives those failures, so this module makes
them reproducible: a :class:`FaultInjector` wraps a
:class:`~repro.storage.pagefile.PageFile` (quacking like one, so the buffer
pool, RAF, and B+-tree use it unchanged) and injects faults from a seeded
RNG, while :func:`retry_io` provides the bounded-backoff retry loop that
production I/O paths wrap around transient errors.

Fault taxonomy:

* **torn write** — a ``write_page`` persists only a prefix of the page; the
  suffix reads back as whatever the medium held (here: zeros).  Detected by
  page checksums (``PageFile(checksums=True)``).
* **bit flip** — one bit of a stored page changes after the write.  Also
  detected by checksums.
* **transient I/O error** — a read or write raises
  :class:`TransientIOError` *before* touching the store; a retry succeeds.
* **crash point** — after ``crash_after`` successful operations,
  :class:`SimulatedCrash` is raised at the next operation boundary,
  modelling "kill -9 after N page writes".  ``save_tree`` consults the same
  counter through :meth:`FaultInjector.checkpoint` so a crash can be placed
  at *every* boundary of the atomic save protocol.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Optional, TypeVar

from repro.storage.pagefile import PageFile

T = TypeVar("T")


class SimulatedCrash(RuntimeError):
    """The process "died" at an injected crash point.

    Deliberately *not* an ``OSError``: a crash is not retryable, and
    :func:`retry_io` must never swallow one.
    """


class TransientIOError(IOError):
    """An injected, retryable I/O failure (the operation did not happen)."""


def retry_io(
    fn: Callable[[], T],
    *,
    attempts: int = 5,
    base_delay: float = 0.01,
    max_delay: float = 0.5,
    retry_on: tuple[type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
    jitter: float = 0.0,
    seed: Optional[int] = None,
) -> T:
    """Call ``fn`` with bounded exponential backoff on transient errors.

    Retries only exceptions in ``retry_on`` (``OSError`` by default, which
    covers ``IOError``/``TransientIOError``); anything else — including
    :class:`~repro.storage.pagefile.PageCorruptionError`, which retrying
    cannot fix — propagates immediately.  The last failure is re-raised
    once ``attempts`` are exhausted.

    ``jitter`` desynchronizes concurrent retry loops: each sleep is scaled
    by a factor drawn uniformly from ``[1 - jitter, 1]`` using
    ``random.Random(seed)``, so callers hammering the same faulted page
    (the engine's workers) back off on *different* schedules instead of
    reconverging in lockstep — while a fixed ``seed`` keeps every schedule
    exactly reproducible.  ``jitter=0`` (the default) preserves the exact
    deterministic schedule: ``base_delay`` doubling, capped at
    ``max_delay``.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError("jitter must be in [0, 1]")
    rng = random.Random(seed) if jitter else None
    delay = base_delay
    for attempt in range(attempts):
        try:
            return fn()
        except retry_on:
            if attempt == attempts - 1:
                raise
            pause = min(delay, max_delay)
            if rng is not None:
                pause *= 1.0 - jitter * rng.random()
            sleep(pause)
            delay *= 2
    raise AssertionError("unreachable")


class FaultInjector:
    """A ``PageFile`` wrapper that injects seeded, reproducible faults.

    Rates are probabilities per operation, drawn from ``random.Random(seed)``
    so a given (seed, workload) pair always injects the same faults.  The
    injector also exposes :meth:`tear_page` / :meth:`flip_bit` for tests
    that want to corrupt a specific page deterministically, and
    :meth:`checkpoint` for code (``persist.save_tree``) that marks its own
    crash boundaries.

    Attributes not overridden here (``num_pages``, ``raw_slot``, …) are
    delegated to the wrapped page file, so the injector is a drop-in
    replacement wherever a ``PageFile`` is expected.
    """

    def __init__(
        self,
        pagefile: Optional[PageFile] = None,
        *,
        seed: int = 0,
        torn_write_rate: float = 0.0,
        bit_flip_rate: float = 0.0,
        io_error_rate: float = 0.0,
        crash_after: Optional[int] = None,
        chain: Optional["FaultInjector"] = None,
    ) -> None:
        for name, rate in (
            ("torn_write_rate", torn_write_rate),
            ("bit_flip_rate", bit_flip_rate),
            ("io_error_rate", io_error_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.inner = pagefile
        self.torn_write_rate = torn_write_rate
        self.bit_flip_rate = bit_flip_rate
        self.io_error_rate = io_error_rate
        self.crash_after = crash_after
        #: Another injector whose crash counter this one feeds.  A mutation
        #: crosses several stores (WAL file, RAF pages, B+-tree pages); to
        #: place one global crash point across all of them, wrap each page
        #: file with an injector chained to a single master counter.
        self.chain = chain
        self._rng = random.Random(seed)
        #: Operations that completed successfully (crash-point counter).
        self.ops = 0
        #: Count of each fault kind injected so far.
        self.injected = {"torn": 0, "bitflip": 0, "io_error": 0}

    # ------------------------------------------------------------- crashing

    def checkpoint(self, label: str = "") -> None:
        """Pass one crash boundary, or die at it.

        Raises :class:`SimulatedCrash` when ``crash_after`` boundaries have
        already been passed; otherwise counts this one and returns.  With a
        ``chain``, the boundary is counted against the chained injector
        instead, so several wrappers share one crash schedule.
        """
        if self.chain is not None:
            self.chain.checkpoint(label)
            return
        if self.crash_after is not None and self.ops >= self.crash_after:
            raise SimulatedCrash(
                f"simulated crash at operation {self.ops}"
                + (f" ({label})" if label else "")
            )
        self.ops += 1

    # --------------------------------------------------- PageFile interface

    def read_page(self, page_id: int) -> bytes:
        assert self.inner is not None
        self._maybe_io_error(f"read_page({page_id})")
        return self.inner.read_page(page_id)

    def write_page(self, page_id: int, data: bytes) -> None:
        assert self.inner is not None
        self.checkpoint(f"write_page({page_id})")
        self._maybe_io_error(f"write_page({page_id})")
        self.inner.write_page(page_id, data)
        roll = self._rng.random()
        if roll < self.torn_write_rate:
            self.tear_page(page_id)
        elif roll < self.torn_write_rate + self.bit_flip_rate:
            self.flip_bit(page_id)

    def __getattr__(self, name: str) -> Any:
        # Everything else (allocate, num_pages, counter, raw_slot, …)
        # behaves exactly like the wrapped page file.
        if self.inner is None:
            raise AttributeError(name)
        return getattr(self.inner, name)

    # ----------------------------------------------------------- corruption

    def tear_page(self, page_id: int, keep: Optional[int] = None) -> None:
        """Simulate a torn write: only the first ``keep`` bytes persisted.

        The rest of the page reverts to zeros and the stored checksum goes
        stale, exactly like power loss mid-sector-train.
        """
        assert self.inner is not None
        page = self.inner._pages[page_id]
        if keep is None:
            keep = self._rng.randrange(0, len(page))
        self.inner._store_raw(page_id, page[:keep] + bytes(len(page) - keep))
        self.injected["torn"] += 1

    def flip_bit(self, page_id: int, bit: Optional[int] = None) -> None:
        """Flip one bit of a stored page without refreshing its checksum."""
        assert self.inner is not None
        page = bytearray(self.inner._pages[page_id])
        if bit is None:
            bit = self._rng.randrange(0, len(page) * 8)
        page[bit // 8] ^= 1 << (bit % 8)
        self.inner._store_raw(page_id, bytes(page))
        self.injected["bitflip"] += 1

    def _maybe_io_error(self, label: str) -> None:
        if self.io_error_rate and self._rng.random() < self.io_error_rate:
            self.injected["io_error"] += 1
            raise TransientIOError(f"injected transient I/O error at {label}")
