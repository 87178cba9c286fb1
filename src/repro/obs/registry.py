"""Process-wide metrics registry: counters, gauges, latency histograms.

The paper's evaluation is an observability exercise — every figure reports
PA, compdists, and CPU time — but those counters answer *how much did this
experiment cost*, not *how is the serving system behaving over time*.  This
module provides the second kind of signal: a :class:`MetricsRegistry` of
named metric families that the storage, WAL, and engine layers update and
that :mod:`repro.obs.exposition` renders in Prometheus text format.

Three metric kinds exist, mirroring the Prometheus data model:

* :class:`Counter` — a monotonically increasing total (hits, bytes,
  rejections);
* :class:`Gauge` — a point-in-time value, settable directly or computed by
  a callback at collection time (queue depth, hit ratio);
* :class:`Histogram` — fixed-bucket value distribution with ``sum`` and
  ``count`` (latencies); quantiles are the scraper's business, computed
  from the exported cumulative buckets.

**The zero-overhead-when-disabled contract.**  Observability must not
perturb the paper experiments, whose counter semantics are exact.  Every
instrumented call site therefore checks the module-level :data:`ENABLED`
flag *before* allocating, timing, or looking anything up::

    from repro.obs import registry as _obs
    ...
    if _obs.ENABLED:                       # one attribute load when off
        _instruments.pagefile().read_seconds.observe(elapsed)

``ENABLED`` defaults to ``False`` and is flipped by
:func:`repro.obs.enable` / :func:`repro.obs.disable`.  With the flag off,
the only cost on any hot path is that single module-attribute check; no
timestamps are taken and no metric objects are touched, so single-threaded
experiment runs and the existing counter tests stay bit-identical.

All metric mutations are lock-guarded (the engine's workers update them
concurrently); the locks are uncontended in single-threaded use.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Iterator, Optional, Sequence

#: Module-level observability switch.  Checked by every instrumented call
#: site before any allocation; mutate through ``repro.obs.enable()`` /
#: ``repro.obs.disable()`` so instrument preregistration stays in sync.
ENABLED: bool = False

#: Default buckets for latency histograms, in seconds (100 µs .. 10 s).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for decreases")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """A point-in-time value, set directly or computed by a callback.

    With ``fn`` supplied, the gauge is *collected* rather than stored: the
    callback runs when :attr:`value` is read (exposition time),
    which keeps derived values like hit ratios off the hot path entirely.
    """

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, fn: Optional[Callable[[], float]] = None) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-bucket distribution with Prometheus-style cumulative export.

    ``buckets`` are the inclusive upper bounds of each bucket, ascending;
    an implicit ``+Inf`` bucket catches the tail.  Observation is O(1) in
    the bucket count; every bucket is exported, so any quantile can be
    estimated downstream (``histogram_quantile``) to a bucket's width.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly ascending")
        self._lock = threading.Lock()
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        # Linear scan beats bisect for the short bucket lists used here,
        # and most observations land in the first few buckets anyway.
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def bucket_counts(self) -> list[tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs, ending with +Inf."""
        out = []
        cumulative = 0
        with self._lock:
            for bound, n in zip(self.buckets, self._counts):
                cumulative += n
                out.append((bound, cumulative))
            out.append((float("inf"), cumulative + self._counts[-1]))
        return out

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0


class MetricFamily:
    """All time series sharing one metric name, keyed by label values."""

    __slots__ = ("name", "help", "type", "labelnames", "_factory", "_children", "_lock")

    def __init__(
        self,
        name: str,
        help_: str,
        type_: str,
        labelnames: tuple[str, ...],
        factory: Callable[[], object],
    ) -> None:
        self.name = name
        self.help = help_
        self.type = type_
        self.labelnames = labelnames
        self._factory = factory
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, **labelvalues: str) -> object:
        """The child metric for one label combination (created on demand)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[ln]) for ln in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._factory())
        return child

    def samples(self) -> list[tuple[tuple[str, ...], object]]:
        """``(label values, metric)`` pairs in sorted label order."""
        with self._lock:
            return sorted(self._children.items())

    def reset(self) -> None:
        for _, child in self.samples():
            child.reset()  # type: ignore[attr-defined]


class MetricsRegistry:
    """Get-or-create store of metric families.

    Registration is idempotent: asking for an existing name returns the
    same family (or its sole unlabeled child), and a kind or label-set
    mismatch raises ``ValueError`` — two subsystems silently sharing one
    name with different meanings is a bug worth failing on.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        help_: str,
        type_: str,
        labelnames: Sequence[str],
        factory: Callable[[], object],
    ) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for ln in labelnames:
            if not _LABEL_NAME_RE.match(ln):
                raise ValueError(f"invalid label name {ln!r}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.type != type_ or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.type}{existing.labelnames}, cannot "
                        f"re-register as {type_}{labelnames}"
                    )
                return existing
            family = MetricFamily(name, help_, type_, labelnames, factory)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_: str = "", labelnames: Sequence[str] = ()
    ) -> "Counter | MetricFamily":
        family = self._register(name, help_, "counter", labelnames, Counter)
        return family if family.labelnames else family.labels()  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help_: str = "",
        labelnames: Sequence[str] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> "Gauge | MetricFamily":
        family = self._register(name, help_, "gauge", labelnames, lambda: Gauge(fn))
        return family if family.labelnames else family.labels()  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> "Histogram | MetricFamily":
        bounds = tuple(buckets)
        family = self._register(
            name, help_, "histogram", labelnames, lambda: Histogram(bounds)
        )
        return family if family.labelnames else family.labels()  # type: ignore[return-value]

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def collect(self) -> Iterator[MetricFamily]:
        """Families in name order (the exposition ordering)."""
        with self._lock:
            families = sorted(self._families.items())
        for _, family in families:
            yield family

    def reset(self) -> None:
        """Zero every metric in place (instrument handles stay valid)."""
        for family in self.collect():
            family.reset()


_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every instrument reports into."""
    return _DEFAULT
