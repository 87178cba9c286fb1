"""Trace shims: spans around the calls into each layer, recorded from outside.

``Tracer.install`` replaces public callables *on the built instances*
(``tree.curve.encode``, ``tree.raf.read``, ...) with shims that record a
span — name, start, end, parent, op id — and ``uninstall`` puts the
originals back.  No file under ``src/`` is edited and no counter is
touched, so compdists and PA are bit-identical with shims on, off, or
removed (the smoke test pins this).

A layer's self time is its span's duration minus what its child spans
cover.  Totals (self time, calls, fsyncs) are kept per span name for the
whole traced window; raw spans are kept for the first ``raw_ops`` ops of
each thread only, because a words kNN makes ~15 000 shimmed calls.
Everything stays in memory until :meth:`Tracer.dump`.

Span names are ``<layer>:<callable>``; the client's own span around each
op is ``op``, so ``op`` self time is the time spent in no shimmed layer.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.distance.base import Metric

OP = "op"

#: (attribute path from the tree, callable, layer)
_TREE_SHIMS = (
    ("space", "phi", "core.mapping"),
    ("space", "mind_to_cell", "core.mapping"),
    ("space", "mind_to_box", "core.mapping"),
    ("space", "lower_bound", "core.mapping"),
    ("space", "range_region", "core.mapping"),
    ("curve", "encode", "sfc"),
    ("curve", "decode", "sfc"),
    ("btree", "read_node", "btree"),
    ("btree", "insert", "btree"),
    ("btree", "delete", "btree"),
    ("raf", "read", "storage.raf"),
    ("raf", "append", "storage.raf"),
    ("raf.buffer_pool", "read_page", "storage.buffer"),
    ("raf.buffer_pool", "write_page", "storage.buffer"),
    ("raf.pagefile", "read_page", "storage.pagefile"),
    ("raf.pagefile", "write_page", "storage.pagefile"),
    ("btree.pagefile", "read_page", "storage.pagefile"),
    ("btree.pagefile", "write_page", "storage.pagefile"),
    ("wal", "append_insert", "storage.wal"),
    ("wal", "append_delete", "storage.wal"),
    ("", "checkpoint", "core.persist"),
)

_INDEX_SHIMS = (
    ("space", "phi", "core.mapping"),
    ("curve", "encode", "sfc"),
    ("router", "range_plan", "cluster"),
    ("router", "knn_order", "cluster"),
    ("router", "shard_for_key", "cluster"),
)


class _ThreadState:
    """One thread's span stack and running totals."""

    def __init__(self, name: str) -> None:
        self.thread = name
        self.stack: list[list] = []  # frames: [name, start, child time, raw idx]
        self.self_time: dict[str, float] = {}
        self.total_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.fsyncs: dict[str, int] = {}
        self.raw: list[list] = []  # [name, start, end, parent idx, op id]
        self.op_id: Any = None
        self.keep_raw = False
        self.ops_seen = 0


class _Delegate:
    """Stands in for a ``__slots__`` object, which cannot take a shim."""

    def __init__(self, inner: Any) -> None:
        self._inner = inner

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _SpanMetric(Metric):
    """The tree's metric with a span around every call."""

    def __init__(self, inner: Metric, shim: Callable) -> None:
        self.inner = inner
        self.name = inner.name
        self.is_discrete = inner.is_discrete
        self._shim = shim

    def __call__(self, a: Any, b: Any) -> float:
        return self._shim(a, b)

    def max_distance(self, sample: Any, pairs: int = 2000) -> float:
        return self.inner.max_distance(sample, pairs)


class MappingClock(Metric):
    """Stands in for the metric during one bulk load to time its mapping pass.

    ``build`` maps every object first — exactly ``|O| x |P|`` metric calls
    — and only then calibrates, so the wall time between the first call
    and the end of call ``mapping_calls`` is the mapping pass (φ, grid,
    SFC encode), measured without touching ``build``.
    """

    def __init__(self, inner: Metric, mapping_calls: int) -> None:
        self.inner = inner
        self.name = inner.name
        self.is_discrete = inner.is_discrete
        self.mapping_calls = mapping_calls
        self.calls = 0
        self.first = 0.0
        self.last = 0.0

    def __call__(self, a: Any, b: Any) -> float:
        if self.calls == 0:
            self.first = time.perf_counter()
        self.calls += 1
        d = self.inner(a, b)
        if self.calls == self.mapping_calls:
            self.last = time.perf_counter()
        return d

    def max_distance(self, sample: Any, pairs: int = 2000) -> float:
        return self.inner.max_distance(sample, pairs)

    @property
    def mapping_seconds(self) -> float:
        return max(0.0, self.last - self.first)


class Tracer:
    """Installs the shims, collects the spans, puts everything back."""

    def __init__(self, raw_ops: int = 3) -> None:
        self.raw_ops = raw_ops
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []
        self._wrapped: set[tuple[int, str]] = set()

    # ------------------------------------------------------------ recording

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(
                threading.current_thread().name
            )
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, state: _ThreadState, name: str) -> list:
        stack = state.stack
        frame = [name, 0.0, 0.0, -1]
        if state.keep_raw:
            frame[3] = len(state.raw)
            parent = stack[-1][3] if stack else -1
            state.raw.append([name, 0.0, 0.0, parent, state.op_id])
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, state: _ThreadState, frame: list) -> None:
        end = time.perf_counter()
        stack = state.stack
        stack.pop()
        name = frame[0]
        took = end - frame[1]
        state.self_time[name] = state.self_time.get(name, 0.0) + took - frame[2]
        state.total_time[name] = state.total_time.get(name, 0.0) + took
        state.calls[name] = state.calls.get(name, 0) + 1
        if stack:
            stack[-1][2] += took
        if frame[3] >= 0:
            row = state.raw[frame[3]]
            row[1], row[2] = frame[1], end

    def _shim(self, name: str, original: Callable) -> Callable:
        local, new_state = self._local, self._state
        enter, leave = self._enter, self._exit

        def shim(*args: Any, **kwargs: Any) -> Any:
            state = getattr(local, "state", None) or new_state()
            frame = enter(state, name)
            try:
                return original(*args, **kwargs)
            finally:
                leave(state, frame)

        return shim

    @contextmanager
    def op(self, op_id: Any) -> Iterator[None]:
        """The client's span around one op (the root of its span tree)."""
        state = self._state()
        state.op_id = op_id
        state.keep_raw = state.ops_seen < self.raw_ops
        state.ops_seen += 1
        frame = self._enter(state, OP)
        try:
            yield
        finally:
            self._exit(state, frame)
            state.keep_raw = False

    # ----------------------------------------------------------- installing

    def wrap(self, obj: Any, attr: str, layer: str) -> None:
        """Put a shim over ``obj.attr`` (once), remembering how to undo it."""
        if obj is None or (id(obj), attr) in self._wrapped:
            return
        self._wrapped.add((id(obj), attr))
        had_own = attr in vars(obj)
        original = getattr(obj, attr)
        setattr(obj, attr, self._shim(f"{layer}:{attr}", original))

        def undo() -> None:
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

        self._undo.append(undo)

    def wrap_metric(self, counting: Any) -> None:
        """Span every call of the metric behind a ``CountingDistance``."""
        if (id(counting), "metric") in self._wrapped:
            return
        self._wrapped.add((id(counting), "metric"))
        inner = counting.metric
        counting.metric = _SpanMetric(inner, self._shim("distance:call", inner))
        self._undo.append(lambda: setattr(counting, "metric", inner))

    def install(self, deployment: Any) -> None:
        """Shim every tree of the deployment, and the cluster's own layer."""
        for tree in deployment.trees():
            self._install_on(tree, _TREE_SHIMS)
        index = getattr(deployment, "index", None)
        if index is not None:
            self._install_on(index, _INDEX_SHIMS)
        self._count_fsyncs()

    def _install_on(self, owner: Any, table: tuple) -> None:
        self.wrap_metric(owner.distance)
        for path, attr, layer in table:
            obj = owner
            for part in filter(None, path.split(".")):
                parent, obj = obj, getattr(obj, part, None)
                if obj is not None and not hasattr(obj, "__dict__"):
                    obj = self._delegate(parent, part, obj)
            self.wrap(obj, attr, layer)

    def _delegate(self, parent: Any, attr: str, slotted: Any) -> _Delegate:
        stand_in = _Delegate(slotted)
        setattr(parent, attr, stand_in)
        self._undo.append(lambda: setattr(parent, attr, slotted))
        return stand_in

    def _count_fsyncs(self) -> None:
        """Count ``os.fsync`` calls under the span they happen in."""
        original = os.fsync
        local = self._local

        def fsync(fd: int) -> None:
            state = getattr(local, "state", None)
            if state is not None and state.stack:
                name = state.stack[-1][0]
                state.fsyncs[name] = state.fsyncs.get(name, 0) + 1
            original(fd)

        os.fsync = fsync
        self._undo.append(lambda: setattr(os, "fsync", original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._wrapped.clear()

    # ------------------------------------------------------------ reporting

    def _merged(self, field: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for state in self._states:
            for name, value in getattr(state, field).items():
                out[name] = out.get(name, 0) + value
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """``{"self_time"|"total_time"|"calls"|"fsyncs": {span name: total}}``."""
        return {
            field: self._merged(field)
            for field in ("self_time", "total_time", "calls", "fsyncs")
        }

    def layer_self_time(self) -> dict[str, float]:
        """Self time summed per layer (span names are ``layer:callable``)."""
        out: dict[str, float] = {}
        for name, seconds in self._merged("self_time").items():
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def dump(self) -> dict:
        """Totals plus the raw spans kept, ready for ``json.dump``."""
        return {
            "totals": self.totals(),
            "raw_span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "raw_spans": {s.thread: s.raw for s in self._states if s.raw},
        }
