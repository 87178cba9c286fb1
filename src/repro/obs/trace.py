"""Per-query trace spans: where did this query's compdists and PA go?

The survey follow-up to the paper (*Indexing Metric Spaces for Exact
Similarity Search*) breaks pruning power down per lemma; a serving system
needs the same breakdown per *query*: which B+-tree levels were walked, how
many subtrees Lemma 1/3 pruned, how many objects Lemma 2 accepted without a
distance computation, and where the compdist/page-access budget actually
went.

A :class:`QueryTrace` is attached to a
:class:`~repro.service.QueryContext` (``ctx.trace``) before the query runs.
The SPB-tree traversal then accounts every region of work against a
:class:`Span`:

* one ``map`` span for the φ(q) pivot mapping (|P| compdists by
  construction);
* one aggregated span per B+-tree level (``level-0`` is the root), entered
  every time a node of that level is processed, accumulating nodes
  visited, pruning-rule counts, and — via counter snapshots around each
  region — the level's exact compdist and page-access share.

Because every code region that can move the context's counters runs inside
exactly one span region, the span tree *reconciles*: the per-span
``compdists``/``page_accesses`` sum to the context's shard totals exactly
(asserted in ``tests/test_obs.py``).  This is the property that lets an
operator trust a trace: the breakdown is the total, not a sample of it.

Tracing is strictly opt-in.  A query without a trace attached (the
default, and all paper experiments) pays a single ``is None`` check per
node; span regions take counter snapshots only, never touching the
counters themselves, so a traced query's PA/compdist tallies equal an
untraced run's.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional


class Span:
    """One named region of query work, with exclusive cost attribution.

    ``compdists`` / ``page_accesses`` / ``elapsed`` are *exclusive* (own
    work, not children's); ``counts`` holds event tallies such as
    ``nodes_visited`` or ``pruned_lemma1``.  Level spans are aggregated:
    they are entered once per node of their level and accumulate across
    entries.
    """

    __slots__ = ("name", "compdists", "page_accesses", "elapsed", "counts", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.compdists = 0
        self.page_accesses = 0
        self.elapsed = 0.0
        self.counts: dict[str, int] = {}
        self.children: list["Span"] = []

    def bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def as_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "compdists": self.compdists,
            "page_accesses": self.page_accesses,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }
        if self.counts:
            out["counts"] = dict(sorted(self.counts.items()))
        if self.children:
            out["children"] = [child.as_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span (and its subtree) from :meth:`as_dict` output.

        The inverse direction of the wire: a server serialises its span
        tree into the reply and the client grafts it back into a live
        trace, so the stitched tree supports the same reconciliation
        arithmetic as a local one.  Unknown keys are ignored — newer
        servers may annotate spans with fields this reader predates.
        """
        span = cls(str(data.get("name", "span")))
        span.compdists = int(data.get("compdists", 0))
        span.page_accesses = int(data.get("page_accesses", 0))
        span.elapsed = float(data.get("elapsed_ms", 0.0)) / 1000.0
        counts = data.get("counts")
        if isinstance(counts, dict):
            # Counts are usually integers, but identity annotations (e.g.
            # which replica served a read) are strings — keep both.
            span.counts = {
                str(k): v if isinstance(v, str) else int(v)
                for k, v in counts.items()
            }
        for child in data.get("children", ()):
            span.children.append(cls.from_dict(child))
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, compdists={self.compdists}, "
            f"pa={self.page_accesses}, counts={self.counts})"
        )


class QueryTrace:
    """The span tree of one query execution.

    Created by the caller (or :class:`~repro.service.QueryEngine` when
    tracing/slow-query logging is on) and attached to the query's context;
    the tree traversal fills it in.  On an engine retry the context resets
    its counters and the trace resets with them, so the final trace
    describes exactly the successful attempt — the same contract the
    per-query counters keep.
    """

    __slots__ = ("kind", "root", "reason", "complete", "_levels", "_spans", "_stack")

    def __init__(self, kind: str = "query") -> None:
        self.kind = kind
        self.root = Span(kind)
        #: Stringified ExhaustionReason when the query degraded, else None.
        self.reason: Optional[str] = None
        self.complete = True
        self._levels: dict[int, Span] = {}
        self._spans: dict[str, Span] = {}
        self._stack: list[Span] = []

    def reset(self) -> None:
        """Discard accumulated spans (the engine calls this before a retry)."""
        self.root = Span(self.kind)
        self.reason = None
        self.complete = True
        self._levels = {}
        self._spans = {}
        self._stack = []

    # ------------------------------------------------------------- span tree

    def span(self, name: str) -> Span:
        """Get or create a named child of the root (e.g. ``"map"``).

        O(1): looked up in a name→span dict (like :meth:`level`): a
        scatter looks up its ``shard-<id>`` span once per shard visit, and
        a linear scan over the children list would make that quadratic in
        the scatter width.
        """
        span = self._spans.get(name)
        if span is None:
            span = Span(name)
            self._spans[name] = span
            self.root.children.append(span)
        return span

    def level(self, depth: int) -> Span:
        """The aggregated span for B+-tree level ``depth`` (0 = root node)."""
        span = self._levels.get(depth)
        if span is None:
            span = Span(f"level-{depth}")
            self._levels[depth] = span
            self.root.children.append(span)
        return span

    @property
    def levels(self) -> dict[int, Span]:
        return dict(self._levels)

    # ------------------------------------------------------------ accounting

    def enter(self, span: Span, ctx: Any) -> tuple:
        """Begin attributing the context's counter deltas to ``span``.

        Returns an opaque record for :meth:`exit`; use :meth:`region` for
        the ``with``-statement form.  Regions of distinct spans must not
        nest (levels are processed sequentially), which is what makes the
        exclusive sums reconcile with the shard totals.
        """
        self._stack.append(span)
        return (span, ctx, ctx.compdists, ctx.page_accesses, time.perf_counter())

    def exit(self, record: tuple) -> None:
        span, ctx, compdists0, pa0, t0 = record
        span.compdists += ctx.compdists - compdists0
        span.page_accesses += ctx.page_accesses - pa0
        span.elapsed += time.perf_counter() - t0
        self._stack.pop()

    @contextmanager
    def region(self, span: Span, ctx: Any) -> Iterator[Span]:
        record = self.enter(span, ctx)
        try:
            yield span
        finally:
            self.exit(record)

    def bump(self, key: str, amount: int = 1) -> None:
        """Tally one event against the innermost active span."""
        if self._stack:
            self._stack[-1].bump(key, amount)

    # ------------------------------------------------------------ completion

    def finish(self, ctx: Any, complete: bool = True, reason: Any = None) -> None:
        """Record totals and the outcome (called by the query method)."""
        self.root.compdists = ctx.compdists
        self.root.page_accesses = ctx.page_accesses
        self.complete = complete
        self.reason = None if reason is None else str(reason)

    def attributed_totals(self) -> tuple[int, int]:
        """Sum of per-span (compdists, page accesses) below the root.

        Equals the context's shard totals for a traced query — the
        reconciliation invariant.
        """
        compdists = sum(s.compdists for s in self.root.children)
        pa = sum(s.page_accesses for s in self.root.children)
        return compdists, pa

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "complete": self.complete,
            "spans": self.root.as_dict(),
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "QueryTrace":
        """Rebuild a trace from :meth:`as_dict` output (wire or JSONL)."""
        trace = cls(str(data.get("kind", "query")))
        trace.complete = bool(data.get("complete", True))
        reason = data.get("reason")
        trace.reason = None if reason is None else str(reason)
        spans = data.get("spans")
        if isinstance(spans, dict):
            trace.root = Span.from_dict(spans)
            for child in trace.root.children:
                if child.name.startswith("level-"):
                    try:
                        trace._levels[int(child.name[6:])] = child
                        continue
                    except ValueError:
                        pass
                trace._spans[child.name] = child
        return trace


def attributed_totals_from_dict(trace_data: dict) -> tuple[int, int]:
    """The reconciliation sums of a serialised trace, without rebuilding it.

    Returns ``(compdists, page_accesses)`` summed over the root's direct
    children — the quantity that must equal the reply's reported totals
    even when the span tree crossed a process boundary.
    """
    spans = trace_data.get("spans", trace_data)
    children = spans.get("children", ())
    compdists = sum(int(c.get("compdists", 0)) for c in children)
    pa = sum(int(c.get("page_accesses", 0)) for c in children)
    return compdists, pa
