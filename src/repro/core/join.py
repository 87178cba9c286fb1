"""Metric similarity joins over SPB-trees (§5, Algorithm 3).

SJ(Q, O, ε) finds every pair <q, o> with d(q, o) ≤ ε.  The paper's SJA
performs a single merge pass over the leaf levels of two SPB-trees that are
built with the *same pivot table* and the *Z-order curve* — the curve's
per-dimension monotonicity is what makes the corner-key bounds of Lemma 6
valid, letting SJA prune candidates from its sliding lists without decoding
them:

* **Lemma 5** — a result pair's φ(o) must lie in the mapped range region
  RR(q, ε);
* **Lemma 6** — therefore SFC(φ(o)) ∈ [minRR(q, ε), maxRR(q, ε)], the keys
  of RR's lower-left and upper-right corners.

Both trees' leaf entries are visited in ascending SFC order exactly once
(Lemma 7 — no missed and no duplicated pairs), with each side's visited
objects kept in a list that Lemma 6 continuously shrinks.

A join is a read of its trees: it runs under :meth:`SPBTree.read_frame` of
each (the second tree's nested inside the first's), so no writer changes a
leaf under the merge, ``context.epoch`` is pinned, and a tripped limit
degrades the way it does for a query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.btree.node import LeafEntry
from repro.core.spbtree import SPBTree
from repro.distance.base import CountingDistance
from repro.service.context import ExhaustionReason, QueryContext
from repro.stats import QueryStats


@dataclass
class _ListItem:
    """One visited object kept in a sliding list (L_Q or L_O)."""

    key: int
    grid: tuple[int, ...]
    obj: Any
    max_rr: int  # maxRR(item, ε): Lemma 6 expiry key


@dataclass
class JoinResult:
    """Pairs plus the cost metrics the paper reports for joins.

    ``complete`` is False when a :class:`~repro.service.QueryContext`
    deadline/budget stopped the merge early; the pairs found up to that
    point are all correct (each verified with a distance computation), the
    join is merely unfinished, and ``reason`` says which limit tripped.
    """

    pairs: list[tuple[Any, Any]] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    complete: bool = True
    reason: Optional[ExhaustionReason] = None


def _check_compatible(tree_q: SPBTree, tree_o: SPBTree) -> None:
    if not tree_q.curve.is_monotone or not tree_o.curve.is_monotone:
        raise ValueError(
            "SJA requires both SPB-trees to use the Z-order curve "
            "(Lemma 6 relies on its monotonicity); build with curve='z'"
        )
    sq, so = tree_q.space, tree_o.space
    if sq.num_pivots != so.num_pivots or sq.delta != so.delta or sq.cells != so.cells:
        raise ValueError(
            "SJA requires both SPB-trees to share one pivot space "
            "(same pivots, d+, and δ); build the second tree with "
            "pivots=first.space.pivots and matching d_plus/delta"
        )
    for pq, po in zip(sq.pivots, so.pivots):
        if tree_q.distance.metric(pq, po) != 0:
            raise ValueError("SJA requires both SPB-trees to share pivots")


def similarity_join(
    tree_q: SPBTree,
    tree_o: SPBTree,
    epsilon: float,
    context: Optional[QueryContext] = None,
) -> JoinResult:
    """SJ(Q, O, ε) via Algorithm 3 (SJA): one merge pass, two sliding lists.

    With a :class:`~repro.service.QueryContext`, the merge observes its
    deadline/budget/cancellation once per leaf entry; on exhaustion the
    pairs verified so far come back with ``complete=False`` (or strict
    mode raises :class:`~repro.service.BudgetExceeded`).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    _check_compatible(tree_q, tree_o)

    def merge(visit: Callable) -> None:
        list_q: list[_ListItem] = []
        list_o: list[_ListItem] = []
        iter_q = iter(tree_q.btree.leaf_entries())
        iter_o = iter(tree_o.btree.leaf_entries())
        entry_q = next(iter_q, None)
        entry_o = next(iter_o, None)
        while entry_q is not None or entry_o is not None:
            if entry_o is None or (entry_q is not None and entry_q.key <= entry_o.key):
                visit(tree_q, entry_q, list_o, list_q, True)
                entry_q = next(iter_q, None)
            else:
                visit(tree_o, entry_o, list_q, list_o, False)
                entry_o = next(iter_o, None)

    return _sweep((tree_q, tree_o), epsilon, context, merge)


def _sweep(
    trees: tuple[SPBTree, ...],
    epsilon: float,
    context: Optional[QueryContext],
    outer: Callable[[Callable], None],
) -> JoinResult:
    """Algorithm 3 under the read frame.  ``outer`` walks the leaf entries
    of ``trees`` in ascending SFC order and hands each to ``visit``, the
    per-entry body (lines 13–21) — written once, here, for the two-tree
    merge and the self-join, which keep only their outer loops."""
    result = JoinResult()
    pa0 = sum(tree.page_accesses for tree in trees)
    # Join-level distance counter: verification distances are charged here,
    # not to either tree, so per-tree counters stay meaningful.
    dist = CountingDistance(trees[-1].distance.metric)
    space, curve = trees[0].space, trees[0].curve
    top = space.cells - 1
    if space.exact:
        # Discrete metric: |d(o,pᵢ) - d(q,pᵢ)| ≤ ε bounds the grid gap by ⌊ε⌋.
        reach = int(epsilon // space.delta)
    else:
        # δ-approximation: one extra cell of slack per side, conservatively.
        reach = int(epsilon // space.delta) + 1

    def visit(
        tree: SPBTree, entry: LeafEntry, others: list, own: list, q_side: bool
    ) -> None:
        """Verify the object ``entry`` points at against the other side's
        list, pruning expired items via Lemma 6, then add it to its own."""
        if context is not None:
            context.checkpoint()
        assert tree.raf is not None
        if tree.raf.is_deleted(entry.ptr):
            return
        grid = curve.decode(entry.key)
        # minRR / maxRR of Lemma 6: the keys of RR(o, ε)'s two corners.
        min_rr = curve.encode(tuple(max(0, g - reach) for g in grid))
        max_rr = curve.encode(tuple(min(top, g + reach) for g in grid))
        item = _ListItem(entry.key, grid, tree.raf.read_object(entry.ptr), max_rr)
        candidates = []
        i = len(others) - 1
        while i >= 0:
            other = others[i]
            if other.max_rr < item.key:  # Lemma 6: expired forever
                del others[i]
                i -= 1
                continue
            # Lemma 6, then Lemma 5 on the grid: every coordinate gap
            # within reach.
            if other.key >= min_rr and all(
                abs(a - b) <= reach for a, b in zip(grid, other.grid)
            ):
                candidates.append(other.obj)
            i -= 1
        # One batch for the visit, cut off at ε: the same pairs, in the
        # same order, at the same count.
        if candidates:
            for obj, d in zip(candidates, dist.batch(item.obj, candidates, epsilon)):
                if d <= epsilon:
                    result.pairs.append((item.obj, obj) if q_side else (obj, item.obj))
        own.append(item)

    def body() -> None:
        # One span holds the whole sweep, so a traced join reconciles; the
        # second tree's view nests inside the first's (re-entrantly on the
        # same tree for a self-join).
        tr = context.trace if context is not None else None
        record = tr.enter(tr.span("sweep"), context) if tr is not None else None
        try:
            trees[-1].read_frame(None, lambda: outer(visit))
        finally:
            if record is not None:
                tr.exit(record)

    result.complete, result.reason, elapsed = trees[0].read_frame(context, body)
    # A degraded join still reports what it spent.
    result.stats = QueryStats(
        page_accesses=(
            context.page_accesses
            if context is not None
            else sum(tree.page_accesses for tree in trees) - pa0
        ),
        distance_computations=dist.count,
        elapsed_seconds=elapsed,
        result_size=len(result.pairs),
    )
    return result


def similarity_join_stats(
    tree_q: SPBTree, tree_o: SPBTree, epsilon: float
) -> QueryStats:
    """Convenience wrapper returning only the cost metrics."""
    return similarity_join(tree_q, tree_o, epsilon).stats


def similarity_self_join(
    tree: SPBTree,
    epsilon: float,
    context: Optional[QueryContext] = None,
) -> JoinResult:
    """SJ(O, O, ε) without self-pairs and without (a, b)/(b, a) duplicates.

    The data-cleaning scenario of §5.1 frequently joins a set with itself
    (near-duplicate detection inside one table).  Running SJA on two copies
    would report every pair twice plus every object matched to itself; this
    variant performs the same single leaf-level pass with one sliding list,
    emitting each unordered pair exactly once.  ``context`` behaves as in
    :func:`similarity_join`.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if not tree.curve.is_monotone:
        raise ValueError(
            "self-join requires a Z-order SPB-tree (Lemma 6); "
            "build with curve='z'"
        )

    def scan(visit: Callable) -> None:
        window: list[_ListItem] = []
        for entry in tree.btree.leaf_entries():
            visit(tree, entry, window, window, False)

    return _sweep((tree,), epsilon, context, scan)


def knn_join(
    tree_q: SPBTree, tree_o: SPBTree, k: int
) -> tuple[dict[int, list[tuple[float, Any]]], QueryStats]:
    """kNN join: for every object q in Q, its k nearest neighbours in O.

    An extension beyond the paper's ε-joins, built on the same machinery:
    each Q object (scanned once from Q's RAF, under Q's read frame) runs a
    best-first kNN search on O's SPB-tree.  Returns
    ``{q object id: [(distance, o), ...]}`` plus the aggregate cost.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if tree_o.raf is None:
        return {}, QueryStats()
    pa0 = tree_q.page_accesses + tree_o.page_accesses
    dc0 = tree_o.distance_computations
    results: dict[int, list[tuple[float, Any]]] = {}

    def scan() -> None:
        assert tree_q.raf is not None
        for _, obj_id, obj in tree_q.raf.scan():
            results[obj_id] = tree_o.knn_query(obj, k)

    _, _, elapsed = tree_q.read_frame(None, scan)
    stats = QueryStats(
        page_accesses=tree_q.page_accesses + tree_o.page_accesses - pa0,
        distance_computations=tree_o.distance_computations - dc0,
        elapsed_seconds=elapsed,
        result_size=sum(len(v) for v in results.values()),
    )
    return results, stats
