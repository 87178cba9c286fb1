"""Shard routing: the paper's lemmas lifted from B+-tree nodes to shards.

Because shards own disjoint SFC key ranges, and SFC keys encode pivot-space
grid cells, each shard covers a region of pivot space summarised by its
tree's root MBB.  Every per-node pruning rule then applies verbatim one
level up:

* **Lemma 1** — a shard whose MBB misses the query's range region RR(q, r)
  cannot hold a result; ``range_plan`` drops it without a page access.
* **Lemma 2** — if some pivot pᵢ proves every cell in the MBB lies within
  ``r − d(q, pᵢ)`` of pᵢ, the *whole shard* is inside the ball and its RAF
  can be streamed out with zero distance computations.
* **Lemma 3** — MIND(q, MBB) lower-bounds d(q, o) for every object in the
  shard, giving the best-shard-first kNN visit order and the prune test
  against the shared k-th-distance bound.

MBBs are cached per shard and invalidated (not incrementally widened) on
mutation: invalidation is a single atomic ``dict.pop``, so concurrent
writers under the cluster's read lock cannot race a read-modify-write into
a too-small box, and the recompute is one root-node read that the buffer
pool almost always absorbs.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core.mapping import PivotSpace
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.region import boxes_intersect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.sharded import Shard

GridBox = tuple[tuple[int, ...], tuple[int, ...]]

_MISS = object()


class ReplicaSelector:
    """Deterministic read-routing across one shard's replica set.

    Policies (see ``repro.cluster.catalog.READ_POLICIES``):

    * ``primary-only`` — reads stick to the primary; followers only serve
      when the primary is unhealthy (availability beats policy — the
      quorum check reports the degradation honestly).
    * ``round-robin`` — a per-shard counter rotates reads over the healthy
      members in replica-id order.  It spreads reads, but in-process
      members share one interpreter lock, so this adds no measured read
      throughput; no benchmark workload runs a policy other than
      ``primary-only`` (ROADMAP item 8 measures them on processes).
    * ``fastest-mind`` — reads go to the healthy member with the smallest
      replication lag (the primary's lag is zero, so it wins ties): the
      freshest MIND bounds and the fewest missing objects.

    Selection is deterministic given (policy, health, lag, call order) —
    no randomness, so chaos tests replay exactly.
    """

    __slots__ = ("policy", "_rr")

    def __init__(self, policy: str) -> None:
        self.policy = policy
        self._rr: dict[int, int] = {}

    def choose(
        self,
        shard_id: int,
        members: Sequence[int],
        healthy: "Callable[[int], bool]",
        lag: "Callable[[int], int]",
    ) -> int:
        """Pick the replica id to serve one read for ``shard_id``.

        ``members`` lists replica ids with the primary first.  Falls back
        to the primary when no member is healthy (the data is still there;
        the quorum check is what reports the set as degraded).
        """
        candidates = [m for m in members if healthy(m)]
        if not candidates:
            return members[0]
        if self.policy == "primary-only":
            return members[0] if healthy(members[0]) else candidates[0]
        if self.policy == "round-robin":
            turn = self._rr.get(shard_id, 0)
            self._rr[shard_id] = turn + 1
            return candidates[turn % len(candidates)]
        # fastest-mind: least lag, replica id breaking ties.
        return min(candidates, key=lambda m: (lag(m), m))


class Router:
    """Routes keys and queries to the shards that can possibly answer them."""

    __slots__ = ("space", "curve", "_shards", "_lows", "_mbb_cache")

    def __init__(
        self,
        space: PivotSpace,
        curve: SpaceFillingCurve,
        shards: Sequence["Shard"] = (),
    ) -> None:
        self.space = space
        self.curve = curve
        self._mbb_cache: dict[int, Optional[GridBox]] = {}
        self.reset(shards)

    def reset(self, shards: Sequence["Shard"]) -> None:
        """Adopt a new shard list (build, load, rebalance swap).

        The MBB cache is dropped wholesale, not filtered to surviving
        shard ids: a rebalance or failover can swap the *tree* behind a
        surviving id (donor split, replica promotion), so a box cached
        under the old tree would silently mis-prune Lemma 1/3 against the
        new one.  Recomputing a handful of root boxes is one buffered
        page read each — correctness is worth it.
        """
        self._shards = sorted(shards, key=lambda s: s.key_lo)
        self._lows = [s.key_lo for s in self._shards]
        self._mbb_cache = {}

    def invalidate(self, shard_id: int) -> None:
        """Drop one shard's cached MBB (tree swapped or mutated)."""
        self._mbb_cache.pop(shard_id, None)

    @property
    def shards(self) -> list["Shard"]:
        return list(self._shards)

    # ------------------------------------------------------------- writes

    def shard_for_key(self, key: int) -> "Shard":
        """The unique shard owning ``key`` (ranges are disjoint + covering)."""
        i = bisect.bisect_right(self._lows, key) - 1
        if i < 0:
            raise ValueError(f"SFC key {key} below the cluster key space")
        shard = self._shards[i]
        if not (shard.key_lo <= key < shard.key_hi):
            raise ValueError(f"SFC key {key} outside every shard range")
        return shard

    # ------------------------------------------------------------ pruning

    def mbb(self, shard: "Shard") -> Optional[GridBox]:
        """``shard``'s pivot-space MBB (None when empty), cached."""
        box = self._mbb_cache.get(shard.shard_id, _MISS)
        if box is _MISS:
            box = shard.tree.mbb()
            self._mbb_cache[shard.shard_id] = box
        return box

    def range_plan(
        self, phi_q: Sequence[float], radius: float, trace=None
    ) -> tuple[list[tuple["Shard", bool]], int]:
        """``(visit, pruned)`` for a range query.

        ``visit`` pairs each intersecting shard (Lemma 1) with an
        ``accept_all`` flag: True when Lemma 2 proves the entire shard lies
        within the ball, so its objects can be emitted without a single
        distance computation.  ``pruned`` counts non-empty shards dropped.
        With a ``trace``, the routing decision is recorded on its ``plan``
        span (visited / accepted / pruned counts).
        """
        rr_lo, rr_hi = self.space.range_region(phi_q, radius)
        visit: list[tuple["Shard", bool]] = []
        pruned = 0
        accepted = 0
        for shard in self._shards:
            box = self.mbb(shard)
            if box is None:
                continue  # empty shard: nothing to scan, nothing to prune
            lo, hi = box
            if not boxes_intersect(rr_lo, rr_hi, lo, hi):
                pruned += 1
                continue
            accept_all = any(
                self.space.upper_bound_to_pivot(h) <= radius - dq
                for h, dq in zip(hi, phi_q)
            )
            if accept_all:
                accepted += 1
            visit.append((shard, accept_all))
        if trace is not None:
            span = trace.span("plan")
            span.bump("shards_visited", len(visit))
            span.bump("shards_pruned", pruned)
            span.bump("shards_accepted", accepted)
        return visit, pruned

    def knn_order(
        self, phi_q: Sequence[float], trace=None
    ) -> list[tuple[float, "Shard"]]:
        """Non-empty shards as ``(MIND, shard)``, cheapest first.

        MIND(q, MBB) is Lemma 3's lower bound; ties break toward the
        shard with fewer leaf pages (the cost-model proxy for a cheaper
        visit) so the shared bound tightens as early as possible.  With a
        ``trace``, the candidate count is recorded on its ``plan`` span.
        """
        order = []
        for shard in self._shards:
            box = self.mbb(shard)
            if box is None:
                continue
            mind = self.space.mind_to_box(phi_q, box[0], box[1])
            order.append((mind, shard))
        order.sort(
            key=lambda pair: (
                pair[0],
                pair[1].tree.btree.leaf_page_count,
                pair[1].shard_id,
            )
        )
        if trace is not None:
            trace.span("plan").bump("knn_candidates", len(order))
        return order
