"""Cost models for similarity queries and joins (§4.4, §5.3).

The models estimate, without executing a query,

* **EDC** — the expected number of distance computations (eq. 3 for search,
  eq. 7 for joins), and
* **EPA** — the expected number of page accesses (eq. 6 for search, eq. 8
  for joins).

Both are driven by the *union distance distribution* F(r₁, …, r_|P|) of
eq. 2 — the joint distribution of distances from a random object to every
pivot.  The paper obtains F statistically at construction; here a model
gathers it from the stored index when it is built: it reads every
⌈n / 2 000⌉-th live leaf entry in key order (so a tree of 2 000 objects or
fewer is modelled from all of its cells), and the box probabilities of
eq. 4 are evaluated by counting sampled cells inside RR (numerically
identical to eq. 4's inclusion–exclusion, since both compute the measure F
assigns to the box).  Nothing is kept on the tree or in its catalog.

For kNN, the unknown k-th NN distance ND_k is estimated (eq. 5) from the
query's distance distribution F_q.  Two estimators are available — a
query-sensitive one from the mapped lower bounds, and the query-insensitive
homogeneity assumption of Ciaccia & Nanni [40].  From the sampled objects
the model measures, on the raw metric, a pairwise-distance sample and the
per-k corrections of the lower-bound estimator; then, like a production
query optimizer, it runs a handful of probe queries against the tree, picks
the ND_k estimator that tracks reality better on this dataset, and fits a
scaling constant for the page-access model.  All of it runs under
:meth:`SPBTree.unobserved`, so building a model moves no counter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.btree.node import LeafEntry
from repro.core.spbtree import SPBTree
from repro.sfc.region import boxes_intersect, point_in_box

#: Most live entries a model samples from one tree (eq. 2's F).
_SAMPLE_CAPACITY = 2000


@dataclass
class CostEstimate:
    """An (EDC, EPA) pair, plus the estimated radius for kNN queries."""

    edc: float
    epa: float
    radius: Optional[float] = None


def _interpolated(values: Sequence[float], position: float) -> float:
    """Linear interpolation of a sorted sample at a fractional rank."""
    if not values:
        return 0.0
    position = min(len(values) - 1, max(0.0, position))
    i = int(position)
    frac = position - i
    upper = values[min(i + 1, len(values) - 1)]
    return values[i] * (1 - frac) + upper * frac


def _correction_for(corrections: dict, k: int) -> float:
    """The measured ND_k correction, log-interpolated between measured k."""
    if k in corrections:
        return corrections[k]
    ks = sorted(corrections)
    if not ks:
        return 1.0
    if k <= ks[0]:
        return corrections[ks[0]]
    if k >= ks[-1]:
        return corrections[ks[-1]]
    for lo, hi in zip(ks, ks[1:]):
        if lo < k < hi:
            t = (math.log(k) - math.log(lo)) / (math.log(hi) - math.log(lo))
            return corrections[lo] * (1 - t) + corrections[hi] * t
    return 1.0


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _lcg(state: int) -> int:
    """One step of the deterministic generator behind every sampled draw."""
    return (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)


def _sampled_entries(tree: SPBTree) -> list[LeafEntry]:
    """Every ⌈n / _SAMPLE_CAPACITY⌉-th leaf entry, in key order, read
    under :meth:`SPBTree.unobserved`."""
    if tree.raf is None:
        return []
    step = max(1, -(-tree.object_count // _SAMPLE_CAPACITY))
    with tree.unobserved():
        return list(itertools.islice(tree.btree.leaf_entries(), 0, None, step))


def _cells(tree: SPBTree, entries: Sequence[LeafEntry]) -> list[tuple[int, ...]]:
    """The grid cells the entries' SFC keys encode."""
    keys = [entry.key for entry in entries]
    return [tuple(cell) for cell in tree.curve.decode_many(keys).tolist()]


def _pair_sample(
    metric: Any, objects: Sequence[Any], pairs: int = 1500
) -> tuple[list[float], float]:
    """A sorted sample of pairwise distances, and the exponent 2ρ.

    The kNN cost model needs the query distance distribution F_q of eq. 5;
    following the query-insensitive approximation of Ciaccia & Nanni,
    F_q ≈ F, so we sample actual pairwise distances plus the distance
    exponent 2ρ (ρ = μ²/2σ², the intrinsic dimensionality of §3.2) for tail
    extrapolation below the sample's resolution.
    """
    n = len(objects)
    exponent = 2.0
    if n < 2:
        return [], exponent
    state = 0x9E3779B97F4A7C15
    sampled: list[float] = []
    for _ in range(pairs):
        state = _lcg(state)
        i = state % n
        state = _lcg(state)
        j = state % n
        if i != j:
            sampled.append(metric(objects[i], objects[j]))
    sampled.sort()
    if sampled:
        mean = sum(sampled) / len(sampled)
        var = sum((d - mean) ** 2 for d in sampled) / len(sampled)
        if var > 0:
            # 2ρ: the power-law exponent of F(r) for small r.
            exponent = max(0.5, mean * mean / var)
    return sampled, exponent


class CostModel:
    """Cost model for range and kNN queries over one SPB-tree."""

    #: k used by the probe calibration.
    _PROBE_K = 8

    def __init__(self, tree: SPBTree, probe_queries: int = 6) -> None:
        entries = _sampled_entries(tree)
        if not entries:
            raise ValueError("tree has no objects to sample; build or insert first")
        assert tree.raf is not None
        self.tree = tree
        self.sample = _cells(tree, entries)
        self._hom_scale = 1.0
        self._epa_scale = 1.0
        try:
            with tree.unobserved():
                #: Node MBBs of the B+-tree, cached once; eq. 6 sums over them.
                self._node_boxes = self._collect_boxes()
                objects = tree.raf.read_many([entry.ptr for entry in entries])
                #: Sorted pairwise-distance sample and 2ρ (the "hom" estimator).
                self.pair_distances, self.distance_exponent = _pair_sample(
                    tree.distance.metric, objects
                )
                #: Per-k corrections of the "lb" estimator.
                self.ndk_corrections = self._measure_corrections(objects)
                #: Which ND_k estimator won calibration: "lb" or "hom".
                self._ndk_kind = "lb" if self.ndk_corrections else "hom"
                step = max(1, len(objects) // probe_queries)
                self._calibrate_probes(objects[::step][:probe_queries])
        finally:
            tree.flush_cache()

    def _collect_boxes(self) -> list[tuple]:
        boxes = []
        self._leaf_boxes: list[tuple] = []
        for node in self.tree.btree.walk_nodes():
            box = self.tree.btree.node_box(node)
            if box is not None:
                boxes.append(box)
                if node.is_leaf:
                    self._leaf_boxes.append(box)
        return boxes

    # ----------------------------------------------------------- calibration

    def _measure_corrections(
        self,
        objects: Sequence[Any],
        pseudo_queries: int = 10,
        subsample: int = 300,
    ) -> dict[int, float]:
        """Calibrate the "lb" ND_k estimator against reality.

        The mapped lower-bound quantile tracks the true k-th NN distance
        proportionally but with a dataset-specific bias (it is a lower
        bound, and order statistics push it further down).  For a few
        pseudo-queries drawn from the sampled objects, compare the
        lower-bound quantile against the empirical ND_k on a subsample, and
        keep the median correction per k.  Uses the raw metric.
        """
        n = self.tree.object_count
        m = len(objects)
        if n < 20:
            return {}
        metric = self.tree.distance.metric
        space = self.tree.space
        shift = 0.0 if space.exact else 0.5
        state = 0xDEADBEEF12345678

        def next_object() -> Any:
            nonlocal state
            state = _lcg(state)
            return objects[state % m]

        queries = [next_object() for _ in range(pseudo_queries)]
        sub_objects = [next_object() for _ in range(min(subsample, m))]
        # (c + shift)·δ of every sampled cell: an integer cell converts to the
        # same double either way, so the lower bounds below take the scalar
        # expression's IEEE steps, |(c + shift)·δ − φ_q(i)| then the row max.
        centres = (np.asarray(self.sample, dtype=np.float64) + shift) * space.delta
        # What does not depend on k, once per pseudo-query: its sorted lower
        # bounds over the sample and its sorted true distances.
        sorted_per_query = []
        for q in queries:
            lbs = np.abs(centres - np.asarray(self._phi(q), dtype=np.float64))
            dists = metric.batch(q, sub_objects)
            sorted_per_query.append((np.sort(lbs.max(axis=1)).tolist(), sorted(dists)))
        corrections: dict[int, float] = {}
        for k in (1, 2, 4, 8, 16, 32, 64):
            ratios_k = []
            for lbs, dists in sorted_per_query:
                lbq = _interpolated(lbs, k * len(lbs) / n)
                if lbq <= 0:
                    continue
                true_ndk = _interpolated(dists, k * len(dists) / n)
                if true_ndk > 0:
                    ratios_k.append(true_ndk / lbq)
            if ratios_k:
                corrections[k] = _median(ratios_k)
        return corrections

    def _calibrate_probes(self, probes: Sequence[Any]) -> None:
        """Probe the tree with a few real queries and fit the model to them.

        The caller runs the probes under :meth:`SPBTree.unobserved`, so
        probing never shows up in reported PA/compdists or the buffer
        pool's hit rate.
        """
        tree = self.tree
        if tree.object_count < 30:
            return
        lb_err, hom_err = [], []
        observations = []
        for q in probes:
            tree.flush_cache()
            pa0 = tree.page_accesses
            result = tree.knn_query(q, self._PROBE_K)
            actual_pa = tree.page_accesses - pa0
            true_ndk = result[-1][0] if result else 0.0
            if true_ndk <= 0:
                continue
            phi_q = self._phi(q)
            r_lb = self._ndk_lower_bound(phi_q, self._PROBE_K)
            r_hom = self._ndk_homogeneous(self._PROBE_K)
            if r_lb > 0:
                lb_err.append(abs(math.log(r_lb / true_ndk)))
            if r_hom > 0:
                hom_err.append(abs(math.log(r_hom / true_ndk)))
                observations.append((q, phi_q, true_ndk, actual_pa, r_hom))
        if not observations:
            return
        if lb_err and (not hom_err or _median(lb_err) <= _median(hom_err)):
            self._ndk_kind = "lb"
        else:
            self._ndk_kind = "hom"
            ratios = [t / r for _, _, t, _, r in observations if r > 0]
            if ratios:
                self._hom_scale = _median(ratios)
        # Fit the page-access scale at the true radii, where the EDC
        # part of the model is known to be accurate.
        pa_ratios = []
        for _, phi_q, true_ndk, actual_pa, _ in observations:
            raw = self._epa_raw(phi_q, true_ndk)
            if raw > 0 and actual_pa > 0:
                pa_ratios.append(actual_pa / raw)
        if pa_ratios:
            self._epa_scale = _median(pa_ratios)

    # ------------------------------------------------------------ internals

    def _phi(self, query: Any) -> tuple[float, ...]:
        # Estimation must not pollute the tree's compdists counter.
        metric = self.tree.distance.metric
        return tuple(metric(query, p) for p in self.tree.space.pivots)

    def _pr_in_rr(self, phi_q: Sequence[float], radius: float) -> float:
        """Pr(φ(o) ∈ RR(q, r)) of eq. 4, from the sample."""
        lo, hi = self.tree.space.range_region(phi_q, radius)
        inside = sum(1 for g in self.sample if point_in_box(g, lo, hi))
        return inside / len(self.sample)

    def _btree_node_accesses(self, phi_q: Sequence[float], radius: float) -> int:
        """Σ I(Mᵢ intersects the search region) over B+-tree nodes (eq. 6)."""
        lo, hi = self.tree.space.range_region(phi_q, radius)
        return sum(
            1 for box in self._node_boxes if boxes_intersect(lo, hi, *box)
        )

    def _raf_pages(self, phi_q: Sequence[float], radius: float, verified: float) -> float:
        """Distinct RAF pages hit: eq. 6's EDC/f, refined with the Cardenas
        approximation over the leaves the range region intersects."""
        lo, hi = self.tree.space.range_region(phi_q, radius)
        leaves_hit = sum(
            1 for box in self._leaf_boxes if boxes_intersect(lo, hi, *box)
        )
        raf = self.tree.raf
        if raf is None or leaves_hit == 0 or verified <= 0:
            return 0.0
        span = max(1.0, raf.num_pages / max(1, len(self._leaf_boxes)))
        per_leaf = verified / leaves_hit
        distinct = span * (1.0 - (1.0 - 1.0 / span) ** per_leaf)
        return leaves_hit * distinct

    def _epa_raw(self, phi_q: Sequence[float], radius: float) -> float:
        edc_objects = self.tree.object_count * self._pr_in_rr(phi_q, radius)
        return self._btree_node_accesses(phi_q, radius) + self._raf_pages(
            phi_q, radius, edc_objects
        )

    # ------------------------------------------------------------- queries

    def estimate_range(self, query: Any, radius: float) -> CostEstimate:
        """EDC (eq. 3) and EPA (eq. 6) for RQ(query, O, radius)."""
        space = self.tree.space
        phi_q = self._phi(query)
        n = self.tree.object_count
        edc = space.num_pivots + n * self._pr_in_rr(phi_q, radius)
        epa = self._epa_raw(phi_q, radius) * self._epa_scale
        return CostEstimate(edc=edc, epa=epa, radius=radius)

    def estimate_knn(self, query: Any, k: int) -> CostEstimate:
        """EDC/EPA for kNN(query, k), via the eND_k estimate of eq. 5."""
        radius = self.estimate_nd_k(query, k)
        estimate = self.estimate_range(query, radius)
        estimate.radius = radius
        return estimate

    def estimate_nd_k(self, query: Any, k: int) -> float:
        """eND_k (eq. 5): the smallest r with |O| · F_q(r) ≥ k.

        Uses whichever estimator probe calibration selected:

        * ``"lb"`` — the k/n quantile of the mapped lower bounds
          max_i |d(o,pᵢ) − d(q,pᵢ)| over the sample, scaled by the per-k
          correction measured when the model was built (query-sensitive);
        * ``"hom"`` — the k/n quantile of the sampled pairwise distance
          distribution F with power-law tail extrapolation F(r) ∝ r^(2ρ)
          (query-insensitive), scaled by the probe-fitted constant.
        """
        phi_q = self._phi(query)
        if self._ndk_kind == "lb":
            radius = self._ndk_lb_monotone(phi_q, k)
        else:
            radius = self._ndk_homogeneous(k) * self._hom_scale
            if radius <= 0:
                radius = self._ndk_lb_monotone(phi_q, k)
        return max(radius, 0.0)

    def _ndk_lb_monotone(self, phi_q: Sequence[float], k: int) -> float:
        """The "lb" estimate, projected monotone non-decreasing in k.

        ND_k is non-decreasing by definition, but two things can locally
        invert the raw estimate: the measured per-k correction can fall
        faster than the lower-bound quantile rises, and the homogeneous
        fallback (used where the quantile is 0) need not agree with the
        quantile it hands over to.  The projection
        resolves both at once: evaluate the *fallback-resolved* estimate
        at k and at every measured anchor above it (the sorted lower
        bounds are computed once and shared), then take the min — a lower
        envelope.  Lowering the violating small-k values beats raising
        the large-k ones: the small-k probes are the noisy overshooting
        side of the correction fit.
        """
        lbs = self._mapped_lower_bounds(phi_q)

        def resolved(j: int) -> float:
            value = self._ndk_lower_bound(phi_q, j, lbs)
            if value <= 0:
                value = self._ndk_homogeneous(j) * self._hom_scale
            return value

        anchors = [j for j in sorted(self.ndk_corrections) if j > k]
        values = [v for j in [k] + anchors if (v := resolved(j)) > 0]
        return min(values) if values else 0.0

    def _mapped_lower_bounds(self, phi_q: Sequence[float]) -> list[float]:
        space = self.tree.space
        shift = 0.0 if space.exact else 0.5
        return sorted(
            max(
                abs((coord + shift) * space.delta - dq)
                for coord, dq in zip(g, phi_q)
            )
            for g in self.sample
        )

    def _ndk_lower_bound(
        self,
        phi_q: Sequence[float],
        k: int,
        lower_bounds: Optional[list[float]] = None,
    ) -> float:
        n = max(self.tree.object_count, 1)
        if lower_bounds is None:
            lower_bounds = self._mapped_lower_bounds(phi_q)
        position = _member_rank(k) * len(lower_bounds) / n
        lbq = _interpolated(lower_bounds, position)
        if lbq <= 0:
            return 0.0
        return lbq * _correction_for(self.ndk_corrections, k)

    def _ndk_homogeneous(self, k: int) -> float:
        pd = self.pair_distances
        if not pd:
            return 0.0
        n = max(self.tree.object_count, 1)
        position = (_member_rank(k) / n) * len(pd)
        if position < 1.0:
            exponent = self.distance_exponent
            return pd[0] * position ** (1.0 / exponent)
        return pd[min(int(position), len(pd) - 1)]

    # ---------------------------------------------------------------- joins

    @staticmethod
    def estimate_join(
        tree_q: SPBTree, tree_o: SPBTree, epsilon: float
    ) -> CostEstimate:
        """EDC (eq. 7) and EPA (eq. 8) for SJ(Q, O, ε).

        eq. 7 sums Pr(φ(o) ∈ RR(q, ε)) over all q ∈ Q; we evaluate the mean
        over tree_q's sample of mapped points and scale by |Q|, which equals
        the same sum in expectation.
        """
        space = tree_o.space
        sample_q = _cells(tree_q, _sampled_entries(tree_q))
        sample_o = _cells(tree_o, _sampled_entries(tree_o))
        top = space.cells - 1
        if space.exact:
            reach = int(epsilon // space.delta)
        else:
            reach = int(epsilon // space.delta) + 1
        total_pr = 0.0
        for grid_q in sample_q:
            lo = tuple(max(0, g - reach) for g in grid_q)
            hi = tuple(min(top, g + reach) for g in grid_q)
            inside = sum(1 for g in sample_o if point_in_box(g, lo, hi))
            total_pr += inside / len(sample_o)
        mean_pr = total_pr / len(sample_q)
        edc = len(tree_q) * len(tree_o) * mean_pr
        f_q = tree_q.raf.objects_per_page if tree_q.raf else 1.0
        f_o = tree_o.raf.objects_per_page if tree_o.raf else 1.0
        epa = (
            # Descent from each root to its first leaf, then the leaf chain.
            (tree_q.btree.height - 1)
            + (tree_o.btree.height - 1)
            + tree_q.btree.leaf_page_count
            + tree_o.btree.leaf_page_count
            + len(tree_q) / f_q
            + len(tree_o) / f_o
        )
        return CostEstimate(edc=edc, epa=epa, radius=epsilon)


def _member_rank(k: int) -> float:
    """Effective neighbour rank when the query is a dataset member.

    The paper's workload queries with "the first 500 objects in every
    dataset", so the nearest neighbour is the query itself at distance 0:
    ND_1 is exactly 0, and ND_k for k > 1 is really the (k-1)-th distance
    among *other* objects (k - 0.75 smooths the half-rank ambiguity).
    """
    if k <= 1:
        return 0.0
    return k - 0.75
