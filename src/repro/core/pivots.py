"""Pivot selection algorithms (§2.2, §3.2, Appendix A).

The paper's own method is **HFI** (HF-based Incremental selection): use the
HF algorithm of the Omni-family to collect a small candidate set of outliers
(|CP| = 40 in the paper), then greedily add the candidate that maximizes the
*precision* of the pivot set (Definition 1) — the mean ratio between mapped
L∞ distances and original metric distances over a sample of object pairs.
The rationale: "good pivots are usually outliers, but outliers are not
always good pivots".

For Fig. 9 we also implement the competitors it is compared against —
HF itself, Spacing (minimum correlation), and PCA — plus FFT, SSS and random
selection for completeness.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.distance.base import CountingDistance, Metric

MetricLike = Metric | CountingDistance


# --------------------------------------------------------------------- util


def _sample(
    objects: Sequence[Any], size: int, rng: random.Random
) -> list[Any]:
    if len(objects) <= size:
        return list(objects)
    return rng.sample(list(objects), size)


def _sample_pairs(
    objects: Sequence[Any], num_pairs: int, rng: random.Random
) -> list[tuple[Any, Any]]:
    n = len(objects)
    if n < 2:
        return []
    pairs = []
    for _ in range(num_pairs):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        pairs.append((objects[i], objects[j]))
    return pairs


def intrinsic_dimensionality(
    objects: Sequence[Any],
    metric: MetricLike,
    num_pairs: int = 2000,
    seed: int = 7,
) -> float:
    """ρ = μ² / (2σ²) over sampled pairwise distances (§3.2).

    The paper uses ρ to pick the number of pivots: query efficiency peaks
    when |P| is near the dataset's intrinsic dimensionality.
    """
    rng = random.Random(seed)
    distances = [metric(a, b) for a, b in _sample_pairs(objects, num_pairs, rng)]
    if not distances:
        return 1.0
    mu = float(np.mean(distances))
    var = float(np.var(distances))
    if var == 0:
        return float("inf")
    return mu * mu / (2.0 * var)


def pivot_set_precision(
    pivots: Sequence[Any],
    pairs: Sequence[tuple[Any, Any]],
    metric: MetricLike,
) -> float:
    """precision(P) of Definition 1 over the given object pairs."""
    if not pairs:
        return 0.0
    ratios = []
    pivot_cache: dict[int, tuple[float, ...]] = {}

    def phi(obj: Any) -> tuple[float, ...]:
        key = id(obj)
        if key not in pivot_cache:
            pivot_cache[key] = tuple(metric(obj, p) for p in pivots)
        return pivot_cache[key]

    for a, b in pairs:
        d = metric(a, b)
        if d == 0:
            continue
        lower = max(abs(x - y) for x, y in zip(phi(a), phi(b)))
        ratios.append(lower / d)
    return float(np.mean(ratios)) if ratios else 0.0


# ----------------------------------------------------------------- methods


def select_random(
    objects: Sequence[Any],
    k: int,
    metric: MetricLike | None = None,
    seed: int = 7,
    **_: Any,
) -> list[Any]:
    """Uniform random pivots (the selection the M-Index baseline uses)."""
    rng = random.Random(seed)
    return _sample(objects, k, rng)


def select_fft(
    objects: Sequence[Any],
    k: int,
    metric: MetricLike,
    seed: int = 7,
    sample_size: int = 500,
    **_: Any,
) -> list[Any]:
    """Farthest-first traversal: maximize the minimum inter-pivot distance."""
    rng = random.Random(seed)
    candidates = _sample(objects, sample_size, rng)
    start = rng.choice(candidates)
    first = max(candidates, key=lambda o: metric(start, o))
    pivots = [first]
    min_dist = {id(o): metric(first, o) for o in candidates}
    while len(pivots) < min(k, len(candidates)):
        best = max(candidates, key=lambda o: min_dist[id(o)])
        if min_dist[id(best)] == 0:
            break
        pivots.append(best)
        for o in candidates:
            d = metric(best, o)
            if d < min_dist[id(o)]:
                min_dist[id(o)] = d
    return pivots


def select_hf(
    objects: Sequence[Any],
    k: int,
    metric: MetricLike,
    seed: int = 7,
    sample_size: int = 500,
    **_: Any,
) -> list[Any]:
    """The HF algorithm of the Omni-family (Traina et al.).

    Picks objects near the hull of the dataset: the first two foci are the
    endpoints of an (approximately) longest edge; each further focus
    minimizes the summed deviation |edge - d(o, fᵢ)| from that edge length,
    i.e. it completes an equilateral simplex with the chosen foci.
    """
    rng = random.Random(seed)
    candidates = _sample(objects, sample_size, rng)
    if len(candidates) <= k:
        return list(candidates)
    s = rng.choice(candidates)
    f1 = _farthest(candidates, metric.batch(s, candidates))
    f2 = _farthest(candidates, metric.batch(f1, candidates))
    edge = metric(f1, f2)
    if edge == 0:
        return candidates[:k]
    pivots = [f1, f2]
    chosen = {id(f1), id(f2)}
    # Incremental error sums: err[o] = Σ_p |edge - d(o, p)| over chosen
    # pivots, extended by one distance column per new focus (keeps HF at
    # O(k·|sample|) distance computations instead of O(k²·|sample|)).
    rest = [o for o in candidates if id(o) not in chosen]
    err = {
        id(o): abs(edge - d1) + abs(edge - d2)
        for o, d1, d2 in zip(rest, metric.batch(f1, rest), metric.batch(f2, rest))
    }
    while len(pivots) < k:
        best, best_err = None, math.inf
        for o in candidates:
            if id(o) in chosen:
                continue
            if err[id(o)] < best_err:
                best, best_err = o, err[id(o)]
        if best is None:
            break
        pivots.append(best)
        chosen.add(id(best))
        rest = [o for o in candidates if id(o) not in chosen]
        for o, d in zip(rest, metric.batch(best, rest)):
            err[id(o)] += abs(edge - d)
    return pivots[:k]


def _farthest(candidates: Sequence[Any], dists: Sequence[float]) -> Any:
    """The first candidate at the largest distance, as ``max`` picks it."""
    return candidates[max(range(len(candidates)), key=dists.__getitem__)]


def select_sss(
    objects: Sequence[Any],
    k: int,
    metric: MetricLike,
    seed: int = 7,
    sample_size: int = 500,
    d_plus: Optional[float] = None,
    alpha: float = 0.35,
    **_: Any,
) -> list[Any]:
    """Sparse Spatial Selection: accept an object as a pivot if it is at
    least α·d+ away from every pivot chosen so far.

    If the scan yields fewer than ``k`` pivots, α is relaxed and the scan
    repeated, so the requested count is always reached on non-degenerate
    data.
    """
    rng = random.Random(seed)
    candidates = _sample(objects, sample_size, rng)
    if d_plus is None:
        d_plus = metric.max_distance(candidates)
    while True:
        threshold = alpha * d_plus
        pivots: list[Any] = [candidates[0]]
        for o in candidates[1:]:
            if len(pivots) >= k:
                break
            if all(metric(o, p) >= threshold for p in pivots):
                pivots.append(o)
        if len(pivots) >= k or alpha < 1e-3:
            return pivots[:k]
        alpha *= 0.7


def select_spacing(
    objects: Sequence[Any],
    k: int,
    metric: MetricLike,
    seed: int = 7,
    sample_size: int = 300,
    num_candidates: int = 40,
    **_: Any,
) -> list[Any]:
    """Minimum-correlation selection (Leuken & Veltkamp, "Spacing").

    Greedily adds the candidate whose distance column over a sample has the
    lowest maximum Pearson correlation with the columns of the pivots chosen
    so far, spreading objects evenly over the mapped space.
    """
    rng = random.Random(seed)
    sample = _sample(objects, sample_size, rng)
    candidates = _sample(objects, num_candidates, random.Random(seed + 1))
    columns = np.array(
        [[metric(s, c) for s in sample] for c in candidates], dtype=np.float64
    )
    # Start from the candidate with the largest distance spread.
    order = int(np.argmax(columns.std(axis=1)))
    chosen = [order]
    while len(chosen) < min(k, len(candidates)):
        best, best_corr = None, math.inf
        for i in range(len(candidates)):
            if i in chosen:
                continue
            worst = 0.0
            for j in chosen:
                corr = _pearson(columns[i], columns[j])
                worst = max(worst, abs(corr))
            if worst < best_corr:
                best, best_corr = i, worst
        if best is None:
            break
        chosen.append(best)
    return [candidates[i] for i in chosen]


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        return 0.0
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


def select_pca(
    objects: Sequence[Any],
    k: int,
    metric: MetricLike,
    seed: int = 7,
    sample_size: int = 300,
    num_candidates: int = 40,
    **_: Any,
) -> list[Any]:
    """PCA-based selection (Mao et al., 2012).

    Embeds the sample via distances to all candidates, runs PCA on that
    embedding, and for each of the top-k principal components picks the
    candidate whose distance column is most aligned with it.
    """
    rng = random.Random(seed)
    sample = _sample(objects, sample_size, rng)
    candidates = _sample(objects, num_candidates, random.Random(seed + 1))
    matrix = np.array(
        [[metric(s, c) for c in candidates] for s in sample], dtype=np.float64
    )
    centered = matrix - matrix.mean(axis=0)
    # Right singular vectors = principal axes in candidate space.
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    chosen: list[int] = []
    for component in vt:
        ranked = np.argsort(-np.abs(component))
        for idx in ranked:
            if int(idx) not in chosen:
                chosen.append(int(idx))
                break
        if len(chosen) >= min(k, len(candidates)):
            break
    return [candidates[i] for i in chosen[:k]]


def select_hfi(
    objects: Sequence[Any],
    k: int,
    metric: MetricLike,
    seed: int = 7,
    sample_size: int = 500,
    num_candidates: int = 40,
    num_pairs: int = 300,
    **_: Any,
) -> list[Any]:
    """HFI — the paper's pivot selection algorithm (§3.2, Appendix A).

    1. Run HF to obtain ``num_candidates`` outlier candidates CP (the paper
       fixes |CP| = 40).
    2. Incrementally move the candidate from CP to P that maximizes
       precision(P) (Definition 1), evaluated on a fixed sample of object
       pairs, until |P| = k.

    Distances from sample objects to candidates are computed once, two
    ``metric.batch`` columns per candidate, so step 2 costs O(|P|·|CP|)
    passes over the table, matching the paper's O(|O| + |P||CP|) complexity
    claim.  A candidate's score sums its pairs' terms left to right
    (``np.add.accumulate``, not numpy's pairwise ``sum``), as the loop did,
    so the same candidate wins.
    """
    rng = random.Random(seed)
    candidates = select_hf(
        objects, num_candidates, metric, seed=seed, sample_size=sample_size
    )
    pool = _sample(objects, sample_size, rng)
    pairs = _sample_pairs(pool, num_pairs, rng)
    pairs = [(a, b, metric(a, b)) for a, b in pairs]
    pairs = [(a, b, d) for a, b, d in pairs if d > 0]
    if not pairs:
        return candidates[:k]
    # lbs[c, j] = |d(a_j, c) - d(b_j, c)|: candidate c's bound on pair j.
    lefts = [a for a, _, _ in pairs]
    rights = [b for _, b, _ in pairs]
    lbs = np.abs(
        np.array([metric.batch(c, lefts) for c in candidates])
        - np.array([metric.batch(c, rights) for c in candidates])
    )
    dists = np.array([d for _, _, d in pairs])

    chosen: list[int] = []
    # best_lb[j]: current max_i |d(a,p_i) - d(b,p_i)| for pair j.
    best_lb = np.zeros(len(pairs))
    while len(chosen) < min(k, len(candidates)):
        scores = np.add.accumulate(np.maximum(best_lb, lbs) / dists, axis=1)[:, -1]
        scores[chosen] = -np.inf
        best_idx = int(np.argmax(scores))  # the first of equal scores
        chosen.append(best_idx)
        best_lb = np.maximum(best_lb, lbs[best_idx])
    return [candidates[i] for i in chosen]


_METHODS: dict[str, Callable[..., list[Any]]] = {
    "random": select_random,
    "fft": select_fft,
    "hf": select_hf,
    "sss": select_sss,
    "spacing": select_spacing,
    "pca": select_pca,
    "hfi": select_hfi,
}


def select_pivots(
    objects: Sequence[Any],
    k: int,
    metric: MetricLike,
    method: str = "hfi",
    **kwargs: Any,
) -> list[Any]:
    """Select ``k`` pivots with the named method (default: the paper's HFI)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        fn = _METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown pivot selection method {method!r}; "
            f"available: {sorted(_METHODS)}"
        ) from None
    pivots = fn(objects, k, metric, **kwargs)
    if not pivots:
        raise RuntimeError(f"pivot selection {method!r} produced no pivots")
    return pivots
