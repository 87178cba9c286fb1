"""String metrics: edit distance and tri-gram angular distance."""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from repro.distance.base import Metric

#: Rows below which :meth:`EditDistance.batch` runs the loop.  The array
#: kernel costs about twenty numpy calls per text column whatever the row
#: count, so it needs rows to share them: on the words dataset (13
#: characters on average) it ties the loop at 64 rows, 5.5 µs a pair, and
#: takes 3.9 µs at 96, 2.4 at 300, 1.2 at 6 000.
BATCH_MIN_ROWS = 72

_ONE = np.uint64(1)
_ZERO = np.uint64(0)


@functools.lru_cache(maxsize=1 << 15)
def _pattern_bits(pattern: str) -> dict[str, int]:
    """Per-character occurrence bitmasks for Myers' algorithm, cached: the
    pattern is the query, which a search compares against every object it
    verifies."""
    peq: dict[str, int] = {}
    for i, c in enumerate(pattern):
        peq[c] = peq.get(c, 0) | (1 << i)
    return peq


def _myers(peq: dict[str, int], m: int, text: str, bound: float) -> float:
    """d(pattern, text) for the pattern of length ``m`` whose bitmasks are
    ``peq``, when it is at most ``bound``; otherwise a lower bound of it
    that is greater than ``bound``.

    Two cut-offs, both sound because d(pattern, text[:j]) moves by at most
    one per text character: the length gap ``|m - n|`` bounds d from below
    before the loop, and after column j the final score is at least
    ``score_j - (n - j)`` (Ukkonen), so the loop stops once that passes
    ``bound``.  A NaN bound never compares greater, so it is exact.
    """
    n = len(text)
    gap = abs(m - n)
    if gap > bound or not m or not n:
        return float(gap)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    pv = mask
    mv = 0
    # t = score_j + j; the cut-off score_j - (n - j) > bound is t > limit.
    t = m
    limit = bound + n
    for c in text:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            t += 2
            if t > limit:
                break
        elif not mh & high:
            t += 1
            if t > limit:
                break
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return float(t - n)


def _myers_columns(q: str, objs: Sequence[str], lengths: np.ndarray) -> np.ndarray:
    """Exact d(q, o) for every ``str`` row, with Myers' recurrence run
    across the rows: the query (1 to 64 characters) is the pattern, one
    ``uint64`` word per row, and step j reads column j of the texts'
    code-point matrix; a row whose text has ended keeps its score."""
    n = len(objs)
    m = len(q)
    order = np.argsort(-lengths, kind="stable")
    codes = np.array(objs, dtype=str).view(np.uint32).reshape(n, -1)[order]
    peq = _pattern_bits(q)
    chars = sorted(peq)
    points = np.array([ord(c) for c in chars], dtype=np.uint32)
    masks = np.array([peq[c] for c in chars], dtype=np.uint64)
    slot = np.minimum(np.searchsorted(points, codes), len(points) - 1)
    eqs = np.where(points[slot] == codes, masks[slot], _ZERO).T.copy()
    # Longest text first, so the rows still reading column j are a prefix.
    live = n - np.cumsum(np.bincount(lengths))
    # No masks: bits above m - 1 only ever carry or shift upward, so they
    # never reach the m bits the score is read from (bit m - 1).
    top = np.uint64(m - 1)
    pv = np.full(n, np.uint64((1 << m) - 1))
    mv = np.zeros(n, dtype=np.uint64)
    score = np.full(n, m, dtype=np.uint64)
    for j in range(int(lengths.max())):
        k = live[j]
        eq, p, v = eqs[j, :k], pv[:k], mv[:k]
        xv = eq | v
        xh = (((eq & p) + p) ^ p) | eq
        ph = v | ~(xh | p)
        mh = p & xh
        score[:k] += (ph >> top) & _ONE
        score[:k] -= (mh >> top) & _ONE
        ph = (ph << _ONE) | _ONE
        pv[:k] = (mh << _ONE) | ~(xv | ph)
        mv[:k] = ph & xv
    out = np.empty(n)
    out[order] = score
    return out


class EditDistance(Metric):
    """Levenshtein distance with unit costs.

    The classic integer-valued string metric; the paper uses it for the
    Words dataset.  Implementation is Myers' bit-parallel algorithm (Myers,
    JACM 1999) — one big-integer update per text character instead of a DP
    row — with the first argument (the query, in a search) as the pattern.
    :meth:`batch` takes a bound and stops a row once it is past it: a
    length filter, then Ukkonen's cut-off.  Python's arbitrary-precision
    integers make it exact for any string length.
    """

    name = "edit"
    is_discrete = True

    def __call__(self, a: str, b: str) -> float:
        return _myers(_pattern_bits(a), len(a), b, math.inf)

    def batch(
        self, q: str, objs: Sequence[str], bound: float = math.inf
    ) -> list[float]:
        """:meth:`Metric.batch`'s contract: d(q, o) when it is at most
        ``bound``, else a lower bound of it greater than ``bound``.

        With :data:`BATCH_MIN_ROWS` rows or more, 0 < |q| <= 64 and only
        ``str`` rows, the rows whose length gap passes the bound are
        answered by the gap; if that many rows remain, Myers' recurrence
        runs across them, exactly.  Otherwise every row takes the scalar
        loop with the query as pattern and both cut-offs — or, for a query
        that is not a ``str`` or a subclass that overrides ``__call__``,
        :meth:`Metric.batch`'s loop.  Distances are integers, so every path
        agrees exactly within the bound."""
        n = len(objs)
        m = len(q)
        if (
            n >= BATCH_MIN_ROWS
            and 0 < m <= 64
            and isinstance(q, str)
            and all(type(o) is str for o in objs)
        ):
            # numpy's str dtype drops trailing NULs, so lengths come from
            # len(): a dropped NUL reads back as the zero padding.
            lengths = np.fromiter(map(len, objs), dtype=np.int64, count=n)
            gaps = np.abs(lengths - m)
            keep = np.flatnonzero(~(gaps > bound))
            if len(keep) >= BATCH_MIN_ROWS:
                out = gaps.astype(np.float64)
                rows = objs if len(keep) == n else [objs[k] for k in keep.tolist()]
                out[keep] = _myers_columns(q, rows, lengths[keep])
                return out.tolist()
        if not isinstance(q, str) or type(self).__call__ is not EditDistance.__call__:
            return super().batch(q, objs)
        peq = _pattern_bits(q)
        return [_myers(peq, m, o, bound) for o in objs]

    def against(self, q: str) -> Callable[[str, float], float]:
        """:meth:`Metric.against`: the scalar loop's Myers with the query's
        bitmasks and length resolved once — what a one-row :meth:`batch`
        runs.  A query that is not a ``str``, or a subclass that overrides
        ``__call__`` or ``batch``, gets the default, which asks them."""
        cls = type(self)
        if (
            not isinstance(q, str)
            or cls.__call__ is not EditDistance.__call__
            or cls.batch is not EditDistance.batch
        ):
            return super().against(q)
        peq = _pattern_bits(q)
        m = len(q)
        return lambda o, bound: _myers(peq, m, o, bound)


def trigram_counts(s: str) -> Counter:
    """Return the tri-gram multiset of ``s`` (with boundary padding)."""
    padded = f"##{s}##"
    return Counter(padded[i : i + 3] for i in range(len(padded) - 2))


@functools.lru_cache(maxsize=1 << 16)
def _trigram_profile(s: str) -> tuple[Counter, float]:
    """Cached (tri-gram counts, Euclidean norm) of a string.

    Index workloads compare the same stored strings against many queries;
    caching the profile makes the metric's cost one dictionary merge rather
    than two full recounts per call.
    """
    counts = trigram_counts(s)
    norm = math.sqrt(sum(c * c for c in counts.values()))
    return counts, norm


class TriGramAngularDistance(Metric):
    """Angular distance between tri-gram count vectors of two strings.

    The paper describes the DNA measurement as "cosine similarity under
    tri-gram counting space".  Cosine *similarity* itself (or 1 - cos) does
    not satisfy the triangle inequality, so — as any metric index must — we
    use the associated angular distance arccos(cos θ), which is a true metric
    on the unit sphere.  The range is [0, π/2] for the non-negative count
    vectors produced by tri-gram counting.
    """

    name = "trigram-angular"
    is_discrete = False

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        ca, norm_a = _trigram_profile(a)
        cb, norm_b = _trigram_profile(b)
        if len(ca) > len(cb):
            ca, cb = cb, ca
        dot = sum(count * cb[gram] for gram, count in ca.items())
        if norm_a == 0.0 or norm_b == 0.0:
            return math.pi / 2 if (norm_a or norm_b) else 0.0
        cosine = dot / (norm_a * norm_b)
        cosine = min(1.0, max(-1.0, cosine))
        return math.acos(cosine)
