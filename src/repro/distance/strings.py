"""String metrics: edit distance and tri-gram angular distance."""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from repro.distance.base import Metric

#: Rows below which :meth:`EditDistance.batch` runs the scalar recurrence;
#: under a bound these are the rows that passed the gap and bag stages,
#: counted once.  The array kernel costs about twenty numpy calls per text
#: column whatever the row count, so it needs rows to share them: on the
#: words dataset (13 characters on average) it ties the loop at 64 rows,
#: 5.5 µs a pair, and takes 3.9 µs at 96, 2.4 at 300, 1.2 at 6 000.
BATCH_MIN_ROWS = 72

#: Live rows below which :func:`_myers_columns` stops stepping numpy columns
#: and finishes each row with the scalar recurrence: a numpy step costs some
#: 20 µs whatever the row count, a scalar column under 1 µs a row.  Measured
#: on the 127 unbounded kernel calls of a words-range build (74 179 rows;
#: each call's fastest of 7 timings, summed): never finishing 138.9 ms, 16
#: rows 132.0, 24 rows 130.0, 32 rows 134.9, :data:`BATCH_MIN_ROWS` 144.6.
_FINISH_ROWS = 24

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


#: Longest string the bag stage takes: a bag counts each lane's characters
#: in a 7-bit field.
BAG_MAX_LEN = 127
#: The spare top bit of each of the 64 one-byte lanes of a bag.
_TOPS = sum(1 << (8 * k + 7) for k in range(64))


class _LaneUnits(dict):
    """Character -> ``1 << 8 * (ord(c) & 63)``, the one its bag lane adds,
    kept once computed (one entry per distinct character met)."""

    def __missing__(self, c: str) -> int:
        unit = self[c] = 1 << (8 * (ord(c) & 63))
        return unit


_LANE_UNIT = _LaneUnits()


@functools.lru_cache(maxsize=1 << 16)
def _bag(s: str) -> int:
    """The character multiset of ``s`` as one int, cached: byte lane
    ``ord(c) & 63`` counts the characters c of ``s`` that fall in it,
    summed at C speed.  Characters sharing a lane are counted together,
    which only merges differences away, so the bag distance read from two
    of these ints stays a lower bound of the edit distance.  Exact up to
    :data:`BAG_MAX_LEN` characters."""
    return sum(map(_LANE_UNIT.__getitem__, s))


def _excess(bag: int, other: int) -> int:
    """The size of ``other``'s multiset less ``bag``'s, summed over the
    lanes of max(0, o - q), all lanes at once: with every lane's top bit
    set in ``other`` the subtraction borrows across no lane, a lane whose
    top bit survives had o >= q, and its low seven bits are o - q; the
    kept lanes add up mod 255 (256 is 1 mod 255), exactly as the sum is
    at most 127."""
    t = (other | _TOPS) - bag
    kept = t & _TOPS
    return (t & (kept - (kept >> 7))) % 255


def _bounded(
    peq: dict[str, int], m: int, bag: int, text: str, bound: float
) -> float:
    """d(pattern, text) for the pattern of length ``m`` whose bitmasks are
    ``peq`` and whose :func:`_bag` is ``bag``, when it is at most
    ``bound``; otherwise a lower bound of it that is greater than ``bound``.

    Three stages, each a lower bound of d, cheapest first: the length gap
    ``|m - n|``; the bag distance ``max(|p - t|, |t - p|)`` over the two
    character multisets, which is ``|t - p| + max(0, m - n)``
    (:func:`_excess`, six operations on the two cached ints); then Myers'
    recurrence with Ukkonen's cut-off.  A pair the bag rejects answers
    ``floor(bound) + 1``, the least integer past the bound, which d
    reaches because it is an integer greater than ``bound``.  A NaN bound
    never compares greater, so it is exact.
    """
    n = len(text)
    gap = abs(m - n)
    if gap > bound or not m or not n:
        return float(gap)
    # The bag distance is at most max(m, n): past that it cannot reject,
    # and an unbounded call never builds the text's bag.  A text that is
    # not a ``str`` (a tuple of any hashables) goes straight to Myers.
    if (
        (bound < m or bound < n)
        and type(text) is str
        and m <= BAG_MAX_LEN
        and n <= BAG_MAX_LEN
    ):
        # _excess, inlined: this is the hot path of a words kNN.
        t = (_bag(text) | _TOPS) - bag
        kept = t & _TOPS
        if (t & (kept - (kept >> 7))) % 255 + (m - n if m > n else 0) > bound:
            return math.floor(bound) + 1.0
    return _myers(peq, m, text, bound)


def _myers(peq: dict[str, int], m: int, text: str, bound: float) -> float:
    """Myers' recurrence for a pattern and a text of lengths ``m, n >= 1``:
    d when it is at most ``bound``, otherwise a lower bound of it greater
    than ``bound``.

    After column j the final score is at least ``score_j - (n - j)``
    (d(pattern, text[:j]) moves by at most one per text character), so
    the loop stops once that passes ``bound`` (Ukkonen's cut-off).
    """
    n = len(text)
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


def _myers_finish(
    peq: dict[str, int], m: int, text: str, j: int, pv: int, mv: int, score: int
) -> int:
    """d(pattern, text), Myers' recurrence resumed at column ``j`` from the
    state ``(pv, mv, score)`` :func:`_myers_columns` reached there (the bits
    of ``pv`` and ``mv`` above the pattern's are dropped), with no cut-off."""
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    pv &= mask
    mv &= mask
    for c in text[j:]:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


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
        if k < _FINISH_ROWS:
            # Too few rows left to share a numpy step: the scalar recurrence
            # finishes each from its state after column j.  Equal texts
            # reach column j in equal states, so each is finished once.
            finished: dict[str, int] = {}
            for r in range(k):
                text = objs[order[r]]
                if text not in finished:
                    finished[text] = _myers_finish(
                        peq, m, text, j, int(pv[r]), int(mv[r]), int(score[r])
                    )
                score[r] = finished[text]
            break
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
    row.  An unbounded call takes the longer argument as the pattern, so it
    steps the shorter one; :meth:`batch` and :meth:`against` take the query
    as the pattern.  Python's arbitrary-precision integers make it exact for
    any string length.

    :meth:`batch` and :meth:`against` take a bound and settle a pair in
    three stages, each a lower bound of d, cheapest first, stopping once
    one is past the bound: the length gap ``|m - n|``; the bag distance,
    ``max(|q - o|, |o - q|)`` over the character multisets, read from one
    cached int per string (strings of up to :data:`BAG_MAX_LEN`
    characters); then Myers' recurrence with Ukkonen's cut-off.  On the
    words kNN most rejected pairs never reach the recurrence.
    """

    name = "edit"
    is_discrete = True

    def __call__(self, a: str, b: str) -> float:
        # d is symmetric, so the longer string is the pattern and the
        # recurrence steps the shorter one's characters.  No bound, so the
        # bag is never read.
        if len(a) < len(b):
            a, b = b, a
        return _bounded(_pattern_bits(a), len(a), 0, b, math.inf)

    def batch(
        self, q: str, objs: Sequence[str], bound: float = math.inf
    ) -> list[float]:
        """:meth:`Metric.batch`'s contract: d(q, o) when it is at most
        ``bound``, else a lower bound of it greater than ``bound``.

        A query that is not a ``str``, or a subclass that overrides
        ``__call__``, gets :meth:`Metric.batch`'s loop, which asks
        ``__call__`` for every row.  Otherwise, under a bound below inf,
        one inline loop runs :func:`_bounded`'s cheap stages on every row
        (the length gap, then the bag distance wherever ``_bounded`` would
        read it) and keeps the rows that pass both; only those reach
        Myers' recurrence — across them at once (:func:`_myers_columns`,
        exact) when :data:`BATCH_MIN_ROWS` or more are ``str`` and
        0 < |q| <= 64, else each with the scalar recurrence and its
        cut-off.  With no cut-off (inf or NaN) every row needs its exact
        distance: :data:`BATCH_MIN_ROWS` or more ``str`` rows under such a
        query go across at once, any others through the scalar loop.
        Distances are integers, so every path agrees exactly within the
        bound."""
        if not isinstance(q, str) or type(self).__call__ is not EditDistance.__call__:
            return super().batch(q, objs)
        m = len(q)
        peq = _pattern_bits(q)
        if not bound < math.inf:
            n = len(objs)
            if n >= BATCH_MIN_ROWS and 0 < m <= 64 and all(type(o) is str for o in objs):
                # numpy's str dtype drops trailing NULs, so lengths come
                # from len(): a dropped NUL reads back as the zero padding.
                lengths = np.fromiter(map(len, objs), dtype=np.int64, count=n)
                return _myers_columns(q, objs, lengths).tolist()
            # No bound below inf, so _bounded never reads the bag.
            return [_bounded(peq, m, 0, o, bound) for o in objs]
        # _bounded's gap and bag stages, inlined: this is the hot path of a
        # words range query.  A row that passes both is kept for Myers.
        bag, bag_of = _bag(q), _bag
        rejected = math.floor(bound) + 1.0
        bags = m <= BAG_MAX_LEN
        short = bound < m
        out: list[float] = []
        put = out.append
        keep: list[int] = []
        texts: list = []
        for i, o in enumerate(objs):
            n = len(o)
            if m > n:
                gap = m - n
            else:
                gap = n - m
            if gap > bound or not n or not m:
                put(float(gap))
                continue
            if bags and (short or bound < n) and n <= BAG_MAX_LEN and type(o) is str:
                t = (bag_of(o) | _TOPS) - bag
                kept = t & _TOPS
                if (t & (kept - (kept >> 7))) % 255 + (gap if m > n else 0) > bound:
                    put(rejected)
                    continue
            put(0.0)
            keep.append(i)
            texts.append(o)
        if len(texts) >= BATCH_MIN_ROWS and m <= 64 and all(type(o) is str for o in texts):
            lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
            dists = _myers_columns(q, texts, lengths).tolist()
        else:
            dists = [_myers(peq, m, o, bound) for o in texts]
        for i, d in zip(keep, dists):
            out[i] = d
        return out

    def against(self, q: str) -> Callable[[str, float], float]:
        """:meth:`Metric.against`: the scalar loop's three stages with the
        query's bitmasks, length and bag resolved once — what a one-row
        :meth:`batch` runs.  A query that is not a ``str``, or a subclass that overrides
        ``__call__`` or ``batch``, gets the default, which asks them."""
        cls = type(self)
        if (
            not isinstance(q, str)
            or cls.__call__ is not EditDistance.__call__
            or cls.batch is not EditDistance.batch
        ):
            return super().against(q)
        return functools.partial(_bounded, _pattern_bits(q), len(q), _bag(q))


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
