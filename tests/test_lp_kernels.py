"""The vector metrics' array entry point against their list one.

``MinkowskiDistance`` and ``HammingDistance`` answer a matrix with one
kernel: ``batch_array`` returns its float64 array and ``batch`` that
array's ``tolist()``.  The kernel works in one ``(m, dim)`` temporary and
never writes into the rows it is given — when they already are a
C-contiguous float64 array it is given the caller's own array.  Input that
is no matrix (ragged rows, non-numeric objects) takes the scalar loop,
through ``__call__``, from both entry points.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.distance import EditDistance, HammingDistance, MinkowskiDistance

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 1e300])
METRICS = [MinkowskiDistance(p) for p in (1, 2, 3, 5, math.inf)] + [HammingDistance()]


def _ids(metric) -> str:
    return metric.name


def _rows(seed: int, m: int = 200, dim: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """A query and ``m`` rows drawn from ±0.0, ±inf, NaN and ordinary
    values, with plain random rows mixed in."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(SPECIAL, (m, dim))
    rows[::3] = rng.random((len(rows[::3]), dim)) * 4 - 2
    return rng.choice(SPECIAL, dim), rows


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("metric", METRICS, ids=_ids)
@pytest.mark.parametrize("seed", range(4))
@np.errstate(all="ignore")  # inf - inf, overflowing powers
def test_the_array_is_the_list_bit_for_bit(metric, seed):
    q, rows = _rows(seed)
    for objs in (rows, list(rows), rows[::-1][::2], np.asfortranarray(rows)):
        got = metric.batch_array(q, objs)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.shape == (len(objs),)
        assert (_bits(got) == _bits(metric.batch(q, objs))).all()


@pytest.mark.parametrize("metric", METRICS, ids=_ids)
@pytest.mark.parametrize("seed", range(4))
@np.errstate(all="ignore")
def test_the_array_is_the_scalar_form_bit_for_bit(metric, seed):
    """Also where a NaN's sign could differ: inf − inf in some coordinate
    (the query and a row infinite at the same place), a NaN coordinate, a
    −0.0 difference."""
    q, rows = _rows(seed)
    rows[0], rows[1], rows[2] = q, -q, np.where(np.isinf(q), q, -0.0)
    scalar = [metric(q, o) for o in rows]
    assert (_bits(metric.batch_array(q, rows)) == _bits(scalar)).all()


@pytest.mark.parametrize("metric", METRICS, ids=_ids)
@np.errstate(all="ignore")
def test_inf_minus_inf_is_the_scalar_nan(metric):
    """A query with no NaN: the NaNs come from inf − inf alone."""
    q = np.array([np.inf, -np.inf, 1.0, -0.0])
    rows = np.array(
        [q, -q, [np.inf, 0.0, 1.0, 0.0], [0.0, -np.inf, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0]]
    )
    got = metric.batch_array(q, rows)
    assert (_bits(got) == _bits([metric(q, o) for o in rows])).all()
    if not isinstance(metric, HammingDistance):
        assert np.isnan(got[[0, 2, 3]]).all() and np.isinf(got[[1, 4]]).all()


@pytest.mark.parametrize("metric", METRICS, ids=_ids)
@pytest.mark.parametrize("dtype", [np.float64, np.uint8])
@np.errstate(all="ignore")
def test_the_rows_are_only_read(metric, dtype):
    rng = np.random.default_rng(3)
    rows = np.ascontiguousarray((rng.random((50, 5)) * 200).astype(dtype))
    q = (rng.random(5) * 200).astype(dtype)
    before, q_before = rows.copy(), q.copy()
    metric.batch_array(q, rows)
    metric.batch(q, rows)
    assert rows.flags.c_contiguous and (rows == before).all()
    assert (q == q_before).all()
    if dtype is np.float64:  # the kernel was handed this very array
        _, special = _rows(5)
        special = np.ascontiguousarray(special)
        kept = special.copy()
        metric.batch_array(np.zeros(7), special)
        assert (_bits(special) == _bits(kept)).all()


def _counted(metric):
    """A copy of ``metric`` whose class counts its scalar calls — the
    loop's mark — in ``calls``."""

    class Counted(type(metric)):
        calls = 0

        def __call__(self, a, b):
            Counted.calls += 1
            return super().__call__(a, b)

    counted = copy.copy(metric)
    counted.__class__ = Counted
    return counted


@pytest.mark.parametrize("metric", METRICS, ids=_ids)
def test_input_that_is_no_matrix_takes_the_loop(metric):
    metric = _counted(metric)
    with pytest.raises(ValueError):  # ragged: the loop raises at row 2
        metric.batch_array([1.0, 2.0], [[1.0, 2.0], [1.0, 2.0, 3.0]])
    assert metric.calls == 2
    # Tuples of Python ints make a matrix: the kernel, no scalar call.
    assert metric.batch_array((1, 2), [(1, 2), (2, 2)]).tolist() == metric.batch(
        (1, 2), [(1, 2), (2, 2)]
    )
    assert metric.calls == 2
    if isinstance(metric, HammingDistance):  # strings are no matrix
        assert metric.batch_array("abc", ["abd", "xyz"]).tolist() == [1.0, 3.0]
        assert metric.calls == 4
    assert metric.batch_array([1.0, 2.0], []).shape == (0,)


def test_the_default_array_is_the_list_as_an_array():
    metric = EditDistance()
    words = ["kitten", "sitting", "mitten", ""]
    for bound in (math.inf, 1.0, math.nan):
        got = metric.batch_array("kitten", words, bound)
        assert got.dtype == np.float64
        assert got.tolist() == metric.batch("kitten", words, bound)
