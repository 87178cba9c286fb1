"""Property tests for the cost models, across the registered datasets.

A caller compares estimates (radii, k values, one query against another),
so the models' shape matters beyond point accuracy: a non-monotone EDC
would rank two plans the wrong way round, and a NaN would poison any sum it
enters.  These properties are checked on several registered datasets
(Table 2 pairings), not one handpicked distribution:

* EDC and EPA are monotone non-decreasing in the range radius;
* EDC, EPA, and the estimated radius are monotone non-decreasing in k
  (evaluated at the model's measured correction anchors, where the
  lower-envelope projection guarantees the invariant);
* ``estimate_knn(k)`` is exactly ``estimate_range`` at
  ``estimate_nd_k(k)`` — the kNN model is the range model at the
  estimated k-th-NN radius, nothing more;
* every estimate is finite and non-negative.
"""

import math

import pytest

from repro.core.costmodel import CostModel
from repro.core.spbtree import SPBTree
from repro.datasets import load_dataset

#: Registered datasets exercised, at harness-friendly sizes.
_CASES = [("words", 400), ("color", 300), ("synthetic", 300)]

#: k values at the measured correction anchors (see
#: ``CostModel._measure_corrections``), where monotonicity is guaranteed.
_KS = (1, 2, 4, 8, 16, 32)


@pytest.fixture(scope="module", params=_CASES, ids=[c[0] for c in _CASES])
def model_and_queries(request):
    name, size = request.param
    ds = load_dataset(name, size=size, num_queries=8, seed=11)
    tree = SPBTree.build(ds.objects, ds.metric, num_pivots=3, seed=5)
    model = CostModel(tree)
    return model, ds.queries, ds.d_plus


def _radii(d_plus):
    return [d_plus * f for f in (0.02, 0.05, 0.1, 0.2, 0.4, 0.8)]


class TestRangeMonotone:
    def test_edc_monotone_in_radius(self, model_and_queries):
        model, queries, d_plus = model_and_queries
        for q in queries:
            edcs = [model.estimate_range(q, r).edc for r in _radii(d_plus)]
            assert edcs == sorted(edcs), edcs

    def test_epa_monotone_in_radius(self, model_and_queries):
        model, queries, d_plus = model_and_queries
        for q in queries:
            epas = [model.estimate_range(q, r).epa for r in _radii(d_plus)]
            assert epas == sorted(epas), epas


class TestKnnMonotone:
    def test_radius_monotone_in_k(self, model_and_queries):
        model, queries, _ = model_and_queries
        for q in queries:
            radii = [model.estimate_nd_k(q, k) for k in _KS]
            assert radii == sorted(radii), radii

    def test_edc_epa_monotone_in_k(self, model_and_queries):
        model, queries, _ = model_and_queries
        for q in queries:
            estimates = [model.estimate_knn(q, k) for k in _KS]
            edcs = [e.edc for e in estimates]
            epas = [e.epa for e in estimates]
            assert edcs == sorted(edcs), edcs
            assert epas == sorted(epas), epas


class TestConsistency:
    def test_knn_is_range_at_estimated_radius(self, model_and_queries):
        model, queries, _ = model_and_queries
        for q in queries:
            for k in (2, 8, 32):
                knn = model.estimate_knn(q, k)
                radius = model.estimate_nd_k(q, k)
                assert knn.radius == radius
                rng = model.estimate_range(q, radius)
                assert knn.edc == rng.edc
                assert knn.epa == rng.epa

    def test_estimates_finite_and_non_negative(self, model_and_queries):
        model, queries, d_plus = model_and_queries
        for q in queries:
            for r in _radii(d_plus):
                est = model.estimate_range(q, r)
                assert math.isfinite(est.edc) and est.edc >= 0
                assert math.isfinite(est.epa) and est.epa >= 0
            for k in _KS:
                est = model.estimate_knn(q, k)
                assert math.isfinite(est.edc) and est.edc >= 0
                assert math.isfinite(est.epa) and est.epa >= 0
                assert math.isfinite(est.radius) and est.radius >= 0
