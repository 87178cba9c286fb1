"""Golden budget trips: where a ``max_compdists`` / ``max_page_accesses``
budget stops each read kind, pinned to recorded values.

``tests/test_counter_golden.py`` pins what an unlimited query costs; this
pins what a *limited* one leaves behind.  For range, count and both kNN
traversals, on a mutated words tree and a color tree, every budget at ⅛
steps of the unlimited compdists and ¼ steps of the unlimited PA is run and
``[len(partial), ctx.compdists, ctx.page_accesses, reason]`` compared with
``tests/golden/budget_golden.json`` — recorded at ``7fd92a3``, the commit
before verification went from one record at a time to one leaf at a time.
A budget trips at the same object whichever way the records are read; a
change that *means* to move a trip re-records with
``PYTHONPATH=src python tests/test_budget_golden.py``.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.core.spbtree import SPBTree
from repro.datasets import generate_words, load_dataset
from repro.service.context import QueryContext

SIZE = 1500
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "budget_golden.json")

KINDS = ("range", "count", "knn-incremental", "knn-greedy")


def _build(dataset_name: str):
    dataset = load_dataset(dataset_name, size=SIZE, num_queries=6, seed=42)
    tree = SPBTree.build(dataset.objects, dataset.metric, num_pivots=5, seed=7)
    if dataset_name == "words":
        # leaf splits, tombstones inside leaves, a grown RAF tail
        for word in generate_words(2 * SIZE, seed=5)[SIZE : SIZE + 400]:
            tree.insert(word)
        for word in dataset.objects[100:220]:
            assert tree.delete(word)
    # a pivot as a query: d(q, p) = 0 is where Lemma 2 accepts the most, so
    # free accepts and verified entries interleave inside the count's leaves
    return tree, [dataset.queries[3], tree.space.pivots[0]]


def _row(tree, kind: str, query, **limits) -> list:
    tree.flush_cache()
    ctx = QueryContext(**limits)
    if kind == "range":
        result = tree.range_query(query, _radius(tree), context=ctx)
        size = len(result.items)
    elif kind == "count":
        result = tree.range_count(query, _radius(tree), context=ctx)
        size = result.count
    else:
        result = tree.knn_query(
            query, 8, traversal=kind.split("-", 1)[1], context=ctx
        )
        size = len(result.items)
    reason = result.reason.kind if result.reason else None
    return [size, ctx.compdists, ctx.page_accesses, reason]


def _radius(tree) -> float:
    """Wide enough for Lemma 2 to accept some entries and leave others to
    verify (at 0.3 d+, as the counter goldens use, color accepts them all)."""
    return 9 if tree.space.exact else 0.16 * tree.space.d_plus


def measure() -> dict:
    """``{dataset: {kind: {"q<i>": {"compdists": [...], "pa": [...]}}}}``:
    one row per budget, the unlimited cost's eighths and quarters."""
    out: dict = {}
    for name in ("words", "color"):
        tree, queries = _build(name)
        out[name] = {}
        for kind in KINDS:
            out[name][kind] = {}
            for i, query in enumerate(queries):
                _, compdists, pa, reason = _row(tree, kind, query)
                assert reason is None
                out[name][kind][f"q{i}"] = {
                    "compdists": [
                        _row(tree, kind, query, max_compdists=compdists * step // 8)
                        for step in range(9)
                    ],
                    "pa": [
                        _row(tree, kind, query, max_page_accesses=pa * step // 4)
                        for step in range(5)
                    ],
                }
    return out


@pytest.fixture(scope="module")
def measured():
    return measure()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ("words", "color"))
def test_budget_trips_match_recorded_values(measured, golden, name, kind):
    assert measured[name][kind] == golden[name][kind]


def test_recorded_rows_cover_trips_and_completions(golden):
    """The file pins real trips: every kind has partial rows of both budget
    kinds, and the exact budget (the last step) always completes."""
    for name, kinds in golden.items():
        for kind, queries in kinds.items():
            for rows in queries.values():
                assert rows["compdists"][-1][3] is None and rows["pa"][-1][3] is None
                assert {r[3] for r in rows["compdists"][:-1]} == {"compdists"}
                assert {r[3] for r in rows["pa"][:-1]} == {"page_accesses"}
    assert any(
        0 < row[0]
        for kinds in golden.values()
        for rows in kinds["count"].values()
        for row in rows["compdists"][:-1]
    )


if __name__ == "__main__":
    text = json.dumps(measure(), indent=1, sort_keys=True)
    # one budget row per line
    text = re.sub(r"\[([^\[\]]*)\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(text + "\n")
    print("recorded", GOLDEN_PATH)
