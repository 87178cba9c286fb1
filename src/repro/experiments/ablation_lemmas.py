"""Ablation study (beyond the paper): what each design choice contributes.

DESIGN.md calls out three load-bearing choices in the SPB-tree's query path;
this experiment turns each off in isolation and measures the cost of range
queries at the default radius:

* **Lemma 2** — distance-free inclusion of objects provably inside the
  range ball (saves distance computations on large radii);
* **pivot quality** — HFI pivots vs. random pivots (the core of Fig. 9);
* **curve clustering** — Hilbert vs. Z-order RAF layout (Table 4's angle,
  here for range queries).
"""

from __future__ import annotations

from repro.core.pivots import select_pivots
from repro.core.spbtree import SPBTree
from repro.datasets import load_dataset
from repro.experiments.common import (
    ExperimentTable,
    measure_queries,
    print_tables,
    radius_for,
    standard_cli,
)

DATASETS = ["words", "color"]
RADIUS_PERCENT = 16


def run(size: int | None = None, queries: int = 20, seed: int = 42):
    tables = []
    for name in DATASETS:
        dataset = load_dataset(name, size=size, num_queries=queries, seed=seed)
        radius = radius_for(dataset, RADIUS_PERCENT)
        table = ExperimentTable(
            f"Ablation: SPB-tree design choices on {name} "
            f"(range queries, r={RADIUS_PERCENT}% of d+)",
            ["variant", "PA", "compdists", "time(s)"],
        )

        def measure(tree, label):
            tree.reset_counters()
            stats = measure_queries(
                tree, dataset.queries, lambda t, q: t.range_query(q, radius)
            )
            table.add_row(
                label,
                stats.page_accesses,
                stats.distance_computations,
                stats.elapsed_seconds,
            )

        full = SPBTree.build(
            dataset.objects, dataset.metric, d_plus=dataset.d_plus, seed=7
        )
        measure(full, "full SPB-tree")

        no_lemma2 = SPBTree.build(
            dataset.objects, dataset.metric, d_plus=dataset.d_plus, seed=7
        )
        no_lemma2.use_lemma2 = False
        measure(no_lemma2, "without Lemma 2")

        random_pivots = select_pivots(
            dataset.objects, 5, dataset.metric, method="random", seed=7
        )
        rand_tree = SPBTree.build(
            dataset.objects,
            dataset.metric,
            pivots=random_pivots,
            d_plus=dataset.d_plus,
        )
        measure(rand_tree, "random pivots (vs HFI)")

        z_tree = SPBTree.build(
            dataset.objects,
            dataset.metric,
            d_plus=dataset.d_plus,
            curve="z",
            seed=7,
        )
        measure(z_tree, "Z-order curve (vs Hilbert)")

        table.note = (
            "expected: each ablation raises compdists and/or PA relative "
            "to the full SPB-tree"
        )
        tables.append(table)
    return tables


def main() -> None:
    args = standard_cli(__doc__)
    print_tables(run(size=args.size, queries=args.queries, seed=args.seed))


if __name__ == "__main__":
    main()
