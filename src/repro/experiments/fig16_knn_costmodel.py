"""Fig. 16 — accuracy of the kNN cost model vs. k.

Same protocol as Fig. 15, with the radius replaced by the eND_k estimate of
eq. 5 (k-th NN distance from the distance distribution the model samples
from the stored index).
The paper reports average accuracy above 80 %.
"""

from __future__ import annotations

from repro.core.costmodel import CostModel
from repro.datasets import load_dataset
from repro.experiments.common import (
    ExperimentTable,
    build_spb,
    print_tables,
    standard_cli,
)
from repro.experiments.fig15_range_costmodel import _accuracy

DATASETS = ["color", "words"]
K_VALUES = [1, 2, 4, 8, 16, 32]


def run(size: int | None = None, queries: int = 20, seed: int = 42):
    tables = []
    for name in DATASETS:
        dataset = load_dataset(name, size=size, num_queries=queries, seed=seed)
        tree = build_spb(dataset)
        model = CostModel(tree)
        table = ExperimentTable(
            f"Fig. 16: kNN cost model on {name}",
            [
                "k",
                "actual compdists",
                "est. compdists",
                "acc.",
                "actual PA",
                "est. PA",
                "acc.",
            ],
        )
        for k in K_VALUES:
            act_dc = act_pa = est_dc = est_pa = 0.0
            for q in dataset.queries:
                estimate = model.estimate_knn(q, k)
                est_dc += estimate.edc
                est_pa += estimate.epa
                tree.flush_cache()
                pa0, dc0 = tree.page_accesses, tree.distance_computations
                tree.knn_query(q, k)
                act_pa += tree.page_accesses - pa0
                act_dc += tree.distance_computations - dc0
            n = len(dataset.queries)
            act_dc, act_pa, est_dc, est_pa = (
                act_dc / n,
                act_pa / n,
                est_dc / n,
                est_pa / n,
            )
            table.add_row(
                k,
                act_dc,
                est_dc,
                _accuracy(act_dc, est_dc),
                act_pa,
                est_pa,
                _accuracy(act_pa, est_pa),
            )
        table.note = "paper: average accuracy above 80%"
        tables.append(table)
    return tables


def main() -> None:
    args = standard_cli(__doc__)
    print_tables(run(size=args.size, queries=args.queries, seed=args.seed))


if __name__ == "__main__":
    main()
