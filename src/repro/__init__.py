"""SPB-tree: efficient metric indexing for similarity search and joins.

A complete reproduction of Chen, Gao, Li, Jensen & Chen, *Efficient Metric
Indexing for Similarity Search* (ICDE 2015) and its extended version with
metric similarity joins.

Quickstart::

    from repro import SPBTree, EditDistance

    words = ["defoliates", "defoliated", "citrate", ...]
    tree = SPBTree.build(words, EditDistance())
    tree.range_query("defoliate", 1)    # all words within edit distance 1
    tree.knn_query("defoliate", 2)      # the 2 most similar words

    # Similarity joins need Z-order trees sharing one pivot table:
    from repro import similarity_join
    t1 = SPBTree.build(set_a, metric, curve="z")
    t2 = SPBTree.build(set_b, metric, curve="z",
                       pivots=t1.space.pivots, d_plus=t1.space.d_plus,
                       delta=t1.space.delta)
    similarity_join(t1, t2, epsilon).pairs

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.core import (
    CostModel,
    knn_join,
    load_tree,
    open_tree,
    save_tree,
    similarity_self_join,
    PivotSpace,
    SPBTree,
    intrinsic_dimensionality,
    pivot_set_precision,
    select_pivots,
    similarity_join,
    similarity_join_stats,
)
from repro.distance import (
    ChebyshevDistance,
    CountingDistance,
    EditDistance,
    JaccardDistance,
    EuclideanDistance,
    HammingDistance,
    ManhattanDistance,
    Metric,
    MinkowskiDistance,
    TriGramAngularDistance,
)
from repro.baselines import (
    EDIndex,
    LinearScan,
    MIndex,
    MTree,
    OmniRTree,
    quickjoin,
)
from repro.datasets import load_dataset
from repro import obs
from repro.obs import MetricsRegistry, QueryTrace, get_registry
from repro.recovery import SalvageReport, salvage_tree
from repro.service import (
    BudgetExceeded,
    CancelToken,
    EpochLock,
    ExhaustionReason,
    Overloaded,
    QueryCancelled,
    QueryContext,
    QueryEngine,
    QueryResult,
)
from repro.storage import (
    FaultInjector,
    PageCorruptionError,
    SimulatedCrash,
    TransientIOError,
    WriteAheadLog,
    retry_io,
)

__version__ = "1.0.0"

__all__ = [
    # core
    "SPBTree",
    "PivotSpace",
    "CostModel",
    "similarity_join",
    "similarity_join_stats",
    "similarity_self_join",
    "knn_join",
    "save_tree",
    "load_tree",
    "open_tree",
    "select_pivots",
    "pivot_set_precision",
    "intrinsic_dimensionality",
    # metrics
    "Metric",
    "CountingDistance",
    "MinkowskiDistance",
    "ManhattanDistance",
    "EuclideanDistance",
    "ChebyshevDistance",
    "HammingDistance",
    "EditDistance",
    "TriGramAngularDistance",
    "JaccardDistance",
    # baselines
    "LinearScan",
    "MTree",
    "OmniRTree",
    "MIndex",
    "EDIndex",
    "quickjoin",
    # data
    "load_dataset",
    # durability & recovery
    "PageCorruptionError",
    "FaultInjector",
    "SimulatedCrash",
    "TransientIOError",
    "retry_io",
    "salvage_tree",
    "SalvageReport",
    "WriteAheadLog",
    # serving & degradation
    "EpochLock",
    "QueryContext",
    "QueryResult",
    "QueryEngine",
    "CancelToken",
    "ExhaustionReason",
    "BudgetExceeded",
    "QueryCancelled",
    "Overloaded",
    # observability
    "obs",
    "MetricsRegistry",
    "get_registry",
    "QueryTrace",
]
