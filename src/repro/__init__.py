"""repro — reproduction of *Probabilistic Verifiers: Evaluating
Constrained Nearest-Neighbor Queries over Uncertain Data* (Cheng, Chen,
Mokbel, Chow — ICDE 2008).

Quickstart::

    from repro import CPNNQuery, CKNNQuery, CRangeQuery, UncertainEngine, UncertainObject

    objects = [
        UncertainObject.uniform("A", 0.0, 4.0),
        UncertainObject.uniform("B", 1.0, 3.0),
        UncertainObject.gaussian("C", 2.0, 6.0),
    ]
    engine = UncertainEngine(objects)

    result = engine.execute(CPNNQuery(q=2.0, threshold=0.3, tolerance=0.01))
    print(result.answers)

    # The same surface serves k-NN and range specs, and whole batches:
    engine.execute(CKNNQuery(q=2.0, threshold=0.5, k=2)).answers
    engine.execute(CRangeQuery(q=2.0, threshold=0.5, radius=1.5)).answers
    engine.execute_batch([CPNNQuery(1.0), CKNNQuery(2.0, k=2)]).answers

See DESIGN.md for the system inventory (spec hierarchy, result shape)
and README.md for the performance architecture and
the reproduction of the paper's evaluation.
"""

from repro.core import (
    BatchResult,
    CKNNQuery,
    CPNNQuery,
    CRangeQuery,
    EngineConfig,
    Label,
    QueryPlan,
    QueryResult,
    QuerySpec,
    ShardedEngine,
    SubregionTable,
    UncertainEngine,
    knn_qualification_probabilities,
)
from repro.uncertainty import (
    DistanceDistribution,
    Histogram,
    UncertainDisk,
    UncertainObject,
    UncertainRectangle,
    UncertainSegment,
)

__version__ = "14.2.0"

__all__ = [
    "BatchResult",
    "CKNNQuery",
    "CPNNQuery",
    "CRangeQuery",
    "DistanceDistribution",
    "EngineConfig",
    "Histogram",
    "Label",
    "QueryPlan",
    "QueryResult",
    "QuerySpec",
    "ShardedEngine",
    "SubregionTable",
    "UncertainDisk",
    "UncertainEngine",
    "UncertainObject",
    "UncertainRectangle",
    "UncertainSegment",
    "knn_qualification_probabilities",
    "__version__",
]
