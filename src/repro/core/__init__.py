"""The paper's contribution: probabilistic-neighborhood queries with verifiers.

Public entry points:

* :class:`~repro.core.engine.UncertainEngine` — the unified engine:
  ``execute``/``execute_batch`` over typed query specs, plus
  ``explain``;
* :class:`~repro.core.types.QuerySpec` and its concrete specs
  :class:`~repro.core.types.CPNNQuery` (Definition 1),
  :class:`~repro.core.types.CKNNQuery`,
  :class:`~repro.core.types.CRangeQuery`;
* :class:`~repro.core.types.QueryResult` /
  :class:`~repro.core.batch.BatchResult` — the uniform result shapes;
* :class:`~repro.core.subregions.SubregionTable` and the verifiers in
  :mod:`repro.core.verifiers` for direct use;
* :mod:`repro.core.knn` / :mod:`repro.core.range_query` — the numeric
  kernels of the k-NN and range extensions (exact probabilities,
  algebraic bounds, the routed evaluators); the scalar reference
  loops they are bit-identical to live in :mod:`repro.baselines`.
"""

from repro.core.batch import BatchResult
from repro.core.bounds import ProbabilityBound
from repro.core.classifier import classify
from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.knn import (
    knn_probability_bounds,
    knn_qualification_probabilities,
)
from repro.core.range_query import range_probabilities
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.storage import SubregionStore, subregion_bounds_from_store
from repro.core.subregions import SubregionTable
from repro.core.types import (
    AnswerRecord,
    AnswerRecords,
    CKNNQuery,
    CPNNQuery,
    CRangeQuery,
    Label,
    PhaseTimings,
    QueryPlan,
    QueryResult,
    QuerySpec,
)
from repro.core.verifiers import (
    LowerSubregionVerifier,
    RightmostSubregionVerifier,
    UpperSubregionVerifier,
    VerifierChain,
    default_chain,
)

__all__ = [
    "AnswerRecord",
    "AnswerRecords",
    "BatchResult",
    "CKNNQuery",
    "CPNNQuery",
    "CRangeQuery",
    "CandidateStates",
    "EngineConfig",
    "Label",
    "LowerSubregionVerifier",
    "PhaseTimings",
    "ProbabilityBound",
    "QueryPlan",
    "QueryResult",
    "QuerySpec",
    "Refiner",
    "RightmostSubregionVerifier",
    "ShardedEngine",
    "SubregionStore",
    "SubregionTable",
    "UncertainEngine",
    "UpperSubregionVerifier",
    "VerifierChain",
    "classify",
    "default_chain",
    "knn_probability_bounds",
    "knn_qualification_probabilities",
    "range_probabilities",
    "subregion_bounds_from_store",
]
