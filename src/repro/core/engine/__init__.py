"""The unified query engine, decomposed into a staged-pipeline package.

The paper's framework (Section III) is one pipeline — filtering →
initialisation → verification → refinement — and this package serves
all three query families through it behind a single typed surface.
What used to be one 1,500-line ``engine.py`` module is now one module
per responsibility:

==================  ====================================================
module              owns
==================  ====================================================
:mod:`.config`      :class:`EngineConfig`
:mod:`.dispatch`    spec normalisation
:mod:`.registry`    object storage, key bookkeeping, the **mutation
                    contract** (insert/remove/replace), and the deferred
                    table-cache invalidation queue
:mod:`.filtering`   the incrementally maintained whole-batch MBR filter
                    and the single-query filter packed from its arrays
:mod:`.pnn`         the C-PNN executor (the VR pipeline, single +
                    batch, table cache + result snapshots)
:mod:`.knn`         the routed constrained k-NN executor
:mod:`.ranges`      the routed constrained range executor
:mod:`.facade`      :class:`UncertainEngine` — the thin coordinator that
                    routes specs and owns config/caches
:mod:`.lanes`       the C-PNN execution lanes and their query-point
                    affinity hash
:mod:`.sharded`     :class:`ShardedEngine` — an :class:`UncertainEngine`
                    whose C-PNN batches fan out across lanes as
                    serialized work items (DESIGN.md §12)
:mod:`.executors`   the pluggable execution backends the sharded engine
                    hands its work items to — serial / process
                    (DESIGN.md §13)
==================  ====================================================

Every public name keeps its historical import path
(``from repro.core.engine import UncertainEngine, EngineConfig, ...``),
and the decomposition is behaviour-preserving to the bit: the property
suites assert batch ≡ sequential ≡ sharded for all three spec
families.
"""

from repro.core.engine.config import EngineConfig
from repro.core.engine.facade import UncertainEngine
from repro.core.engine.sharded import ShardedEngine

__all__ = [
    "EngineConfig",
    "ShardedEngine",
    "UncertainEngine",
]
