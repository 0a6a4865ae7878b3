"""Engine settings: :class:`EngineConfig`.

Configuration is deliberately the only state shared between every
stage of the pipeline (DESIGN.md §3): the registry, the filter stage,
and the three family executors all read the same frozen config object,
so a :class:`~repro.core.engine.sharded.ShardedEngine` can hand one
config to every execution lane — and a pickled copy to every process
worker — and stay bit-identical to a single engine built from it.

What the paper fixes (the verifier chain, the bound guard, the
quadrature, the refinement order) and what no caller needs to change
(the cache capacities, the analytic grid, the filter fan-out, the
circuit breaker) is a constant in the module that uses it; the config
holds only what a deployment chooses.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Settings of :class:`~repro.core.engine.UncertainEngine`.

    Every field is a ``str``, ``int``, ``bool`` or ``None``, so a
    config always pickles across the process executor's spawn boundary.

    Attributes
    ----------
    use_rtree:
        Filter through the packed STR levels of
        :class:`~repro.index.filtering.BatchMbrFilter` (True, the
        paper's setup) or through
        :func:`~repro.index.filtering.filter_candidates`, the reference
        scan of exact region distances (False), which 2-D regions may
        bound tighter than their MBRs.
    executor:
        Which executor backend a
        :class:`~repro.core.engine.sharded.ShardedEngine` runs its
        C-PNN lanes on (DESIGN.md §13): ``"serial"`` (inline, the
        bit-identity reference), ``"process"`` (persistent spawn
        workers with resident lane caches — wins for GIL-bound C-PNN
        verification), or ``"auto"`` (the default: ``process`` on two
        or more cores, else ``serial``).  Single engines always execute
        serially; the field only drives the sharded lane fan-out.
        Answers are bit-identical across all backends.
    process_min_batch:
        Under the process backend, C-PNN batches smaller than this run
        inline on the parent's lanes instead of crossing the process
        boundary — per-spec IPC would dominate tiny batches, and unit
        workloads should not pay a pool spawn.  0 forces every batch to
        the workers (useful in tests).
    parametric_fast_path:
        When every candidate of a C-PNN query exposes a closed-form
        ``parametric_distance``, evaluate verification on an analytic
        subregion table (no histogram materialisation); queries the
        analytic brackets cannot settle fall back to the standard
        histogram pipeline, whose exact tier is bit-identical to the
        histogram engine.
    """

    use_rtree: bool = True
    executor: str = "auto"
    process_min_batch: int = 16
    parametric_fast_path: bool = True

    def __post_init__(self) -> None:
        if self.executor not in ("auto", "serial", "process"):
            raise ValueError(
                f"unknown executor {self.executor!r}: expected 'auto', "
                "'serial', or 'process'"
            )
        if self.process_min_batch < 0:
            raise ValueError("process_min_batch must be >= 0")
