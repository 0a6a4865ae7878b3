"""Engine tuning knobs: evaluation strategies and :class:`EngineConfig`.

Configuration is deliberately the only state shared between every
stage of the pipeline (DESIGN.md §3): the registry, the filter stage,
and the three family executors all read the same immutable-ish config
object, so a :class:`~repro.core.engine.sharded.ShardedEngine` can
hand one config to every execution lane and stay bit-identical to a
single engine built from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.bounds import DEFAULT_BOUND_PAD
from repro.core.verifiers.chain import VerifierChain, default_chain

__all__ = ["EngineConfig", "Strategy"]


class Strategy:
    """String constants naming the three evaluation strategies."""

    BASIC = "basic"
    REFINE = "refine"
    VR = "vr"

    ALL = (BASIC, REFINE, VR)


@dataclass
class EngineConfig:
    """Tuning knobs for :class:`~repro.core.engine.UncertainEngine`.

    Attributes
    ----------
    strategy:
        One of :class:`Strategy`'s constants; default is the paper's
        proposed VR.
    chain_factory:
        Builds the verifier chain used by VR (default: RS → L-SR →
        U-SR, Figure 5's order).  The engine calls it once at
        construction and reuses the chain across queries — verifiers
        are stateless, so per-query rebuilding would only add
        allocation overhead to the hot path.
    bound_pad:
        Floating-point guard added around computed bounds
        (DESIGN.md §5).
    refinement_order:
        ``'widest'`` integrates the subregion with the widest remaining
        bound gap first (fastest classification); ``'left'`` follows
        ascending distance.
    quadrature_margin:
        Extra Gauss–Legendre nodes beyond the exactness requirement.
    use_rtree:
        Filter through an STR-packed R-tree (True, the paper's setup)
        or a linear scan (False, for baselining the index itself).
    rtree_max_entries:
        Fan-out of the STR packing the single-query filter descends.
    grid_refinement:
        Split every inner subregion into this many parts before
        verification: tighter verifier bounds at proportionally higher
        verification cost (an extension beyond the paper; see the
        grid-refinement ablation bench).
    distribution_cache_size:
        Capacity of the LRU cache of distance distributions used by
        the batch paths and the routed k-NN/range paths (entries are
        keyed by ``(object, query point)``, so repeated probes skip the
        histogram fold).  0 disables the cache.
    table_cache_size:
        Capacity (in query points) of the LRU cache of fully built
        subregion tables used by the C-PNN batch path.  A repeated
        probe skips filtering *and* initialisation for that point.
        Dynamic updates invalidate entries *selectively*: only points
        whose candidate set the mutated object's MBR can affect are
        dropped (DESIGN.md §11); the rest stay warm.  0 disables the
        cache.  Note the bound is entry-count, not bytes: each table
        pins its distributions plus O(|C|·M) matrices, so size this to
        the working set of hot probe points, not higher.
    executor:
        Which executor backend a
        :class:`~repro.core.engine.sharded.ShardedEngine` runs its
        C-PNN lanes on (DESIGN.md §13): ``"serial"`` (inline, the
        bit-identity reference), ``"thread"`` (the shared thread pool —
        wins on free-threaded builds), ``"process"`` (persistent spawn
        workers with resident lane caches — wins for GIL-bound C-PNN
        verification), or ``"auto"``
        (the default: ``thread`` on free-threaded interpreters or
        single-core boxes, ``process`` on multi-core GIL builds with a
        picklable config).  Single engines always execute serially;
        the knob only drives the sharded lane fan-out.  Answers are
        bit-identical across all backends.
    process_min_batch:
        Under the process backend, C-PNN batches smaller than this run
        inline on the parent's lanes instead of crossing the process
        boundary — per-spec IPC would dominate tiny batches, and unit
        workloads should not pay a pool spawn.  0 forces every batch to
        the workers (useful in tests).
    breaker_threshold:
        Consecutive unhealthy dispatches before the sharded engine's
        circuit breaker degrades the backend one level along
        ``process → thread → serial`` (DESIGN.md §14).
    breaker_probe_after:
        Consecutive healthy dispatches a degraded breaker requires
        before probing one dispatch at the healthier level; a clean
        probe heals one level.
    parametric_fast_path:
        When every candidate of a VR query exposes a closed-form
        ``parametric_distance``, evaluate verification on an analytic
        subregion table (no histogram materialisation); queries the
        analytic brackets cannot settle fall back to the standard
        histogram pipeline, whose exact tier is bit-identical to the
        histogram engine.
    analytic_grid:
        Inner-subregion count of the first analytic table.
    analytic_max_grid:
        Escalation ceiling: the analytic grid refines ×4 per round up
        to this count before falling back to histograms.
    storage:
        Column-store backend for the engine's bulk coordinate arrays
        (DESIGN.md §16): ``"ram"`` (resident numpy, zero overhead, the
        default), ``"shm"`` (one shared-memory segment — the resident
        bytes are directly attachable by process workers), or
        ``"mmap"`` (a 64-byte-aligned on-disk file streamed through a
        bounded buffer pool of mmap windows — out-of-core scale with
        page-fault/eviction accounting in ``stats()["storage"]``).
        Answers are bit-identical across all three.
    storage_pool_pages:
        Buffer-pool capacity (in pages) of each mmap-backed store.
        Bounds the resident bytes at ``storage_pool_pages ·
        storage_page_bytes`` per store.
    storage_page_bytes:
        Page size of mmap-backed stores; rounded up to the platform
        mmap allocation granularity.
    storage_dir:
        Directory for mmap store files (default: the system temp dir).
    """

    strategy: str = Strategy.VR
    chain_factory: Callable[[], VerifierChain] = default_chain
    bound_pad: float = DEFAULT_BOUND_PAD
    refinement_order: str = "widest"
    quadrature_margin: int = 1
    use_rtree: bool = True
    rtree_max_entries: int = 16
    grid_refinement: int = 1
    distribution_cache_size: int = 65536
    table_cache_size: int = 256
    executor: str = "auto"
    process_min_batch: int = 16
    breaker_threshold: int = 3
    breaker_probe_after: int = 8
    parametric_fast_path: bool = True
    analytic_grid: int = 64
    analytic_max_grid: int = 4096
    storage: str = "ram"
    storage_pool_pages: int = 64
    storage_page_bytes: int = 1 << 20
    storage_dir: str | None = None

    def __post_init__(self) -> None:
        if self.strategy not in Strategy.ALL:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.executor not in ("auto", "serial", "thread", "process"):
            raise ValueError(
                f"unknown executor {self.executor!r}: expected 'auto', "
                "'serial', 'thread', or 'process'"
            )
        if self.process_min_batch < 0:
            raise ValueError("process_min_batch must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_probe_after < 1:
            raise ValueError("breaker_probe_after must be >= 1")
        if self.refinement_order not in ("widest", "left"):
            raise ValueError("refinement_order must be 'widest' or 'left'")
        if self.grid_refinement < 1:
            raise ValueError("grid_refinement must be >= 1")
        if self.distribution_cache_size < 0:
            raise ValueError("distribution_cache_size must be >= 0")
        if self.table_cache_size < 0:
            raise ValueError("table_cache_size must be >= 0")
        if self.analytic_grid < 1:
            raise ValueError("analytic_grid must be >= 1")
        if self.analytic_max_grid < self.analytic_grid:
            raise ValueError("analytic_max_grid must be >= analytic_grid")
        if self.storage not in ("ram", "shm", "mmap"):
            raise ValueError(
                f"unknown storage {self.storage!r}: expected 'ram', "
                "'shm', or 'mmap'"
            )
        if self.storage_pool_pages < 1:
            raise ValueError("storage_pool_pages must be >= 1")
        if self.storage_page_bytes < 1:
            raise ValueError("storage_page_bytes must be >= 1")
