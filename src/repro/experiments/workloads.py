"""Shared experiment workloads: cached engines and dynamic streams.

Two workload shapes feed the experiments and benchmarks:

* the *static* Long Beach surrogate behind :func:`cached_engine`
  (building 53,144 objects plus a bulk-loaded R-tree takes a couple of
  seconds; every figure reuses the same workload, so engines are cached
  per configuration within the process);
* the *streaming* moving-objects scenario behind
  :class:`StreamingWorkload` — the dead-reckoning setting of Section I,
  where objects churn continuously and the same monitoring points are
  probed tick after tick.  The stream is deterministic and memoised so
  the identical update/query sequence can drive both an incrementally
  maintained engine and a full-rebuild replica
  (``benchmarks/test_dynamic_updates.py`` asserts they answer
  bit-identically and gates the steady-state speedup).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterator, Sequence

import numpy as np

from repro.continuous import ContinuousMonitor, TickReport
from repro.core.batch import BatchResult
from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.types import CPNNQuery, QuerySpec
from repro.datasets.longbeach import LONG_BEACH_DOMAIN, long_beach_surrogate
from repro.datasets.queries import random_query_points
from repro.uncertainty.objects import UncertainObject

__all__ = [
    "DEFAULT_QUERY_SEED",
    "StreamingTick",
    "StreamingWorkload",
    "cached_engine",
    "query_points",
]

DEFAULT_QUERY_SEED = 12345


@lru_cache(maxsize=8)
def cached_engine(
    n: int,
    pdf: str = "uniform",
    bars: int = 300,
    mean_length: float | None = None,
    representation: str = "parametric",
) -> UncertainEngine:
    """An engine over the Long Beach surrogate (memoised).

    ``representation`` picks how Gaussian objects are built (ignored
    for uniform pdfs): ``'parametric'`` (default) enables the engine's
    analytic fast path, ``'histogram'`` replays the paper-faithful
    eager 300-bar construction.
    """
    kwargs = {} if mean_length is None else {"mean_length": mean_length}
    objects = long_beach_surrogate(
        n=n, pdf=pdf, bars=bars, representation=representation, **kwargs
    )
    return UncertainEngine(objects, EngineConfig())


def query_points(n_queries: int, seed: int = DEFAULT_QUERY_SEED) -> np.ndarray:
    """Deterministic random query points over the surrogate domain."""
    rng = np.random.default_rng(seed)
    return random_query_points(n_queries, domain=LONG_BEACH_DOMAIN, rng=rng)


# ----------------------------------------------------------------------
# Streaming moving-objects workload (dead-reckoning churn)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamingTick:
    """One step of a :class:`StreamingWorkload` stream.

    Attributes
    ----------
    index:
        0-based tick number.
    replacements:
        ``(key, new_object)`` pairs — the dead-reckoning reports of
        this tick.  Applying one means ``engine.remove(key)`` followed
        by ``engine.insert(new_object)`` (the new object reuses the
        key, so the order matters under duplicate-key rejection).
    specs:
        The query specs to answer after the updates are applied.  The
        monitoring points are fixed across ticks — the repeated-probe
        shape the engine's caches are built for.
    """

    index: int
    replacements: tuple[tuple[Hashable, UncertainObject], ...]
    specs: tuple[QuerySpec, ...]


class StreamingWorkload:
    """A deterministic moving-objects stream: churn ticks + query ticks.

    Models Section I's location-based-service setting under the
    dead-reckoning update policy: every tick all objects drift, a
    ``churn`` fraction of them report in (their uncertainty region is
    replaced by a fresh interval centred on the reported position), and
    a fixed set of monitoring specs is answered.

    The entire stream — initial objects, per-tick reports, specs — is
    generated from one seed and memoised, so calling :meth:`tick`
    twice, or driving two different engines with :meth:`apply` /
    :meth:`drive`, replays the *same* update objects.  That is what
    makes the full-rebuild-replica comparison in
    ``benchmarks/test_dynamic_updates.py`` a bit-identity check rather
    than an approximate one.

    Parameters
    ----------
    n_objects:
        Moving objects in the stream.
    churn:
        Fraction of objects replaced per tick (``0 <= churn <= 1``).
    n_queries:
        Fixed monitoring points probed every tick.
    halfwidth:
        Dead-reckoning report threshold: an object's uncertainty
        region is ``reported position ± halfwidth``.
    drift_sigma:
        Per-tick Gaussian drift of the true positions.
    threshold / tolerance:
        Constraint pair of the default C-PNN specs.
    spec_factory:
        Optional ``point -> QuerySpec`` hook replacing the default
        C-PNN spec per monitoring point (e.g. to stream k-NN or range
        specs instead).
    seed:
        Deterministic stream seed.
    """

    def __init__(
        self,
        n_objects: int = 2_000,
        churn: float = 0.10,
        n_queries: int = 24,
        *,
        domain: tuple[float, float] = LONG_BEACH_DOMAIN,
        halfwidth: float = 2.0,
        drift_sigma: float = 5.0,
        threshold: float = 0.3,
        tolerance: float = 0.0,
        spec_factory: Callable[[float], QuerySpec] | None = None,
        seed: int = 20080407,
    ) -> None:
        if n_objects < 1:
            raise ValueError("n_objects must be positive")
        if not 0.0 <= churn <= 1.0:
            raise ValueError("churn must lie in [0, 1]")
        self._domain = (float(domain[0]), float(domain[1]))
        self._halfwidth = float(halfwidth)
        self._drift_sigma = float(drift_sigma)
        self._rng = np.random.default_rng(seed)
        self._positions = self._rng.uniform(*self._domain, size=n_objects)
        self._reports_per_tick = int(round(churn * n_objects))
        points = self._rng.uniform(*self._domain, size=n_queries)
        if spec_factory is None:
            spec_factory = lambda q: CPNNQuery(  # noqa: E731
                q, threshold=threshold, tolerance=tolerance
            )
        self._specs = tuple(spec_factory(float(q)) for q in points)
        self._initial = tuple(
            self._region(i, self._positions[i]) for i in range(n_objects)
        )
        self._ticks: list[StreamingTick] = []

    def _region(self, i: int, reported: float) -> UncertainObject:
        """The database's view of object ``i``: report ± halfwidth."""
        obj = UncertainObject.uniform(
            ("mob", i), float(reported) - self._halfwidth,
            float(reported) + self._halfwidth,
        )
        obj.mbr  # warm the cached MBR at generation time, outside any  # noqa: B018
        # engine's measured path, so timed comparisons are symmetric
        return obj

    # ------------------------------------------------------------------

    @property
    def specs(self) -> tuple[QuerySpec, ...]:
        """The per-tick monitoring specs (fixed across ticks)."""
        return self._specs

    @property
    def n_objects(self) -> int:
        return len(self._initial)

    @property
    def reports_per_tick(self) -> int:
        return self._reports_per_tick

    def initial_objects(self) -> list[UncertainObject]:
        """The tick-0 object set (fresh list, same memoised objects)."""
        return list(self._initial)

    def make_engine(self, config: EngineConfig | None = None) -> UncertainEngine:
        """A fresh engine over the initial object set."""
        return UncertainEngine(self.initial_objects(), config)

    def make_sharded_engine(
        self,
        config: EngineConfig | None = None,
        *,
        n_shards: int | None = None,
    ) -> ShardedEngine:
        """The sharded streaming scenario: a
        :class:`~repro.core.engine.ShardedEngine` over the same initial
        object set, so the identical memoised stream can drive the
        sharded and single engines side by side.  The stream's
        ``replace`` churn exercises the lanes' cache invalidation —
        while ``benchmarks/test_sharded_parallel.py`` asserts every
        tick's batch is bit-identical to the single engine's
        (DESIGN.md §12).
        """
        return ShardedEngine(self.initial_objects(), config, n_shards=n_shards)

    def tick(self, index: int) -> StreamingTick:
        """The ``index``-th tick, generated on first demand and memoised."""
        while len(self._ticks) <= index:
            i = len(self._ticks)
            n = len(self._positions)
            self._positions = np.clip(
                self._positions
                + self._rng.normal(0.0, self._drift_sigma, size=n),
                *self._domain,
            )
            reporters = self._rng.choice(
                n, size=self._reports_per_tick, replace=False
            )
            replacements = tuple(
                (("mob", int(j)), self._region(int(j), self._positions[j]))
                for j in reporters
            )
            self._ticks.append(
                StreamingTick(index=i, replacements=replacements, specs=self._specs)
            )
        return self._ticks[index]

    def ticks(self, n: int, start: int = 0) -> Iterator[StreamingTick]:
        """Ticks ``start .. start + n`` in order (memoised)."""
        for i in range(start, start + n):
            yield self.tick(i)

    # ------------------------------------------------------------------

    @staticmethod
    def apply(engine: UncertainEngine, tick: StreamingTick) -> None:
        """Apply one tick's dead-reckoning reports to ``engine``.

        Uses :meth:`UncertainEngine.replace` — the in-place update
        primitive the streaming setting is built around (each report
        keeps the object's position in the engine's order, so the
        comparison replica below can mirror it with a list
        assignment).
        """
        for key, obj in tick.replacements:
            engine.replace(key, obj)

    def drive(
        self,
        engine: UncertainEngine,
        n_ticks: int,
        start: int = 0,
        specs: Sequence[QuerySpec] | None = None,
        *,
        continuous: bool = False,
        on_tick: Callable[[TickReport], None] | None = None,
    ) -> list[BatchResult] | list[TickReport]:
        """Run ``n_ticks`` ticks against ``engine``: updates, then the
        monitoring step.

        In the default (batch) mode every tick re-submits the full
        monitoring batch and the return value is one
        :class:`BatchResult` per tick.  With ``continuous=True`` the
        specs are registered once on a
        :class:`~repro.continuous.ContinuousMonitor` (reusing a monitor
        already attached to the engine, else creating one), each tick's
        dead-reckoning reports flow through :meth:`ContinuousMonitor.replace`
        so their MBRs certify the safe regions, and the monitoring step
        is one :meth:`ContinuousMonitor.tick` — only invalidated
        handles re-enter the pipeline.  The return value is then one
        :class:`~repro.continuous.TickReport` per tick (counts plus the
        handle ids re-executed vs replayed; fresh snapshots only for
        what actually ran).  ``on_tick``, when given, observes each
        report as it is produced — the streaming side-channel.
        """
        spec_list = list(self._specs if specs is None else specs)
        if not continuous:
            if on_tick is not None:
                raise ValueError("on_tick requires continuous=True")
            results: list[BatchResult] = []
            for tick in self.ticks(n_ticks, start=start):
                self.apply(engine, tick)
                results.append(engine.execute_batch(spec_list))
            return results
        monitor = getattr(engine, "_continuous", None)
        if not isinstance(monitor, ContinuousMonitor):
            monitor = ContinuousMonitor(engine)
        if not len(monitor):
            monitor.register_many(spec_list)
        reports: list[TickReport] = []
        for tick in self.ticks(n_ticks, start=start):
            for key, obj in tick.replacements:
                monitor.replace(key, obj)
            report = monitor.tick()
            if on_tick is not None:
                on_tick(report)
            reports.append(report)
        return reports
