"""``batch_families``: the offline use of the façade, five ways.

Five separately timed closed-loop ``execute_batch`` / sweep phases, one
number each, so a gain for one family that costs another shows.  Each
phase leans on a layer no other workload enters:

* **pnn** — C-PNN over parametric Gaussians: the analytic fast path
  (``uncertainty.parametric``);
* **range** — the linear per-object record loop (``core.range_query``);
* **knn** — exact Poisson-binomial integrals (``core.knn``, ``numerics``);
* **sharded** — plan → ship → merge on the process executor, cold batches
  of distinct points (``core.engine.sharded`` + ``executors``);
* **paged** — cdf sweeps over an mmap store 19× larger than its page
  pool (``storage``).

Every phase's rate is specs per batch ÷ *median* batch wall, so one
stalled batch cannot move it.
"""

from __future__ import annotations

import os
import time

import numpy as np

from bench import adapters, reference
from bench.harness import Measurements, percentile_ms
from bench.spans import span_if
from repro import (
    CKNNQuery,
    CPNNQuery,
    CRangeQuery,
    ShardedEngine,
    UncertainEngine,
    hooks,
)
from repro.datasets.longbeach import LONG_BEACH_DOMAIN, long_beach_surrogate
from repro.index.filtering import BatchMbrFilter
from repro.uncertainty.columnar import DistributionPack
from repro.uncertainty.histogram import Histogram

__all__ = ["BatchFamilies"]

#: The paged corpus of ``benchmarks/test_out_of_core.py``.
CORPUS_ROWS, CORPUS_BINS = 4_096, 48
PAGE_BYTES, POOL_PAGES = 1 << 16, 4
SWEEP_POINTS = 64

#: family -> (batches at --scale 1.0, specs per batch, warm-up specs).
#: The slow families warm up on a few specs: a warm-up batch only has to
#: touch the code path, and set-up time is a metric.
FAMILIES = {
    "pnn": (40, 64, 64),
    "range": (6, 32, 8),
    "knn": (5, 8, 2),
    "sharded": (24, 128, 128),
}
SWEEPS, WARMUP_SWEEPS = 400, 10

#: Slow families re-check every this-many-th spec of a verified batch
#: through ``execute`` (45 ms and 200 ms apiece); the others every spec.
VERIFY_STRIDE = {"pnn": 1, "range": 4, "knn": 4, "sharded": 1}


def _pnn(q):
    return CPNNQuery(float(q), 0.3, 0.01)


def _range(q):
    return CRangeQuery(float(q), threshold=0.5, radius=40.0)


def _knn_pair(i, q):
    if i % 2 == 0:
        return CKNNQuery(float(q), threshold=0.9, k=3)
    return CKNNQuery(float(q), threshold=0.3, k=1)


def _corpus(seed: int):
    rng = np.random.default_rng(seed)
    histograms = []
    for lo in rng.uniform(0.0, 60.0, CORPUS_ROWS):
        edges = lo + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(1e-3, 1.5, CORPUS_BINS))]
        )
        mass = rng.uniform(1e-6, 1.0, CORPUS_BINS)
        histograms.append(Histogram(edges, mass / mass.sum()))
    xs = np.sort(rng.uniform(-10.0, 160.0, SWEEP_POINTS))
    return DistributionPack(histograms), xs


class BatchFamilies:
    name = "batch_families"

    def __init__(self, seed: int, scale: float, out_dir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.spill_dir = os.path.join(out_dir, "spill")
        self.setup_parts: dict[str, float] = {}
        self.engines: dict[str, object] = {}
        self.store = None

    def _count(self, full: int, factor: float = 1.0) -> int:
        return max(int(round(full * self.scale * factor)), 1)

    def _batches(self, family: str, n_batches: int, size: int, skip: int = 0):
        """``n_batches`` spec lists of distinct seeded points; the stream
        of a family is the same whatever the scale."""
        index = list(FAMILIES).index(family)
        rng = np.random.default_rng([self.seed, index])
        points = rng.uniform(*LONG_BEACH_DOMAIN, (skip + n_batches) * size)[skip * size:]
        if family == "knn":
            specs = [_knn_pair(i, q) for i, q in enumerate(points)]
        else:
            make = _range if family == "range" else _pnn
            specs = [make(q) for q in points]
        return [specs[b * size:(b + 1) * size] for b in range(n_batches)]

    # ------------------------------------------------------------------

    def setup(self) -> None:
        seed = self.seed
        clock = time.perf_counter
        tick = clock()
        self.gauss_objects = long_beach_surrogate(
            n=20_000, mean_length=42.0, pdf="gaussian", seed=seed
        )
        self.wide_objects = long_beach_surrogate(n=2_000, mean_length=420.0, seed=seed)
        self.uniform_objects = long_beach_surrogate(
            n=20_000, mean_length=42.0, seed=seed
        )
        self.pack, self.xs = _corpus(seed)
        generated = clock()
        gauss = UncertainEngine(self.gauss_objects)
        self.engines = {
            "pnn": gauss,
            "range": gauss,
            "knn": UncertainEngine(self.wide_objects),
            # executor left at its default: auto -> process on >= 2 cores
            "sharded": ShardedEngine(self.uniform_objects, n_shards=2),
        }
        built = clock()
        self.engines["sharded"].warm_executor()
        warmed = clock()
        os.makedirs(self.spill_dir, exist_ok=True)
        self.store = self.pack.to_store(
            "mmap", page_bytes=PAGE_BYTES, pool_pages=POOL_PAGES,
            directory=self.spill_dir,
        )
        self.paged = DistributionPack.from_store(self.store)
        for family, (_, _, warm) in FAMILIES.items():
            # the warm-up draws from the head of a stream of its own
            self.engines[family].execute_batch(self._batches(family, 1, warm)[0])
        for _ in range(WARMUP_SWEEPS):
            self.paged.cdf_many(self.xs)
        self.setup_parts = {
            "datasets.generate_s": generated - tick,
            "core.engine.build_s": built - generated,
            "core.engine.executors.warm_s": warmed - built,
        }

    def teardown(self) -> None:
        for engine in set(self.engines.values()):
            engine.close()
        self.engines = {}
        if self.store is not None:
            self.store.close()
            self.store = None

    # ------------------------------------------------------------------

    def _run_family(self, family: str, n_batches: int, tracer=None):
        """Timed closed loop over one family's batches; returns the
        batch walls, every ``BatchResult`` kept for the checks (first and
        last; all of them when tracing), and the spec lists."""
        _, size, warm = FAMILIES[family]
        skip = -(-warm // size)  # timed points start after the warm-up's
        batches = self._batches(family, n_batches, size, skip=skip)
        engine = self.engines[family]
        walls, kept = [], {}
        for b, specs in enumerate(batches):
            with span_if(tracer, "core.engine.execute_batch", f"{family}/{b}"):
                tick = time.perf_counter()
                result = engine.execute_batch(specs)
                walls.append(time.perf_counter() - tick)
            if tracer is not None or b in (0, n_batches - 1):
                kept[b] = result
        return walls, kept, batches

    def _sweeps(self, count: int, tracer=None):
        walls = np.empty(count)
        first = last = None
        for i in range(count):
            with span_if(tracer, "storage.paged_sweep", f"paged/{i}"):
                tick = time.perf_counter()
                last = self.paged.cdf_many(self.xs)
                walls[i] = time.perf_counter() - tick
            if i == 0:
                first = last
        return walls, first, last

    def _measure(self, m: Measurements, factor: float, prefix: str, tracer=None):
        """Run the five phases; set ``<prefix><family>_batch_qps`` and
        return what the checks and the traced pass need."""
        runs = {}
        for family, (full, size, _) in FAMILIES.items():
            walls, kept, batches = self._run_family(
                family, self._count(full, factor), tracer
            )
            runs[family] = (walls, kept, batches)
            m.ops(len(walls) * size)
            m.set(f"{prefix}{family}_batch_qps", size / float(np.median(walls)))
        sweep_walls, first, last = self._sweeps(self._count(SWEEPS, factor), tracer)
        m.ops(len(sweep_walls))
        m.set(f"{prefix}paged_sweep_ops_s", 1.0 / float(np.median(sweep_walls)))
        return runs, sweep_walls, first, last

    def run(self, m: Measurements) -> None:
        runs, sweep_walls, first, last = self._measure(m, 1.0, "")
        # The reference job: every execute_batch family at its batch
        # count, each batch at its family's median wall.
        specs = sum(len(w) * FAMILIES[f][1] for f, (w, _, _) in runs.items())
        job_s = sum(len(w) * float(np.median(w)) for w, _, _ in runs.values())
        m.set("throughput_ops_s", specs / job_s)
        # The one phase whose unit of work is a single call.
        m.set("latency_p50_ms", percentile_ms(sweep_walls, 50))
        m.notes["samples"] = len(sweep_walls)
        m.notes["batches"] = {f: len(w) for f, (w, _, _) in runs.items()}
        self._verify(m, runs, first, last)

    def _verify(self, m: Measurements, runs, first_sweep, last_sweep) -> None:
        """First and last batch of every phase against an ``execute``
        loop (sharded: against one single engine), range answers against
        ``cdf(radius)``, paged sweeps against the resident pack."""
        single = UncertainEngine(self.uniform_objects)
        index = reference.IntervalIndex(self.gauss_objects)
        digests = {}
        for family, (_, kept, batches) in runs.items():
            engine = single if family == "sharded" else self.engines[family]
            for b, batch in kept.items():
                specs = batches[b]
                picks = range(0, len(specs), VERIFY_STRIDE[family])
                if family == "sharded":
                    expected = engine.execute_batch([specs[i] for i in picks]).results
                else:
                    expected = [engine.execute(specs[i]) for i in picks]
                for i, want in zip(picks, expected):
                    problem = None
                    if not reference.same_result(batch.results[i], want):
                        problem = f"{family} batch {b} spec {i}: differs from execute"
                    elif family == "range":
                        problem = reference.check_range(index, specs[i], want)
                    if problem:
                        m.fail(problem)
            digests[family] = reference.digest(r.answers for r in kept[0].results)
        single.close()
        resident = self.pack.cdf_many(self.xs)
        for label, sweep in (("first", first_sweep), ("last", last_sweep)):
            if not np.array_equal(sweep, resident):
                m.fail(f"{label} paged sweep differs from the resident pack")
        m.digests(self.name, self.seed, digests)

    # ------------------------------------------------------------------

    def run_traced(self, m: Measurements, tracer) -> None:
        """A quarter of the batches with a span around every engine
        call, then the outside-in probes: the same MBR sweeps on twin
        filters, the same stream on one engine, the store's columns
        through ``store.read``, the same sweep on the resident pack."""
        dispatches = []
        handler = hooks.install(
            lambda point, context: dispatches.append(point)
            if point == "executor.dispatch" else None
        )
        sharded = self.engines["sharded"]
        self.store.reset_stats()
        try:
            started = time.perf_counter()
            runs, sweep_walls, _, _ = self._measure(m, 0.25, "client.", tracer)
            engine_wall = time.perf_counter() - started
        finally:
            hooks.uninstall(handler)
        storage = self.store.stats()
        executor = sharded.stats()

        def specs_of(family):
            return [s for batch in runs[family][2] for s in batch]

        def results_of(family):
            return [r for batch in runs[family][1].values() for r in batch.results]

        def filter_s(family):
            return sum(b.timings.filtering for b in runs[family][1].values())

        # pnn: the analytic table build and the caches it bypasses
        pnn_batches = runs["pnn"][1].values()
        n_pnn = len(specs_of("pnn"))
        m.set(
            "uncertainty.parametric.init_ms_per_query",
            sum(b.timings.initialization for b in pnn_batches) / n_pnn * 1e3,
        )
        probes = sum(b.cache_hits + b.cache_misses for b in pnn_batches)
        tables = sum(b.table_hits + b.table_misses for b in pnn_batches)
        m.set("core.batch.distribution_hit_rate",
              sum(b.cache_hits for b in pnn_batches) / probes if probes else 0.0)
        m.set("core.batch.table_hit_rate",
              sum(b.table_hits for b in pnn_batches) / tables if tables else 0.0)
        m.set("core.batch.result_replay_share",
              sum(b.result_hits for b in pnn_batches) / n_pnn)

        # range / knn: what is left of the batch wall after the filter
        for family, layer in (("range", "core.range_query"), ("knn", "core.knn")):
            n = len(specs_of(family))
            wall = sum(runs[family][0])
            m.set(f"{layer}.eval_ms_per_query", (wall - filter_s(family)) / n * 1e3)
        ranged = results_of("range")
        m.set("core.range_query.records_per_query",
              sum(len(r.records) for r in ranged) / len(ranged))
        m.set("core.range_query.answers_per_query",
              sum(len(r.answers) for r in ranged) / len(ranged))
        knn = results_of("knn")
        m.set("core.knn.exact_per_query",
              sum(r.refined_objects for r in knn) / len(knn))

        # index: the engines' MBR sweeps, replayed on twin filters
        gauss_filter = BatchMbrFilter(self.gauss_objects)
        swept = 0
        for family in ("pnn", "range"):
            for b, specs in enumerate(runs[family][2]):
                with tracer.span("index.matrices", op_id=f"{family}/{b}"):
                    gauss_filter.matrices([s.q for s in specs])
                swept += len(specs)
        m.set("index.matrices_ms_per_query",
              tracer.seconds("index.matrices") / swept * 1e3)
        wide_filter = BatchMbrFilter(self.wide_objects)
        for b, specs in enumerate(runs["knn"][2]):
            with tracer.span("index.kth_filter", op_id=f"knn/{b}"):
                wide_filter.kth_filter([s.q for s in specs], [s.k for s in specs])
        m.set("index.kth_filter_ms_per_query",
              tracer.seconds("index.kth_filter") / len(specs_of("knn")) * 1e3)

        # sharded: the same stream on one engine, and the pool's health
        single = UncertainEngine(self.uniform_objects)
        single_walls = []
        for b, specs in enumerate(runs["sharded"][2]):
            with tracer.span("core.engine.sharded.single", op_id=f"sharded/{b}"):
                tick = time.perf_counter()
                single.execute_batch(specs)
                single_walls.append(time.perf_counter() - tick)
        single.close()
        single_qps = FAMILIES["sharded"][1] / float(np.median(single_walls))
        m.set("core.engine.sharded.single_batch_qps", single_qps)
        m.set("core.engine.sharded.speedup",
              m.metrics["client.sharded_batch_qps"] / single_qps)
        m.set("core.engine.sharded.fallback_items",
              adapters.stat(executor, "executor.inline_fallbacks"))
        m.set("core.engine.executors.dispatches", len(dispatches))
        m.set("core.engine.executors.failures",
              adapters.stat(executor, "executor.worker_failures"))
        m.set("core.engine.executors.workers_alive",
              adapters.stat(executor, "executor.alive"))
        m.notes["executor_backend"] = adapters.stat(executor, "executor.backend")

        # storage: counters over the traced sweeps, then reads alone
        n_sweeps = len(sweep_walls)
        for counter in ("page_faults", "evictions"):
            total = adapters.stat(storage, counter)
            if total is not None:
                m.set(f"storage.{counter}_per_sweep", total / n_sweeps)
        m.set("storage.hit_rate", adapters.stat(storage, "hit_rate"))
        pack = self.pack
        corpus_bytes = sum(
            column.nbytes
            for column in (pack.edges_flat, pack.knots_flat, pack.densities_flat,
                           pack.offsets, pack.totals, pack.near, pack.far)
        )
        m.set("storage.bytes_on_disk_per_corpus_byte",
              os.path.getsize(self.store.path) / corpus_bytes)
        reads = max(n_sweeps // 4, 2)
        for i in range(reads):
            with tracer.span("storage.read", op_id=f"read/{i}"):
                for column in self.store.columns():
                    self.store.read(column, 0, self.store.shape(column)[0])
        m.set("storage.read_ms_per_sweep", tracer.seconds("storage.read") / reads * 1e3)
        for i in range(reads):
            with tracer.span("uncertainty.columnar.resident_sweep", op_id=f"ram/{i}"):
                self.pack.cdf_many(self.xs)
        resident_ms = (
            tracer.seconds("uncertainty.columnar.resident_sweep") / reads * 1e3
        )
        m.set("uncertainty.columnar.resident_sweep_ms", resident_ms)
        m.set("storage.paged_slowdown",
              float(np.median(sweep_walls)) * 1e3 / resident_ms)

        m.set("client.samples", n_sweeps)
        # The spans here wrap whole batches, so tracing costs what the
        # loop spends outside the engine calls it times.
        timed = sum(sum(w) for w, _, _ in runs.values()) + float(sweep_walls.sum())
        m.set("trace.overhead_ratio", engine_wall / timed)
