"""The benchmark's vocabulary: workloads, metrics, units, directions, bounds.

One table per kind.  ``BENCHMARK.json`` at the repo root is this module
written out (``bench/test_smoke.py`` keeps the two in step): its
``end_to_end`` list is the metrics every workload reports (``ALL``),
its ``per_layer`` list is :data:`PER_LAYER`.  The metrics that belong
to one workload's phases (``pnn_batch_qps`` …) are printed by
``python bench/run.py`` with the bounds below, and reach the per-layer
list as ``client.<name>``, measured on the traced pass's reference run.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "ALL",
    "END_TO_END",
    "EXACT_COUNTS",
    "LATE_LIMIT_MS",
    "PER_LAYER",
    "REFERENCE_SECONDS",
    "WORKLOADS",
    "end_to_end_for",
]

#: ``--seconds`` that corresponds to ``--scale 1.0`` (the op counts in
#: the workload modules are the ones that take about this long here).
REFERENCE_SECONDS = 30.0

#: A request slower than this from its due time counts as late.
LATE_LIMIT_MS = 250.0

WORKLOADS = {
    "pnn_verify": (
        "uniform pdfs, ~96 candidates: verifiers settle ~95% of queries, so "
        "index + folds + subregion tables do the work and refinement none"
    ),
    "pnn_refine": (
        "300-bar Gaussian histograms at P=0.05: ~5 objects per query reach "
        "refinement, which does three quarters of the work; the index none"
    ),
    "batch_families": (
        "offline execute_batch five ways: analytic C-PNN, range loop, exact "
        "k-NN integrals, process-sharded C-PNN, sweeps over a paged store"
    ),
    "service_mixed": (
        "online QueryService at a fixed open-loop rate: coalesced reads, "
        "replace barriers with 64 subscriptions ticking, then bursts"
    ),
}

ALL = tuple(WORKLOADS)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    workloads: tuple
    absolute: bool = False  # bound is an absolute difference, not a share


_PNN = ("pnn_verify", "pnn_refine")
_BATCH = ("batch_families",)
_SERVICE = ("service_mixed",)

# The four every workload reports carry the bounds this box supports at
# an 18 s run: about three times the widest quartile spread seen over
# ten seeds (README.md, "Steadiness"), capped at 0.25.  The metrics of
# one workload's phases keep the tighter bounds they were designed
# with; they are judged by ``--aa`` / ``--compare`` on one seed.
END_TO_END = [
    EndToEnd("setup_s", "s", "lower", 0.25, ALL),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25, ALL),
    EndToEnd("throughput_ops_s", "op/s", "higher", 0.25, ALL),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.12, ALL),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.08, _PNN),
    EndToEnd("pnn_batch_qps", "q/s", "higher", 0.06, _BATCH),
    EndToEnd("knn_batch_qps", "q/s", "higher", 0.06, _BATCH),
    EndToEnd("range_batch_qps", "q/s", "higher", 0.08, _BATCH),
    EndToEnd("sharded_batch_qps", "q/s", "higher", 0.10, _BATCH),
    EndToEnd("paged_sweep_ops_s", "sweeps/s", "higher", 0.10, _BATCH),
    EndToEnd("read_latency_p50_ms", "ms", "lower", 0.10, _SERVICE),
    EndToEnd("rw_latency_p50_ms", "ms", "lower", 0.10, _SERVICE),
    EndToEnd("burst_ops_s", "op/s", "higher", 0.10, _SERVICE),
    EndToEnd("late_share", "share", "lower", 0.01, _SERVICE, absolute=True),
    EndToEnd("failed_share", "share", "lower", 0.0, ALL, absolute=True),
]


def end_to_end_for(workload: str) -> list[EndToEnd]:
    return [m for m in END_TO_END if workload in m.workloads]


def _layer(prefix: str, unit: str, better: str, *names: str) -> dict:
    return {f"{prefix}.{name}": (unit, better) for name in names}


#: ``name -> (unit, better)``.  A workload that never calls into a layer
#: reports that layer's metrics as 0: no spans, no counts.
PER_LAYER: dict[str, tuple[str, str]] = {
    **_layer("index", "ms", "lower", "filter_ms", "matrices_ms_per_query",
             "kth_filter_ms_per_query"),
    **_layer("index", "count", "lower", "candidates_per_query"),
    **_layer("uncertainty", "ms", "lower", "distance_ms",
             "parametric.init_ms_per_query", "columnar.resident_sweep_ms"),
    **_layer("core.subregions", "ms", "lower", "table_ms"),
    **_layer("core.subregions", "count", "lower", "subregions_per_query"),
    **_layer("core.verifiers", "ms", "lower", "rs_ms", "lsr_ms", "usr_ms",
             "chain_ms"),
    **_layer("core.verifiers", "share", "lower", "unknown_after_rs",
             "unknown_after_lsr", "unknown_after_usr"),
    **_layer("core.verifiers", "share", "higher", "finished_share"),
    **_layer("core.refinement", "ms", "lower", "refine_ms"),
    **_layer("core.refinement", "count", "lower", "refined_per_query"),
    **_layer("core.knn", "ms", "lower", "eval_ms_per_query"),
    **_layer("core.knn", "count", "lower", "exact_per_query"),
    **_layer("core.range_query", "ms", "lower", "eval_ms_per_query"),
    **_layer("core.range_query", "count", "lower", "records_per_query",
             "answers_per_query"),
    **_layer("core.batch", "share", "higher", "distribution_hit_rate",
             "table_hit_rate", "result_replay_share"),
    **_layer("core.engine", "ms", "lower", "execute_ms", "assemble_ms",
             "replace_ms"),
    **_layer("core.engine", "ratio", "higher", "replay_coverage"),
    **_layer("core.engine", "share", "lower", "timings_filter_share",
             "timings_init_share", "timings_verify_share",
             "timings_refine_share"),
    **_layer("core.engine", "s", "lower", "build_s", "executors.warm_s"),
    **_layer("core.engine.sharded", "q/s", "higher", "single_batch_qps"),
    **_layer("core.engine.sharded", "ratio", "higher", "speedup"),
    **_layer("core.engine.sharded", "count", "lower", "fallback_items"),
    **_layer("core.engine.executors", "count", "lower", "dispatches",
             "failures"),
    **_layer("core.engine.executors", "count", "higher", "workers_alive"),
    **_layer("storage", "count", "lower", "page_faults_per_sweep",
             "evictions_per_sweep"),
    **_layer("storage", "share", "higher", "hit_rate"),
    **_layer("storage", "ms", "lower", "read_ms_per_sweep"),
    **_layer("storage", "ratio", "lower", "paged_slowdown",
             "bytes_on_disk_per_corpus_byte"),
    **_layer("service", "count", "higher", "mean_batch_read", "mean_batch_rw"),
    **_layer("service", "count", "lower", "batches_per_burst", "shed",
             "retries", "deadline_misses", "notifications"),
    **_layer("service", "ms", "lower", "queue_wait_p50_ms",
             "engine_call_p50_ms", "mutation_p50_ms", "mutation_p90_ms"),
    **_layer("continuous", "ms", "lower", "tick_ms", "route_ms_per_mutation"),
    **_layer("continuous", "count", "lower", "reexecuted_per_tick"),
    **_layer("continuous", "share", "higher", "replayed_share",
             "groups_pruned_share"),
    **_layer("client", "ms", "lower", "generator_lag_p50_ms",
             "generator_lag_p99_ms", "read_latency_p90_ms",
             "rw_latency_p90_ms", "rw_latency_p99_ms", "latency_p99_ms"),
    **_layer("client", "count", "higher", "samples"),
    # The phase metrics of one workload, from the traced pass's
    # reference run (tracing off, a quarter of the op counts).
    **{
        f"client.{m.name}": (m.unit, m.better)
        for m in END_TO_END
        if m.workloads != ALL
    },
    **_layer("trace", "ratio", "lower", "overhead_ratio"),
    **_layer("datasets", "s", "lower", "generate_s"),
}

#: Counts that repeat exactly for a fixed seed and scale, so a later
#: change may rest a count-based claim on them.
EXACT_COUNTS = (
    "index.candidates_per_query",
    "core.subregions.subregions_per_query",
    "core.refinement.refined_per_query",
    "core.knn.exact_per_query",
    "core.range_query.records_per_query",
    "core.range_query.answers_per_query",
    "storage.page_faults_per_sweep",
    "storage.evictions_per_sweep",
    "service.batches_per_burst",
)
