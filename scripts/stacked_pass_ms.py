"""Milliseconds per cold C-PNN query when a batch holds K of them.

Builds the 20 000-object uniform corpus of the ``pnn_verify`` workload
(seed 7) and, for K = 1, 7 and 64, times two spans per query over 448
distinct query points cut into batches of K:

* ``fold→verify``: the stacked pass alone — the cold queries' tables
  (one fold, one sort, one cdf kernel) and one verifier pass over them;
* ``execute_batch``: the whole call from an empty table cache —
  filtering, the stacked pass, refinement and record assembly.

Each figure is the best of three passes, so it reads the machine's
floor rather than its noise.  Prints only; nothing here is a gate.

Usage::

    PYTHONPATH=src python scripts/stacked_pass_ms.py
"""

import time

import numpy as np

from repro import CPNNQuery, UncertainEngine
from repro.core.state import CandidateStates
from repro.core.verifiers.fused import verify_stacked
from repro.datasets.longbeach import LONG_BEACH_DOMAIN, long_beach_surrogate

POINTS = 448
THRESHOLD, TOLERANCE = 0.3, 0.01


def best_ms_per_query(run, batches) -> float:
    best = float("inf")
    for _ in range(3):
        tick = time.perf_counter()
        for batch in batches:
            run(batch)
        best = min(best, time.perf_counter() - tick)
    return best / POINTS * 1e3


def main() -> None:
    engine = UncertainEngine(long_beach_surrogate(n=20_000, mean_length=42.0, seed=7))
    points = [float(q) for q in np.random.default_rng(1).uniform(*LONG_BEACH_DOMAIN, POINTS)]
    filtered = list(zip(points, engine._filter_batch(points)))

    def fold_to_verify(items) -> None:
        tables, _ = engine._build_tables(items)
        states = CandidateStates.stacked(sum(table.size for table in tables))
        verify_stacked(tables, states, [THRESHOLD] * len(tables), [TOLERANCE] * len(tables))

    def cold_batch(specs) -> None:
        engine._table_cache.clear()
        engine.execute_batch(specs)

    specs = [CPNNQuery(q, THRESHOLD, TOLERANCE) for q in points]
    for k in (1, 7, 64):
        stacked = best_ms_per_query(
            fold_to_verify, [filtered[i : i + k] for i in range(0, POINTS, k)]
        )
        whole = best_ms_per_query(
            cold_batch, [specs[i : i + k] for i in range(0, POINTS, k)]
        )
        print(f"K = {k:2d}: fold→verify {stacked:.3f} ms/query, execute_batch {whole:.3f} ms/query")


if __name__ == "__main__":
    main()
