"""Bench: columnar distribution kernels vs the pre-columnar scalar path.

PR 2 made the numeric core columnar: :class:`DistributionPack` batches
all candidates' cdf evaluations, :class:`SubregionTable` builds its
edge grid and cdf matrix from flat pack columns, and
:class:`Refiner` reads survival at the quadrature nodes off the table.
This module measures what that bought on the two phases the
rewrite targets — initialisation (subregion-table construction) and
refinement — for a 2000-object / 100-point VR workload, against a
faithful replica of the PR-1 per-object scalar path.

Two workloads, same data (dense-overlap intervals, |C| ≈ 765 per
query, near the paper's dense end):

* **primary** (P = 0.5, Δ = 0.01) — the verifier chain settles nearly
  every candidate, exactly the behaviour VR is designed for (Figure
  12), so the combined init+refinement time is init-dominated.  This
  is the gated measurement: combined speedup must beat the floor
  (3x locally; override with ``COLUMNAR_SPEEDUP_FLOOR``, and CI uses a
  generous floor because shared runners make wall-clock ratios noisy).
* **refinement-stress** (P = 0.35, Δ = 0.01) — candidates near the
  threshold force deep incremental refinement.  Both paths run the
  same quadrature (same nodes, same exclusion-product kernel); the
  columnar one reads survival from the table where
  the scalar one calls ``d.cdf`` per candidate.  It is asserted
  *identical* and reported, not gated.

Every measurement asserts that labels and answer sets from the columnar
path are **exactly equal** to the scalar reference, and bounds equal
within :data:`BOUND_ATOL` — table construction is bit-identical by
design, and refinement differs only by the rounding of
``cdf(e_j) + s_ij·t`` against ``d.cdf(e_j + t·w_j)``.  This benchmark is
the end-to-end enforcement of that claim.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.engine import UncertainEngine
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import _EDGE_RTOL, SubregionTable
from repro.core.types import CPNNQuery
from repro.core.verifiers.chain import default_chain
from repro.datasets.longbeach import long_beach_surrogate

#: Objects in the benchmark engine (the workload the issue names).
BENCH_OBJECTS = 2_000

#: Query points per batch.
BENCH_POINTS = 100

#: Mean interval length — long intervals make candidate sets dense
#: (|C| ≈ 765), the regime where per-object Python dispatch dominated
#: the scalar path.
MEAN_LENGTH = 4_500.0

#: Largest columnar-vs-scalar difference allowed in a probability bound.
BOUND_ATOL = 1e-12

#: (name, threshold, tolerance) of the two measured workloads.
PRIMARY = ("primary", 0.5, 0.01)
REFINEMENT_STRESS = ("refinement-stress", 0.35, 0.01)

_STATE: dict = {}


def speedup_floor() -> float:
    """Required combined init+refinement speedup for the gated workload."""
    env = os.environ.get("COLUMNAR_SPEEDUP_FLOOR")
    if env:
        return float(env)
    if os.environ.get("CI"):
        return 1.3  # generous: shared CI runners, relative assert only
    return 3.0


def workload():
    """Engine, query points, and per-point distance distributions.

    Distributions are built once and shared by both pipelines — the
    fold cost is identical either way and is not what this benchmark
    measures.
    """
    if not _STATE:
        engine = UncertainEngine(
            long_beach_surrogate(n=BENCH_OBJECTS, mean_length=MEAN_LENGTH)
        )
        rng = np.random.default_rng(20080407)
        points = [float(q) for q in rng.uniform(0.0, 10_000.0, BENCH_POINTS)]
        filter_results = engine._filter_batch(points)
        distributions = [
            [obj.distance_distribution(q) for obj in fr.candidates]
            for fr, q in zip(filter_results, points)
        ]
        _STATE["engine"] = engine
        _STATE["points"] = points
        _STATE["distributions"] = distributions
    return _STATE["engine"], _STATE["points"], _STATE["distributions"]


# ----------------------------------------------------------------------
# The scalar reference: a faithful replica of the PR-1 per-object path
# ----------------------------------------------------------------------


class ScalarSubregionTable(SubregionTable):
    """PR-1 initialisation: per-object Python loops throughout.

    Python ``sorted`` with per-object key tuples, one masking pass per
    candidate to pool end-points, and one ``d.cdf`` call per candidate
    for the cdf matrix — exactly the code this PR replaced.  Produces
    bit-identical tables, which the benchmark asserts.
    """

    def __init__(self, distributions, grid_refinement: int = 1) -> None:
        assert grid_refinement == 1
        ordered = sorted(distributions, key=lambda d: (d.near, d.far))
        self._distributions = tuple(ordered)
        self._pack = None  # lazy, as in the small-set path
        self._fmin = min(d.far for d in ordered)
        self._fmax = max(d.far for d in ordered)
        self._edges = self._scalar_edges()
        self._cdf_matrix = np.vstack(
            [np.asarray(d.cdf(self._edges)) for d in ordered]
        )
        np.clip(self._cdf_matrix, 0.0, 1.0, out=self._cdf_matrix)

    def _scalar_edges(self) -> np.ndarray:
        n_min = min(d.near for d in self._distributions)
        pool = [np.asarray([n_min, self._fmin])]
        for dist in self._distributions:
            edges = dist.breakpoints
            pool.append(edges[(edges > n_min) & (edges < self._fmin)])
            if n_min < dist.near < self._fmin:
                pool.append(np.asarray([dist.near]))
        merged = np.sort(np.concatenate(pool))
        scale = max(abs(float(merged[0])), abs(float(merged[-1])), 1.0)
        threshold = _EDGE_RTOL * scale
        keep = np.empty(merged.size, dtype=bool)
        keep[0] = True
        np.greater(np.diff(merged), threshold, out=keep[1:])
        edges = merged[keep]
        edges[-1] = self._fmin
        return edges


class ScalarRefiner(Refiner):
    """PR-1 survival evaluation: one ``d.cdf`` call per candidate at
    the quadrature nodes' coordinates, where :class:`Refiner` reads the
    same values off the table's ``cdf_at_edges`` / ``s_inner``."""

    def _node_survival(self, chunk: np.ndarray, t: np.ndarray) -> np.ndarray:
        # Ascending nodes, as the PR-1 path fed them: np.interp's
        # guessed search is at its best there, and the reference should
        # not lose time to an evaluation order it never had.
        order = np.argsort(chunk)
        ascending = chunk[order]
        edges = self._table.edges
        left = edges[ascending, None]
        xs = (left + (edges[ascending + 1, None] - left) * t).reshape(-1)
        rows = [1.0 - np.asarray(d.cdf(xs)) for d in self._table.distributions]
        matrix = np.vstack(rows).reshape(len(rows), chunk.size, t.size)
        np.clip(matrix, 0.0, 1.0, out=matrix)
        survival = np.empty_like(matrix)
        survival[:, order] = matrix
        return survival


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def run_vr_pipeline(distributions_per_point, queries, columnar: bool):
    """One VR pass over the batch; returns (init_s, refine_s, outcomes).

    Initialisation is subregion-table + refiner construction;
    verification (identical work in both pipelines) runs untimed
    between the two timed phases; refinement is the post-verifier
    incremental loop, one ``refine_object`` per survivor, in both
    pipelines.  The stress workload leaves at most one survivor per
    query, for which the vectorised sweep the columnar side used to
    call (``refine_objects``, removed in 5.0.0) always delegated to
    ``refine_object``: the recorded ``refinement_stress`` row never
    measured the sweep and does not move with its removal.
    """
    table_cls = SubregionTable if columnar else ScalarSubregionTable
    refiner_cls = Refiner if columnar else ScalarRefiner
    chain = default_chain()
    init = refine = 0.0
    outcomes = []
    for dists, query in zip(distributions_per_point, queries):
        tick = time.perf_counter()
        table = table_cls(dists)
        refiner = refiner_cls(table)
        init += time.perf_counter() - tick

        states = CandidateStates(table.keys)
        chain.run(table, states, query)

        tick = time.perf_counter()
        for i in states.unknown_indices():
            refiner.refine_object(int(i), states, query, use_verifier_slices=True)
        refine += time.perf_counter() - tick
        outcomes.append(
            (
                tuple(states.labels.tolist()),
                tuple(states.lower.tolist()),
                tuple(states.upper.tolist()),
                frozenset(
                    key
                    for key, label in zip(table.keys, states.labels)
                    if label == 1
                ),
            )
        )
    return init, refine, outcomes


def assert_same_outcomes(columnar, scalar, name: str) -> None:
    """Labels and answer sets exactly equal, bounds within BOUND_ATOL."""
    assert len(columnar) == len(scalar)
    for (c_labels, c_lo, c_up, c_ans), (s_labels, s_lo, s_up, s_ans) in zip(
        columnar, scalar
    ):
        assert c_labels == s_labels and c_ans == s_ans, (
            f"{name}: columnar labels/answers differ from the scalar reference"
        )
        np.testing.assert_allclose(c_lo, s_lo, rtol=0.0, atol=BOUND_ATOL)
        np.testing.assert_allclose(c_up, s_up, rtol=0.0, atol=BOUND_ATOL)


def measure(spec, repeats: int = 3) -> dict:
    """Best-of-``repeats`` phase timings of both pipelines on ``spec``.

    Asserts on *every* repetition that the columnar pipeline's labels
    and answer sets equal the scalar reference's exactly and its bounds
    within :data:`BOUND_ATOL`.
    """
    name, threshold, tolerance = spec
    _, points, distributions = workload()
    queries = [
        CPNNQuery(q, threshold=threshold, tolerance=tolerance) for q in points
    ]
    best = {"scalar": (float("inf"), float("inf")), "columnar": (float("inf"), float("inf"))}
    reference = None
    for _ in range(repeats):
        s_init, s_refine, s_out = run_vr_pipeline(distributions, queries, False)
        c_init, c_refine, c_out = run_vr_pipeline(distributions, queries, True)
        assert_same_outcomes(c_out, s_out, name)
        if reference is None:
            reference = s_out
        else:
            assert s_out == reference, f"{name}: scalar reference is unstable"
        if s_init + s_refine < sum(best["scalar"]):
            best["scalar"] = (s_init, s_refine)
        if c_init + c_refine < sum(best["columnar"]):
            best["columnar"] = (c_init, c_refine)
    s_init, s_refine = best["scalar"]
    c_init, c_refine = best["columnar"]
    return {
        "threshold": threshold,
        "tolerance": tolerance,
        "scalar_s": {"initialization": s_init, "refinement": s_refine},
        "columnar_s": {"initialization": c_init, "refinement": c_refine},
        "speedup": {
            "initialization": s_init / c_init,
            "refinement": s_refine / c_refine if c_refine else float("inf"),
            "combined": (s_init + s_refine) / (c_init + c_refine),
        },
        "identical": True,  # asserted above, every repetition
    }


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


def test_columnar_speedup_primary():
    """Acceptance: ≥ floor combined init+refinement speedup, identical answers."""
    result = measure(PRIMARY, repeats=3)
    _STATE.setdefault("results", {})["primary"] = result
    floor = speedup_floor()
    combined = result["speedup"]["combined"]
    assert combined >= floor, (
        f"columnar init+refinement must be ≥{floor:.1f}x the scalar path, "
        f"got {combined:.2f}x "
        f"(scalar {sum(result['scalar_s'].values()) * 1e3:.0f} ms, "
        f"columnar {sum(result['columnar_s'].values()) * 1e3:.0f} ms)"
    )


def test_columnar_refinement_stress_identical():
    """Deep refinement stays identical; speedup reported, not gated.

    Both pipelines run the same quadrature — same nodes, same products,
    survival read from the table on the columnar side and from
    ``d.cdf`` on the scalar side — so the assertion here is the
    identity one inside :func:`measure`.
    """
    result = measure(REFINEMENT_STRESS, repeats=2)
    _STATE.setdefault("results", {})["refinement_stress"] = result
    assert result["identical"]


def test_workload_shape():
    """The workload is the one the issue names: 2000 objects, 100 points."""
    engine, points, distributions = workload()
    assert len(engine) == BENCH_OBJECTS
    assert len(points) == BENCH_POINTS
    sizes = [len(d) for d in distributions]
    # Dense-overlap regime: candidate sets must be large enough that
    # per-object dispatch, not numpy arithmetic, dominated the scalar
    # path — the bottleneck this PR removes.
    assert np.mean(sizes) > 300
