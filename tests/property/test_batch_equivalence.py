"""Property tests: execute_batch ≡ a sequential execute() loop.

``execute`` is a batch of one.  A batch folds, tabulates and verifies
its cold queries in one stacked pass, behind cache tiers (one
filtering sweep, cached tables, replayed snapshots), and every record
must equal a cold batch of one's — bit for bit, whatever the batch's
shape — and at tolerance 0 both must agree with the exact
``{i : p_i ≥ P}`` semantics.  Exercised across 1-D and 2-D object
mixes, parametric candidates, and a refinement-heavy Gaussian dataset
where several candidates per query survive verification.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import subregions
from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.engine import pnn as pnn_module
from repro.core.types import CPNNQuery
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.parametric import GaussianObject
from repro.uncertainty.twod import UncertainDisk, UncertainRectangle, UncertainSegment
from tests.conftest import cpnn_specs


@st.composite
def batch_cases_1d(draw):
    n = draw(st.integers(2, 10))
    objects = []
    for i in range(n):
        lo = draw(st.floats(-20, 20))
        width = draw(st.floats(0.2, 10))
        if draw(st.booleans()):
            objects.append(UncertainObject.uniform(i, lo, lo + width))
        else:
            objects.append(UncertainObject.gaussian(i, lo, lo + width, bars=8))
    n_points = draw(st.integers(1, 6))
    points = [draw(st.floats(-25, 25)) for _ in range(n_points)]
    threshold = draw(st.floats(0.05, 0.95))
    return objects, points, threshold


@st.composite
def batch_cases_2d(draw):
    n = draw(st.integers(2, 6))
    objects = []
    for i in range(n):
        cx = draw(st.floats(-8, 8))
        cy = draw(st.floats(-8, 8))
        kind = draw(st.sampled_from(["disk", "segment", "rectangle"]))
        if kind == "disk":
            objects.append(
                UncertainDisk(i, (cx, cy), draw(st.floats(0.3, 3)), distance_bins=24)
            )
        elif kind == "segment":
            dx = draw(st.floats(0.3, 4))
            dy = draw(st.floats(0.3, 4))
            objects.append(
                UncertainSegment(i, (cx, cy), (cx + dx, cy + dy), distance_bins=24)
            )
        else:
            w = draw(st.floats(0.3, 4))
            h = draw(st.floats(0.3, 4))
            objects.append(
                UncertainRectangle.from_bounds(
                    i, cx, cy, cx + w, cy + h, distance_bins=24
                )
            )
    n_points = draw(st.integers(1, 4))
    points = [
        (draw(st.floats(-10, 10)), draw(st.floats(-10, 10))) for _ in range(n_points)
    ]
    threshold = draw(st.floats(0.05, 0.95))
    return objects, points, threshold


@settings(max_examples=40, deadline=None)
@given(batch_cases_1d())
def test_batch_equals_sequential_1d(case):
    objects, points, threshold = case
    engine = UncertainEngine(objects)
    batch = engine.execute_batch(cpnn_specs(points, threshold=threshold, tolerance=0.0))
    for q, result in zip(points, batch):
        reference = engine.execute(CPNNQuery(q, threshold=threshold, tolerance=0.0))
        assert set(result.answers) == set(reference.answers)


@settings(max_examples=20, deadline=None)
@given(batch_cases_2d())
def test_batch_equals_sequential_2d(case):
    objects, points, threshold = case
    engine = UncertainEngine(objects)
    batch = engine.execute_batch(cpnn_specs(points, threshold=threshold, tolerance=0.0))
    for q, result in zip(points, batch):
        reference = engine.execute(CPNNQuery(q, threshold=threshold, tolerance=0.0))
        assert set(result.answers) == set(reference.answers)


@settings(max_examples=25, deadline=None)
@given(batch_cases_1d(), st.floats(0.0, 0.3))
def test_batch_answers_satisfy_cpnn_contract(case, tolerance):
    """Batch answers obey Definition 1 against exact probabilities."""
    objects, points, threshold = case
    engine = UncertainEngine(objects)
    batch = engine.execute_batch(
        cpnn_specs(points, threshold=threshold, tolerance=tolerance)
    )
    slack = 1e-7
    for q, result in zip(points, batch):
        exact = engine.pnn(q)
        answers = set(result.answers)
        must = {k for k, p in exact.items() if p >= threshold + slack}
        may = {k for k, p in exact.items() if p >= threshold - tolerance - slack}
        assert must <= answers <= may


@settings(max_examples=20, deadline=None)
@given(batch_cases_1d())
def test_batch_repeat_is_deterministic(case):
    """Cache warm-up must not change any answer."""
    objects, points, threshold = case
    engine = UncertainEngine(objects)
    first = engine.execute_batch(cpnn_specs(points, threshold=threshold, tolerance=0.0))
    second = engine.execute_batch(
        cpnn_specs(points, threshold=threshold, tolerance=0.0)
    )
    assert first.answers == second.answers


@settings(max_examples=15, deadline=None)
@given(batch_cases_1d())
def test_batch_linear_and_rtree_engines_agree(case):
    objects, points, threshold = case
    rtree = UncertainEngine(objects)
    linear = UncertainEngine(objects, EngineConfig(use_rtree=False))
    a = rtree.execute_batch(cpnn_specs(points, threshold=threshold, tolerance=0.0))
    b = linear.execute_batch(cpnn_specs(points, threshold=threshold, tolerance=0.0))
    assert [set(x.answers) for x in a] == [set(x.answers) for x in b]


def refine_shaped_objects():
    """Overlapping many-bar Gaussians, the shape of ``pnn_refine``, each
    with a coincident twin: with P at a candidate's exact p and Δ = 0
    no bound settles it or its twin, so refinement runs on both."""
    rng = np.random.default_rng(7)
    supports = list(zip(rng.uniform(0.0, 100.0, 80), rng.uniform(6.0, 18.0, 80)))
    return [
        UncertainObject.gaussian(i, lo, lo + width, bars=60)
        for i, (lo, width) in enumerate(supports + supports)
    ]


def assert_same_result(got, want):
    assert got.answers == want.answers
    assert got.records == want.records  # key, label, lower, upper, exact
    assert got.fmin == want.fmin
    assert got.unknown_after_verifier == want.unknown_after_verifier
    assert got.finished_after_verification == want.finished_after_verification
    assert got.refined_objects == want.refined_objects


def test_batch_is_execute_bit_for_bit():
    engine = UncertainEngine(refine_shaped_objects())
    points = [float(q) for q in np.random.default_rng(11).uniform(5.0, 110.0, 8)]
    constraints = [(0.05, 0.0), (0.3, 0.01), (0.5, 0.0), (0.05, 0.02)]
    # Refinement-heavy specs first (P at the top candidate's exact p),
    # then the same points again (duplicate points, some duplicate
    # specs) under several (P, Δ) pairs.
    specs = [CPNNQuery(q, max(engine.pnn(q).values()), 0.0) for q in points] + [
        CPNNQuery(q, *constraints[i % len(constraints)])
        for i, q in enumerate(points + points[:4])
    ]
    cold = engine.execute_batch(specs)
    warm = engine.execute_batch(specs)
    single = UncertainEngine(engine.objects)
    for spec, first, again in zip(specs, cold.results, warm.results):
        reference = cold_execute(single, spec)
        assert_same_result(first, reference)
        assert_same_result(again, reference)
    assert warm.result_hits == len(specs)
    survivors = [r.refined_objects for r in cold.results[: len(points)]]
    assert max(survivors) >= 2, "the dataset must exercise refinement"


# ----------------------------------------------------------------------
# A batch's shape does not change its records (DESIGN.md §3): the
# stacked pass folds, tabulates and verifies every cold query of a
# batch together, and each record must still equal a batch of one's.
# ----------------------------------------------------------------------


def cold_execute(engine, spec):
    """``execute`` with an empty table cache: a cold batch of one."""
    engine._table_cache.clear()
    return engine.execute(spec)


def assert_same_bits(got, want):
    """Every field of two C-PNN results, floats compared by their bits."""
    assert got.answers == want.answers
    assert got.fmin == want.fmin
    assert got.unknown_after_verifier == want.unknown_after_verifier
    assert got.finished_after_verification == want.finished_after_verification
    assert got.refined_objects == want.refined_objects
    a, b = got.records, want.records
    assert a.keys == b.keys
    assert a.codes.tobytes() == b.codes.tobytes()
    for name in ("lower", "upper", "exact"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def _kinds():
    """Candidate sets of every kind the fold and the stacked pass take:
    one-bar and multi-bar 1-D histograms, parametric Gaussians (the
    analytic fast path, or its histogram fallback), 2-D regions."""
    rng = np.random.default_rng(3)
    mixed = []
    for i, (lo, width) in enumerate(zip(rng.uniform(0, 60, 60), rng.uniform(1, 9, 60))):
        kind = i % 3
        if kind == 0:
            mixed.append(UncertainObject.uniform(i, lo, lo + width))
        elif kind == 1:
            mixed.append(UncertainObject.gaussian(i, lo, lo + width, bars=12))
        else:
            masses = rng.uniform(0.05, 1.0, 4)
            mixed.append(
                UncertainObject.from_histogram(
                    i, Histogram.from_masses(np.linspace(lo, lo + width, 5), masses / masses.sum())
                )
            )
    gaussians = [
        GaussianObject(i, lo, lo + width, bars=20)
        for i, (lo, width) in enumerate(zip(rng.uniform(0, 60, 40), rng.uniform(2, 9, 40)))
    ]
    planar = [
        (UncertainDisk, UncertainSegment, UncertainRectangle)[i % 3]
        for i in range(30)
    ]
    regions = []
    for i, kind in enumerate(planar):
        cx, cy = rng.uniform(0, 30, 2)
        w, h = rng.uniform(0.5, 4, 2)
        if kind is UncertainDisk:
            regions.append(UncertainDisk(i, (cx, cy), w, distance_bins=16))
        elif kind is UncertainSegment:
            regions.append(UncertainSegment(i, (cx, cy), (cx + w, cy + h), distance_bins=16))
        else:
            regions.append(
                UncertainRectangle.from_bounds(i, cx, cy, cx + w, cy + h, distance_bins=16)
            )
    return {"1d": mixed, "parametric": gaussians, "planar": regions}


KINDS = _kinds()


@st.composite
def shaped_batches(draw, kinds=tuple(sorted(KINDS))):
    """A corpus (one of ``kinds``), a batch of specs over a few points
    (duplicates, mixed P and Δ), and how to cut it: a permutation and
    split points."""
    kind = draw(st.sampled_from(kinds))
    if kind == "planar":
        point = st.tuples(st.floats(0, 30), st.floats(0, 30))
    else:
        point = st.floats(0, 60)
    points = draw(st.lists(point, min_size=2, max_size=5))
    constraint = st.sampled_from([(0.1, 0.0), (0.3, 0.01), (0.5, 0.05), (0.05, 0.0)])
    specs = draw(
        st.lists(
            st.tuples(st.sampled_from(points), constraint).map(
                lambda pc: CPNNQuery(pc[0], *pc[1])
            ),
            min_size=2,
            max_size=10,
        )
    )
    order = draw(st.permutations(range(len(specs))))
    cuts = sorted(draw(st.sets(st.integers(1, len(specs) - 1), max_size=3)))
    return kind, specs, order, cuts


def run_shapes(objects, specs, order, cuts, config=None):
    """The records of ``specs`` under several batch shapes, each next to
    a cold batch of one."""
    reference = UncertainEngine(objects, config)
    want = [cold_execute(reference, spec) for spec in specs]
    # the whole batch, cold and then warm (snapshots replayed)
    engine = UncertainEngine(objects, config)
    for _ in range(2):
        for spec, result, expected in zip(specs, engine.execute_batch(specs), want):
            assert_same_bits(result, expected)
    # shuffled and split into pieces: later pieces mix table hits on
    # points an earlier piece built with misses
    engine = UncertainEngine(objects, config)
    shuffled = [specs[i] for i in order]
    for lo, hi in zip([0, *cuts], [*cuts, len(specs)]):
        for i, result in zip(order[lo:hi], engine.execute_batch(shuffled[lo:hi])):
            assert_same_bits(result, want[i])


@settings(deadline=None)
@given(shaped_batches())
def test_batch_shape_does_not_change_records(case):
    kind, specs, order, cuts = case
    run_shapes(KINDS[kind], specs, order, cuts)


@settings(max_examples=10, deadline=None)
@given(shaped_batches(kinds=("parametric",)))
def test_batch_shape_with_analytic_fallback(case):
    """Parametric candidates that run out of analytic grid fall back to
    the histogram pass mid-batch."""
    _, specs, order, cuts = case
    with mock.patch.object(pnn_module, "ANALYTIC_MAX_GRID", 16):
        run_shapes(KINDS["parametric"], specs, order, cuts)


@settings(max_examples=15, deadline=None)
@given(shaped_batches(kinds=("1d", "parametric")))
def test_batch_shape_across_the_cell_cap(case):
    """A cap of a few hundred cells cuts every batch into several
    stacked blocks (and some sets above the cap into blocks of one)."""
    kind, specs, order, cuts = case
    with mock.patch.object(subregions, "_MAX_CELLS", 600), mock.patch.object(
        pnn_module, "_MAX_CELLS", 600
    ):
        run_shapes(KINDS[kind], specs, order, cuts)


@settings(max_examples=15, deadline=None)
@given(shaped_batches(kinds=("1d",)), st.integers(0, 59))
def test_batch_shape_across_a_replace(case, victim):
    """A replace between batches drops the cached tables it touches;
    the next batch mixes rebuilt tables with undisturbed hits."""
    _, specs, order, cuts = case
    objects = list(KINDS["1d"])
    engine = UncertainEngine(objects)
    engine.execute_batch(specs)
    lo = float(objects[victim].mbr.lows[0])
    moved = UncertainObject.uniform(victim, lo + 1.5, lo + 6.0)
    engine.replace(victim, moved)
    objects[victim] = moved
    reference = UncertainEngine(objects)
    shuffled = [specs[i] for i in order]
    for i, result in zip(order, engine.execute_batch(shuffled)):
        assert_same_bits(result, cold_execute(reference, specs[i]))


def test_batch_is_one_stacked_pass_on_wide_tables():
    """Tables wider than the einsum buffer are bounded table by table
    in a batch that also holds narrow ones."""
    rng = np.random.default_rng(5)
    objects = [
        UncertainObject.gaussian(i, lo, lo + 30.0, bars=300)
        for i, lo in enumerate(rng.uniform(0.0, 30.0, 60))
    ] + [UncertainObject.uniform(60 + i, 200.0 + 3 * i, 204.0 + 3 * i) for i in range(20)]
    specs = [CPNNQuery(q, p, 0.0) for q in (20.0, 25.0, 210.0, 230.0) for p in (0.01, 0.05)]
    reference = UncertainEngine(objects)
    [wide], _ = reference._build_tables([(20.0, reference._filter(20.0))])
    assert wide.n_inner > 8192
    want = [cold_execute(reference, spec) for spec in specs]
    batch = UncertainEngine(objects).execute_batch(specs)
    for result, expected in zip(batch, want):
        assert_same_bits(result, expected)
