"""Candidates as positions: every family folds from the filter's columns.

The engine builds each subregion table from the filter's row positions
and fold columns (``FilterResult.positions`` / ``.columns``) through the
column kernels of :mod:`repro.uncertainty.columnar`, so a 1-D C-PNN
query constructs no per-candidate ``DistanceDistribution``; the table's
``distributions`` are built only when something reads them, and then
equal the rows an eager table holds.  k-NN and range packs fold the
same way from ``BatchMbrFilter.columns``: a range query builds no
distribution, a k-NN query one per survivor it integrates
(``refined_objects``), the ``k >= n`` census none.  (``constructed``,
the counter, lives in ``tests/conftest.py``.)
"""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.subregions import SubregionTable
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.datasets.longbeach import long_beach_surrogate
from repro.index.filtering import filter_candidates
from tests.conftest import cpnn_specs, make_random_objects

POINTS = (812.5, 2500.0, 4444.4, 6100.25, 9001.0)


@pytest.mark.parametrize("pdf", ["uniform", "gaussian"])
def test_queries_build_no_distance_distribution(constructed, pdf):
    objects = long_beach_surrogate(
        n=2000, mean_length=120.0, pdf=pdf, bars=40, representation="histogram", seed=3
    )
    engine = UncertainEngine(objects, EngineConfig(parametric_fast_path=False))
    del constructed[:]
    for q in POINTS:
        assert len(engine.execute(CPNNQuery(q, 0.3, 0.01)).records) > 1
    specs = cpnn_specs(POINTS, threshold=0.3, tolerance=0.0)
    engine.execute_batch(specs)
    engine.execute_batch(specs)  # replays
    engine.pnn(POINTS[0])
    assert constructed == []
    engine._filter(POINTS[0]).candidates[0].distance_distribution(POINTS[0])
    assert constructed == ["from_value_histogram"]  # the counter counts


@pytest.mark.parametrize("pdf", ["uniform", "gaussian"])
def test_range_and_knn_build_only_the_rows_they_integrate(constructed, pdf):
    objects = long_beach_surrogate(
        n=2000, mean_length=120.0, pdf=pdf, bars=40, representation="histogram", seed=3
    )
    engine = UncertainEngine(objects, EngineConfig(parametric_fast_path=False))
    ranges = [CRangeQuery(q, threshold=0.3, radius=150.0) for q in POINTS]
    census = [CKNNQuery(q, threshold=0.3, k=len(objects)) for q in POINTS]
    knns = [CKNNQuery(q, threshold=0.3, k=3) for q in POINTS]
    del constructed[:]
    evaluated = sum(engine.execute(spec).refined_objects for spec in ranges)
    assert evaluated > 0, "some straddler must reach cdf(radius)"
    for spec in census:
        engine.execute(spec)
    batch = engine.execute_batch(ranges + census)
    assert batch.total_refined == evaluated
    assert constructed == []
    refined = sum(engine.execute(spec).refined_objects for spec in knns)
    assert refined > 0, "some survivor must reach exact integration"
    assert len(constructed) == refined
    del constructed[:]
    assert engine.execute_batch(knns).total_refined == refined
    assert len(constructed) == refined


def test_read_back_rows_equal_an_eager_table(rng):
    """``distributions``, ``keys`` and ``index_of`` of a table the engine
    built return what a table over eagerly built rows returns."""
    engine = UncertainEngine(make_random_objects(rng, 40, domain=(0.0, 30.0)))
    points = [float(q) for q in rng.uniform(-2.0, 32.0, 6)]
    engine.execute_batch(cpnn_specs(points))
    for q in points:
        table = engine._table_cache.peek(q).table
        candidates = engine._filter(q).candidates
        eager = SubregionTable([obj.distance_distribution(q) for obj in candidates])
        assert table.keys == eager.keys
        assert table.cdf_at_edges.tobytes() == eager.cdf_at_edges.tobytes()
        assert table._distributions is None  # nothing read them yet
        for got, want in zip(table.distributions, eager.distributions, strict=True):
            assert got.key == want.key
            assert got.histogram == want.histogram
            got_knots, want_knots = got.histogram.cdf_knots, want.histogram.cdf_knots
            assert got_knots.tobytes() == want_knots.tobytes()
        for key in eager.keys:
            assert table.index_of(key) == eager.index_of(key)
        with pytest.raises(KeyError):
            table.index_of("absent")


def test_filter_results_carry_positions_and_columns(rng):
    objects = make_random_objects(rng, 60)
    engine = UncertainEngine(objects)
    points = [float(q) for q in rng.uniform(0.0, 60.0, 5)]
    for results in (engine._filter_batch(points), [engine._filter(q) for q in points]):
        for q, result in zip(points, results):
            scan = filter_candidates(objects, q)
            assert result == scan
            assert result.positions.tolist() == scan.positions.tolist()
            assert [objects[i] for i in result.positions] == list(result.candidates)
            keys, lo, hi, density = result.columns
            assert keys == tuple(obj.key for obj in result.candidates)
            assert lo.tolist() == [obj.lo for obj in result.candidates]
            assert hi.tolist() == [obj.hi for obj in result.candidates]
            assert density.tolist() == [
                obj.uniform_density or 0.0 for obj in result.candidates
            ]
    # Only uniform objects carry a bar density; their folds need nothing else.
    assert {i % 3 for i, obj in enumerate(objects) if obj.uniform_density} == {0}
    assert np.all(np.array([o.uniform_density for o in objects[::3]]) > 0)


def test_column_gather_serves_every_family(rng):
    """``BatchMbrFilter.columns`` at the k-NN and range survivors'
    positions reads the same columns ``__call__`` hands C-PNN."""
    objects = make_random_objects(rng, 60)
    flt = UncertainEngine(objects)._ensure_batch_filter()
    points = [float(q) for q in rng.uniform(0.0, 60.0, 5)]
    survivors = [p for p, _ in flt.kth_filter(points, [4] * len(points))]
    survivors += [p for p, _, _ in flt.range_filter(points, [5.0] * len(points))]
    survivors += [result.positions for result in flt(points)]
    for positions in survivors:
        keys, lo, hi, density = flt.columns(positions)
        picked = [objects[i] for i in positions]
        assert keys == tuple(obj.key for obj in picked)
        assert lo.tolist() == [obj.lo for obj in picked]
        assert hi.tolist() == [obj.hi for obj in picked]
        assert density.tolist() == [obj.uniform_density or 0.0 for obj in picked]
