"""Candidates as positions: C-PNN tables fold from the filter's columns.

The engine builds each subregion table from the filter's row positions
and fold columns (``FilterResult.positions`` / ``.columns``) through the
column kernels of :mod:`repro.uncertainty.columnar`, so a 1-D query
constructs no per-candidate ``DistanceDistribution``; the table's
``distributions`` are built only when something reads them, and then
equal the rows an eager table holds.
"""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery
from repro.datasets.longbeach import long_beach_surrogate
from repro.index.filtering import filter_candidates
from repro.uncertainty.distance import DistanceDistribution
from tests.conftest import cpnn_specs, make_random_objects

POINTS = (812.5, 2500.0, 4444.4, 6100.25, 9001.0)


@pytest.fixture
def constructed(monkeypatch) -> list:
    """Every ``DistanceDistribution`` built from now on, by its two
    constructors: ``__init__`` and ``from_value_histogram``.  (Patching
    ``__new__`` instead would leave the class broken after the undo.)"""
    built = []
    init = DistanceDistribution.__init__
    lazy = DistanceDistribution.from_value_histogram

    def counting_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def counting_lazy(cls, *args, **kwargs):
        built.append("from_value_histogram")
        return lazy(*args, **kwargs)

    monkeypatch.setattr(DistanceDistribution, "__init__", counting_init)
    monkeypatch.setattr(
        DistanceDistribution, "from_value_histogram", classmethod(counting_lazy)
    )
    return built


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
