"""Tests for the grid-refinement extension (finer subregion grids)."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.refinement import Refiner
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery
from repro.core.verifiers import (
    LowerSubregionVerifier,
    RightmostSubregionVerifier,
    UpperSubregionVerifier,
)
from tests.conftest import make_random_objects, two_object_textbook_case


def tables(objects, q, grids=(1, 2, 4)):
    dists = [o.distance_distribution(q) for o in objects]
    return {g: SubregionTable(dists, grid_refinement=g) for g in grids}


class TestGridStructure:
    def test_edges_multiply(self):
        objects, q = two_object_textbook_case()
        t = tables(objects, q)
        assert t[2].n_inner == 2 * t[1].n_inner
        assert t[4].n_inner == 4 * t[1].n_inner

    def test_endpoints_preserved(self):
        objects, q = two_object_textbook_case()
        t = tables(objects, q)
        for edge in t[1].edges:
            assert np.min(np.abs(t[4].edges - edge)) < 1e-12

    def test_mass_partition_still_holds(self, rng):
        objects = make_random_objects(rng, 8)
        for table in tables(objects, 30.0).values():
            totals = table.s_inner.sum(axis=1) + table.s_right
            assert np.allclose(totals, 1.0, atol=1e-9)

    def test_invalid_refinement_rejected(self, rng):
        objects = make_random_objects(rng, 3)
        dists = [o.distance_distribution(0.0) for o in objects]
        with pytest.raises(ValueError):
            SubregionTable(dists, grid_refinement=0)


class TestSoundnessUnderRefinement:
    def test_bounds_still_contain_exact(self, rng):
        for _ in range(6):
            objects = make_random_objects(rng, int(rng.integers(3, 10)))
            q = float(rng.uniform(0, 60))
            for g, table in tables(objects, q, grids=(2, 3, 5)).items():
                exact = Refiner(table).exact_all()
                rs = RightmostSubregionVerifier().compute(table)
                lsr = LowerSubregionVerifier().compute(table)
                usr = UpperSubregionVerifier().compute(table)
                assert np.all(exact <= rs.upper + 1e-9), f"g={g}"
                assert np.all(lsr.lower - 1e-9 <= exact), f"g={g}"
                assert np.all(exact <= usr.upper + 1e-9), f"g={g}"

    def test_exact_probability_invariant_to_grid(self, rng):
        objects = make_random_objects(rng, 8)
        q = 30.0
        results = [
            Refiner(table).exact_all() for table in tables(objects, q).values()
        ]
        assert np.allclose(results[0], results[1], atol=1e-10)
        assert np.allclose(results[0], results[2], atol=1e-10)

    def test_usr_converges_to_exact(self):
        # Three fully-overlapping objects: exact p = 1/3 each, but the
        # coarse U-SR bound is 1/2 (one subregion, worst case m = 1).
        from repro.uncertainty.objects import UncertainObject

        objects = [UncertainObject.uniform(i, 0.0, 2.0) for i in range(3)]
        dists = [o.distance_distribution(0.0) for o in objects]
        exact = Refiner(SubregionTable(dists)).exact_all()
        assert np.allclose(exact, 1.0 / 3.0)
        gaps = []
        for g in (1, 16, 64):
            table = SubregionTable(dists, grid_refinement=g)
            upper = UpperSubregionVerifier().compute(table).upper
            gaps.append(float(np.max(upper - exact)))
        assert gaps[0] == pytest.approx(0.5 - 1.0 / 3.0, abs=1e-9)
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]
        assert gaps[2] < 0.02


class TestEngineIntegration:
    def test_answers_invariant_to_grid(self, rng):
        objects = make_random_objects(rng, 15)
        q = 30.0
        baseline = None
        for g in (1, 2, 4):
            engine = UncertainEngine(objects, EngineConfig(grid_refinement=g))
            answers = set(engine.execute(CPNNQuery(q, tolerance=0.0)).answers)
            if baseline is None:
                baseline = answers
            assert answers == baseline

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(grid_refinement=0)
