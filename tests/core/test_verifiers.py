"""Tests for RS, L-SR, U-SR and the chained framework (Section IV)."""

import numpy as np
import pytest

from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery, Label
from repro.core.verifiers import (
    LowerSubregionVerifier,
    RightmostSubregionVerifier,
    UpperSubregionVerifier,
    VerifierChain,
    default_chain,
)
from repro.core.verifiers.base import BoundUpdate
from tests.conftest import make_random_objects, two_object_textbook_case


def table_for(objects, q):
    return SubregionTable([o.distance_distribution(q) for o in objects])


@pytest.fixture
def textbook_table():
    objects, q = two_object_textbook_case()
    return table_for(objects, q)


class TestRSVerifier:
    def test_textbook_upper_bounds(self, textbook_table):
        update = RightmostSubregionVerifier().compute(textbook_table)
        assert update.lower is None
        assert np.allclose(update.upper, [1.0, 0.5])

    def test_upper_is_cdf_at_fmin(self, rng):
        objects = make_random_objects(rng, 10)
        table = table_for(objects, 30.0)
        update = RightmostSubregionVerifier().compute(table)
        for i, dist in enumerate(table.distributions):
            assert update.upper[i] == pytest.approx(float(dist.cdf(table.fmin)))


class TestLSRVerifier:
    def test_textbook_lower_bounds(self, textbook_table):
        update = LowerSubregionVerifier().compute(textbook_table)
        assert update.upper is None
        # p_A.l = 0.5*1 + 0.5*max(0.5/2, 0.75) ; p_B.l = 0.5*max(0.5/2, 0.25):
        # both exact, since each Z is one linear survival.
        assert np.allclose(update.lower, [0.875, 0.125])

    def test_single_candidate_gets_probability_one(self):
        from repro.uncertainty.objects import UncertainObject

        table = table_for([UncertainObject.uniform("x", 1, 3)], 0.0)
        update = LowerSubregionVerifier().compute(table)
        assert update.lower[0] == pytest.approx(1.0)


class TestUSRVerifier:
    def test_textbook_upper_bounds(self, textbook_table):
        update = UpperSubregionVerifier().compute(textbook_table)
        # p_A.u = 0.5*1 + 0.5*0.75 ; p_B.u = 0.5*0.25
        assert np.allclose(update.upper, [0.875, 0.125])

    def test_tighter_than_rs_on_average(self, rng):
        # U-SR refines RS: Σ s_ij q_ij.u <= Σ s_ij = 1 - s_iM.
        for _ in range(5):
            objects = make_random_objects(rng, 12)
            table = table_for(objects, float(rng.uniform(0, 60)))
            rs_u = RightmostSubregionVerifier().compute(table).upper
            usr_u = UpperSubregionVerifier().compute(table).upper
            assert np.all(usr_u <= rs_u + 1e-9)


class TestSoundness:
    """Every verifier bound must contain the exact probability."""

    def test_bounds_contain_exact(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 14))
            objects = make_random_objects(rng, n)
            q = float(rng.uniform(-5, 65))
            table = table_for(objects, q)
            exact = Refiner(table).exact_all()
            assert exact.sum() == pytest.approx(1.0, abs=1e-9)
            rs = RightmostSubregionVerifier().compute(table)
            lsr = LowerSubregionVerifier().compute(table)
            usr = UpperSubregionVerifier().compute(table)
            assert np.all(exact <= rs.upper + 1e-9)
            assert np.all(exact >= lsr.lower - 1e-9)
            assert np.all(exact <= usr.upper + 1e-9)


class TestBoundUpdate:
    def test_requires_at_least_one_side(self):
        with pytest.raises(ValueError):
            BoundUpdate()


class TestVerifierChain:
    def test_orders_by_cost_rank(self):
        chain = VerifierChain(
            [
                UpperSubregionVerifier(),
                RightmostSubregionVerifier(),
                LowerSubregionVerifier(),
            ]
        )
        assert [v.name for v in chain.verifiers] == ["RS", "L-SR", "U-SR"]

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            VerifierChain([])

    def test_early_termination(self, textbook_table):
        # With P = 0.3 and Δ = 0.2, RS + L-SR settle both objects:
        # A: [0.75, 1.0] -> satisfy; B: [0.125, 0.5]... B needs U-SR.
        states = CandidateStates(textbook_table.keys)
        chain = default_chain()
        outcome = chain.run(textbook_table, states, CPNNQuery(0.0, 0.3, 0.2))
        assert outcome.unknown_after["RS"] <= 1.0
        assert states.n_unknown == 0
        assert outcome.finished

    def test_unknown_fractions_monotone(self, rng):
        objects = make_random_objects(rng, 15)
        table = table_for(objects, 30.0)
        states = CandidateStates(table.keys)
        outcome = default_chain().run(table, states, CPNNQuery(30.0, 0.3, 0.01))
        fractions = [outcome.unknown_after[name] for name in outcome.executed]
        assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_chain_labels_match_definition(self, textbook_table):
        states = CandidateStates(textbook_table.keys)
        default_chain().run(textbook_table, states, CPNNQuery(0.0, 0.3, 0.0))
        # Exact probabilities are A: 0.875, B: 0.125; the verifier
        # bounds here are tight enough to classify both at Δ=0? A's
        # lower bound 0.75 >= 0.3 -> satisfy. B's upper 0.125 < 0.3 -> fail.
        assert states.label_of(0) is Label.SATISFY
        assert states.label_of(1) is Label.FAIL
