"""Robustness tests: the verify → refine pipeline with non-default chains.

The framework of Figure 5 is pluggable — the paper's future work asks
for "other kinds of verifiers" — so any subset/ordering of sound
verifiers must leave the answers unchanged (refinement picks up
whatever verification leaves unknown).  The engine always runs the
paper's chain; these tests drive :class:`VerifierChain` and
:class:`Refiner` directly on one candidate set."""

import pytest

from repro.core.engine import UncertainEngine
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery
from repro.core.verifiers import (
    LowerSubregionVerifier,
    RightmostSubregionVerifier,
    UpperSubregionVerifier,
    VerifierChain,
    default_chain,
)
from repro.index.filtering import filter_candidates
from tests.conftest import make_random_objects


def chain_of(*verifiers):
    return VerifierChain(list(verifiers))


CHAINS = {
    "rs-only": chain_of(RightmostSubregionVerifier()),
    "lsr-only": chain_of(LowerSubregionVerifier()),
    "usr-only": chain_of(UpperSubregionVerifier()),
    "upper-pair": chain_of(RightmostSubregionVerifier(), UpperSubregionVerifier()),
    "reversed-input": chain_of(
        UpperSubregionVerifier(),
        LowerSubregionVerifier(),
        RightmostSubregionVerifier(),
    ),
}


def verify_then_refine(objects, query, chain):
    """The VR phases on the filtered candidates: ``(answers, refined,
    unknown fraction after each executed verifier)``."""
    candidates = filter_candidates(objects, query.q).candidates
    table = SubregionTable([o.distance_distribution(query.q) for o in candidates])
    states = CandidateStates(table.keys)
    outcome = chain.run(table, states, query)
    refiner = Refiner(table)
    unknown = states.unknown_indices()
    for i in unknown:
        refiner.refine_object(int(i), states, query)
    answers = {states.keys[i] for i in states.satisfied_indices()}
    return answers, len(unknown), outcome.unknown_after


class TestCustomChains:
    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_answers_invariant_to_chain(self, rng, name):
        objects = make_random_objects(rng, 15)
        query = CPNNQuery(30.0, threshold=0.3, tolerance=0.0)
        reference = set(UncertainEngine(objects).execute(query).answers)
        answers, _, _ = verify_then_refine(objects, query, CHAINS[name])
        assert answers == reference

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_contract_holds_for_every_chain(self, rng, name):
        objects = make_random_objects(rng, 12)
        q = 30.0
        exact = UncertainEngine(objects).pnn(q)
        for threshold, tolerance in ((0.2, 0.0), (0.3, 0.1)):
            query = CPNNQuery(q, threshold=threshold, tolerance=tolerance)
            answers, _, _ = verify_then_refine(objects, query, CHAINS[name])
            must = {k for k, p in exact.items() if p >= threshold + 1e-9}
            may = {k for k, p in exact.items() if p >= threshold - tolerance - 1e-9}
            assert must <= answers <= may

    def test_weaker_chains_refine_more(self, rng):
        objects = make_random_objects(rng, 20)
        query = CPNNQuery(30.0, threshold=0.3)
        _, refined_full, _ = verify_then_refine(objects, query, default_chain())
        _, refined_rs, _ = verify_then_refine(objects, query, CHAINS["rs-only"])
        assert refined_full == UncertainEngine(objects).execute(query).refined_objects
        assert refined_full <= refined_rs

    def test_unknown_series_matches_executed_chain(self, rng):
        objects = make_random_objects(rng, 15)
        query = CPNNQuery(30.0, threshold=0.3, tolerance=0.01)
        _, _, unknown_after = verify_then_refine(objects, query, CHAINS["upper-pair"])
        assert set(unknown_after) <= {"RS", "U-SR"}
