"""Robustness tests: the engine with non-default verifier chains.

The framework of Figure 5 is pluggable — the paper's future work asks
for "other kinds of verifiers", so the engine must stay correct under
any subset/ordering of sound verifiers (refinement picks up whatever
verification leaves unknown)."""

import pytest

from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.types import CPNNQuery
from repro.core.verifiers import (
    LowerSubregionVerifier,
    RightmostSubregionVerifier,
    UpperSubregionVerifier,
    VerifierChain,
)
from tests.conftest import make_random_objects


def chain_of(*verifiers):
    return lambda: VerifierChain(list(verifiers))


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


class TestCustomChains:
    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_answers_invariant_to_chain(self, rng, name):
        objects = make_random_objects(rng, 15)
        q = 30.0
        reference = set(
            UncertainEngine(
                objects
            ).execute(CPNNQuery(q, threshold=0.3, tolerance=0.0)).answers
        )
        engine = UncertainEngine(objects, EngineConfig(chain_factory=CHAINS[name]))
        answers = set(
            engine.execute(CPNNQuery(q, threshold=0.3, tolerance=0.0)).answers
        )
        assert answers == reference

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_contract_holds_for_every_chain(self, rng, name):
        objects = make_random_objects(rng, 12)
        engine = UncertainEngine(objects, EngineConfig(chain_factory=CHAINS[name]))
        q = 30.0
        exact = engine.pnn(q)
        for threshold, tolerance in ((0.2, 0.0), (0.3, 0.1)):
            answers = set(
                engine.execute(
                    CPNNQuery(q, threshold=threshold, tolerance=tolerance)
                ).answers
            )
            must = {k for k, p in exact.items() if p >= threshold + 1e-9}
            may = {k for k, p in exact.items() if p >= threshold - tolerance - 1e-9}
            assert must <= answers <= may

    def test_weaker_chains_refine_more(self, rng):
        objects = make_random_objects(rng, 20)
        q = 30.0
        full = UncertainEngine(objects)
        rs_only = UncertainEngine(
            objects, EngineConfig(chain_factory=CHAINS["rs-only"])
        )
        refined_full = full.execute(CPNNQuery(q, threshold=0.3)).refined_objects
        refined_rs = rs_only.execute(CPNNQuery(q, threshold=0.3)).refined_objects
        assert refined_full <= refined_rs

    def test_unknown_series_matches_executed_chain(self, rng):
        objects = make_random_objects(rng, 15)
        engine = UncertainEngine(
            objects, EngineConfig(chain_factory=CHAINS["upper-pair"])
        )
        result = engine.execute(CPNNQuery(30.0, threshold=0.3, tolerance=0.01))
        assert set(result.unknown_after_verifier) <= {"RS", "U-SR"}
