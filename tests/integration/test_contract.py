"""The C-PNN engine contract (DESIGN.md §5):

    {i : p_i >= P}  ⊆  answer  ⊆  {i : p_i >= P − Δ}

holds for the engine's pipeline and for the Basic / Refine references,
at every threshold and tolerance.  This is the
precise guarantee Definition 1 gives the user: no false negatives, and
false positives only within the tolerance band below the threshold.
"""

import pytest

from repro.core.engine import UncertainEngine
from repro.core.types import CPNNQuery
from repro.experiments.strategies import STRATEGIES
from tests.conftest import make_random_objects

_SLACK = 1e-7  # numerical slack on the probability comparisons


class TestContract:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_contract_over_random_instances(self, rng, strategy):
        answer = STRATEGIES[strategy]
        for _ in range(8):
            objects = make_random_objects(rng, int(rng.integers(3, 18)))
            engine = UncertainEngine(objects)
            q = float(rng.uniform(-5, 65))
            threshold = float(rng.uniform(0.05, 0.95))
            tolerance = float(rng.uniform(0.0, 0.3))
            exact = engine.pnn(q)
            answers = set(
                answer(
                    engine, CPNNQuery(q, threshold=threshold, tolerance=tolerance)
                ).answers
            )
            must_return = {
                k for k, p in exact.items() if p >= threshold + _SLACK
            }
            may_return = {
                k for k, p in exact.items() if p >= threshold - tolerance - _SLACK
            }
            assert must_return <= answers, (
                f"false negative: strategy={strategy} P={threshold} Δ={tolerance}"
            )
            assert answers <= may_return, (
                f"illegal false positive: strategy={strategy} P={threshold} Δ={tolerance}"
            )

    def test_zero_tolerance_gives_exact_thresholding(self, rng):
        for _ in range(5):
            objects = make_random_objects(rng, 12)
            engine = UncertainEngine(objects)
            q = float(rng.uniform(0, 60))
            exact = engine.pnn(q)
            for threshold in (0.1, 0.3, 0.6):
                answers = set(
                    engine.execute(
                        CPNNQuery(q, threshold=threshold, tolerance=0.0)
                    ).answers
                )
                expected = {k for k, p in exact.items() if p >= threshold}
                borderline = {
                    k for k, p in exact.items() if abs(p - threshold) < 1e-9
                }
                assert answers - borderline <= expected
                assert expected - borderline <= answers
