"""Circuit-breaker tests: unit-level state machine + engine-level
degrade/heal driven by deterministic fault injection (DESIGN.md §14)."""

import pytest

from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.engine.executors.base import ExecutionTimeout
from repro.core.engine.executors.breaker import (
    CircuitBreaker,
    degradation_chain,
)
from repro.core.types import CPNNQuery
from repro.service.faults import FaultPlan, raise_error
from tests.conftest import make_random_objects
from tests.core.test_sharded import assert_batches_identical

#: Every C-PNN batch crosses the process executor's dispatch hook.
PROCESS_CONFIG = EngineConfig(executor="process", process_min_batch=0)


class TestDegradationChain:
    def test_chain_is_a_suffix_of_the_full_order(self):
        assert degradation_chain("process") == ("process", "serial")
        assert degradation_chain("serial") == ("serial",)

    def test_unknown_backend_rejected(self):
        for name in ("auto", "thread"):
            with pytest.raises(ValueError):
                degradation_chain(name)


class TestCircuitBreakerUnit:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("process", threshold=3, probe_after=2)
        assert breaker.begin() == "process"
        assert breaker.record(False) is None
        assert breaker.record(False) is None
        # A healthy dispatch resets the consecutive count.
        assert breaker.record(True) is None
        assert breaker.record(False) is None
        assert breaker.record(False) is None
        assert breaker.record(False) == "degraded"
        assert breaker.backend == "serial"
        assert breaker.snapshot()["trips"] == 1

    def test_probe_heals_one_level(self):
        breaker = CircuitBreaker("process", threshold=1, probe_after=2)
        breaker.begin()
        assert breaker.record(False) == "degraded"
        assert breaker.backend == "serial"
        # Two healthy dispatches at the degraded level earn a probe.
        assert breaker.begin() == "serial"
        breaker.record(True)
        assert breaker.begin() == "serial"
        breaker.record(True)
        assert breaker.begin() == "process"  # the probe
        assert breaker.snapshot()["state"] == "probing"
        assert breaker.record(True) == "healed"
        assert breaker.backend == "process"
        assert breaker.snapshot() == {
            "state": "closed",
            "configured": "process",
            "active": "process",
            "chain": ["process", "serial"],
            "consecutive_failures": 0,
            "healthy_streak": 0,
            "trips": 1,
            "heals": 1,
        }

    def test_failed_probe_stays_degraded(self):
        breaker = CircuitBreaker("process", threshold=1, probe_after=1)
        breaker.begin()
        breaker.record(False)
        breaker.begin()
        breaker.record(True)
        assert breaker.begin() == "process"  # probe
        assert breaker.record(False) is None
        assert breaker.backend == "serial"
        # The streak restarts; the next dispatch is not a probe.
        assert breaker.begin() == "serial"

    def test_serial_never_degrades(self):
        breaker = CircuitBreaker("serial", threshold=1, probe_after=1)
        for _ in range(5):
            breaker.begin()
            assert breaker.record(False) is None
        assert breaker.backend == "serial"
        assert breaker.snapshot()["trips"] == 0

    def test_abort_clears_probe_only(self):
        breaker = CircuitBreaker("process", threshold=1, probe_after=1)
        breaker.begin()
        breaker.record(False)
        breaker.begin()
        breaker.record(True)
        assert breaker.begin() == "process"  # probe armed
        breaker.abort()  # deadline expiry: no health verdict
        assert breaker.snapshot()["state"] == "degraded"
        assert breaker.snapshot()["heals"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("process", threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("process", probe_after=0)


class TestEngineLevelBreaker:
    """Drive the breaker through a real engine with injected dispatch
    failures: degrade process → serial, keep answering bit-identically,
    then heal when the fault clears.  ``process_min_batch=0`` sends
    every batch through the process executor's dispatch hook."""

    def test_degrade_then_heal_with_identical_answers(self, rng):
        objects = make_random_objects(rng, 18)
        single = UncertainEngine(objects)
        specs = [CPNNQuery(q, threshold=0.3) for q in (7.0, 23.0, 41.0)]
        want = single.execute_batch(specs)
        plan = FaultPlan()
        # The first three process dispatches blow up wholesale; answers
        # must still come back (inline fallback), and the third failure
        # (the breaker's default threshold) trips it onto serial.
        plan.script(
            "executor.dispatch",
            raise_error(lambda: RuntimeError("injected pool failure")),
            at=(1, 2, 3),
            match={"backend": "process", "kind": "pnn"},
        )
        with ShardedEngine(objects, PROCESS_CONFIG, n_shards=2) as engine:
            with plan:
                assert_batches_identical(engine.execute_batch(specs), want)
                snapshot = engine.stats()["executor"]["breaker"]
                assert snapshot["state"] == "closed"
                assert snapshot["consecutive_failures"] == 1
                assert_batches_identical(engine.execute_batch(specs), want)
                assert_batches_identical(engine.execute_batch(specs), want)
                snapshot = engine.stats()["executor"]["breaker"]
                assert snapshot["state"] == "degraded"
                assert snapshot["active"] == "serial"
                assert engine.stats()["executor"]["inline_fallbacks"] >= 2
            # Fault cleared.  Eight healthy serial dispatches (the
            # default probe_after) earn a probe back at the process
            # level, which heals the breaker.
            for _ in range(9):
                assert_batches_identical(engine.execute_batch(specs), want)
            snapshot = engine.stats()["executor"]["breaker"]
            assert snapshot["state"] == "closed"
            assert snapshot["active"] == "process"
            assert snapshot["heals"] == 1
        assert len(plan.fired) == 3

    def test_deadline_expiry_does_not_trip_the_breaker(self, rng):
        objects = make_random_objects(rng, 18)
        specs = [CPNNQuery(q, threshold=0.3) for q in (5.0, 30.0, 50.0)]
        # Three expiries: enough to trip the default threshold, were
        # they counted as failures.
        with ShardedEngine(objects, PROCESS_CONFIG, n_shards=2) as engine:
            for _ in range(3):
                with pytest.raises(ExecutionTimeout):
                    with engine.deadline(0.0):
                        engine.execute_batch(specs)
            snapshot = engine.stats()["executor"]["breaker"]
            assert snapshot["state"] == "closed"
            assert snapshot["trips"] == 0
