"""Interpreter-exit lifecycle regressions for the process executor.

A script that builds a process-backed engine and simply *ends* —
without ``close()``, without a context manager, even SIGKILLed
mid-batch — must leave nothing behind: no orphaned spawn workers, no
``/dev/shm`` segments.  The graceful path rides the atexit/weakref net
in :mod:`repro.core.engine.executors.process`; the SIGKILL path rides
the workers' pipe-EOF exit and the creator-unlinks shared-memory
protocol (DESIGN.md §13).
"""

import glob
import os
import signal
import subprocess
import sys
import textwrap
import time

from repro.core.engine import UncertainEngine
from repro.core.types import CPNNQuery
from repro.storage.shmstore import SEGMENT_PREFIX
from tests.conftest import make_random_objects

_SCRIPT_PRELUDE = textwrap.dedent(
    """
    import os
    from repro.core.engine import EngineConfig, ShardedEngine
    from repro.core.types import CPNNQuery
    from tests.conftest import make_random_objects
    import numpy as np

    rng = np.random.default_rng(20080407)
    engine = ShardedEngine(
        make_random_objects(rng, 20),
        EngineConfig(executor="process", process_min_batch=0),
        n_shards=2,
    )
    specs = [CPNNQuery(float(q), threshold=0.3) for q in (8.0, 30.0, 52.0)]
    engine.execute_batch(specs)
    pids = [
        w.proc.pid for w in engine._executor._workers if w is not None
    ]
    print("WORKERS", *pids, flush=True)
    """
)


def _run_script(body: str, *, expect_exit=0) -> list[int]:
    """Run a lifecycle script in a fresh interpreter; returns the
    worker PIDs it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", ".", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT_PRELUDE + body],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == expect_exit, proc.stderr
    for line in proc.stdout.splitlines():
        if line.startswith("WORKERS"):
            return [int(p) for p in line.split()[1:]]
    raise AssertionError(f"script printed no worker PIDs:\n{proc.stdout}")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


def _wait_reaped(pids: list[int], timeout_s: float = 10.0) -> list[int]:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        leftovers = [pid for pid in pids if _alive(pid)]
        if not leftovers:
            return []
        time.sleep(0.05)
    return leftovers


def leaked_segments() -> set:
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


class TestInterpreterExit:
    def test_abrupt_script_end_reaps_workers_and_segments(self):
        """The script never calls close(): the atexit net must shut the
        pool down on interpreter exit."""
        before = leaked_segments()
        pids = _run_script("")  # falls off the end, engine still open
        assert len(pids) == 2
        assert _wait_reaped(pids) == []
        assert leaked_segments() <= before

    def test_sigkill_mid_batch_leaks_nothing(self):
        """SIGKILL the host mid-dispatch — no atexit runs.  Workers must
        exit on pipe EOF and no named segment may survive (the
        coordinate segment is unlinked at attach time by design)."""
        before = leaked_segments()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", ".", env.get("PYTHONPATH", "")) if p
        )
        body = _SCRIPT_PRELUDE + textwrap.dedent(
            """
            while True:  # grind batches until the parent kills us
                engine.execute_batch(specs)
            """
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", body],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert proc.stdout is not None
            line = proc.stdout.readline()
            assert line.startswith("WORKERS"), line
            pids = [int(p) for p in line.split()[1:]]
            time.sleep(0.2)  # let a few batches fly
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
                proc.wait(timeout=30)
        assert _wait_reaped(pids) == []
        assert leaked_segments() <= before


class TestSingleEngineContextManager:
    def test_uncertain_engine_supports_with_blocks(self, rng):
        objects = make_random_objects(rng, 10)
        with UncertainEngine(objects) as engine:
            result = engine.execute(CPNNQuery(9.0, threshold=0.3))
        assert result.records
        # close() is a no-op: the engine stays usable afterwards.
        engine.close()
        assert engine.execute(CPNNQuery(9.0, threshold=0.3)).records
