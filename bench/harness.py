"""Runs one workload in this interpreter and writes its result file.

The workload modules own what is measured; this module owns what every
run shares: repeated set-up, the measurement record, peak memory,
provenance, and the result line the driver reads.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from bench import catalogue, reference
from bench.spans import Tracer

__all__ = ["Measurements", "percentile_ms", "run_workload", "workload_classes"]

#: Set-up repeats stop at this many, or once they have used this long.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 5.0


class Measurements:
    """Metrics, op counts and failures of one workload run."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: dict = {}

    def set(self, name: str, value) -> None:
        if value is not None:
            self.metrics[name] = float(value)

    def ops(self, count: int) -> None:
        self.attempted += int(count)

    def fail(self, what: str) -> None:
        """Count one op as failed (raised, refused, or verified wrong);
        the first few reasons are kept for the result file."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def digests(self, workload: str, seed: int, digests: dict) -> None:
        """Record answer-stream digests and hold them against the golden
        file (a mismatch fails one op)."""
        self.notes["digests"] = digests
        problem = reference.check_against_golden(workload, seed, digests)
        if problem:
            self.fail(problem)


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds, dtype=float), q) * 1e3)


def workload_classes() -> dict:
    from bench.workloads.batch_families import BatchFamilies
    from bench.workloads.pnn import PnnRefine, PnnVerify
    from bench.workloads.service_mixed import ServiceMixed

    return {
        "pnn_verify": PnnVerify,
        "pnn_refine": PnnRefine,
        "batch_families": BatchFamilies,
        "service_mixed": ServiceMixed,
    }


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def _git_commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root: str, seed: int, scale: float) -> dict:
    from repro.core.engine import EngineConfig
    from repro.core.engine.executors import resolve_backend

    return {
        "seed": seed,
        "scale": scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "executor_auto": resolve_backend(EngineConfig(), parallel=True),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _timed_setups(workload, repeats: int) -> list[float]:
    """Set the workload up ``repeats`` times (tearing down in between)
    and leave the last one standing; returns each set-up's seconds."""
    samples: list[float] = []
    while True:
        tick = time.perf_counter()
        workload.setup()
        samples.append(time.perf_counter() - tick)
        if len(samples) >= repeats or sum(samples) >= SETUP_BUDGET_S:
            return samples
        workload.teardown()


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, out_dir: str, root: str
) -> dict:
    """Run one workload; returns the driver's result object."""
    scale = seconds / catalogue.REFERENCE_SECONDS
    os.makedirs(out_dir, exist_ok=True)
    workload = workload_classes()[name](seed, scale, out_dir)
    m = Measurements()
    load_before = os.getloadavg()
    started = time.time()
    try:
        setups = _timed_setups(workload, 1 if trace else SETUP_REPEATS)
        if trace:
            tracer = Tracer()
            workload.run_traced(m, tracer)
            tracer.write(os.path.join(out_dir, f"trace.{name}.jsonl"))
            # name -> (count, total seconds, self seconds)
            m.notes["spans"] = tracer.totals()
        else:
            workload.run(m)
    finally:
        workload.teardown()
    leaked = multiprocessing.active_children()
    if leaked:
        m.fail(f"{len(leaked)} worker process(es) outlived the workload")
    m.set("setup_s", statistics.median(setups))
    m.set("peak_rss_mb", _peak_rss_mib())
    m.set("failed_share", m.failed / max(m.attempted, 1))
    m.metrics.update(workload.setup_parts)

    if trace:
        wanted = {n: unit for n, (unit, _) in catalogue.PER_LAYER.items()}
    else:
        wanted = {
            e.name: e.unit
            for e in catalogue.END_TO_END
            if e.workloads == catalogue.ALL and not e.absolute
        }
    result = {
        "workload": name,
        "trace": int(trace),
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "failures": m.failures,
        "metrics": m.metrics,
        "setup_samples_s": setups,
        "notes": m.notes,
        "noisy": bool(m.notes.get("noisy")),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "wall_s": time.time() - started,
        **provenance(root, seed, scale),
    }
    path = os.path.join(out_dir, f"{name}.trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(result, sink, indent=1, sort_keys=True)
    return {
        "correct": result["correct"],
        "attempted": max(m.attempted, 1),
        "failed": m.failed,
        "metrics": {
            # A layer the workload never enters has no spans and no
            # counts, so its metrics read 0; an end-to-end metric that
            # is missing is a bug and raises.
            n: {"value": m.metrics.get(n, 0.0) if trace else m.metrics[n], "unit": unit}
            for n, unit in wanted.items()
        },
    }


def _children() -> list[tuple[int, str]]:
    """``(pid, state)`` of every process whose parent is this interpreter."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as source:
                # pid (comm) state ppid ...; comm may hold spaces and ')'
                state, ppid = source.read().rpartition(")")[2].split()[:2]
        except (OSError, ValueError):
            continue  # gone between listdir and open
        if int(ppid) == me:
            found.append((int(entry), state))
    return found


def stop_started_processes() -> list[int]:
    """Stop every process this interpreter started and wait for each.

    ``multiprocessing`` starts a resource-tracker process beside the
    first spawned worker or shared-memory segment; it ends only when the
    interpreter's end of its pipe closes, that is *after* this process
    has exited, so it has to be stopped by hand.  Anything else still
    running here was leaked by the workload: it is killed, reaped, and
    its pid returned.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
    try:
        from multiprocessing import resource_tracker

        # closes the tracker's pipe and waits for it (CPython >= 3.8)
        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, OSError):
        pass  # swept below
    leaked = []
    for pid, state in _children():
        try:
            os.kill(pid, signal.SIGKILL)  # the tracker ignores SIGTERM
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            continue  # already reaped
        if state != "Z":  # a zombie had ended; it only wanted reaping
            leaked.append(pid)
    return leaked


def main_child(args, root: str) -> int:
    """``--workload NAME`` mode: one workload, one result line.  No
    process started here is running when this returns, whichever way."""
    try:
        line = run_workload(
            args.workload[0],
            args.seed,
            args.seconds,
            bool(args.trace),
            args.out or os.path.join(root, "bench", "results", "last"),
            root,
        )
    finally:
        leaked = stop_started_processes()
    if leaked:
        line["correct"] = False
        line["failed"] += 1
        print(f"bench: {len(leaked)} process(es) had to be killed at exit",
              file=sys.stderr)
    sys.stdout.flush()
    print(json.dumps(line))
    return 0
