"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Runs every workload at ``--scale 0.03`` — once untraced and twice traced,
each in a fresh interpreter — and checks what a later change could break
without noticing: the metric names and units the driver reads, the
counts that must repeat exactly, the fidelity of the staged replay, and
that no worker, segment or spill file outlives a workload.

Not part of tier-1 (``pyproject.toml`` collects ``tests`` and
``benchmarks`` only); nothing here is timed against a threshold.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # importlib import mode leaves sys.path alone
    sys.path.insert(0, ROOT)

from bench import catalogue  # noqa: E402

RUN = os.path.join(ROOT, "bench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SCALE_SECONDS = repr(0.03 * catalogue.REFERENCE_SECONDS)


def _in_session(sid: int) -> list:
    """Command lines of the processes of session ``sid`` still there."""
    left = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as source:
                fields = source.read().rpartition(")")[2].split()
            if int(fields[3]) == sid:
                with open(f"/proc/{entry}/cmdline") as source:
                    left.append(source.read().replace("\0", " ") or fields[0])
        except OSError:
            pass  # ended while we looked
    return left


def _child(name: str, trace: int, out_dir: str, seconds: str = SCALE_SECONDS):
    """One driver-style run in a session of its own; ``.left`` lists the
    processes of that session alive the moment it has exited (the
    multiprocessing resource tracker used to be one)."""
    with subprocess.Popen(
        [sys.executable, RUN, "--workload", name, "--seed", "20080407",
         "--seconds", seconds, "--trace", str(trace), "--out", out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as child:
        try:
            child.stdout_text, child.stderr_text = child.communicate(timeout=170)
        finally:
            child.kill()
    child.left = _in_session(child.pid)
    return child


def _segments() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{(workload, label): (driver line, result file)}`` for the
    labels ``untraced``, ``traced``, ``again`` (a second traced run) and,
    for the two C-PNN workloads, ``alone`` (see below)."""
    base = tmp_path_factory.mktemp("bench")
    before = _segments()
    jobs = [
        (name, label, trace, str(base / label))
        for name in catalogue.ALL
        for label, trace in (("untraced", 0), ("traced", 1), ("again", 1))
    ]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        done = list(pool.map(lambda job: _child(job[0], job[2], job[3]), jobs))
    # The staged replay is compared with ``execute`` on time, so the two
    # runs that check it get the machine to themselves and enough queries
    # for a median (--scale 0.1: 225 and 21).
    for name in ("pnn_verify", "pnn_refine"):
        jobs.append((name, "alone", 1, str(base / "alone")))
        done.append(_child(name, 1, jobs[-1][3], seconds="3.0"))
    out = {}
    for (name, label, trace, out_dir), child in zip(jobs, done):
        assert child.returncode == 0, child.stderr_text[-2000:]
        line = json.loads(child.stdout_text.strip().splitlines()[-1])
        with open(os.path.join(out_dir, f"{name}.trace{trace}.json")) as source:
            out[name, label] = (line, json.load(source))
    out["leaked_segments"] = _segments() - before
    out["leaked_processes"] = [
        (job[:2], child.left) for job, child in zip(jobs, done) if child.left
    ]
    out["spill"] = [
        path for label in ("untraced", "traced", "again")
        if (base / label / "spill").is_dir()
        for path in os.listdir(base / label / "spill")
    ]
    return out


def test_benchmark_json_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        declared = json.load(source)
    assert [w["name"] for w in declared["workloads"]] == list(catalogue.ALL)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == catalogue.WORKLOADS
    assert declared["paths"] == ["bench"]
    universal = [
        m for m in catalogue.END_TO_END
        if m.workloads == catalogue.ALL and not m.absolute
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in universal
    ]
    assert declared["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in catalogue.PER_LAYER.items()
    ]
    assert len(declared["per_layer"]) < 128
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += list(catalogue.ALL)
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    assert set(catalogue.EXACT_COUNTS) <= set(catalogue.PER_LAYER)


def test_every_workload_answers_correctly_and_reports_every_metric(runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        declared = json.load(source)
    for name in catalogue.ALL:
        for label, kind in (("untraced", "end_to_end"), ("traced", "per_layer")):
            line, result = runs[name, label]
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0, result["failures"]
            assert line["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in declared[kind]}
            assert {n: v["unit"] for n, v in line["metrics"].items()} == expected
            assert all(isinstance(v["value"], float) for v in line["metrics"].values())
        untraced = runs[name, "untraced"][1]
        for metric in catalogue.end_to_end_for(name):
            assert metric.name in untraced["metrics"], (name, metric.name)
        assert untraced["metrics"]["failed_share"] == 0.0
        assert all(runs[name, "untraced"][0]["metrics"][m]["value"] > 0.0
                   for m in runs[name, "untraced"][0]["metrics"])
    assert runs["service_mixed", "untraced"][1]["metrics"]["late_share"] <= 0.01


def test_exact_counts_repeat(runs):
    for name in catalogue.ALL:
        first = runs[name, "traced"][1]["metrics"]
        again = runs[name, "again"][1]["metrics"]
        for count in catalogue.EXACT_COUNTS:
            assert first.get(count) == again.get(count), (name, count)
    # every exact count has a workload that produces it
    produced = set().union(*(runs[n, "traced"][1]["metrics"] for n in catalogue.ALL))
    assert set(catalogue.EXACT_COUNTS) <= produced


def test_staged_replay_accounts_for_execute(runs):
    for name in ("pnn_verify", "pnn_refine"):
        metrics = runs[name, "alone"][1]["metrics"]
        assert 0.9 <= metrics["core.engine.replay_coverage"] <= 1.1, name
    assert all(
        "trace.overhead_ratio" in runs[n, "traced"][1]["metrics"] for n in catalogue.ALL
    )


def test_nothing_outlives_a_workload(runs):
    assert not runs["leaked_processes"]
    assert not runs["leaked_segments"]
    assert not runs["spill"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    probe = subprocess.run(
        [sys.executable, "-c", "import repro"], cwd=tmp_path, env=env,
        capture_output=True,
    )
    if probe.returncode == 0:
        pytest.skip("repro is installed in this interpreter")
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "pnn_verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
