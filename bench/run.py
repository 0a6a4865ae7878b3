#!/usr/bin/env python3
"""The repo's benchmark.  ``python bench/run.py --help``; see README.md.

Two ways in:

* ``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload
  in this interpreter and prints one JSON result line (what the
  ``BENCHMARK.json`` driver calls);
* without ``--trace`` it runs every workload (or the ``--workload``s
  named) each in a fresh interpreter, tracing off, then a shorter traced
  pass, and prints every metric by name with its unit.  ``--aa N`` and
  ``--compare A B`` judge runs against the bounds in ``catalogue.py``.
"""

import os
import sys

# BLAS must be pinned before numpy is first imported: the workloads put
# one runnable thread per core on the box and a BLAS pool would add more.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)


def _ensure_repro() -> None:
    """Make ``repro`` importable here and in every child: the process
    executor's spawned workers inherit ``PYTHONPATH``, not ``sys.path``."""
    try:
        import repro  # noqa: F401
    except ImportError:
        src = os.path.join(ROOT, "src")
        if not os.path.isdir(os.path.join(src, "repro")):
            raise SystemExit(
                "bench: the 'repro' package is neither installed nor under "
                f"{src}; there is no program to measure"
            )
        sys.path.insert(0, src)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )


def main(argv=None) -> int:
    import argparse
    import warnings

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME")
    parser.add_argument("--seed", type=int, default=20080407)
    parser.add_argument("--seconds", type=float, help="run length; 30 is --scale 1")
    parser.add_argument("--scale", type=float, help="op-count factor (default 1.0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run one "
                        "workload here and print the driver's result line")
    parser.add_argument("--out", help="result directory (default bench/results/<run>)")
    parser.add_argument("--aa", type=int, metavar="N", help="run the untraced "
                        "benchmark N times; fail when a spread exceeds its bound")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    from bench import catalogue

    if args.seconds is not None and args.scale is not None:
        parser.error("--seconds and --scale set the same thing; give one")
    if args.seconds is None:
        scale = 1.0 if args.scale is None else args.scale
        args.seconds = scale * catalogue.REFERENCE_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds / --scale must be positive")
    for name in args.workload or ():
        if name not in catalogue.WORKLOADS:
            parser.error(f"unknown workload {name!r}: {', '.join(catalogue.ALL)}")

    if args.compare:
        from bench import report

        return report.compare(*args.compare)

    _ensure_repro()
    # The deprecated surface (query, query_batch, to_shared, ...) is
    # scheduled for deletion; touching it must fail here first.
    warnings.simplefilter("error", DeprecationWarning)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace runs exactly one --workload")
        from bench import harness

        return harness.main_child(args, ROOT)

    from bench import report

    return report.main_parent(args, ROOT, os.path.abspath(__file__))


# The process executor spawns workers that re-import this file as
# ``__mp_main__``; nothing above may run a workload at import time.
if __name__ == "__main__":
    sys.exit(main())
