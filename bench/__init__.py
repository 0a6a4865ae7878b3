"""The repo's benchmark: four workloads, end-to-end metrics with
regression bounds, and an outside-in per-layer trace (see README.md).

Nothing here is imported by ``src/``; ``python bench/run.py`` is the
only entry point.
"""
