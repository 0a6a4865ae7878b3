"""One tolerant reader for every ``stats()`` dict the benchmark touches.

The program has about ten ``stats()`` shapes and ROADMAP items 2 and 5
plan to merge them, so the workloads never index those dicts directly:
:func:`stat` walks a dotted path and reports a missing key as an absent
metric (``None`` plus one warning), never a crash.
"""

from __future__ import annotations

import warnings

__all__ = ["delta", "stat"]


def stat(stats: dict, path: str, default=None):
    """``stats["a"]["b"]`` for ``path == "a.b"``; ``default`` (with a
    warning) when any key along the way is missing."""
    node = stats
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            warnings.warn(
                f"bench: stats() has no {path!r}; metric reported as absent",
                RuntimeWarning,
                stacklevel=2,
            )
            return default
        node = node[key]
    return node


def delta(before: dict, after: dict, path: str):
    """``after[path] - before[path]``, or ``None`` when either is absent."""
    a, b = stat(after, path), stat(before, path)
    if a is None or b is None:
        return None
    return a - b
