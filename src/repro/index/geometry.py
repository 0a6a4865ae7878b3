"""Axis-aligned rectangles and the point-to-rectangle distance metrics.

``mindist`` (smallest distance from a point to anywhere in the
rectangle) and ``maxdist`` (largest such distance) are the two bounds
that drive the branch-and-bound PNN filter: an R-tree node can be
pruned as soon as its ``mindist`` exceeds the best ``maxdist`` seen so
far, because no object inside it can ever be the nearest neighbour.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Rect"]


class Rect:
    """A closed axis-aligned box in ``d`` dimensions.

    Degenerate boxes (zero width in some or all dimensions) are valid;
    1-D intervals and points are represented this way.
    """

    __slots__ = ("_lows", "_highs", "_lows_t", "_highs_t")

    def __init__(self, lows: Sequence[float], highs: Sequence[float]) -> None:
        self._lows = np.asarray(lows, dtype=float)
        self._highs = np.asarray(highs, dtype=float)
        if self._lows.shape != self._highs.shape or self._lows.ndim != 1:
            raise ValueError("lows and highs must be 1-D arrays of equal length")
        self._set_bounds(tuple(self._lows.tolist()), tuple(self._highs.tolist()))

    def _set_bounds(self, lows_t: tuple, highs_t: tuple) -> None:
        """Validate the bounds (on plain floats: numpy's per-call overhead
        dominates at d ≤ 3 and an engine builds one rectangle per object)
        and keep those floats as mirrors for the distance hot path."""
        if not all(map(math.isfinite, lows_t + highs_t)):
            raise ValueError("rectangle bounds must be finite")
        if any(map(operator.gt, lows_t, highs_t)):
            raise ValueError("every low bound must not exceed its high bound")
        self._lows_t, self._highs_t = lows_t, highs_t

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Rect":
        """A 1-D interval as a degenerate rectangle (no array parsing)."""
        lo, hi = float(lo), float(hi)
        rect = cls.__new__(cls)
        rect._lows, rect._highs = np.array([lo]), np.array([hi])
        rect._set_bounds((lo,), (hi,))
        return rect

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        rects = list(rects)
        if not rects:
            raise ValueError("union_of requires at least one rectangle")
        lows = np.min([r._lows for r in rects], axis=0)
        highs = np.max([r._highs for r in rects], axis=0)
        return cls(lows, highs)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def lows(self) -> np.ndarray:
        view = self._lows.view()
        view.flags.writeable = False
        return view

    @property
    def highs(self) -> np.ndarray:
        view = self._highs.view()
        view.flags.writeable = False
        return view

    @property
    def dim(self) -> int:
        return self._lows.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self._lows + self._highs)

    @property
    def extents(self) -> np.ndarray:
        return self._highs - self._lows

    def area(self) -> float:
        """Hyper-volume (width for 1-D, area for 2-D, ...)."""
        return float(np.prod(self.extents))

    def __repr__(self) -> str:  # pragma: no cover
        pairs = ", ".join(
            f"[{lo:.6g}, {hi:.6g}]" for lo, hi in zip(self._lows, self._highs)
        )
        return f"Rect({pairs})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return np.array_equal(self._lows, other._lows) and np.array_equal(
            self._highs, other._highs
        )

    def __hash__(self) -> int:
        return hash((self._lows.tobytes(), self._highs.tobytes()))

    # ------------------------------------------------------------------
    # Distance metrics
    # ------------------------------------------------------------------

    @staticmethod
    def _coords(q) -> tuple[float, ...]:
        if isinstance(q, (int, float)):
            return (float(q),)
        return tuple(float(c) for c in q)

    def mindist(self, q) -> float:
        """Euclidean distance from ``q`` to the nearest point of the box."""
        coords = self._coords(q)
        if len(coords) != len(self._lows_t):
            raise ValueError("query point dimensionality mismatch")
        total = 0.0
        for x, lo, hi in zip(coords, self._lows_t, self._highs_t):
            if x < lo:
                gap = lo - x
            elif x > hi:
                gap = x - hi
            else:
                continue
            total += gap * gap
        return math.sqrt(total)

    def maxdist(self, q) -> float:
        """Euclidean distance from ``q`` to the farthest point of the box.

        For an index *node* this upper-bounds the far distance of every
        object inside, which is what makes ``f_min`` pruning safe.
        """
        coords = self._coords(q)
        if len(coords) != len(self._lows_t):
            raise ValueError("query point dimensionality mismatch")
        total = 0.0
        for x, lo, hi in zip(coords, self._lows_t, self._highs_t):
            span = max(abs(x - lo), abs(x - hi))
            total += span * span
        return math.sqrt(total)
