"""Per-query safe regions reified from the ``f_min`` filter bound.

The ``TableCache`` invalidation rule (DESIGN.md §11) already decides,
per mutation, whether a cached C-PNN table for point ``q`` can have
changed: it survives iff ``mindist(mutated MBR, q) > f_min(q)``.  A
:class:`SafeRegion` turns that per-mutation *check* into a per-query
geometric *certificate* — the closed ball of radius ``f_min`` around
the query point, stored once at (re)execution time and tested against
mutation MBRs on every tick.  While no mutation box touches the ball
and the query point itself has not moved, the memoised
:class:`~repro.core.types.QueryResult` is exact and replays for free.

Soundness per family (the full argument is DESIGN.md §17):

* **C-PNN** — the ball radius is the filter bound ``f_min``.  An
  insert/remove/replace whose MBR stays outside the ball cannot enter
  or leave the candidate set, nor change ``f_min`` itself (the
  ``f_min``-determining object is always a candidate), so the table,
  bounds, and answers are untouched.  These mutations are
  *non-structural* for C-PNN: distance tests alone decide.
* **k-NN** — the ball radius is ``f_min^k`` (the k-th smallest
  ``maxdist``).  Records list the ``f_min^k`` survivors only, and an
  object whose MBR stays outside the ball is neither a survivor nor a
  factor of anyone's Poisson-binomial integrand, before or after.  The
  one thing the ball does not see is the census-dependent ``k >= n``
  switch (and the ``min(k, n)`` clamp behind it), which an insert or
  remove anywhere can flip.  Inserts and removes therefore always
  invalidate (``structural=True``); in-place replacements get the
  distance test.
* **Range** — the ball radius is the query radius itself.  Records
  list only the candidates (region ``mindist <= radius``), in object
  order; an object whose MBR stays outside the ball has
  ``mindist > radius`` before and after, so it never had a record and
  does not gain one, and inserting, removing or re-keying it leaves
  the relative order of the candidates alone.  Range is therefore
  *non-structural*, exactly like C-PNN: distance tests alone decide.

A non-finite radius (empty engine at registration time, or the trivial
``k >= n`` k-NN case with ``f_min^k = inf``) normalises to ``inf``:
the certificate is unbounded and *every* mutation invalidates — always
sound, never fast, and self-correcting on the next re-execution.

Query motion is deliberately **not** covered by the ball: a
:class:`~repro.core.types.QueryResult` depends pointwise on ``q``
(bounds, ``f_min``, and records all change with the point), so the
replay region for query motion is the point itself.  Any reported move
re-executes; the win of this tier is that *unmoved* queries with
untouched certificates are never visited at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import CKNNQuery, QueryResult, QuerySpec

__all__ = ["SafeRegion"]


def _center_of(q) -> np.ndarray:
    """The query point as a float vector (scalars become 1-D)."""
    return np.atleast_1d(np.asarray(q, dtype=float))


@dataclass(frozen=True)
class SafeRegion:
    """The mutation-certificate ball of one registered query.

    Attributes
    ----------
    center:
        The query point, as a float vector.
    radius:
        Certificate radius — ``f_min`` (C-PNN), ``f_min^k`` (k-NN), or
        the query radius (range).  ``inf`` means unbounded (every
        mutation invalidates).
    structural:
        Whether census changes (insert/remove, or a key-changing
        replace) invalidate regardless of distance — true only for
        k-NN, whose trivial ``k >= n`` switch reads the census.
    """

    center: np.ndarray
    radius: float
    structural: bool

    @classmethod
    def from_result(cls, spec: QuerySpec, result: QueryResult) -> "SafeRegion":
        """Derive the certificate from a just-computed result.

        ``result.fmin`` already carries the family's pruning radius
        (``f_min`` / ``f_min^k`` / query radius); a NaN (empty engine)
        or infinite radius becomes the unbounded certificate.
        """
        radius = float(result.fmin)
        if not np.isfinite(radius):
            radius = float("inf")
        return cls(
            center=_center_of(spec.q),
            radius=radius,
            structural=isinstance(spec, CKNNQuery),
        )

    def hit_by(self, lows, highs) -> bool:
        """Does the box ``[lows, highs]`` touch the certificate ball?

        The same arithmetic as ``TableCache.invalidate_boxes`` (and
        therefore the same float behaviour): per-axis gap between the
        box and the point, clamped at zero, Euclidean-combined, then
        compared ``<= radius``.
        """
        lows = np.atleast_1d(np.asarray(lows, dtype=float))
        highs = np.atleast_1d(np.asarray(highs, dtype=float))
        if lows.shape != self.center.shape:
            # Dimensionality drift (engine drained and refilled with a
            # different dimensionality): conservatively invalidate; the
            # re-execution surfaces whatever the engine decides.
            return True
        gap = np.maximum(lows - self.center, self.center - highs)
        np.maximum(gap, 0.0, out=gap)
        mindist = float(np.sqrt(np.sum(gap * gap)))
        return mindist <= self.radius

    def contains_point(self, q) -> bool:
        """Is ``q`` a point this region certifies replay for?

        Exactly the registered point (compared as floats): results are
        pointwise functions of ``q``, so any actual motion re-executes
        (see the module docstring).
        """
        point = _center_of(q)
        return point.shape == self.center.shape and bool(
            np.all(point == self.center)
        )
