"""The parametric distance-distribution contract (DESIGN.md §15).

A :class:`ParametricDistance` is an *analytic* stand-in for
:class:`~repro.uncertainty.distance.DistanceDistribution`: it exposes
the same surface (``key``/``near``/``far``/``interval``/``pdf``/
``cdf``/``sf``/``mass_between``/``sample``/``overlaps``) but evaluates
closed forms instead of interpolating a 300-bar histogram.  The
contract every family must honour:

* ``cdf`` is the **exact** distribution function of ``|X - q|`` under
  the family's continuous model — monotone non-decreasing, 0 at
  ``near`` and 1 at ``far`` — and accepts numpy arrays (vectorised);
* ``materialized()`` produces the byte-identical
  :class:`DistanceDistribution` the histogram pipeline would have
  built for the same object, so any stage that genuinely needs
  breakpoints (exact refinement, knn/range packs) can fall back to it
  and stay bit-for-bit comparable with the histogram engine;
* ``knots()`` lists the few radii where the distance pdf is
  non-smooth (fold points, region boundaries) — grid-refinement hints
  for :class:`~repro.uncertainty.parametric.table.AnalyticTable`, not
  a piecewise-constant promise;
* ``pack_params()``/``from_params`` round-trip the instance through a
  flat float64 vector, which is how
  :class:`~repro.uncertainty.parametric.pack.MixedDistributionPack`
  ships parametric columns through shared memory.

The memoised histogram deliberately lives in a slot that is *not*
named ``_histogram``: ``DistributionPack`` probes
``attrgetter("_histogram")`` first and falls back to
``getattr(d, "histogram", d)``, so a parametric distance dropped into
a histogram pack transparently materialises instead of being treated
as an already-folded histogram.
"""

from __future__ import annotations

import abc
from typing import Hashable

import numpy as np

from repro.uncertainty.distance import DistanceDistribution

__all__ = ["FAMILY_REGISTRY", "ParametricDistance", "register_family"]


#: Family name -> ParametricDistance subclass, for rebuilding instances
#: from the flat parameter rows a shared-memory descriptor carries.
FAMILY_REGISTRY: dict[str, type["ParametricDistance"]] = {}


def register_family(cls: type["ParametricDistance"]) -> type["ParametricDistance"]:
    """Class decorator adding a family to :data:`FAMILY_REGISTRY`."""
    FAMILY_REGISTRY[cls.family] = cls
    return cls


class ParametricDistance(abc.ABC):
    """Analytic distance distribution of ``|X - q|`` for one object."""

    __slots__ = ("_key", "_materialized")

    #: Registry name of the family (subclasses override).
    family = "parametric"

    def __init__(self, key: Hashable = None) -> None:
        self._key = key
        self._materialized: DistanceDistribution | None = None

    # ------------------------------------------------------------------
    # Protocol surface shared with DistanceDistribution
    # ------------------------------------------------------------------

    @property
    def key(self) -> Hashable:
        return self._key

    @property
    @abc.abstractmethod
    def near(self) -> float:
        """Near point ``n_i`` — the minimum possible distance."""

    @property
    @abc.abstractmethod
    def far(self) -> float:
        """Far point ``f_i`` — the maximum possible distance."""

    @property
    def interval(self) -> tuple[float, float]:
        return (self.near, self.far)

    @abc.abstractmethod
    def cdf(self, r):
        """Exact ``D_i(r)`` — vectorised over numpy arrays."""

    @abc.abstractmethod
    def pdf(self, r):
        """Exact ``d_i(r)`` — vectorised over numpy arrays."""

    def sf(self, r):
        """Survival ``1 - D_i(r)``."""
        return 1.0 - self.cdf(r)

    def mass_between(self, a: float, b: float) -> float:
        """``Pr[a <= R_i <= b]`` via the exact cdf."""
        if b <= a:
            return 0.0
        return float(np.clip(self.cdf(b) - self.cdf(a), 0.0, 1.0))

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw iid distances from the exact model (sampling baselines)."""

    def overlaps(self, a: float, b: float) -> bool:
        return self.near < b and self.far > a

    # ------------------------------------------------------------------
    # Materialisation (the histogram fallback)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _materialize(self) -> DistanceDistribution:
        """Build the histogram-pipeline replica of this distance."""

    def materialized(self) -> DistanceDistribution:
        """The byte-identical histogram-path ``DistanceDistribution``.

        Memoised: repeated fallbacks (refinement after verification,
        knn/range packs over the same distance) pay the histogram
        construction once.
        """
        if self._materialized is None:
            self._materialized = self._materialize()
        return self._materialized

    @property
    def histogram(self):
        """Materialised distance histogram (lazy — see module docs)."""
        return self.materialized().histogram

    @property
    def breakpoints(self) -> np.ndarray:
        """Materialised histogram edges (forces materialisation)."""
        return self.materialized().breakpoints

    # ------------------------------------------------------------------
    # Grid hints + flat-parameter round-trip
    # ------------------------------------------------------------------

    def knots(self) -> np.ndarray:
        """Radii in ``(near, far)`` where the distance pdf is non-smooth."""
        return np.empty(0)

    @abc.abstractmethod
    def pack_params(self) -> np.ndarray:
        """Flat float64 parameter vector (shared-memory transport)."""

    @classmethod
    @abc.abstractmethod
    def from_params(cls, params: np.ndarray) -> "ParametricDistance":
        """Rebuild an instance from :meth:`pack_params` output."""

    # ------------------------------------------------------------------

    def __getstate__(self):
        # Drop the memoised histogram: pickles stay O(parameters) and
        # process workers re-materialise only if they genuinely need to.
        state = {
            slot: getattr(self, slot)
            for cls in type(self).__mro__
            for slot in getattr(cls, "__slots__", ())
        }
        state["_materialized"] = None
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}(key={self._key!r}, "
            f"near={self.near:.6g}, far={self.far:.6g})"
        )


def as_float_array(r) -> tuple[np.ndarray, bool]:
    """``(array, was_scalar)`` — mirror DistanceDistribution's duality."""
    arr = np.asarray(r, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def scalar_or_array(values: np.ndarray, was_scalar: bool):
    if was_scalar:
        return float(values[0])
    return values
