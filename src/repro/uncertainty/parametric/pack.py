"""Mixed-representation columnar batches (parametric + histogram rows).

:class:`~repro.uncertainty.columnar.DistributionPack` materialises
every row into histogram columns.  :class:`MixedDistributionPack`
keeps parametric rows *parametric*: ``cdf_many``/``sf_many``/
``mass_between_many`` evaluate closed forms for those rows and route
only genuine histogram rows through an inner ``DistributionPack``.
Row order is preserved, so the result matrices are drop-in
replacements for the all-histogram kernels.

Plain truncated-Gaussian rows — the dominant workload — are one
**column block**: their parameters, ``phi_lo``/``denom`` and support
live in arrays, and every derived quantity (supports, knots, the cdf
matrix) is one array operation over all of them.
:meth:`MixedDistributionPack.from_objects` gathers the block straight
from :class:`~repro.uncertainty.parametric.objects.GaussianObject`
candidates, so the engine's fast path never builds a per-candidate
distance law; :attr:`~MixedDistributionPack.distributions` builds those
laws lazily, only for a caller that reads them.  Mixture, disk,
ellipse and histogram rows keep a per-row route inside the same class.

``materialized()`` is the explicit knot fallback: a plain
``DistributionPack`` over every row (parametric rows materialise their
byte-identical histogram replicas through the lazy ``histogram``
property) for consumers that genuinely need breakpoints.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Hashable, Sequence

import numpy as np

from repro.uncertainty.columnar import DistributionPack
from repro.uncertainty.objects import _scalar_query
from repro.uncertainty.parametric.base import ParametricDistance
from repro.uncertainty.parametric.gaussian import TruncatedGaussianDistance
from repro.uncertainty.parametric.objects import GaussianObject

__all__ = ["MixedDistributionPack"]

_GAUSS = TruncatedGaussianDistance
_LAW_PARAMS = attrgetter("_q", "_lo", "_hi", "_mean", "_sigma", "_bars")
_PDF_PARAMS = attrgetter("_lo", "_hi", "_mean", "_sigma", "_bars")


def closed_form(objects: Sequence) -> bool:
    """Whether every object has a ``parametric_distance`` — the fast
    path's precondition, checked once per distinct type."""
    return all(hasattr(kind, "parametric_distance") for kind in set(map(type, objects)))


def _support(dist) -> tuple[float, float]:
    """``(near, far)`` for a distance distribution or bare histogram."""
    near = getattr(dist, "near", None)
    if near is not None:
        return float(near), float(dist.far)
    return float(dist.lo), float(dist.hi)


class MixedDistributionPack:
    """Columnar cdf/sf kernels over mixed parametric/histogram rows."""

    def __init__(self, distributions: Sequence) -> None:
        laws = list(distributions)
        if not laws:
            raise ValueError("mixed pack requires at least one distribution")
        gauss, loop, histogram = [], [], []
        for i, dist in enumerate(laws):
            if type(dist) is _GAUSS:
                gauss.append(i)
            elif isinstance(dist, ParametricDistance):
                loop.append(i)
            else:
                histogram.append(i)
        params = np.array([_LAW_PARAMS(laws[i]) for i in gauss], dtype=float)
        self._finish(
            laws,
            None,
            gauss,
            params.reshape(-1, 6).T,
            loop,
            histogram,
            DistributionPack([laws[i] for i in histogram]) if histogram else None,
        )

    @classmethod
    def from_objects(cls, objects: Sequence, q) -> "MixedDistributionPack":
        """The pack of the candidates' distance laws about ``q``.

        :class:`GaussianObject` rows are gathered straight into the
        column block — no per-row law is built; every other row is its
        object's ``parametric_distance(q)``.  Kernels, supports and
        (lazily) :attr:`distributions` equal those of the pack over the
        per-row laws, bit for bit.
        """
        objects = list(objects)
        if not objects:
            raise ValueError("mixed pack requires at least one distribution")
        kinds = list(map(type, objects))
        laws: list = [None] * len(objects)
        if kinds.count(GaussianObject) == len(objects):
            gauss, loop = range(len(objects)), []
            gauss_objects = objects
        else:
            gauss = [i for i, kind in enumerate(kinds) if kind is GaussianObject]
            loop = [i for i, kind in enumerate(kinds) if kind is not GaussianObject]
            for i in loop:
                laws[i] = objects[i].parametric_distance(q)
            gauss_objects = [objects[i] for i in gauss]
        # C-level attrgetter maps, as in DistributionPack.__init__.
        pdfs = map(attrgetter("_pdf"), gauss_objects)
        flat = chain.from_iterable(map(_PDF_PARAMS, pdfs))
        params = np.fromiter(flat, float, 5 * len(gauss)).reshape(-1, 5).T
        q_column = np.full(len(gauss), _scalar_query(q) if gauss else 0.0)
        try:
            keys = tuple(map(attrgetter("_key"), objects))
        except AttributeError:
            keys = tuple(map(attrgetter("key"), objects))
        pack = cls.__new__(cls)
        pack._finish(
            laws,
            keys,
            gauss,
            np.vstack((q_column, params)),
            loop,
            [],
            None,
        )
        return pack

    def _finish(
        self, laws, keys, gauss_rows, params, loop_rows, histogram_rows, histogram_pack
    ) -> None:
        """Row maps, the Gaussian column block and support columns
        (shared by every constructor)."""
        self._laws = laws
        self._keys = keys
        self._gauss_rows = np.asarray(gauss_rows, dtype=np.int64)
        self._gauss, gauss_near, gauss_far = _GAUSS.columns(params)
        self._loop_rows = np.asarray(loop_rows, dtype=np.int64)
        self._histogram_rows = np.asarray(histogram_rows, dtype=np.int64)
        self._histogram_pack = histogram_pack
        size = len(laws)
        self._near = np.empty(size)
        self._far = np.empty(size)
        self._near[self._gauss_rows] = gauss_near
        self._far[self._gauss_rows] = gauss_far
        for i in np.concatenate((self._loop_rows, self._histogram_rows)).tolist():
            self._near[i], self._far[i] = _support(laws[i])
        self._distributions: tuple | None = None
        self._materialized_pack: DistributionPack | None = None

    def sorted(self) -> "MixedDistributionPack":
        """The rows stably sorted by ``(near, far)`` — ``self`` if they
        already are.  The Gaussian block is permuted as columns."""
        size = self.size
        order = np.lexsort((self._far, self._near))
        if np.array_equal(order, np.arange(size)):
            return self
        position = np.empty(size, dtype=np.int64)
        position[order] = np.arange(size)
        gauss_rows = position[self._gauss_rows]
        block_order = np.argsort(gauss_rows, kind="stable")
        rows = order.tolist()
        pack = object.__new__(type(self))
        pack._laws = list(map(self._laws.__getitem__, rows))
        pack._keys = (
            None if self._keys is None else tuple(map(self._keys.__getitem__, rows))
        )
        pack._gauss_rows = gauss_rows[block_order]
        pack._gauss = self._gauss[:, block_order]
        pack._loop_rows = np.sort(position[self._loop_rows])
        # The inner histogram pack keeps its row order; only the map
        # from its rows to pack positions changes.
        pack._histogram_rows = position[self._histogram_rows]
        pack._histogram_pack = self._histogram_pack
        pack._near = self._near[order]
        pack._far = self._far[order]
        pack._distributions = None
        pack._materialized_pack = None
        return pack

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._laws)

    @property
    def distributions(self) -> tuple:
        """Per-row distance laws; Gaussian-block laws are built here, on
        first access, from their columns."""
        if self._distributions is None:
            laws = list(self._laws)
            keys = self.keys
            for j, i in enumerate(self._gauss_rows.tolist()):
                if laws[i] is None:
                    q, lo, hi, mean, sigma, bars = self._gauss[:6, j].tolist()
                    laws[i] = _GAUSS(
                        q, lo, hi, mean=mean, sigma=sigma, bars=int(bars), key=keys[i]
                    )
            self._distributions = tuple(laws)
        return self._distributions

    @property
    def keys(self) -> tuple[Hashable, ...]:
        """Row keys (``None`` for rows without one)."""
        if self._keys is None:
            self._keys = tuple(getattr(d, "key", None) for d in self._laws)
        return self._keys

    @property
    def near(self) -> np.ndarray:
        return self._near

    @property
    def far(self) -> np.ndarray:
        return self._far

    @property
    def n_parametric(self) -> int:
        return int(self._gauss_rows.size + self._loop_rows.size)

    @property
    def n_histogram(self) -> int:
        return int(self._histogram_rows.size)

    def knots(self) -> np.ndarray:
        """Every parametric row's ``knots()``, pooled — unsorted and not
        deduplicated (:class:`AnalyticTable` sorts and dedups the pool)."""
        rows = self._gauss_rows
        parts = [_GAUSS.knot_rows(self._gauss, self._near[rows], self._far[rows])]
        parts.extend(self._laws[i].knots() for i in self._loop_rows.tolist())
        return np.concatenate(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MixedDistributionPack(size={self.size}, "
            f"parametric={self.n_parametric}, histogram={self.n_histogram})"
        )

    # ------------------------------------------------------------------
    # Batched kernels
    # ------------------------------------------------------------------

    def cdf_many(self, xs) -> np.ndarray:
        """``(size, n)`` matrix of exact cdf values (``(size,)`` scalar)."""
        arr = np.asarray(xs, dtype=float)
        scalar = arr.ndim == 0
        points = np.atleast_1d(arr)
        if self._gauss_rows.size == self.size:
            out = _GAUSS.cdf_rows(self._gauss, points)
        else:
            out = np.empty((self.size, points.size))
            if self._gauss_rows.size:
                out[self._gauss_rows] = _GAUSS.cdf_rows(self._gauss, points)
            for i in self._loop_rows.tolist():
                out[i] = self._laws[i].cdf(points)
            if self._histogram_pack is not None:
                out[self._histogram_rows] = np.atleast_2d(
                    self._histogram_pack.cdf_many(points)
                ).reshape(self._histogram_rows.size, points.size)
        if scalar:
            return out[:, 0]
        return out

    def sf_many(self, xs) -> np.ndarray:
        """``1 - D_i(x)`` for every row — the survival matrix."""
        return 1.0 - self.cdf_many(xs)

    def mass_between_many(self, a: float, b: float) -> np.ndarray:
        """Per-row ``Pr[a <= R <= b]`` for scalar bounds ``a <= b``."""
        lo, hi = float(a), float(b)
        if hi < lo:
            raise ValueError("mass_between_many requires a <= b")
        if hi == lo:
            return np.zeros(self.size)
        values = self.cdf_many(np.array([lo, hi]))
        return np.clip(values[:, 1] - values[:, 0], 0.0, 1.0)

    # ------------------------------------------------------------------

    def materialized(self) -> DistributionPack:
        """Knot fallback: an all-histogram pack over the same rows."""
        if self._materialized_pack is None:
            self._materialized_pack = DistributionPack(self.distributions)
        return self._materialized_pack
