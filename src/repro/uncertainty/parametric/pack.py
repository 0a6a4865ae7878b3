"""Mixed-representation columnar batches (parametric + histogram rows).

:class:`~repro.uncertainty.columnar.DistributionPack` materialises
every row into histogram columns.  :class:`MixedDistributionPack`
keeps parametric rows *parametric*: ``cdf_many``/``sf_many``/
``mass_between_many`` evaluate closed forms for those rows —
truncated-Gaussian rows in one family-batched ``ndtr`` sweep, other
families per row — and route only genuine histogram rows through an
inner ``DistributionPack``.  Row order is preserved, so the result
matrices are drop-in replacements for the all-histogram kernels.

``materialized()`` is the explicit knot fallback: a plain
``DistributionPack`` over every row (parametric rows materialise their
byte-identical histogram replicas through the lazy ``histogram``
property) for consumers that genuinely need breakpoints — exact
refinement being the only one in the engine.

Column-store transport mirrors ``DistributionPack.to_store``:
histogram columns ship as flat arrays, parametric rows ship as
per-family parameter matrices (``pack_params`` rows) plus row-index
columns, all in one store.  ``from_store`` rebuilds the pack —
zero-copy views for resident backends (``ram``/``shm``: histogram
rows become ``Histogram`` views over the mapped flats, parametric
rows are reconstructed from their parameter rows, O(rows) scalars
and no bulk copies); the chunked ``mmap`` backend *materialises* the
histogram flats on attach (mixed packs exist for candidate sets,
which fit in RAM — only the all-histogram corpus tier streams).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.uncertainty.columnar import DistributionPack
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.parametric.base import FAMILY_REGISTRY, ParametricDistance
from repro.uncertainty.parametric.gaussian import TruncatedGaussianDistance

__all__ = ["MixedDistributionPack"]


def _support(dist) -> tuple[float, float]:
    """``(near, far)`` for a distance distribution or bare histogram."""
    near = getattr(dist, "near", None)
    if near is not None:
        return float(near), float(dist.far)
    return float(dist.lo), float(dist.hi)


class MixedDistributionPack:
    """Columnar cdf/sf kernels over mixed parametric/histogram rows."""

    def __init__(self, distributions: Sequence) -> None:
        self._distributions = tuple(distributions)
        if not self._distributions:
            raise ValueError("mixed pack requires at least one distribution")
        parametric_rows = []
        histogram_rows = []
        for i, dist in enumerate(self._distributions):
            if isinstance(dist, ParametricDistance):
                parametric_rows.append(i)
            else:
                histogram_rows.append(i)
        self._histogram_pack = (
            DistributionPack([self._distributions[i] for i in histogram_rows])
            if histogram_rows
            else None
        )
        self._index(parametric_rows, histogram_rows)
        self._store = None

    def _index(self, parametric_rows, histogram_rows) -> None:
        """Derive row maps and support columns (shared with from_store)."""
        self._parametric_rows = np.asarray(parametric_rows, dtype=np.int64)
        self._histogram_rows = np.asarray(histogram_rows, dtype=np.int64)
        # Family-batch the dominant workload: plain truncated Gaussians
        # evaluate as one broadcast ndtr sweep over all rows at once.
        self._gauss_rows = np.asarray(
            [
                i
                for i in parametric_rows
                if type(self._distributions[i]) is TruncatedGaussianDistance
            ],
            dtype=np.int64,
        )
        gauss = set(self._gauss_rows.tolist())
        self._loop_rows = np.asarray(
            [i for i in parametric_rows if i not in gauss], dtype=np.int64
        )
        supports = [_support(d) for d in self._distributions]
        self._near = np.array([s[0] for s in supports])
        self._far = np.array([s[1] for s in supports])
        self._materialized_pack: DistributionPack | None = None

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._distributions)

    @property
    def distributions(self) -> tuple:
        return self._distributions

    @property
    def near(self) -> np.ndarray:
        return self._near

    @property
    def far(self) -> np.ndarray:
        return self._far

    @property
    def n_parametric(self) -> int:
        return int(self._parametric_rows.size)

    @property
    def n_histogram(self) -> int:
        return int(self._histogram_rows.size)

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
        out = np.empty((self.size, points.size))
        if self._gauss_rows.size:
            rows = [self._distributions[i] for i in self._gauss_rows]
            out[self._gauss_rows] = TruncatedGaussianDistance.cdf_rows(rows, points)
        for i in self._loop_rows:
            out[i] = self._distributions[i].cdf(points)
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
            self._materialized_pack = DistributionPack(self._distributions)
        return self._materialized_pack

    # ------------------------------------------------------------------
    # Column-store transport (DESIGN.md §13/§15/§16)
    # ------------------------------------------------------------------

    def to_store(self, backend: str = "shm", **options):
        """Export all columns into a fresh column store of ``backend``."""
        from repro.storage import create_store

        arrays: dict[str, np.ndarray] = {
            "total_rows": np.array([self.size], dtype=np.int64),
            "histogram_rows": self._histogram_rows,
        }
        if self._histogram_pack is not None:
            arrays["hist_edges"] = self._histogram_pack.edges_flat
            arrays["hist_knots"] = self._histogram_pack.knots_flat
            arrays["hist_densities"] = self._histogram_pack.densities_flat
            arrays["hist_sizes"] = np.diff(self._histogram_pack.offsets)
        by_family: dict[str, list[int]] = {}
        for i in self._parametric_rows:
            by_family.setdefault(self._distributions[i].family, []).append(int(i))
        for family, rows in by_family.items():
            params = [self._distributions[i].pack_params() for i in rows]
            width = max(p.size for p in params)
            matrix = np.zeros((len(rows), width))
            lengths = np.empty(len(rows), dtype=np.int64)
            for j, p in enumerate(params):
                matrix[j, : p.size] = p
                lengths[j] = p.size
            arrays[f"param:{family}"] = matrix
            arrays[f"len:{family}"] = lengths
            arrays[f"rows:{family}"] = np.asarray(rows, dtype=np.int64)
        return create_store(backend, arrays, **options)

    @classmethod
    def from_store(cls, store) -> "MixedDistributionPack":
        """Rehydrate from a column store.

        Histogram columns become views over resident backends (the
        inner ``DistributionPack`` is finished directly on the flats —
        no concatenation) and copies for chunked ones; parametric rows
        rebuild their instances from the parameter rows.  The pack
        pins the store for its lifetime; the store's creator owns the
        unlink.
        """
        get = store.get
        total = int(get("total_rows")[0])
        slots: list = [None] * total
        histogram_rows = [int(i) for i in get("histogram_rows")]
        hist_pack = None
        if histogram_rows:
            hist_edges = get("hist_edges")
            hist_knots = get("hist_knots")
            hist_densities = get("hist_densities")
            hist_pack = object.__new__(DistributionPack)
            hist_pack._finish(
                hist_edges,
                hist_knots,
                hist_densities,
                np.asarray(get("hist_sizes"), dtype=np.intp),
            )
            offsets = hist_pack.offsets
            dens_offsets = hist_pack.density_offsets
            for j, i in enumerate(histogram_rows):
                row = Histogram.__new__(Histogram)
                row._edges = hist_edges[offsets[j] : offsets[j + 1]]
                row._densities = hist_densities[
                    dens_offsets[j] : dens_offsets[j + 1]
                ]
                row._cdf_knots = hist_knots[offsets[j] : offsets[j + 1]]
                slots[i] = row
        parametric_rows = []
        for name in store.columns():
            if not name.startswith("param:"):
                continue
            family = name.split(":", 1)[1]
            family_cls = FAMILY_REGISTRY[family]
            matrix = get(name)
            lengths = get(f"len:{family}")
            rows = get(f"rows:{family}")
            for j, i in enumerate(rows):
                index = int(i)
                slots[index] = family_cls.from_params(
                    np.asarray(matrix[j, : int(lengths[j])])
                )
                parametric_rows.append(index)
        pack = cls.__new__(cls)
        pack._distributions = tuple(slots)
        pack._histogram_pack = hist_pack
        pack._index(sorted(parametric_rows), histogram_rows)
        pack._store = store
        return pack
