"""Spatial indexing substrate: an R-tree and the PNN filtering step.

The paper's solution framework (Figure 3) first *filters* objects that
cannot possibly be the nearest neighbour of the query point using an
R-tree method from reference [8]: compute ``f_min``, the smallest of
the candidate far distances, and prune every object whose near distance
exceeds it.  This package provides

* :class:`~repro.index.geometry.Rect` — d-dimensional rectangles with
  the ``mindist``/``maxdist`` metrics branch-and-bound needs,
* :class:`~repro.index.rtree.RTree` — a quadratic-split R-tree with
  insertion, deletion, range and best-first search,
* :func:`~repro.index.str_pack.str_bulk_load` — Sort-Tile-Recursive
  packing for bulk construction,
* :class:`~repro.index.filtering.PnnFilter` — the pruning step itself
  (the engine's ``BatchMbrFilter`` runs the same descent over packed
  STR levels), plus :func:`~repro.index.filtering.filter_candidates`,
  a linear-scan reference implementation used for testing.
"""

from repro.index.filtering import FilterResult, PnnFilter, filter_candidates
from repro.index.geometry import Rect
from repro.index.linear import LinearScanIndex
from repro.index.rtree import RTree
from repro.index.str_pack import str_bulk_load

__all__ = [
    "FilterResult",
    "LinearScanIndex",
    "PnnFilter",
    "RTree",
    "Rect",
    "filter_candidates",
    "str_bulk_load",
]
