"""Spatial indexing substrate: STR packing and the PNN filtering step.

The paper's solution framework (Figure 3) first *filters* objects that
cannot possibly be the nearest neighbour of the query point using an
R-tree method from reference [8]: compute ``f_min``, the smallest of
the candidate far distances, and prune every object whose near distance
exceeds it.  This package provides

* :class:`~repro.index.geometry.Rect` — d-dimensional rectangles with
  the ``mindist``/``maxdist`` metrics branch-and-bound needs,
* :func:`~repro.index.str_pack.str_bulk_load` — Sort-Tile-Recursive
  packing ([18]) into a static tree,
* :class:`~repro.index.filtering.PnnFilter` — the pruning step itself
  over that tree (the engine's ``BatchMbrFilter`` runs the same descent
  over the same STR levels packed as arrays), plus
  :func:`~repro.index.filtering.filter_candidates`, the linear
  reference scan.
"""

from repro.index.filtering import FilterResult, PnnFilter, filter_candidates
from repro.index.geometry import Rect
from repro.index.str_pack import str_bulk_load

__all__ = [
    "FilterResult",
    "PnnFilter",
    "Rect",
    "filter_candidates",
    "str_bulk_load",
]
