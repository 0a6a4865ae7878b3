"""The ram backend: plain resident ndarrays, zero overhead.

``RamStore`` exists so every consumer can be written against the
:class:`~repro.storage.base.ColumnStore` interface; hot paths that
never leave the process keep using bare arrays (the engine only
builds a store when the configured backend is not ``'ram'``).

Columns are snapshotted C-contiguous and marked read-only — the
substrate-wide copy-on-write rule: stores are immutable, mutators
copy a column out before the first write.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.storage.base import ColumnField, ColumnStore, StoreDescriptor

__all__ = ["RamStore"]


class RamStore(ColumnStore):
    backend = "ram"
    chunked = False

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        if not arrays:
            raise ValueError("a column store needs at least one column")
        self._arrays: dict[str, np.ndarray] = {}
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            if arr.flags.writeable and arr.flags.owndata:
                arr.flags.writeable = False
            elif arr.flags.writeable:
                arr = arr.copy()
                arr.flags.writeable = False
            self._arrays[str(name)] = arr

    def columns(self) -> tuple[str, ...]:
        return tuple(self._arrays)

    def shape(self, name: str) -> tuple[int, ...]:
        return self._arrays[name].shape

    def get(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def read(self, name: str, start: int, stop: int) -> np.ndarray:
        return self._arrays[name][start:stop]

    def descriptor(self) -> StoreDescriptor:
        fields = tuple(
            ColumnField(name, arr.dtype.str, tuple(arr.shape), 0)
            for name, arr in self._arrays.items()
        )
        return StoreDescriptor(
            backend="ram",
            location=None,
            nbytes=sum(arr.nbytes for arr in self._arrays.values()),
            fields=fields,
            arrays=dict(self._arrays),
        )

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RamStore(columns={list(self._arrays)})"
