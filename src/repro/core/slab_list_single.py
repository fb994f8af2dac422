"""A standalone slab list with a host-friendly API.

The slab list is a contribution of the paper in its own right (Section III-A):
a lock-free linked list whose nodes are 128-byte slabs operated on by whole
warps.  The slab hash is ``B`` independent slab lists (Section III-C), so a
standalone slab list is a one-bucket slab hash: :class:`SlabList` wraps
:class:`~repro.core.slab_hash.SlabHash` with ``num_buckets=1`` behind a
container-style interface, and every operation runs through the table's one
batch path (32 operations per warp) on the process-default backend.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SlabAllocConfig, SlabConfig
from repro.core.flush import FlushResult
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.core.slab_list import SlabListCollection
from repro.gpusim.device import Device

__all__ = ["SlabList"]


class SlabList:
    """A single warp-cooperative slab list (key-value or key-only).

    Parameters
    ----------
    device:
        Simulated device; a fresh one is created when omitted.
    key_value:
        Store 64-bit key-value entries (default) or 32-bit keys only.
    unique_keys:
        ``True`` gives REPLACE semantics, ``False`` allows duplicates.
    alloc / alloc_config:
        Share an existing allocator or size a new one.
    """

    def __init__(
        self,
        *,
        device: Optional[Device] = None,
        key_value: bool = True,
        unique_keys: bool = True,
        alloc: Optional[SlabAlloc] = None,
        alloc_config: Optional[SlabAllocConfig] = None,
        seed: int = 0,
    ) -> None:
        self._table = SlabHash(
            1,
            device=device,
            key_value=key_value,
            unique_keys=unique_keys,
            alloc=alloc,
            alloc_config=alloc_config,
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #

    def insert(self, key: int, value: Optional[int] = None) -> None:
        """Insert one element (REPLACE in unique mode, INSERT otherwise)."""
        self._table.insert(key, value)

    def extend(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> None:
        """Insert a batch of elements, 32 per warp."""
        self._table.bulk_insert(keys, values)

    def delete(self, key: int) -> bool:
        """Delete the least-recent occurrence of ``key``; True if one was removed."""
        return self._table.delete(key)

    def delete_all(self, key: int) -> int:
        """Delete every occurrence of ``key``; returns the number removed."""
        return self._table.delete_all(key)

    def flush(self) -> FlushResult:
        """Compact the list, releasing slabs that only hold tombstones."""
        return self._table.flush(0)[0]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def search(self, key: int) -> Optional[int]:
        """Value stored under ``key`` (the key itself in key-only mode), or None."""
        return self._table.search(key)

    def search_many(self, keys: Sequence[int]) -> np.ndarray:
        """Bulk search; SEARCH_NOT_FOUND marks missing keys."""
        return self._table.bulk_search(keys)

    def search_all(self, key: int) -> List[int]:
        """Every value stored under ``key`` (duplicates mode)."""
        return self._table.search_all(key)

    def __contains__(self, key: int) -> bool:
        return key in self._table

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._table)

    def items(self) -> List[Tuple[int, Optional[int]]]:
        """All stored (key, value) pairs in traversal order."""
        return self._table.items()

    def __iter__(self) -> Iterator[int]:
        return iter(key for key, _ in self.items())

    def slab_count(self) -> int:
        """Number of slabs in the chain (including the base slab)."""
        return self._table.total_slabs()

    def memory_utilization(self) -> float:
        """Stored data bytes over occupied slab bytes (paper's metric)."""
        return self._table.memory_utilization()

    @property
    def table(self) -> SlabHash:
        """The underlying one-bucket slab hash."""
        return self._table

    @property
    def device(self) -> Device:
        return self._table.device

    @property
    def alloc(self) -> SlabAlloc:
        return self._table.alloc

    @property
    def config(self) -> SlabConfig:
        return self._table.config

    @property
    def lists(self) -> SlabListCollection:
        """The one-list collection holding the chain (bucket 0)."""
        return self._table.lists

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "key-value" if self.config.key_value else "key-only"
        return f"SlabList({mode}, unique={self.config.unique_keys}, elements={len(self)}, slabs={self.slab_count()})"
