"""SlabSet: an unordered set of 32-bit keys backed by a key-only slab hash.

The paper's key-only item type (30 keys per 128-byte slab) is exactly a
concurrent unordered set — the same abstraction Misra & Chaudhuri's baseline
provides.  :class:`SlabSet` exposes it with Python-set ergonomics while
keeping the bulk and concurrent entry points of the underlying
:class:`~repro.core.slab_hash.SlabHash`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.core.flush import FlushResult
    from repro.gpusim.scheduler import WarpScheduler

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.hashing import user_keys
from repro.core.slab_hash import SlabHash
from repro.gpusim.device import Device

__all__ = ["SlabSet"]


class SlabSet:
    """A dynamic set of user keys (32-bit integers below ``MAX_USER_KEY``).

    Parameters mirror :class:`~repro.core.slab_hash.SlabHash`; the table is
    always key-only with unique keys.
    """

    def __init__(
        self,
        num_buckets: int,
        *,
        device: Optional[Device] = None,
        alloc_config: Optional[SlabAllocConfig] = None,
        light_alloc: bool = False,
        seed: int = 0,
    ) -> None:
        self._table = SlabHash(
            num_buckets,
            device=device,
            key_value=False,
            unique_keys=True,
            alloc_config=alloc_config,
            light_alloc=light_alloc,
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # Python-set style API
    # ------------------------------------------------------------------ #

    def add(self, key: int) -> None:
        """Add ``key`` to the set (no-op if already present)."""
        self._table.insert(int(key))

    def discard(self, key: int) -> bool:
        """Remove ``key`` if present; returns True when something was removed."""
        return self._table.delete(int(key))

    def remove(self, key: int) -> None:
        """Remove ``key``; raises ``KeyError`` when absent (like ``set.remove``)."""
        if not self.discard(key):
            raise KeyError(key)

    def __contains__(self, key: int) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(key for key, _ in self._table.items()))

    def __bool__(self) -> bool:
        return len(self) > 0

    # ------------------------------------------------------------------ #
    # Bulk API
    # ------------------------------------------------------------------ #

    def update(self, keys: Iterable[int]) -> None:
        """Add a batch of keys (one per simulated thread)."""
        keys = user_keys([int(k) for k in keys])
        if keys.size:
            self._table.bulk_insert(keys)

    def contains_many(self, keys: Sequence[int]) -> np.ndarray:
        """Vectorized membership query; returns a boolean array."""
        keys = user_keys(keys)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        return self._table.bulk_search(keys) != C.SEARCH_NOT_FOUND

    def discard_many(self, keys: Sequence[int]) -> int:
        """Remove a batch of keys; returns how many were actually present."""
        keys = user_keys(keys)
        if keys.size == 0:
            return 0
        return int(self._table.bulk_delete(keys).sum())

    def concurrent_batch(
        self,
        op_codes: Sequence[int],
        keys: Sequence[int],
        *,
        scheduler: Optional["WarpScheduler"] = None,
    ) -> np.ndarray:
        """Mixed concurrent adds/discards/membership queries (see SlabHash)."""
        return self._table.concurrent_batch(op_codes, keys, scheduler=scheduler)

    # ------------------------------------------------------------------ #
    # Maintenance / introspection
    # ------------------------------------------------------------------ #

    def flush(self) -> List["FlushResult"]:
        """Compact the underlying slab lists."""
        return self._table.flush()

    def memory_utilization(self) -> float:
        return self._table.memory_utilization()

    @property
    def table(self) -> SlabHash:
        """The underlying slab hash (for cost/accounting introspection)."""
        return self._table

    @property
    def device(self) -> Device:
        return self._table.device

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlabSet(elements={len(self)}, buckets={self._table.num_buckets})"
