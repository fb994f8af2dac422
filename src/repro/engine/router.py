"""Key-space routing for the sharded engine.

A :class:`ShardRouter` decides which shard owns each key: a draw from the
same universal family the slab hash uses for buckets
(:class:`repro.core.hashing.UniversalHash`), with an independent seed so
shard choice and bucket choice are uncorrelated.  Every occurrence of a key
maps to the same shard, so per-key operation order is preserved and sharded
results are identical to an unsharded table.  Routing is deterministic given
the seed.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.hashing import UniversalHash

__all__ = ["ShardRouter"]


class ShardRouter:
    """Maps keys to shard indices by a universal-hash draw.

    Parameters
    ----------
    num_shards:
        Number of shards N; shard indices are in ``[0, N)``.
    seed:
        Seed for the universal-hash draw.
    """

    def __init__(self, num_shards: int, *, seed: int = 0) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = int(num_shards)
        self._hash = UniversalHash(num_shards, seed=seed)

    def route(self, keys: np.ndarray) -> np.ndarray:
        """Shard index for each key of a stream (in stream order)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if self.num_shards == 1:
            return np.zeros(keys.shape, dtype=np.int64)
        return self._hash.hash_array(keys)

    def shard_of(self, key: int) -> int:
        """Shard index of one key.

        The key wraps to 64 bits, so an out-of-domain key (a negative one,
        say) still routes somewhere and the shard's own key validation
        rejects it, as for a reserved key.
        """
        return int(self.route(np.array([int(key) % 2**64], dtype=np.uint64))[0])

    def partition(self, keys: np.ndarray) -> List[np.ndarray]:
        """Per-shard index arrays, each in ascending stream order.

        ``partition(keys)[s]`` holds the positions of ``keys`` routed to shard
        ``s``; the arrays are disjoint and together cover every position.
        """
        shards = self.route(keys)
        return [np.flatnonzero(shards == s) for s in range(self.num_shards)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardRouter(shards={self.num_shards})"
