"""Key-space routing for the sharded engine.

A :class:`ShardRouter` decides which shard owns each operation of a stream.
Three policies are supported:

* ``"hash"`` (default) — a draw from the same universal family the slab hash
  uses for buckets (:class:`repro.core.hashing.UniversalHash`), with an
  independent seed so shard choice and bucket choice are uncorrelated.  Every
  occurrence of a key maps to the same shard, so per-key operation order is
  preserved and sharded results are identical to an unsharded table.
* ``"range"`` — contiguous partition of the storable key domain
  ``[0, MAX_USER_KEY)`` into ``num_shards`` equal ranges.  Also a proper
  partition by key; useful when the key space is uniform or when range
  locality matters (e.g. future range-scan support).
* ``"round-robin"`` — operations are dealt to shards in rotation regardless
  of key.  This balances perfectly but is **not** a function of the key, so
  it is only sound for build-only loads (duplicate-free bulk inserts);
  the engine refuses to search/delete through a round-robin router.

All policies are deterministic given the seed and the sequence of calls.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core import constants as C
from repro.core.hashing import UniversalHash

__all__ = ["ROUTING_POLICIES", "ShardRouter"]

#: The routing policies understood by :class:`ShardRouter`.
ROUTING_POLICIES: Tuple[str, ...] = ("hash", "range", "round-robin")


class ShardRouter:
    """Maps keys (or stream positions) to shard indices.

    Parameters
    ----------
    num_shards:
        Number of shards N; shard indices are in ``[0, N)``.
    policy:
        One of :data:`ROUTING_POLICIES`.
    seed:
        Seed for the universal-hash draw (``"hash"`` policy only).
    """

    def __init__(self, num_shards: int, *, policy: str = "hash", seed: int = 0) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if policy not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing policy {policy!r}; choose from {ROUTING_POLICIES}")
        self.num_shards = int(num_shards)
        self.policy = policy
        self._hash = UniversalHash(num_shards, seed=seed) if policy == "hash" else None
        self._rr_cursor = 0  # next shard the round-robin deal starts from

    @property
    def key_partitioning(self) -> bool:
        """True when every occurrence of a key routes to the same shard."""
        return self.policy in ("hash", "range")

    def route(self, keys: np.ndarray) -> np.ndarray:
        """Shard index for each key of a stream (in stream order)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if self.num_shards == 1:
            return np.zeros(keys.shape, dtype=np.int64)
        if self.policy == "hash":
            return self._hash.hash_array(keys)
        if self.policy == "range":
            shards = (keys * np.uint64(self.num_shards)) // np.uint64(C.MAX_USER_KEY)
            # Reserved keys (>= MAX_USER_KEY) would index one past the last
            # shard; clamp so they still route somewhere and the shard's own
            # key validation rejects them, exactly as an unsharded table does.
            return np.minimum(shards, np.uint64(self.num_shards - 1)).astype(np.int64)
        # round-robin: deal by stream position, continuing from the last call.
        shards = (self._rr_cursor + np.arange(keys.size, dtype=np.int64)) % self.num_shards
        self._rr_cursor = int((self._rr_cursor + keys.size) % self.num_shards)
        return shards

    def shard_of(self, key: int) -> int:
        """Shard index of one key (advances the round-robin cursor by one).

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
        return f"ShardRouter(shards={self.num_shards}, policy={self.policy!r})"
