"""Universal hashing used by the slab hash and by SlabAlloc's resident-block probing.

The paper uses the simple universal family ``h(k; a, b) = ((a*k + b) mod p) mod B``
with ``a, b`` random integers and ``p`` a prime larger than the key universe
(Section III-C).  The same family (with different draws) is used to pick
SlabAlloc resident blocks from ``(global warp id, attempt count)``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core import constants as C

__all__ = ["PRIME", "UniversalHash", "hash_pair", "is_user_key", "user_keys"]

#: The largest prime below 2^32 (2^32 - 5); effectively spans the 32-bit key universe.
PRIME = 4_294_967_291


class UniversalHash:
    """A member of the universal family ``((a*k + b) mod p) mod num_buckets``.

    Parameters
    ----------
    num_buckets:
        The range B of the hash function.
    seed:
        Seed used to draw ``a`` (non-zero) and ``b``.
    """

    __slots__ = ("num_buckets", "a", "b")

    def __init__(self, num_buckets: int, seed: int | None = None) -> None:
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        rng = np.random.default_rng(seed)
        self.num_buckets = int(num_buckets)
        self.a = int(rng.integers(1, PRIME))
        self.b = int(rng.integers(0, PRIME))

    def __call__(self, key: int) -> int:
        """Hash a single key to a bucket index in ``[0, num_buckets)``."""
        return ((self.a * int(key) + self.b) % PRIME) % self.num_buckets

    def hash_array(self, keys: Iterable[int] | np.ndarray) -> np.ndarray:
        """Vectorized hashing of an array of keys (used by the bulk drivers)."""
        keys64 = np.asarray(keys, dtype=np.uint64)
        hashed = (np.uint64(self.a) * keys64 + np.uint64(self.b)) % np.uint64(PRIME)
        return (hashed % np.uint64(self.num_buckets)).astype(np.int64)

    def rebucket(self, num_buckets: int) -> "UniversalHash":
        """Return a hash function with the same (a, b) but a different range."""
        clone = UniversalHash.__new__(UniversalHash)
        clone.num_buckets = int(num_buckets)
        clone.a = self.a
        clone.b = self.b
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniversalHash(B={self.num_buckets}, a={self.a}, b={self.b})"


def hash_pair(x: int, y: int, modulus: int, seed: int = 0) -> int:
    """Hash a pair of integers into ``[0, modulus)``.

    Used by SlabAlloc to pick a (super block, memory block) resident block from
    ``(global warp id, resident-change attempt)``; the constants are odd
    multipliers so consecutive attempts of the same warp probe different blocks.
    """
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    mixed = (x * 0x9E3779B1 + y * 0x85EBCA77 + seed * 0xC2B2AE3D) & 0xFFFFFFFF
    mixed ^= mixed >> 16
    mixed = (mixed * 0x7FEB352D) & 0xFFFFFFFF
    mixed ^= mixed >> 15
    return mixed % modulus


def is_user_key(key: int) -> bool:
    """True if ``key`` lies in the storable key domain (reserved values excluded)."""
    return 0 <= int(key) < C.MAX_USER_KEY


def user_keys(keys: Iterable[int] | np.ndarray) -> np.ndarray:
    """``keys`` as a ``uint64`` array, or the domain ``ValueError``.

    The one key-domain check of every batch entry point.  Two-step
    normalization: value inference first, then a wrap-cast to ``uint64``, so
    out-of-domain input (a negative key, say) reaches the range check and
    fails with the domain ``ValueError`` instead of a conversion
    ``OverflowError``.
    """
    inferred = np.asarray(keys)  # repro-lint: disable=np-dtype -- wrap-cast on the next line is the explicit dtype step
    keys64 = inferred.astype(np.uint64, copy=False)
    if keys64.size and int(keys64.max()) >= C.MAX_USER_KEY:
        raise ValueError(
            f"keys must be below 0x{C.MAX_USER_KEY:08X}: the two largest 32-bit "
            "values are reserved, so larger or negative keys are outside the "
            "storable key domain"
        )
    return keys64
