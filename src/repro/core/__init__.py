"""Core contribution of the paper: slab list, slab hash and SlabAlloc.

Public entry points:

* :class:`repro.core.slab_hash.SlabHash` — the dynamic hash table.
* :class:`repro.core.slab_list.SlabListCollection` — the underlying
  warp-cooperative slab lists (one per bucket).
* :class:`repro.core.slab_alloc.SlabAlloc` — the warp-synchronous slab
  allocator; ``light=True`` selects SlabAlloc-light (one contiguous pool of
  at most 4 GB).
* :class:`repro.core.config.SlabConfig` / :class:`repro.core.config.SlabAllocConfig`
  — layout and sizing configuration.
* :class:`repro.core.resize.LoadFactorPolicy` / :func:`repro.core.resize.resize_table`
  — online resizing and adaptive load-factor management.
"""

from repro.core import constants
from repro.core.address import decode_address, is_valid_address, make_address
from repro.core.bulk_exec import BACKENDS, BulkExecutor, get_default_backend, set_default_backend
from repro.core.config import SlabAllocConfig, SlabConfig
from repro.core.flush import FlushResult, flush_all, flush_bucket
from repro.core.hashing import PRIME, UniversalHash, hash_pair, is_user_key, user_keys
from repro.core.resize import LoadFactorPolicy, ResizeResult, ResizeStats, resize_table
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.core.slab_list import SlabListCollection
from repro.core.slab_list_single import SlabList
from repro.core.slab_set import SlabSet

__all__ = [
    "SlabList",
    "SlabSet",
    "constants",
    "BACKENDS",
    "BulkExecutor",
    "get_default_backend",
    "set_default_backend",
    "make_address",
    "decode_address",
    "is_valid_address",
    "SlabConfig",
    "SlabAllocConfig",
    "FlushResult",
    "flush_bucket",
    "flush_all",
    "PRIME",
    "UniversalHash",
    "hash_pair",
    "is_user_key",
    "user_keys",
    "LoadFactorPolicy",
    "ResizeResult",
    "ResizeStats",
    "resize_table",
    "SlabAlloc",
    "SlabHash",
    "SlabListCollection",
]
