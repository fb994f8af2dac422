"""FLUSH: compaction of slab lists (Section IV-C.4).

Deletions in the slab hash only mark elements as deleted, so over time a
bucket's slab list may occupy more slabs than its live elements need.  FLUSH
takes a bucket, compacts all live elements into the minimum number of slabs
(base slab first, then as many chained slabs as required, reusing the bucket's
existing slabs in order) and deallocates the slabs that become empty so
SlabAlloc can hand them out again.

As in the paper, FLUSH is a separate "kernel": it must not run concurrently
with other operations on the same bucket, so it is implemented as plain
(non-generator) host-driven code that still reports every slab read/write and
deallocation to the device counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core import constants as C
from repro.core.slab_list import SlabListCollection
from repro.gpusim.warp import Warp

__all__ = ["FlushResult", "flush_bucket", "flush_all"]


@dataclass(frozen=True)
class FlushResult:
    """Outcome of compacting one bucket."""

    bucket: int
    live_elements: int
    slabs_before: int
    slabs_after: int
    slabs_released: int


def flush_bucket(lists: SlabListCollection, warp: Warp, bucket: int) -> FlushResult:
    """Compact one bucket's slab list and release its now-empty slabs."""
    if not 0 <= bucket < lists.num_lists:
        raise ValueError(f"bucket {bucket} out of range for {lists.num_lists} lists")
    cfg = lists.config
    mem = lists.mem

    chain = lists.chain_addresses(bucket)
    slabs_before = 1 + len(chain)

    # Pass 1: the warp reads every slab in the chain and gathers live elements.
    live: List[Tuple[int, Optional[int]]] = []
    for store, row, _words in lists.iter_slab_words(bucket):
        warp.charge(C.FLUSH_SLAB_INSTRUCTIONS)
        words = mem.read_slab(store, row)
        for lane in cfg.key_lanes:
            key = int(words[lane])
            if key in (C.EMPTY_KEY, C.DELETED_KEY):
                continue
            value = int(words[lane + 1]) if cfg.key_value else None
            live.append((key, value))

    # How many slabs the live elements actually need (always at least the base).
    per_slab = cfg.elements_per_slab
    needed = max(1, -(-len(live) // per_slab))
    keep = chain[: needed - 1]
    release = chain[needed - 1:]

    # Pass 2: rewrite the kept slabs with the compacted contents.
    stride = cfg.lane_stride
    for slab_index in range(needed):
        words = np.full(C.SLAB_WORDS, C.EMPTY_KEY, dtype=np.uint32)
        chunk = live[slab_index * per_slab : (slab_index + 1) * per_slab]
        for i, (key, value) in enumerate(chunk):
            lane = i * stride
            words[lane] = key
            if cfg.key_value:
                words[lane + 1] = value
        if slab_index < needed - 1:
            words[C.ADDRESS_LANE] = keep[slab_index] if slab_index < len(keep) else C.EMPTY_POINTER
        else:
            words[C.ADDRESS_LANE] = C.EMPTY_POINTER
        if slab_index == 0:
            store, row = lists.base_slabs, bucket
        else:
            store, row = lists.alloc.slab_view(keep[slab_index - 1])
        warp.charge(C.FLUSH_SLAB_INSTRUCTIONS)
        mem.write_slab(store, row, words)

    # Pass 3: release the slabs that are no longer needed.
    if release:
        lists.alloc.deallocate(warp, np.asarray(release, dtype=np.int64))

    return FlushResult(
        bucket=bucket,
        live_elements=len(live),
        slabs_before=slabs_before,
        slabs_after=needed,
        slabs_released=len(release),
    )


def flush_all(
    lists: SlabListCollection,
    warp: Warp,
    buckets: Optional[List[int]] = None,
) -> List[FlushResult]:
    """Compact a set of buckets (all of them by default) in one kernel."""
    lists.device.launch_kernel()
    targets = range(lists.num_lists) if buckets is None else buckets
    return [flush_bucket(lists, warp, bucket) for bucket in targets]
