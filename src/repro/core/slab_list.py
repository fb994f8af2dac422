"""The slab list: a warp-cooperative, lock-free linked list of 128-byte slabs.

This module implements Section III (design) and Section IV-C (operation
details) of the paper.  A :class:`SlabListCollection` owns ``num_lists``
independent slab lists — the slab hash uses one per bucket, and a single-list
collection is a standalone slab list.

Every operation follows the warp-cooperative work sharing (WCWS) strategy of
Fig. 2: lanes with work set ``is_active``; the warp builds a work queue with a
ballot and processes one source lane's operation at a time, the whole warp
cooperating (coalesced slab read, ballot to locate the key / an empty spot,
shuffle to broadcast results), until the queue drains.

The operations are Python *generators* that yield after every global-memory
access.  Draining a generator executes the operation; interleaving several
generators (see :mod:`repro.gpusim.scheduler`) executes them concurrently, and
because all mutation goes through atomic CAS on the shared simulated memory,
the lock-free retry paths (failed insertion CAS, losing the race to append a
new slab and having to deallocate it) genuinely occur under contention.

Deviation from the paper's simplified pseudocode: when REPLACE finds the key
already present, the pseudocode CASes against ``EMPTY_PAIR``, which cannot
succeed for an occupied slot; we CAS against the currently read pair so the
value is actually replaced.  (See DESIGN.md, "Key design decisions".)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import constants as C
from repro.core.config import SlabConfig
from repro.core.slab_alloc import SlabAlloc
from repro.gpusim.device import Device
from repro.gpusim.memory import GlobalMemory
from repro.gpusim.warp import Warp

__all__ = ["ChainTable", "SlabListCollection"]

WarpProgram = Generator[None, None, None]


@dataclass
class ChainTable:
    """A flattened, host-side snapshot of a collection's slab chains.

    Covers every chain, or only the chains of the buckets passed to
    :meth:`SlabListCollection.chain_table`; unselected buckets then appear
    as zero-length chains in :attr:`offsets`.

    Slabs appear grouped by bucket and ordered by chain depth within each
    bucket, so flattened slot index ``offsets[b] * M + p`` is exactly the
    traversal (scan) order of the warp-cooperative procedures.  Used by the
    vectorized bulk backend and the vectorized introspection helpers; building
    it is uncounted (no device events), like the other host-side scans.
    """

    #: The collection's base slabs (row ``b`` is bucket ``b``'s base slab).
    base_slabs: np.ndarray
    #: The allocator whose arena holds every other slab.
    alloc: SlabAlloc
    #: Per-slab owning bucket.
    bucket_of: np.ndarray
    #: Per-slab 32-bit address (``BASE_SLAB`` for base slabs).
    addresses: np.ndarray
    #: Bucket b's slabs occupy flattened indices ``offsets[b]:offsets[b+1]``.
    offsets: np.ndarray

    @property
    def num_slabs(self) -> int:
        return len(self.addresses)

    def chain_lengths(self) -> np.ndarray:
        """Number of slabs per bucket (including the base slab)."""
        return np.diff(self.offsets)

    def allocated_addresses(self) -> np.ndarray:
        """Addresses of the allocated (non-base) slabs, in table order."""
        return self.addresses[self.addresses != C.BASE_SLAB]

    def words(self) -> np.ndarray:
        """Gather every slab's 32 words into one ``(num_slabs, 32)`` matrix.

        Two sources: base slab ``b`` is row ``b`` of :attr:`base_slabs`, and
        every other slab is read from the allocator's arena by address.
        """
        in_arena = self.addresses != C.BASE_SLAB
        out = self.base_slabs[self.bucket_of]
        if in_arena.any():
            out[in_arena] = self.alloc.read_slabs(self.addresses[in_arena])
        return out


class SlabListCollection:
    """A set of independent slab lists sharing one device and one allocator.

    Parameters
    ----------
    device:
        Simulated device (event counters).
    alloc:
        The SlabAlloc (or SlabAlloc-light) instance that provides slabs.
    num_lists:
        Number of independent lists (buckets when used by the slab hash).
    config:
        Layout/semantics configuration (key-value vs key-only, uniqueness).
    """

    def __init__(
        self,
        device: Device,
        alloc: SlabAlloc,
        num_lists: int,
        config: SlabConfig | None = None,
    ) -> None:
        if num_lists <= 0:
            raise ValueError(f"num_lists must be positive, got {num_lists}")
        self.device = device
        self.mem = GlobalMemory(device.counters)
        self.alloc = alloc
        self.num_lists = int(num_lists)
        self.config = config or SlabConfig()
        #: Base slabs: one fixed 128-byte slab per list, the head of its chain.
        self.base_slabs = np.full((self.num_lists, C.SLAB_WORDS), C.EMPTY_KEY, dtype=np.uint32)

    # ------------------------------------------------------------------ #
    # Slab addressing helpers
    # ------------------------------------------------------------------ #

    def _slab_location(self, bucket: int, slab_ptr: int) -> Tuple[np.ndarray, int]:
        """Resolve the (store, row) of either the base slab or an allocated slab."""
        if slab_ptr == C.BASE_SLAB:
            return self.base_slabs, bucket
        self.alloc.charge_address_decode()
        return self.alloc.slab_view(slab_ptr)

    # ------------------------------------------------------------------ #
    # SEARCH / SEARCHALL (Section III-B.1, Fig. 2 warp_search_macro)
    # ------------------------------------------------------------------ #

    def warp_search(
        self,
        warp: Warp,
        is_active: np.ndarray,
        buckets: np.ndarray,
        keys: np.ndarray,
        out_values: np.ndarray,
    ) -> WarpProgram:
        """SEARCH: find the least-recent value stored under each active lane's key.

        ``out_values[lane]`` receives the found value (key-value mode), the key
        itself (key-only mode), or ``SEARCH_NOT_FOUND``.
        """
        cfg = self.config
        active = np.array(is_active, dtype=bool)
        next_ptr = C.BASE_SLAB
        work_queue = warp.ballot(active)

        while work_queue != 0:
            warp.charge(C.SEARCH_ITER_INSTRUCTIONS)
            src_lane = warp.first_set_lane(work_queue)
            src_key = int(warp.shfl(keys, src_lane))
            src_bucket = int(warp.shfl(buckets, src_lane))

            store, row = self._slab_location(src_bucket, next_ptr)
            read_data = self.mem.read_slab(store, row)
            yield

            found_mask = warp.ballot(read_data == src_key) & cfg.valid_key_mask
            found_lane = warp.first_set_lane(found_mask)
            if found_lane >= 0:
                if cfg.key_value:
                    out_values[src_lane] = warp.shfl(read_data, found_lane + 1)
                else:
                    out_values[src_lane] = src_key
                active[src_lane] = False
            else:
                next_slab = int(warp.shfl(read_data, C.ADDRESS_LANE))
                if next_slab == C.EMPTY_POINTER:
                    out_values[src_lane] = C.SEARCH_NOT_FOUND
                    active[src_lane] = False
                else:
                    next_ptr = next_slab

            new_queue = warp.ballot(active)
            if new_queue != work_queue:
                next_ptr = C.BASE_SLAB
            work_queue = new_queue

    def warp_search_all(
        self,
        warp: Warp,
        is_active: np.ndarray,
        buckets: np.ndarray,
        keys: np.ndarray,
        out_matches: List[List[int]],
    ) -> WarpProgram:
        """SEARCHALL: collect *every* value stored under each active lane's key.

        ``out_matches[lane]`` is extended with all found values (key-value
        mode) or with one entry per stored copy of the key (key-only mode).
        """
        cfg = self.config
        active = np.array(is_active, dtype=bool)
        next_ptr = C.BASE_SLAB
        work_queue = warp.ballot(active)

        while work_queue != 0:
            warp.charge(C.SEARCH_ITER_INSTRUCTIONS)
            src_lane = warp.first_set_lane(work_queue)
            src_key = int(warp.shfl(keys, src_lane))
            src_bucket = int(warp.shfl(buckets, src_lane))

            store, row = self._slab_location(src_bucket, next_ptr)
            read_data = self.mem.read_slab(store, row)
            yield

            found_mask = warp.ballot(read_data == src_key) & cfg.valid_key_mask
            lane = warp.first_set_lane(found_mask)
            while lane >= 0:
                if cfg.key_value:
                    out_matches[src_lane].append(int(warp.shfl(read_data, lane + 1)))
                else:
                    out_matches[src_lane].append(src_key)
                found_mask &= ~(1 << lane)
                lane = warp.first_set_lane(found_mask)

            next_slab = int(warp.shfl(read_data, C.ADDRESS_LANE))
            if next_slab == C.EMPTY_POINTER:
                active[src_lane] = False
                next_ptr = C.BASE_SLAB
            else:
                next_ptr = next_slab

            new_queue = warp.ballot(active)
            if new_queue != work_queue:
                next_ptr = C.BASE_SLAB
            work_queue = new_queue

    # ------------------------------------------------------------------ #
    # INSERT / REPLACE (Section III-B.2, Fig. 2 warp_replace_macro)
    # ------------------------------------------------------------------ #

    def warp_insert(
        self,
        warp: Warp,
        is_active: np.ndarray,
        buckets: np.ndarray,
        keys: np.ndarray,
        values: Optional[np.ndarray] = None,
    ) -> WarpProgram:
        """INSERT: add each active lane's key(-value) allowing duplicate keys."""
        return self._warp_upsert(warp, is_active, buckets, keys, values, replace=False)

    def warp_replace(
        self,
        warp: Warp,
        is_active: np.ndarray,
        buckets: np.ndarray,
        keys: np.ndarray,
        values: Optional[np.ndarray] = None,
    ) -> WarpProgram:
        """REPLACE: insert maintaining key uniqueness (replace an existing key)."""
        return self._warp_upsert(warp, is_active, buckets, keys, values, replace=True)

    def _warp_upsert(
        self,
        warp: Warp,
        is_active: np.ndarray,
        buckets: np.ndarray,
        keys: np.ndarray,
        values: Optional[np.ndarray],
        *,
        replace: bool,
    ) -> WarpProgram:
        cfg = self.config
        if cfg.key_value and values is None:
            raise ValueError("key-value mode requires a values array")
        active = np.array(is_active, dtype=bool)
        next_ptr = C.BASE_SLAB
        work_queue = warp.ballot(active)

        while work_queue != 0:
            warp.charge(C.REPLACE_ITER_INSTRUCTIONS)
            src_lane = warp.first_set_lane(work_queue)
            src_key = int(warp.shfl(keys, src_lane))
            src_value = int(warp.shfl(values, src_lane)) if cfg.key_value else 0
            src_bucket = int(warp.shfl(buckets, src_lane))

            store, row = self._slab_location(src_bucket, next_ptr)
            read_data = self.mem.read_slab(store, row)
            yield

            if replace:
                candidate = (read_data == src_key) | (read_data == C.EMPTY_KEY)
            else:
                candidate = read_data == C.EMPTY_KEY
            dest_mask = warp.ballot(candidate) & cfg.valid_key_mask
            dest_lane = warp.first_set_lane(dest_mask)

            if dest_lane >= 0:
                existing = int(read_data[dest_lane])
                if cfg.key_value:
                    if existing == src_key:
                        expected = (existing, int(read_data[dest_lane + 1]))
                    else:
                        expected = C.EMPTY_PAIR
                    old = self.mem.atomic_cas64(
                        store, row, dest_lane, expected, (src_key, src_value)
                    )
                    success = old == expected
                else:
                    if existing == src_key and replace:
                        # Key-only REPLACE of an existing key is a no-op.
                        success = True
                    else:
                        old = self.mem.atomic_cas32(
                            store, (row, dest_lane), C.EMPTY_KEY, src_key
                        )
                        success = old == C.EMPTY_KEY
                yield
                if success:
                    active[src_lane] = False
                # On failure another warp won the slot; re-read and retry.
            else:
                next_slab = int(warp.shfl(read_data, C.ADDRESS_LANE))
                if next_slab == C.EMPTY_POINTER:
                    new_slab_ptr = self.alloc.warp_allocate(warp)
                    yield
                    old = self.mem.atomic_cas32(
                        store, (row, C.ADDRESS_LANE), C.EMPTY_POINTER, new_slab_ptr
                    )
                    yield
                    if old != C.EMPTY_POINTER:
                        # Another warp appended a slab first: release ours and
                        # continue through the winner's slab on the next pass.
                        self.alloc.deallocate(warp, new_slab_ptr)
                    # next_ptr unchanged: the next iteration re-reads this slab,
                    # sees the (now non-empty) address lane and follows it.
                else:
                    next_ptr = next_slab

            new_queue = warp.ballot(active)
            if new_queue != work_queue:
                next_ptr = C.BASE_SLAB
            work_queue = new_queue

    # ------------------------------------------------------------------ #
    # DELETE / DELETEALL (Section III-B.3, Fig. 2 warp_delete_macro)
    # ------------------------------------------------------------------ #

    def warp_delete(
        self,
        warp: Warp,
        is_active: np.ndarray,
        buckets: np.ndarray,
        keys: np.ndarray,
        out_deleted: Optional[np.ndarray] = None,
    ) -> WarpProgram:
        """DELETE: remove the least-recent occurrence of each active lane's key.

        ``out_deleted[lane]`` (if given) is set to 1 when a matching element
        was found and marked, 0 when the key was not present.
        """
        return self._warp_delete_impl(warp, is_active, buckets, keys, out_deleted, delete_all=False)

    def warp_delete_all(
        self,
        warp: Warp,
        is_active: np.ndarray,
        buckets: np.ndarray,
        keys: np.ndarray,
        out_deleted: Optional[np.ndarray] = None,
    ) -> WarpProgram:
        """DELETEALL: remove every occurrence of each active lane's key.

        ``out_deleted[lane]`` (if given) receives the number of removed copies.
        """
        return self._warp_delete_impl(warp, is_active, buckets, keys, out_deleted, delete_all=True)

    def _warp_delete_impl(
        self,
        warp: Warp,
        is_active: np.ndarray,
        buckets: np.ndarray,
        keys: np.ndarray,
        out_deleted: Optional[np.ndarray],
        *,
        delete_all: bool,
    ) -> WarpProgram:
        cfg = self.config
        # With unique keys, deleted slots must stay distinguishable from empty
        # ones (so REPLACE never re-inserts a key that still exists further
        # down the list); with duplicates allowed, slots are recycled as empty.
        tombstone = C.DELETED_KEY if cfg.unique_keys else C.EMPTY_KEY
        active = np.array(is_active, dtype=bool)
        deleted_count = np.zeros(len(active), dtype=np.int64)
        next_ptr = C.BASE_SLAB
        work_queue = warp.ballot(active)

        while work_queue != 0:
            warp.charge(C.DELETE_ITER_INSTRUCTIONS)
            src_lane = warp.first_set_lane(work_queue)
            src_key = int(warp.shfl(keys, src_lane))
            src_bucket = int(warp.shfl(buckets, src_lane))

            store, row = self._slab_location(src_bucket, next_ptr)
            read_data = self.mem.read_slab(store, row)
            yield

            dest_mask = warp.ballot(read_data == src_key) & cfg.valid_key_mask
            dest_lane = warp.first_set_lane(dest_mask)

            if dest_lane >= 0 and not delete_all:
                self._mark_deleted(store, row, dest_lane, tombstone)
                yield
                deleted_count[src_lane] += 1
                active[src_lane] = False
            elif delete_all:
                lane = dest_lane
                while lane >= 0:
                    self._mark_deleted(store, row, lane, tombstone)
                    deleted_count[src_lane] += 1
                    dest_mask &= ~(1 << lane)
                    lane = warp.first_set_lane(dest_mask)
                if dest_lane >= 0:
                    yield
                next_slab = int(warp.shfl(read_data, C.ADDRESS_LANE))
                if next_slab == C.EMPTY_POINTER:
                    active[src_lane] = False
                    next_ptr = C.BASE_SLAB
                else:
                    next_ptr = next_slab
            else:
                next_slab = int(warp.shfl(read_data, C.ADDRESS_LANE))
                if next_slab == C.EMPTY_POINTER:
                    # Reached the tail: the key is not present; done.
                    active[src_lane] = False
                else:
                    next_ptr = next_slab

            new_queue = warp.ballot(active)
            if new_queue != work_queue:
                next_ptr = C.BASE_SLAB
            work_queue = new_queue

        if out_deleted is not None:
            out_deleted[:] = deleted_count

    def _mark_deleted(self, store: np.ndarray, row: int, lane: int, tombstone: int) -> None:
        """Overwrite a matched element with the tombstone marker."""
        self.mem.write_word(store, (row, lane), tombstone)
        if self.config.key_value and tombstone == C.EMPTY_KEY:
            # Recycled-as-empty slots must read as a full EMPTY_PAIR, otherwise a
            # later insertion CAS (which expects EMPTY_PAIR) could never succeed.
            self.mem.write_word(store, (row, lane + 1), C.EMPTY_VALUE)

    # ------------------------------------------------------------------ #
    # Host-side (uncounted) introspection used by tests, FLUSH and reports
    # ------------------------------------------------------------------ #

    def chain_addresses(self, bucket: int) -> List[int]:
        """Addresses of the allocated slabs chained after ``bucket``'s base slab."""
        addresses: List[int] = []
        ptr = int(self.base_slabs[bucket, C.ADDRESS_LANE])
        while ptr != C.EMPTY_POINTER:
            addresses.append(ptr)
            store, row = self.alloc.slab_view(ptr)
            ptr = int(store[row, C.ADDRESS_LANE])
        return addresses

    def slab_count(self, bucket: int) -> int:
        """Number of slabs in ``bucket``'s chain, including the base slab."""
        return 1 + len(self.chain_addresses(bucket))

    def chain_table(self, buckets: Optional[np.ndarray] = None) -> ChainTable:
        """Build a :class:`ChainTable` snapshot of the chains, vectorized.

        Walks the chains level by level: one gather of the next pointers per
        chain depth, rather than one Python loop iteration per slab.  The
        result is grouped by bucket in traversal order.

        ``buckets`` (sorted, unique bucket ids) restricts the walk to those
        chains, so the cost is proportional to the slabs they hold.
        :attr:`ChainTable.offsets` still spans all ``num_lists`` buckets;
        buckets outside the selection get zero-length chains.
        """
        num = self.num_lists
        if buckets is None:
            buckets = np.arange(num, dtype=np.int64)
        else:
            buckets = np.asarray(buckets, dtype=np.int64)
        count = len(buckets)
        level_buckets = [buckets]
        level_addresses = [np.full(count, C.BASE_SLAB, dtype=np.int64)]
        level_depths = [np.zeros(count, dtype=np.int64)]

        pointers = self.base_slabs[buckets, C.ADDRESS_LANE].astype(np.int64)
        depth = 1
        while True:
            live = pointers != C.EMPTY_POINTER
            if not live.any():
                break
            buckets = buckets[live]
            pointers = pointers[live]
            level_buckets.append(buckets)
            level_addresses.append(pointers)
            level_depths.append(np.full(len(buckets), depth, dtype=np.int64))
            pointers = self.alloc.read_slabs(pointers, C.ADDRESS_LANE).astype(np.int64)
            depth += 1

        bucket_of = np.concatenate(level_buckets)
        depths = np.concatenate(level_depths)
        order = np.lexsort((depths, bucket_of))
        counts = np.bincount(bucket_of, minlength=num)
        offsets = np.zeros(num + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return ChainTable(
            base_slabs=self.base_slabs,
            alloc=self.alloc,
            bucket_of=bucket_of[order],
            addresses=np.concatenate(level_addresses)[order],
            offsets=offsets,
        )

    def slab_counts(self) -> np.ndarray:
        """Per-bucket slab counts for all buckets at once (vectorized)."""
        return self.chain_table().chain_lengths()

    def total_slabs(self) -> int:
        """Total slabs across all lists (base slabs plus allocated slabs)."""
        return int(self.chain_table().num_slabs)

    def iter_slab_words(
        self, bucket: int
    ) -> Generator[Tuple[np.ndarray, int, np.ndarray], None, None]:
        """Yield ``(store, row, words)`` for every slab in ``bucket``'s chain (uncounted)."""
        yield self.base_slabs, bucket, self.base_slabs[bucket]
        for address in self.chain_addresses(bucket):
            store, row = self.alloc.slab_view(address)
            yield store, row, store[row]

    def live_items(self, bucket: int) -> List[Tuple[int, Optional[int]]]:
        """All stored (key, value) pairs in ``bucket`` (value is None in key-only mode)."""
        cfg = self.config
        items: List[Tuple[int, Optional[int]]] = []
        for _store, _row, words in self.iter_slab_words(bucket):
            for lane in cfg.key_lanes:
                key = int(words[lane])
                if key in (C.EMPTY_KEY, C.DELETED_KEY):
                    continue
                value = int(words[lane + 1]) if cfg.key_value else None
                items.append((key, value))
        return items

    def live_item_count(self) -> int:
        """Total stored elements across all lists (vectorized host-side scan)."""
        keys = self.chain_table().words()[:, list(self.config.key_lanes)]
        return int(np.count_nonzero((keys != C.EMPTY_KEY) & (keys != C.DELETED_KEY)))

    def all_live_items(self) -> List[Tuple[int, Optional[int]]]:
        """All stored (key, value) pairs across all lists, in bucket scan order.

        Vectorized equivalent of chaining :meth:`live_items` over every bucket
        (the ChainTable rows are grouped by bucket in traversal order, so
        row-major iteration reproduces the per-bucket scan order exactly).
        """
        cfg = self.config
        words = self.chain_table().words()
        keys = words[:, list(cfg.key_lanes)]
        mask = (keys != C.EMPTY_KEY) & (keys != C.DELETED_KEY)
        rows, cols = np.nonzero(mask)
        found_keys = keys[rows, cols].tolist()
        if cfg.key_value:
            value_lanes = np.asarray([lane + 1 for lane in cfg.key_lanes], dtype=np.int64)
            found_values = words[rows, value_lanes[cols]].tolist()
            return list(zip(found_keys, found_values))
        return [(key, None) for key in found_keys]

    def used_bytes(self) -> int:
        """Memory occupied by the collection: base slabs plus allocated slabs."""
        return self.total_slabs() * C.SLAB_BYTES
