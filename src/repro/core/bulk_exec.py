"""Vectorized bulk-execution backend: a counter-exact NumPy fast path.

Every :class:`~repro.core.slab_hash.SlabHash` batch — a bulk op is a batch
whose operations share one op code — reaches one reference driver, which
executes warps one generator step at a time: faithful to the paper's
warp-cooperative work sharing (Fig. 2), but the Python generator machinery
costs microseconds per simulated memory access.  This module executes the
same unscheduled batches with batched NumPy resolution plus a compact serial
replay and *synthesizes the exact device-counter stream* the reference driver
would have produced, so the cost model, every figure, and every counter-based
test see bit-identical numbers.  :meth:`BulkExecutor.run` picks the kernel
from the batch's op mix: a batch of one operation type goes to that type's
bulk kernel (insert, search or delete rank arithmetic against one snapshot),
any other batch to the phased concurrent path.  Scheduler-interleaved batches
always run the reference generators, since seeded interleavings are the
whole point there.

Why this is possible
--------------------
Without a scheduler the warps are drained sequentially, and within a warp
the WCWS work queue processes one source lane to completion before moving to
the next (``first_set_lane`` over a shrinking ballot).  A single-type batch
is therefore *strictly serial in array order*: operation ``i`` executes
fully before operation ``i + 1``, and no CAS ever fails.  Final state
and per-operation results can then be resolved per bucket with sorting and
ranking primitives, and the counters follow from closed-form per-iteration
event profiles of the three warp procedures.

The same argument extends to a mixed batch: the driver enqueues, per warp
chunk, one program per operation type present (insert, then delete, then
search) and drains them sequentially, so the mixed batch is strictly serial
in ``(chunk, phase, lane)`` order
(:func:`repro.gpusim.vectorize.phased_order`).  Because interleaved phases
mutate the very chains later phases traverse, the concurrent path resolves
destinations with an incremental per-bucket replay of that serial order
instead of whole-batch rank arithmetic, then applies state and counters in
bulk.  Event profiles:

===============  ========================================================
per iteration    SEARCH: 38 warp instrs, 2 ballots, 3 shuffles (key-only
                 found: terminal iteration has 2), 1 coalesced slab read
                 REPLACE/INSERT: 46 warp instrs, 2 ballots, 3 shuffles in
                 key-value mode / 2 in key-only (+1 address shuffle on every
                 non-terminal iteration), 1 coalesced slab read
                 DELETE: 36 warp instrs, 2 ballots, 2 shuffles (+1 address
                 shuffle when the key is not in the slab), 1 coalesced read
per warp         1 extra ballot (the initial work-queue build)
per non-base     one address decode: +1 warp instr (SlabAlloc-light) or
slab visit       +8 warp instrs and 1 shared read (regular SlabAlloc)
===============  ========================================================

The iteration count of an operation is the number of slabs it visits: the
destination/match depth plus one, the full chain length for misses, and
``chain + 2`` for insertions that append a slab (the tail is re-read after the
pointer CAS).  Slab *allocations* are delegated to the real
:meth:`~repro.core.slab_alloc.SlabAlloc.warp_allocate` with the correct warp
ids in the correct global order, so resident-block churn, bitmap atomics and
growth behave — and count — exactly as in the reference schedule.

Every call works on a :class:`_Snapshot` of only the buckets its keys hash
to, so its host-side cost is O(batch + the slabs of those buckets), not
O(table), just as an operation's device cost is one warp walking one bucket.

Fallback
--------
Unique-key (REPLACE) resolution assumes the *canonical* bucket layout that
every public API preserves: within each bucket's scan order, EMPTY slots only
follow occupied/tombstoned ones.  If a bucket the call touches is observed in
a non-canonical state (only reachable by external mutation of the stores),
the insert and concurrent kernels transparently fall back to the reference
driver for that call, which is correct in every state.  The search and delete
kernels only look for live occurrences, so they are exact in any layout.  The
scan-race hazard is per bucket, so a non-canonical bucket the call does not
touch cannot change its outcome and does not force the fallback.

When SlabAlloc raises (out of memory) mid-batch, the executor mirrors the
reference schedule's partial effects: every operation preceding the failing
one is applied (and counted), the failing operation's traversal up to the
failed allocation is counted, and the error propagates.  On both backends a
launch reserves the warp ids of all its chunks up front, so the table's warp
counter ends in the same place whether or not a chunk ever ran.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import constants as C
from repro.gpusim.errors import AllocationError
from repro.gpusim.vectorize import (
    CounterTally,
    combine_codes,
    first_occurrence,
    group_ranks,
    phased_order,
    run_starts,
)
from repro.gpusim.warp import WARP_SIZE, Warp

if TYPE_CHECKING:
    from repro.core.config import SlabConfig
    from repro.core.slab_hash import SlabHash
    from repro.core.slab_list import SlabListCollection

__all__ = [
    "BulkExecutor",
    "BACKENDS",
    "gather_band",
    "get_default_backend",
    "set_default_backend",
]

#: Selectable bulk-execution backends.
BACKENDS = ("vectorized", "reference")

_DEFAULT_BACKEND = "vectorized"


def get_default_backend() -> str:
    """The backend new :class:`~repro.core.slab_hash.SlabHash` tables use."""
    return _DEFAULT_BACKEND


def set_default_backend(name: str) -> None:
    """Set the process-wide default bulk-execution backend.

    Affects tables constructed afterwards with ``backend=None``; existing
    tables keep the backend they were built with.
    """
    global _DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose from {BACKENDS}")
    _DEFAULT_BACKEND = name


def gather_band(
    lists: "SlabListCollection", lo: int, hi: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Vectorized migration kernel: live contents of buckets ``[lo, hi)``.

    Returns ``(keys, values)`` in bucket scan order — the exact order the
    reference generator schedule observes when walking the same band with
    :meth:`~repro.core.slab_list.SlabListCollection.live_items` — with
    ``values`` ``None`` in key-only mode.  One grouped gather over the
    band's slabs (a :class:`~repro.core.slab_list.ChainTable` of the band's
    buckets only), no Python loop per slab, so the cost is O(band), not
    O(table).  Host-side and uncounted, like the other snapshot scans; the
    *re-insertion* of the band is what the migration charges to the device,
    through the regular bulk path.
    """
    cfg = lists.config
    words = lists.chain_table(np.arange(lo, hi, dtype=np.int64)).words()
    key_lanes = np.fromiter(cfg.key_lanes, dtype=np.int64)
    keys = words[:, key_lanes]
    live = (keys != C.EMPTY_KEY) & (keys != C.DELETED_KEY)
    rows, cols = np.nonzero(live)
    out_keys = keys[rows, cols]
    if not cfg.key_value:
        return out_keys, None
    return out_keys, words[rows, key_lanes[cols] + 1]


class _AppendFailed(Exception):
    """Internal: a slab allocation failed while appending for ``op_index``."""

    def __init__(self, op_index: int, error: AllocationError) -> None:
        super().__init__(str(error))
        self.op_index = op_index
        self.error = error


class _Snapshot:
    """Flattened host-side view of the touched buckets, in warp traversal order.

    Wraps a :class:`~repro.core.slab_list.ChainTable` of the ``buckets`` a
    call hashes to (sorted, unique) with per-*slot* arrays: slot ``p`` of
    bucket ``b`` (0-based over the whole chain, ``M`` slots per slab) is the
    ``p``-th element position a traversing warp would inspect.  Only those
    chains are walked and gathered, so building the view costs O(batch +
    their slabs), not O(table).  Per-bucket arrays (``offsets``,
    ``chain_len``, ``occupied_counts``) still span every bucket; untouched
    buckets read as zero-length chains, which no caller ever indexes.
    """

    def __init__(
        self, lists: "SlabListCollection", cfg: SlabConfig, buckets: np.ndarray
    ) -> None:
        self.cfg = cfg
        self.eps = cfg.elements_per_slab
        self.key_lanes = np.fromiter(cfg.key_lanes, dtype=np.int64)
        self.ct = lists.chain_table(buckets)
        self.words = self.ct.words()
        self.keymat = self.words[:, self.key_lanes]
        self.offsets = self.ct.offsets
        self.chain_len = self.ct.chain_lengths()
        self.num_buckets = len(self.chain_len)
        slab_depth = np.arange(self.ct.num_slabs, dtype=np.int64) - self.offsets[
            self.ct.bucket_of
        ]
        self.slot_bucket = np.repeat(self.ct.bucket_of, self.eps)
        self.slot_pos = (
            slab_depth[:, None] * self.eps + np.arange(self.eps, dtype=np.int64)
        ).ravel()
        self.slot_key = self.keymat.ravel()

    # -- layout predicates ------------------------------------------------ #

    def is_canonical(self) -> bool:
        """True when every viewed bucket keeps its EMPTY slots strictly at the tail.

        The REPLACE scan-race hazard of a non-canonical bucket only affects
        operations on that bucket, so checking the touched buckets is exact.
        """
        empty = self.slot_key == C.EMPTY_KEY
        if len(empty) < 2:
            return True
        same_bucket = self.slot_bucket[:-1] == self.slot_bucket[1:]
        violation = empty[:-1] & ~empty[1:] & same_bucket
        return not bool(violation.any())

    def occupied_counts(self) -> np.ndarray:
        """Per-bucket count of non-EMPTY slots (live elements plus tombstones)."""
        occupied = self.slot_key != C.EMPTY_KEY
        return np.bincount(
            self.slot_bucket[occupied], minlength=self.num_buckets
        ).astype(np.int64)

    # -- live-element indexes --------------------------------------------- #

    def live_sorted(self) -> Tuple[np.ndarray, np.ndarray]:
        """All live slots as (codes, positions), sorted by (bucket, key, pos)."""
        live = (self.slot_key != C.EMPTY_KEY) & (self.slot_key != C.DELETED_KEY)
        codes = combine_codes(self.slot_bucket[live], self.slot_key[live])
        pos = self.slot_pos[live]
        order = np.argsort(codes, kind="stable")  # stable: pos stays ascending
        return codes[order], pos[order]

    def live_first_occurrences(self) -> Tuple[np.ndarray, np.ndarray]:
        """First live occurrence of each (bucket, key): (sorted codes, positions)."""
        codes, pos = self.live_sorted()
        first = run_starts(codes)
        return codes[first], pos[first]

    # -- slot resolution --------------------------------------------------- #

    def values_at(self, buckets: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Stored value lane at each (bucket, position) — key-value mode only."""
        rows = self.offsets[buckets] + pos // self.eps
        lanes = self.key_lanes[pos % self.eps] + 1
        return self.words[rows, lanes]


class _SlabMap:
    """Resolves (bucket, chain depth) to a writable (store, row) location.

    Starts from the snapshot's ChainTable and grows as the executor appends
    slabs, so end-of-call writes can be scattered per store with fancy
    indexing.
    """

    def __init__(self, snap: _Snapshot) -> None:
        self.snap = snap
        self.stores: List[np.ndarray] = list(snap.ct.stores)
        self._store_ids = {id(store): index for index, store in enumerate(self.stores)}
        #: (bucket, depth) -> (store index, row)
        self.appended_by_bucket: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._appended_cache = None

    def register_append(self, bucket: int, depth: int, store: np.ndarray, row: int) -> None:
        key = id(store)
        if key not in self._store_ids:
            self._store_ids[key] = len(self.stores)
            self.stores.append(store)
        self.appended_by_bucket[(bucket, depth)] = (self._store_ids[key], row)
        self._appended_cache = None

    def location(self, bucket: int, depth: int) -> Tuple[np.ndarray, int]:
        chain = int(self.snap.chain_len[bucket])
        if depth < chain:
            flat = int(self.snap.offsets[bucket]) + depth
            return self.stores[int(self.snap.ct.store_idx[flat])], int(self.snap.ct.rows[flat])
        store_idx, row = self.appended_by_bucket[(bucket, depth)]
        return self.stores[store_idx], row

    def _appended_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(per-bucket offsets, store_idx, rows) of appended slabs, depth-sorted.

        A bucket's appended slabs occupy consecutive depths starting at its
        original chain length, so sorting by (bucket, depth) makes them
        addressable as ``offset[bucket] + depth - chain_len[bucket]``.
        """
        if self._appended_cache is None:
            entries = sorted(self.appended_by_bucket.items())
            buckets = np.fromiter((key[0] for key, _ in entries), np.int64, len(entries))
            offsets = np.zeros(self.snap.num_buckets + 1, dtype=np.int64)
            np.cumsum(np.bincount(buckets, minlength=self.snap.num_buckets), out=offsets[1:])
            self._appended_cache = (
                offsets,
                np.fromiter((loc[0] for _, loc in entries), np.int64, len(entries)),
                np.fromiter((loc[1] for _, loc in entries), np.int64, len(entries)),
            )
        return self._appended_cache

    def locations(self, buckets: np.ndarray, depths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`location` over arrays (existing and appended slabs)."""
        store_idx = np.empty(len(buckets), dtype=np.int64)
        rows = np.empty(len(buckets), dtype=np.int64)
        in_chain = depths < self.snap.chain_len[buckets]
        flat = self.snap.offsets[buckets[in_chain]] + depths[in_chain]
        store_idx[in_chain] = self.snap.ct.store_idx[flat]
        rows[in_chain] = self.snap.ct.rows[flat]
        appended = ~in_chain
        if appended.any():
            offsets, app_store_idx, app_rows = self._appended_arrays()
            app_buckets = buckets[appended]
            index = offsets[app_buckets] + depths[appended] - self.snap.chain_len[app_buckets]
            store_idx[appended] = app_store_idx[index]
            rows[appended] = app_rows[index]
        return store_idx, rows

    def scatter(
        self,
        store_idx: np.ndarray,
        rows: np.ndarray,
        *writes: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Apply one or more (lanes, values) write sets at the given slots.

        Writes sharing slot coordinates (e.g. key lane and value lane) are
        passed together so the store grouping is computed once.
        """
        if len(store_idx) == 0:
            return
        # Most writes land in the dominant store (the base slabs); peel that
        # majority off with one mask and sort only the remainder.
        majority = store_idx[0]
        in_majority = store_idx == majority
        select = np.flatnonzero(in_majority) if not in_majority.all() else slice(None)
        store = self.stores[int(majority)]
        for lanes, values in writes:
            store[rows[select], lanes[select]] = values[select].astype(np.uint32, copy=False)
        if isinstance(select, slice):
            return
        rest = np.flatnonzero(~in_majority)
        order = rest[np.argsort(store_idx[rest], kind="stable")]
        sorted_idx = store_idx[order]
        starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
        bounds = np.append(starts, len(sorted_idx))
        for group in range(len(starts)):
            chosen = order[bounds[group] : bounds[group + 1]]
            store = self.stores[int(sorted_idx[bounds[group]])]
            for lanes, values in writes:
                store[rows[chosen], lanes[chosen]] = values[chosen].astype(np.uint32, copy=False)


class BulkExecutor:
    """Vectorized executor for one table's unscheduled batches.

    Parameters
    ----------
    table:
        The owning :class:`~repro.core.slab_hash.SlabHash`.  The executor
        reads/writes the table's stores directly and reports synthesized
        events into the table's device counters.
    """

    def __init__(self, table: "SlabHash") -> None:
        self.table = table

    # ------------------------------------------------------------------ #
    # Shared plumbing
    # ------------------------------------------------------------------ #

    def _begin_kernel(self, num_ops: int) -> Tuple[int, int]:
        """Mirror the reference driver's kernel launch and warp-id reservation."""
        table = self.table
        table.device.launch_kernel()
        chunks = math.ceil(num_ops / WARP_SIZE)
        base_warp = table._warp_counter
        table._warp_counter += chunks
        return base_warp, chunks

    @property
    def _decode_cost(self) -> Tuple[int, int]:
        """(warp instructions, shared reads) per non-base-slab address decode.

        Mirrors :meth:`~repro.core.slab_alloc.SlabAlloc.charge_address_decode`.
        """
        return (1, 0) if self.table.alloc.light else (8, 1)

    def _tally_traversal(
        self,
        tally: CounterTally,
        *,
        iter_instructions: int,
        chunks: int,
        iters: int,
        decodes: int,
        shuffles: int,
    ) -> None:
        """Common per-iteration events of all three warp procedures."""
        decode_wi, decode_shared = self._decode_cost
        tally.add("coalesced_read_transactions", iters)
        tally.add("warp_ballots", chunks + 2 * iters)
        tally.add("warp_shuffles", shuffles)
        # charge(ITER) + first_set_lane(work queue) + first_set_lane(dest/found)
        tally.add("warp_instructions", (iter_instructions + 2) * iters + decode_wi * decodes)
        tally.add("shared_reads", decode_shared * decodes)

    def _process_appends(
        self,
        tally: CounterTally,
        slab_map: _SlabMap,
        append_ops: np.ndarray,
        buckets: np.ndarray,
        depths: np.ndarray,
        base_warp: int,
        *,
        warp_ops: Optional[np.ndarray] = None,
        on_append: Optional[Callable[[int, int, int], None]] = None,
    ) -> None:
        """Allocate and link appended slabs, in global operation order.

        Each event runs the *real* allocator under the triggering warp's id, so
        resident-block hashing, bitmap atomics, resident changes and growth are
        reproduced (and counted) exactly; the pointer-append CAS (which cannot
        fail in the serial bulk schedule) is tallied as one 32-bit atomic.

        ``warp_ops`` maps each index in ``append_ops`` to the operation index
        that determines its warp id (identity for the bulk paths; the original
        batch position for the concurrent fast path, whose arrays are compacted
        to the replayed subset).  ``on_append`` is invoked as
        ``on_append(op, bucket, depth)`` after each successful append (the
        concurrent path records its append log through it).
        """
        table = self.table
        counters = table.device.counters
        for op in append_ops:
            bucket = int(buckets[op])
            depth = int(depths[op])  # chain length before this append
            warp_op = int(op) if warp_ops is None else int(warp_ops[op])
            warp = Warp(base_warp + warp_op // WARP_SIZE, counters)
            try:
                address = table.alloc.warp_allocate(warp)
            except AllocationError as error:
                raise _AppendFailed(int(op), error) from error
            tally.add("atomic32", 1)
            tail_store, tail_row = slab_map.location(bucket, depth - 1)
            tail_store[tail_row, C.ADDRESS_LANE] = np.uint32(address)
            store, row = table.alloc.slab_view(address)
            slab_map.register_append(bucket, depth, store, row)
            if on_append is not None:
                on_append(int(op), bucket, depth)

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def run(
        self, op_codes: np.ndarray, keys: np.ndarray, values: Optional[np.ndarray]
    ) -> np.ndarray:
        """Execute one unscheduled batch, with the kernel picked by its op mix.

        A batch of a single operation type runs that type's bulk kernel,
        which resolves the whole batch against one snapshot with rank
        arithmetic; any other batch (mixed types, or codes outside the three)
        runs the phased concurrent path.  Both produce what the reference
        driver produces.  Returns the per-operation results in
        ``concurrent_batch``'s conventions.
        """
        if len(op_codes) and bool((op_codes == op_codes[0]).all()):
            op = int(op_codes[0])
            if op == C.OP_SEARCH:
                return self._bulk_search(keys)
            if op == C.OP_DELETE:
                return self._bulk_delete(keys)
            if op == C.OP_INSERT:
                return self._bulk_insert(op_codes, keys, values)
        return self._concurrent_batch(op_codes, keys, values)

    # ------------------------------------------------------------------ #
    # SEARCH
    # ------------------------------------------------------------------ #

    def _bulk_search(self, queries: np.ndarray) -> np.ndarray:
        table = self.table
        cfg = table.config
        n = len(queries)
        base_warp, chunks = self._begin_kernel(n)
        results = np.full(n, C.SEARCH_NOT_FOUND, dtype=np.uint32)
        if n == 0:
            return results

        buckets = table.hash_fn.hash_array(queries)
        snap = _Snapshot(table.lists, cfg, np.unique(buckets))
        codes, positions = snap.live_first_occurrences()
        found, index = first_occurrence(codes, combine_codes(buckets, queries))

        pos = positions[index[found]]
        if cfg.key_value:
            results[found] = snap.values_at(buckets[found], pos)
        else:
            results[found] = queries[found]

        reads = snap.chain_len[buckets].copy()
        reads[found] = pos // snap.eps + 1
        iters = int(reads.sum())
        shuffles = 3 * iters - (0 if cfg.key_value else int(found.sum()))

        tally = CounterTally()
        self._tally_traversal(
            tally,
            iter_instructions=C.SEARCH_ITER_INSTRUCTIONS,
            chunks=chunks,
            iters=iters,
            decodes=iters - n,
            shuffles=shuffles,
        )
        tally.commit(table.device.counters)
        return results

    # ------------------------------------------------------------------ #
    # DELETE
    # ------------------------------------------------------------------ #

    def _bulk_delete(self, keys: np.ndarray) -> np.ndarray:
        table = self.table
        cfg = table.config
        n = len(keys)
        base_warp, chunks = self._begin_kernel(n)
        removed = np.zeros(n, dtype=np.uint32)
        if n == 0:
            return removed

        buckets = table.hash_fn.hash_array(keys)
        snap = _Snapshot(table.lists, cfg, np.unique(buckets))
        codes, positions = snap.live_sorted()
        query_codes = combine_codes(buckets, keys)
        starts = np.searchsorted(codes, query_codes, side="left")
        counts = np.searchsorted(codes, query_codes, side="right") - starts
        # The r-th delete of a key (in batch order) removes its r-th live
        # occurrence in scan order; any further deletes traverse the chain
        # and miss, exactly like deletes of absent keys.
        ranks = group_ranks(query_codes)
        found = ranks < counts
        removed[found] = 1

        pos = positions[starts[found] + ranks[found]]
        depth = pos // snap.eps
        reads = snap.chain_len[buckets].copy()
        reads[found] = depth + 1
        iters = int(reads.sum())
        found_count = int(found.sum())

        tombstone = C.DELETED_KEY if cfg.unique_keys else C.EMPTY_KEY
        slab_map = _SlabMap(snap)
        bucket_f = buckets[found]
        store_idx, rows = slab_map.locations(bucket_f, depth)
        lanes = snap.key_lanes[pos % snap.eps]
        words_per_delete = 1
        writes = [(lanes, np.full(found_count, tombstone, np.uint32))]
        if cfg.key_value and tombstone == C.EMPTY_KEY:
            # Recycled slots must read as a full EMPTY_PAIR (cf. _mark_deleted).
            words_per_delete = 2
            writes.append((lanes + 1, np.full(found_count, C.EMPTY_VALUE, np.uint32)))
        slab_map.scatter(store_idx, rows, *writes)

        tally = CounterTally()
        self._tally_traversal(
            tally,
            iter_instructions=C.DELETE_ITER_INSTRUCTIONS,
            chunks=chunks,
            iters=iters,
            decodes=iters - n,
            shuffles=3 * iters - found_count,
        )
        tally.add("uncoalesced_write_words", words_per_delete * found_count)
        tally.commit(table.device.counters)
        return removed

    # ------------------------------------------------------------------ #
    # INSERT / REPLACE
    # ------------------------------------------------------------------ #

    def _bulk_insert(
        self, op_codes: np.ndarray, keys: np.ndarray, values: Optional[np.ndarray]
    ) -> np.ndarray:
        table = self.table
        buckets = table.hash_fn.hash_array(keys)
        snap = _Snapshot(table.lists, table.config, np.unique(buckets))
        if table.config.unique_keys:
            if not snap.is_canonical():
                # External mutation produced mid-chain EMPTY slots in a bucket
                # this batch touches; REPLACE semantics then depend on
                # empty-vs-match scan races that only the reference schedule
                # resolves faithfully.
                return table._reference_concurrent_batch(op_codes, keys, values, None, None)
            resolution = self._resolve_unique(snap, keys, buckets)
        else:
            resolution = self._resolve_duplicates(snap, buckets)
        base_warp, chunks = self._begin_kernel(len(keys))
        tally = CounterTally()
        failed = self._insert_resolved(tally, _SlabMap(snap), keys, values, resolution, base_warp)
        # One initial work-queue ballot per warp program started: after a
        # failed append, later warps never started (generators are lazy).
        tally.add("warp_ballots", chunks if failed is None else failed.op_index // WARP_SIZE + 1)
        tally.commit(table.device.counters)
        if failed is not None:
            raise failed.error
        return np.zeros(len(keys), dtype=np.uint32)

    def _resolve_unique(
        self, snap: _Snapshot, keys: np.ndarray, buckets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """REPLACE destinations: (buckets, dest position, slot-consuming mask).

        A key already live in its bucket (or inserted earlier in this batch)
        replaces in place at its first occurrence; each other op claims the
        bucket's next free slot in arrival order (canonical layout: slot
        ``occupied + rank``).
        """
        n = len(keys)
        occupied = snap.occupied_counts()
        codes, positions = snap.live_first_occurrences()
        query_codes = combine_codes(buckets, keys)
        matched, index = first_occurrence(codes, query_codes)

        dest = np.empty(n, dtype=np.int64)
        dest[matched] = positions[index[matched]]
        consuming = np.zeros(n, dtype=bool)

        new_ops = np.flatnonzero(~matched)
        if new_ops.size:
            # Group batch-new ops by (bucket, key): the first occurrence (in
            # batch order) claims a slot, later occurrences replace in place.
            order = np.argsort(query_codes[new_ops], kind="stable")
            run_start = run_starts(query_codes[new_ops][order])
            run_ids = np.cumsum(run_start) - 1
            first_ops = new_ops[order[run_start]]  # min op index of each run
            consuming_ops = np.sort(first_ops) if len(first_ops) < len(new_ops) else new_ops
            consuming[consuming_ops] = True
            dest_consuming = occupied[buckets[consuming_ops]] + group_ranks(
                buckets[consuming_ops]
            )
            dest_per_run = dest_consuming[np.searchsorted(consuming_ops, first_ops)]
            dest_new = np.empty(len(new_ops), dtype=np.int64)
            dest_new[order] = dest_per_run[run_ids]
            dest[new_ops] = dest_new
        return buckets, dest, consuming

    def _resolve_duplicates(
        self, snap: _Snapshot, buckets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """INSERT destinations: every op claims the bucket's next EMPTY slot.

        Free slots (including recycled mid-chain ones) are consumed in scan
        order; overflow continues into appended slabs.
        """
        n = len(buckets)
        empty = snap.slot_key == C.EMPTY_KEY
        free_pos = snap.slot_pos[empty]
        free_counts = np.bincount(
            snap.slot_bucket[empty], minlength=snap.num_buckets
        ).astype(np.int64)
        free_offsets = np.zeros(snap.num_buckets + 1, dtype=np.int64)
        np.cumsum(free_counts, out=free_offsets[1:])

        ranks = group_ranks(buckets)
        dest = np.empty(n, dtype=np.int64)
        in_free = ranks < free_counts[buckets]
        dest[in_free] = free_pos[free_offsets[buckets[in_free]] + ranks[in_free]]
        overflow = ~in_free
        capacity = snap.chain_len * snap.eps
        dest[overflow] = capacity[buckets[overflow]] + (
            ranks[overflow] - free_counts[buckets[overflow]]
        )
        return buckets, dest, np.ones(n, dtype=bool)

    def _insert_resolved(
        self,
        tally: CounterTally,
        slab_map: _SlabMap,
        keys: np.ndarray,
        values: Optional[np.ndarray],
        resolution: Tuple[np.ndarray, np.ndarray, np.ndarray],
        base_warp: int,
        *,
        warp_ops: Optional[np.ndarray] = None,
        on_append: Optional[Callable[[int, int, int], None]] = None,
    ) -> Optional[_AppendFailed]:
        """Append, count and write resolved insertions executed in array order.

        Tallies every event of the insert programs except their initial
        work-queue ballots, which depend on how the caller's programs are
        laid out.  ``warp_ops`` and ``on_append`` pass through to
        :meth:`_process_appends`.  When an append fails, the operations
        before the failing one executed fully, the failing one traversed its
        chain and died inside ``warp_allocate`` (whose own events the real
        allocator already charged), and later ones never ran; the failure is
        returned for the caller to raise after committing the tally.
        """
        cfg = self.table.config
        buckets, dest, consuming = resolution
        eps = slab_map.snap.eps
        capacity = slab_map.snap.chain_len * eps
        depth = dest // eps

        # A slot-consuming op whose destination is the first slot past the
        # current capacity appends a slab: it traverses to the tail, allocates,
        # CASes the pointer, re-reads the tail and follows into the new slab.
        append_ops = np.flatnonzero(consuming & (dest % eps == 0) & (dest >= capacity[buckets]))
        reads = depth + 1
        decodes = depth.copy()
        if append_ops.size:
            reads[append_ops] += 1
            decodes[append_ops] += (depth[append_ops] > 1).astype(np.int64)

        failed: Optional[_AppendFailed] = None
        try:
            self._process_appends(
                tally, slab_map, append_ops, buckets, depth, base_warp,
                warp_ops=warp_ops, on_append=on_append,
            )
        except _AppendFailed as failure:
            failed = failure
        done = len(keys) if failed is None else failed.op_index
        iters = int(reads[:done].sum())
        base_shuffles = 3 if cfg.key_value else 2
        shuffles = base_shuffles * iters + (iters - done)
        traversal_decodes = int(decodes[:done].sum())
        if failed is not None:
            chain = int(depth[done])  # tail depth the failing op reached
            iters += chain
            shuffles += (base_shuffles + 1) * chain
            traversal_decodes += chain - 1
            # Its last iteration issued the candidate ballot but died before
            # the end-of-loop work-queue ballot.
            tally.add("warp_ballots", -1)
        self._tally_traversal(
            tally,
            iter_instructions=C.REPLACE_ITER_INSTRUCTIONS,
            chunks=0,
            iters=iters,
            decodes=traversal_decodes,
            shuffles=shuffles,
        )
        if cfg.key_value:
            tally.add("atomic64", done)
        else:
            # Key-only REPLACE of an already-present key is a no-op (no CAS);
            # only slot-claiming insertions issue the 32-bit CAS.
            tally.add("atomic32", int(consuming[:done].sum()))
        self._apply_insert_writes(keys, values, slab_map, buckets, dest, consuming, done)
        return failed

    def _apply_insert_writes(
        self,
        keys: np.ndarray,
        values: Optional[np.ndarray],
        slab_map: _SlabMap,
        buckets: np.ndarray,
        dest: np.ndarray,
        consuming: np.ndarray,
        limit: int,
    ) -> None:
        """Write resolved insertions into the stores (ops ``< limit`` only).

        Key-value REPLACE CASes (key, value) for every op (replacing in place
        re-writes the pair), key-only mode only writes newly claimed slots.
        The last write to a slot wins, as in serial order.
        """
        cfg = self.table.config
        snap = slab_map.snap
        write_ops = (
            np.arange(limit, dtype=np.int64)
            if cfg.key_value
            else np.flatnonzero(consuming[:limit])
        )
        if not write_ops.size:
            return
        if bool(consuming[:limit].all()) or not cfg.key_value:
            # Every written slot is distinct (slot-claiming ops claim distinct
            # slots; key-only mode writes nothing else).
            keep = write_ops
        else:
            slot_ids = buckets[write_ops] * (int(dest.max()) + 1) + dest[write_ops]
            # Keep the last write per slot: reverse before marking run starts.
            order = np.argsort(slot_ids, kind="stable")[::-1]
            keep = write_ops[order[run_starts(slot_ids[order])]]

        keep_depth = dest[keep] // snap.eps
        store_idx, rows = slab_map.locations(buckets[keep], keep_depth)
        lanes = snap.key_lanes[dest[keep] % snap.eps]
        writes = [(lanes, keys[keep])]
        if cfg.key_value:
            writes.append((lanes + 1, values[keep]))
        slab_map.scatter(store_idx, rows, *writes)

    # ------------------------------------------------------------------ #
    # CONCURRENT MIXED BATCHES (unscheduled; Figure 7 fast path)
    # ------------------------------------------------------------------ #

    def _concurrent_batch(
        self,
        op_codes: np.ndarray,
        keys: np.ndarray,
        values: Optional[np.ndarray],
    ) -> np.ndarray:
        """Resolve an *unscheduled* mixed batch on the phased serial schedule.

        Mirrors ``run_sequential`` over the reference driver's per-chunk
        (insert, delete, search) programs: operations execute serially in
        ``(chunk, phase, lane)`` order, so results, final table state and the
        synthesized counters are bit-identical to the reference generators.
        Interleaved phases mutate the chains later phases traverse, so the
        batch splits into two resolution strategies:

        * **Schedule-dependent operations** are replayed serially against
          incremental per-bucket slot lists: all insertions, plus deletions
          and searches whose key some other operation in the batch also
          touches.  Slab appends call the real allocator under the triggering
          warp's id in global order.
        * **Schedule-invariant operations** resolve vectorized against the
          snapshot, like the bulk paths: searches of keys no mutation
          touches, and (under unique keys) single deletions of keys nothing
          else touches — the key's occurrence set cannot change before they
          run.  Only a *miss* traversal length depends on time (chains grow
          as earlier insertions append slabs); it is reconstructed from the
          append log with ``searchsorted``.

        State changes are collected in a write log (slot-granular, last write
        wins) and scattered into the stores in one vectorized pass.
        """
        table = self.table
        cfg = table.config
        buckets = table.hash_fn.hash_array(keys)
        snap = _Snapshot(table.lists, cfg, np.unique(buckets))
        if cfg.unique_keys and not snap.is_canonical():
            # Same guard as _bulk_insert: non-canonical REPLACE scan races are
            # only resolved faithfully by the reference schedule.
            return table._reference_concurrent_batch(op_codes, keys, values, None, None)

        n = len(keys)
        base_warp, chunks = self._begin_kernel(n)
        if n == 0:
            return np.zeros(0, dtype=np.uint32)

        # Operations with codes outside {INSERT, DELETE, SEARCH} join no
        # program in the reference driver; they occupy warp slots but execute
        # nothing and leave their result at 0.
        phases_all = np.full(n, -1, dtype=np.int64)
        phases_all[op_codes == C.OP_INSERT] = 0
        phases_all[op_codes == C.OP_DELETE] = 1
        phases_all[op_codes == C.OP_SEARCH] = 2
        valid = np.flatnonzero(phases_all >= 0)
        order, program_start = phased_order(valid // WARP_SIZE, phases_all[valid])
        serial_all = valid[order]  # op indices in serial execution order
        phases_serial = phases_all[serial_all]
        skeys = keys[serial_all]

        # --- split schedule-resolvable operations out of the serial replay ---
        # Group operations by key once; per-key phase counts decide which
        # operations genuinely need the serial replay.  Keys nothing inserts
        # have a frozen occurrence set except for (under unique keys) a single
        # deletion, whose serial rank fully determines what each search of
        # that key observes — no replay needed for any of them.
        is_delete = phases_serial == 1
        is_search = phases_serial == 2
        _, inv = np.unique(skeys, return_inverse=True)
        num_groups = int(inv.max()) + 1 if inv.size else 0
        has_insert = (np.bincount(inv[phases_serial == 0], minlength=num_groups) > 0)[inv]
        delete_count = np.bincount(inv[is_delete], minlength=num_groups)[inv]
        no_rank = len(serial_all) + 1
        delete_rank = np.full(num_groups, no_rank, dtype=np.int64)
        delete_rank[inv[is_delete]] = np.flatnonzero(is_delete)
        if cfg.unique_keys:
            # A single deletion of a never-inserted key tombstones a slot no
            # replayed operation ever looks at; searches of that key hit the
            # snapshot before the deletion's rank and miss after it.  (With
            # duplicates allowed, deletions recycle slots as EMPTY, which
            # later insertions claim — those stay in the replay.)
            vec_delete = is_delete & ~has_insert & (delete_count == 1)
            vec_search = is_search & ~has_insert & (delete_count <= 1)
        else:
            vec_delete = np.zeros(len(serial_all), dtype=bool)
            vec_search = is_search & ~has_insert & (delete_count == 0)

        replay_serial = np.flatnonzero(~(vec_search | vec_delete))
        replay_ops_arr = serial_all[replay_serial]
        replay_serial_l = replay_serial.tolist()

        eps = snap.eps
        kv = cfg.key_value
        replace = cfg.unique_keys
        base_sh = 3 if kv else 2
        empty = int(C.EMPTY_KEY)
        empty_value = int(C.EMPTY_VALUE)
        not_found = int(C.SEARCH_NOT_FOUND)
        tombstone = int(C.DELETED_KEY) if replace else empty
        delete_words = 2 if (kv and not replace) else 1

        slab_map = _SlabMap(snap)
        counters = table.device.counters
        results_l = [0] * n
        #: one (bucket, serial rank) entry per appended slab, in append order
        append_buckets: List[int] = []
        append_ranks: List[int] = []
        #: write log, one entry per written 32-bit word, in schedule order
        klog_bucket: List[int] = []
        klog_pos: List[int] = []
        klog_word: List[int] = []
        vlog_bucket: List[int] = []
        vlog_pos: List[int] = []
        vlog_word: List[int] = []

        tally = CounterTally()
        upsert_iters = delete_iters = search_iters = 0
        decodes = shuffles = atomic32 = atomic64 = write_words = 0
        ballot_adjust = 0
        position = 0
        error: Optional[AllocationError] = None

        # The Gamma workloads usually leave a pure-insert replay (their
        # deletions and searches are schedule-resolvable), and insertions
        # against a static snapshot are exactly what the bulk REPLACE/INSERT
        # rank arithmetic resolves — the vectorized tombstones only turn live
        # slots into non-EMPTY tombstones, which neither the canonical layout
        # nor the snapshot's occupied counts depend on.  Skip the serial
        # replay loop entirely in that case.
        pure_insert = (
            replay_serial.size > 0 and int(phases_serial[replay_serial].max()) == 0
        )

        if pure_insert:
            rkeys = keys[replay_ops_arr]
            r_buckets = buckets[replay_ops_arr]
            if replace:
                resolution = self._resolve_unique(snap, rkeys, r_buckets)
            else:
                resolution = self._resolve_duplicates(snap, r_buckets)

            def log_append(local: int, bucket: int, chain: int) -> None:
                append_buckets.append(bucket)
                append_ranks.append(replay_serial_l[local])

            failed = self._insert_resolved(
                tally, slab_map, rkeys, values[replay_ops_arr] if kv else None,
                resolution, base_warp, warp_ops=replay_ops_arr, on_append=log_append,
            )
            if failed is not None:
                error = failed.error
                position = failed.op_index

        # Python-native views for the replay loop (plain ints and list slices
        # are much faster than NumPy scalars and per-bucket array calls).
        if pure_insert or not replay_serial.size:
            replay_ops, replay_phases, replay_keys, replay_buckets = [], [], [], []
            models: Dict[int, List[object]] = {}
            values_l = slot_keys_all = vals_all = slot_off = chain_l = None
        else:
            replay_ops = replay_ops_arr.tolist()
            replay_phases = phases_serial[replay_serial].tolist()
            replay_keys = keys[replay_ops_arr].tolist()
            replay_buckets = buckets[replay_ops_arr].tolist()
            values_l = values.tolist() if kv else None
            slot_keys_flat = snap.slot_key
            vals_flat = snap.words[:, snap.key_lanes + 1].ravel() if kv else None
            slot_off = snap.offsets
            chain_arr = snap.chain_len
            #: bucket -> [slot keys (scan order), slot values or None, chain]
            models = {}

        for op, phase, bucket, key in zip(replay_ops, replay_phases, replay_buckets, replay_keys):
            try:
                model = models[bucket]
            except KeyError:
                # Lazy per-bucket materialization: only buckets the replay
                # actually touches pay the array-to-list conversion.
                chain_len = int(chain_arr[bucket])
                lo = int(slot_off[bucket]) * eps
                hi = lo + chain_len * eps
                model = models[bucket] = [
                    slot_keys_flat[lo:hi].tolist(),
                    vals_flat[lo:hi].tolist() if kv else None,
                    chain_len,
                ]
            slots = model[0]

            if phase == 2:  # SEARCH
                try:
                    slot = slots.index(key)
                except ValueError:
                    iters = model[2]
                    shuffles += 3 * iters
                    results_l[op] = not_found
                else:
                    iters = slot // eps + 1
                    shuffles += 3 * iters - (0 if kv else 1)
                    results_l[op] = model[1][slot] if kv else key
                search_iters += iters
                decodes += iters - 1
            elif phase == 1:  # DELETE
                try:
                    slot = slots.index(key)
                except ValueError:
                    iters = model[2]
                    shuffles += 3 * iters
                else:
                    iters = slot // eps + 1
                    shuffles += 3 * iters - 1
                    slots[slot] = tombstone
                    klog_bucket.append(bucket)
                    klog_pos.append(slot)
                    klog_word.append(tombstone)
                    if kv and not replace:
                        model[1][slot] = empty_value
                        vlog_bucket.append(bucket)
                        vlog_pos.append(slot)
                        vlog_word.append(empty_value)
                    write_words += delete_words
                    results_l[op] = 1
                delete_iters += iters
                decodes += iters - 1
            else:  # INSERT / REPLACE
                value = values_l[op] if kv else 0
                dest = -1
                inplace = False
                if replace:
                    try:
                        match = slots.index(key)
                    except ValueError:
                        match = -1
                    try:
                        free = slots.index(empty)
                    except ValueError:
                        free = -1
                    if match >= 0 and (free < 0 or match < free):
                        dest = match
                        inplace = True
                    else:
                        dest = free
                else:
                    try:
                        dest = slots.index(empty)
                    except ValueError:
                        dest = -1
                if dest >= 0:
                    iters = dest // eps + 1
                    upsert_iters += iters
                    decodes += iters - 1
                    shuffles += base_sh * iters + (iters - 1)
                else:
                    # Append: traverse to the tail, allocate under the
                    # triggering warp's id, link, re-read the tail, follow.
                    chain = model[2]
                    warp = Warp(base_warp + op // WARP_SIZE, counters)
                    try:
                        address = table.alloc.warp_allocate(warp)
                    except AllocationError as failure:
                        # The failing op traversed its chain and died inside
                        # warp_allocate (whose own events are already
                        # charged); its last iteration issued the candidate
                        # ballot but not the end-of-loop ballot.
                        upsert_iters += chain
                        decodes += chain - 1
                        shuffles += (base_sh + 1) * chain
                        ballot_adjust = -1
                        error = failure
                        break
                    atomic32 += 1  # the pointer-append CAS (cannot fail)
                    tail_store, tail_row = slab_map.location(bucket, chain - 1)
                    tail_store[tail_row, C.ADDRESS_LANE] = np.uint32(address)
                    store, row = table.alloc.slab_view(address)
                    slab_map.register_append(bucket, chain, store, row)
                    append_buckets.append(bucket)
                    append_ranks.append(replay_serial_l[position])
                    slots.extend([empty] * eps)
                    if kv:
                        model[1].extend([empty_value] * eps)
                    model[2] = chain + 1
                    dest = chain * eps
                    iters = chain + 2
                    upsert_iters += iters
                    decodes += chain + (1 if chain > 1 else 0)
                    shuffles += base_sh * iters + (iters - 1)
                if inplace:
                    # The 64-bit CAS rewrites the whole pair in place; the
                    # key-only REPLACE of a present key is a no-op (no CAS).
                    if kv:
                        model[1][dest] = value
                        atomic64 += 1
                        klog_bucket.append(bucket)
                        klog_pos.append(dest)
                        klog_word.append(key)
                        vlog_bucket.append(bucket)
                        vlog_pos.append(dest)
                        vlog_word.append(value)
                else:
                    slots[dest] = key
                    klog_bucket.append(bucket)
                    klog_pos.append(dest)
                    klog_word.append(key)
                    if kv:
                        model[1][dest] = value
                        atomic64 += 1
                        vlog_bucket.append(bucket)
                        vlog_pos.append(dest)
                        vlog_word.append(value)
                    else:
                        atomic32 += 1
            position += 1

        # One initial work-queue ballot per program *started*.  On the happy
        # path every program runs; after a mid-batch allocation failure only
        # programs up to (and including) the failing operation's ever issued
        # their initial ballot (generators are lazy under run_sequential),
        # and schedule-invariant operations only count if they precede it.
        if error is None:
            programs = int(program_start.sum())
            vec_search_serial = np.flatnonzero(vec_search)
            vec_delete_serial = np.flatnonzero(vec_delete)
        else:
            failed_rank = replay_serial_l[position]
            programs = int(program_start[: failed_rank + 1].sum())
            vec_search_serial = np.flatnonzero(vec_search[:failed_rank])
            vec_delete_serial = np.flatnonzero(vec_delete[:failed_rank])
        results = np.asarray(results_l, dtype=np.uint32)

        vec_tombstones: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if vec_search_serial.size or vec_delete_serial.size:
            codes, positions = snap.live_first_occurrences()
            if append_buckets:
                stride = len(serial_all) + 1
                append_codes = np.asarray(append_buckets, dtype=np.int64) * stride + np.asarray(
                    append_ranks, dtype=np.int64
                )
                append_codes.sort()

            def chains_at(miss_buckets: np.ndarray, miss_ranks: np.ndarray) -> np.ndarray:
                """Chain length of each bucket at the given serial rank.

                The snapshot chain plus every slab appended by an earlier
                (lower serial rank) operation on the same bucket.
                """
                chains = snap.chain_len[miss_buckets]
                if not append_buckets:
                    return chains
                lo = miss_buckets * stride
                return chains + (
                    np.searchsorted(append_codes, lo + miss_ranks)
                    - np.searchsorted(append_codes, lo)
                )

            if vec_search_serial.size:
                vec_ops = serial_all[vec_search_serial]
                vq_keys = keys[vec_ops]
                vq_buckets = buckets[vec_ops]
                found, index = first_occurrence(codes, combine_codes(vq_buckets, vq_keys))
                # A search past its key's (single) deletion rank misses; with
                # no deletion of the key, delete_rank sorts after everything.
                found &= vec_search_serial < delete_rank[inv[vec_search_serial]]
                pos = positions[index[found]]
                if error is None:
                    if kv:
                        results[vec_ops] = not_found
                        results[vec_ops[found]] = snap.values_at(vq_buckets[found], pos)
                    else:
                        results[vec_ops] = np.where(found, vq_keys, np.uint32(not_found))
                miss = ~found
                vec_iters = int((pos // eps + 1).sum()) + int(
                    chains_at(vq_buckets[miss], vec_search_serial[miss]).sum()
                )
                search_iters += vec_iters
                decodes += vec_iters - int(vec_ops.size)
                shuffles += 3 * vec_iters - (0 if kv else int(found.sum()))

            if vec_delete_serial.size:
                vd_ops = serial_all[vec_delete_serial]
                vd_keys = keys[vd_ops]
                vd_buckets = buckets[vd_ops]
                found, index = first_occurrence(codes, combine_codes(vd_buckets, vd_keys))
                pos = positions[index[found]]
                found_count = int(found.sum())
                results[vd_ops[found]] = 1
                miss = ~found
                vec_iters = int((pos // eps + 1).sum()) + int(
                    chains_at(vd_buckets[miss], vec_delete_serial[miss]).sum()
                )
                delete_iters += vec_iters
                decodes += vec_iters - int(vd_ops.size)
                shuffles += 3 * vec_iters - found_count
                write_words += found_count  # unique mode: one tombstone word
                vec_tombstones = (vd_buckets[found], pos)

        decode_wi, decode_shared = self._decode_cost
        total_iters = upsert_iters + delete_iters + search_iters
        tally.add("coalesced_read_transactions", total_iters)
        tally.add("warp_ballots", programs + 2 * total_iters + ballot_adjust)
        tally.add("warp_shuffles", shuffles)
        tally.add(
            "warp_instructions",
            (C.REPLACE_ITER_INSTRUCTIONS + 2) * upsert_iters
            + (C.DELETE_ITER_INSTRUCTIONS + 2) * delete_iters
            + (C.SEARCH_ITER_INSTRUCTIONS + 2) * search_iters
            + decode_wi * decodes,
        )
        tally.add("shared_reads", decode_shared * decodes)
        tally.add("atomic32", atomic32)
        tally.add("atomic64", atomic64)
        tally.add("uncoalesced_write_words", write_words)

        if vec_tombstones is not None:
            klog_bucket.extend(vec_tombstones[0].tolist())
            klog_pos.extend(vec_tombstones[1].tolist())
            klog_word.extend([tombstone] * len(vec_tombstones[0]))
        self._scatter_lane_writes(slab_map, klog_bucket, klog_pos, klog_word, 0)
        if kv:
            self._scatter_lane_writes(slab_map, vlog_bucket, vlog_pos, vlog_word, 1)
        tally.commit(counters)
        if error is not None:
            raise error
        return results

    def _scatter_lane_writes(
        self,
        slab_map: _SlabMap,
        log_buckets: List[int],
        log_pos: List[int],
        log_words: List[int],
        lane_offset: int,
    ) -> None:
        """Apply one channel of the concurrent write log to the stores.

        Entries are in schedule order and slot-granular; the last write to a
        slot wins, exactly as in the serial reference schedule.
        ``lane_offset`` selects the key lane (0) or value lane (1) of each
        logged slot position.
        """
        if not log_buckets:
            return
        snap = slab_map.snap
        buckets = np.asarray(log_buckets, dtype=np.int64)
        pos = np.asarray(log_pos, dtype=np.int64)
        words = np.asarray(log_words, dtype=np.uint32)
        slot_ids = buckets * (int(pos.max()) + 1) + pos
        # Keep the last write per slot: reverse before marking run starts.
        order = np.argsort(slot_ids, kind="stable")[::-1]
        keep = order[run_starts(slot_ids[order])]
        buckets, pos, words = buckets[keep], pos[keep], words[keep]
        store_idx, rows = slab_map.locations(buckets, pos // snap.eps)
        lanes = snap.key_lanes[pos % snap.eps] + lane_offset
        slab_map.scatter(store_idx, rows, (lanes, words))
