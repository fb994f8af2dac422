"""Vectorized bulk-execution backend: a counter-exact NumPy fast path.

Every :class:`~repro.core.slab_hash.SlabHash` batch — a bulk op is a batch
whose operations share one op code — reaches one reference driver, which
executes warps one generator step at a time: faithful to the paper's
warp-cooperative work sharing (Fig. 2), but the Python generator machinery
costs microseconds per simulated memory access.  This module executes the
same unscheduled batches with one phased kernel, :meth:`BulkExecutor.run`:
batched NumPy resolution plus a compact serial replay, which *synthesizes
the exact device-counter stream* the reference driver would have produced,
so the cost model, every figure, and every counter-based test see
bit-identical numbers.  Scheduler-interleaved batches always run the
reference generators, since seeded interleavings are the whole point there.

Why this is possible
--------------------
Without a scheduler the driver enqueues, per warp chunk, one program per
operation type present (insert, then delete, then search) and drains them
sequentially, and within a program the WCWS work queue processes one source
lane to completion before moving to the next (``first_set_lane`` over a
shrinking ballot).  A batch is therefore *strictly serial* in ``(chunk,
phase, lane)`` order (:func:`repro.gpusim.vectorize.phased_order`) — array
order for a bulk op — and no CAS ever fails.  Deletions and searches whose
key no insertion of the batch names resolve with rank arithmetic against one
snapshot: an operation preceded by ``d`` deletions of its key sees the key's
``d``-th live occurrence.  Insertions resolve with rank arithmetic too when
nothing else needs replaying, and otherwise by an incremental per-bucket
replay of the serial order.  State and counters are then applied in bulk;
the counters follow from closed-form per-iteration event profiles of the
three warp procedures:

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
follow occupied/tombstoned ones.  If a batch with an insertion touches a
bucket observed in a non-canonical state (only reachable by external
mutation of the stores), the kernel transparently falls back to the
reference driver for that call, which is correct in every state.  The
empty-vs-match scan races of a non-canonical bucket only affect insertions
into it: deletions and searches only look for live occurrences, so a batch
without insertions is exact in any layout, and a non-canonical bucket the
call does not touch cannot change its outcome.

When SlabAlloc raises (out of memory) mid-batch, the executor mirrors the
reference schedule's partial effects: every operation preceding the failing
one is applied (and counted), the failing operation's traversal up to the
failed allocation is counted, and the error propagates.  On both backends a
launch reserves the warp ids of all its chunks up front, so the table's warp
counter ends in the same place whether or not a chunk ever ran.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Vectorized migration kernel: live contents of buckets ``[lo, hi)``.

    Returns ``(keys, values, chained)``.  ``keys`` and ``values`` are in
    bucket scan order — the exact order the reference generator schedule
    observes when walking the same band with
    :meth:`~repro.core.slab_list.SlabListCollection.live_items` — with
    ``values`` ``None`` in key-only mode.  ``chained`` holds the addresses of
    the band's allocated (non-base) slabs, ordered by bucket, then by chain
    depth: the slabs a migration releases once the band has moved.  One
    grouped gather over the band's slabs (a
    :class:`~repro.core.slab_list.ChainTable` of the band's buckets only), no
    Python loop per slab, so the cost is O(band), not O(table).  Host-side
    and uncounted, like the other snapshot scans; the *re-insertion* of the
    band is what the migration charges to the device, through the table's
    batch kernel.
    """
    cfg = lists.config
    table = lists.chain_table(np.arange(lo, hi, dtype=np.int64))
    words = table.words()
    key_lanes = np.fromiter(cfg.key_lanes, dtype=np.int64)
    keys = words[:, key_lanes]
    live = (keys != C.EMPTY_KEY) & (keys != C.DELETED_KEY)
    rows, cols = np.nonzero(live)
    out_keys = keys[rows, cols]
    out_values = words[rows, key_lanes[cols] + 1] if cfg.key_value else None
    return out_keys, out_values, table.allocated_addresses()


def _count_earlier(
    event_groups: np.ndarray,
    event_ranks: np.ndarray,
    groups: np.ndarray,
    ranks: np.ndarray,
    stride: int,
) -> np.ndarray:
    """Per query, how many events of its group have a lower serial rank.

    Counts the deletions of a key that precede an operation, and the slabs
    appended to a bucket before it; every rank must be below ``stride``.
    """
    codes = np.sort(event_groups.astype(np.int64) * stride + event_ranks)
    lo = groups.astype(np.int64) * stride
    return np.searchsorted(codes, lo + ranks) - np.searchsorted(codes, lo)


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
    """Resolves (bucket, chain depth) to a slab address.

    Starts from the snapshot's ChainTable and grows as the executor appends
    slabs, so end-of-call writes can be scattered in two groups: base slabs
    (row ``bucket`` of the base-slab array) and arena slabs (by address).
    """

    def __init__(self, snap: _Snapshot) -> None:
        self.snap = snap
        #: (bucket, depth) -> address of an appended slab
        self.appended_by_bucket: Dict[Tuple[int, int], int] = {}
        self._appended_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def append(self, bucket: int, depth: int, address: int) -> None:
        """Link the new slab ``address`` at ``depth`` of ``bucket``'s chain.

        Writes its address into the tail slab (at ``depth - 1``) and records
        it for later lookups.
        """
        ct = self.snap.ct
        chain = int(self.snap.chain_len[bucket])
        if depth - 1 < chain:
            tail = int(ct.addresses[int(self.snap.offsets[bucket]) + depth - 1])
        else:
            tail = self.appended_by_bucket[(bucket, depth - 1)]
        if tail == C.BASE_SLAB:
            ct.base_slabs[bucket, C.ADDRESS_LANE] = address
        else:
            store, row = ct.alloc.slab_view(tail)
            store[row, C.ADDRESS_LANE] = address
        self.appended_by_bucket[(bucket, depth)] = address
        self._appended_cache = None

    def _appended_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(per-bucket offsets, addresses) of appended slabs, depth-sorted.

        A bucket's appended slabs occupy consecutive depths starting at its
        original chain length, so sorting by (bucket, depth) makes them
        addressable as ``offset[bucket] + depth - chain_len[bucket]``.
        """
        if self._appended_cache is None:
            entries = sorted(self.appended_by_bucket.items())
            buckets = np.fromiter((key[0] for key, _ in entries), np.int64, len(entries))
            offsets = np.zeros(self.snap.num_buckets + 1, dtype=np.int64)
            np.cumsum(np.bincount(buckets, minlength=self.snap.num_buckets), out=offsets[1:])
            addresses = np.fromiter((address for _, address in entries), np.int64, len(entries))
            self._appended_cache = (offsets, addresses)
        return self._appended_cache

    def scatter(
        self,
        buckets: np.ndarray,
        depths: np.ndarray,
        *writes: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Apply one or more (lanes, values) write sets at slabs ``(buckets, depths)``.

        Writes sharing slab coordinates (e.g. key lane and value lane) are
        passed together so the slabs are resolved once.
        """
        snap = self.snap
        addresses = np.empty(len(buckets), dtype=np.int64)
        in_chain = depths < snap.chain_len[buckets]
        addresses[in_chain] = snap.ct.addresses[snap.offsets[buckets[in_chain]] + depths[in_chain]]
        appended = ~in_chain
        if appended.any():
            offsets, app_addresses = self._appended_arrays()
            app_buckets = buckets[appended]
            addresses[appended] = app_addresses[
                offsets[app_buckets] + depths[appended] - snap.chain_len[app_buckets]
            ]
        base = addresses == C.BASE_SLAB
        if base.all():
            for lanes, values in writes:
                snap.ct.base_slabs[buckets, lanes] = values
            return
        at_base = np.flatnonzero(base)
        in_arena = np.flatnonzero(~base)
        for lanes, values in writes:
            snap.ct.base_slabs[buckets[at_base], lanes[at_base]] = values[at_base]
            snap.ct.alloc.write_slabs(addresses[in_arena], values[in_arena], lanes[in_arena])


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

    @property
    def _decode_cost(self) -> Tuple[int, int]:
        """(warp instructions, shared reads) per non-base-slab address decode.

        Mirrors :meth:`~repro.core.slab_alloc.SlabAlloc.charge_address_decode`.
        """
        return (1, 0) if self.table.alloc.light else (8, 1)

    def run(
        self, op_codes: np.ndarray, keys: np.ndarray, values: Optional[np.ndarray]
    ) -> np.ndarray:
        """Execute one unscheduled batch on the phased serial schedule.

        Mirrors ``run_sequential`` over the reference driver's per-chunk
        (insert, delete, search) programs: operations execute serially in
        ``(chunk, phase, lane)`` order, so results, final table state and the
        synthesized counters are bit-identical to the reference generators.
        A bulk op is a batch whose operations share one op code.  The batch
        splits into two resolution strategies:

        * **Schedule-invariant operations** resolve vectorized against the
          snapshot: every deletion and search whose key no insertion of the
          batch names.  (With duplicates allowed, a deletion in a bucket an
          insertion targets is not one: it recycles its slot as EMPTY, which
          the insertion may claim.)  Such a key only ever loses its first
          live occurrence, so an operation preceded by ``d`` deletions of its
          key sees the key's ``d``-th live snapshot occurrence: a deletion
          tombstones it, a search returns it.  Without one the operation
          misses after traversing the whole chain, whose length at the
          operation's rank is the snapshot chain plus the slabs earlier
          insertions appended, read off the append log.
        * **Every other operation** is replayed serially against incremental
          per-bucket slot lists.  When only insertions replay, the replay is
          the REPLACE/INSERT rank arithmetic against the snapshot instead:
          the vectorized tombstones only turn live slots into non-EMPTY
          tombstones, which neither the canonical layout nor the occupied
          counts depend on.  Slab appends call the real allocator under the
          triggering warp's id in global order.

        State changes are collected in a write log (slot-granular, last write
        wins) and scattered into the stores in one vectorized pass.  Returns
        the per-operation results in ``concurrent_batch``'s conventions.
        """
        table = self.table
        cfg = table.config
        n = len(keys)
        buckets = table.hash_fn.hash_array(keys)
        snap = _Snapshot(table.lists, cfg, np.unique(buckets))
        inserts = op_codes == C.OP_INSERT
        if cfg.unique_keys and bool(inserts.any()) and not snap.is_canonical():
            # Mid-chain EMPTY slots (only reachable by external mutation) in a
            # bucket the batch touches: REPLACE semantics then depend on
            # empty-vs-match scan races only the reference schedule resolves.
            return table._reference_concurrent_batch(op_codes, keys, values, None)

        # Mirror the reference launch, which reserves every chunk's warp id.
        table.device.launch_kernel()
        base_warp = table._warp_counter
        table._warp_counter += math.ceil(n / WARP_SIZE)
        results = np.zeros(n, dtype=np.uint32)
        if n == 0:
            return results

        # Operations with codes outside {INSERT, DELETE, SEARCH} join no
        # program in the reference driver; they occupy warp slots but execute
        # nothing and leave their result at 0.
        phases_all = np.full(n, -1, dtype=np.int64)
        phases_all[inserts] = 0
        phases_all[op_codes == C.OP_DELETE] = 1
        phases_all[op_codes == C.OP_SEARCH] = 2
        valid = np.flatnonzero(phases_all >= 0)
        order, program_start = phased_order(valid // WARP_SIZE, phases_all[valid])
        serial_all = valid[order]  # op indices in serial execution order
        phases_serial = phases_all[serial_all]
        skeys = keys[serial_all]
        is_insert = phases_serial == 0
        is_delete = phases_serial == 1

        invariant = ~is_insert
        if bool(is_insert.any()) and bool(invariant.any()):
            invariant &= ~np.isin(skeys, skeys[is_insert])
            if not cfg.unique_keys:
                sbuckets = buckets[serial_all]
                invariant &= ~(is_delete & np.isin(sbuckets, sbuckets[is_insert]))
        vec_serial = np.flatnonzero(invariant)
        replay_serial = np.flatnonzero(~invariant)
        replay_ops_arr = serial_all[replay_serial]

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

        pure_insert = bool(replay_serial.size) and not phases_serial[replay_serial].any()
        if pure_insert:
            # Only insertions replay (insert batches, and the Gamma mixes):
            # against the static snapshot they resolve by rank arithmetic.
            r_keys = keys[replay_ops_arr]
            r_buckets = buckets[replay_ops_arr]
            if replace:
                dest, consuming = self._resolve_unique(snap, r_keys, r_buckets)
            else:
                dest, consuming = self._resolve_duplicates(snap, r_buckets)
            depth = dest // eps
            # A slot-consuming op whose destination is the first slot past the
            # current capacity appends a slab: it traverses to the tail,
            # allocates, CASes the pointer, re-reads the tail and follows.
            appends = np.flatnonzero(
                consuming & (dest % eps == 0) & (depth >= snap.chain_len[r_buckets])
            )
            done = len(r_keys)
            for local in appends.tolist():
                warp = Warp(base_warp + int(replay_ops_arr[local]) // WARP_SIZE, counters)
                try:
                    address = table.alloc.warp_allocate(warp)
                except AllocationError as failure:
                    done, error = local, failure
                    break
                atomic32 += 1  # the pointer-append CAS (cannot fail)
                slab_map.append(int(r_buckets[local]), int(depth[local]), address)
            appended = appends[appends < done]
            append_buckets = r_buckets[appended].tolist()
            append_ranks = replay_serial[appended].tolist()
            # An insertion visits its destination's slab and those before it,
            # plus the re-read tail when it appends.
            iters = int(depth[:done].sum()) + done + len(appended)
            upsert_iters += iters
            decodes += int(depth[:done].sum()) + int((depth[appended] > 1).sum())
            shuffles += base_sh * iters + (iters - done)
            if kv:
                atomic64 += done
            else:
                # Key-only REPLACE of an already-present key is a no-op (no
                # CAS); only slot-claiming insertions issue the 32-bit CAS.
                atomic32 += int(consuming[:done].sum())
            if error is not None:
                # The failing op traversed to its chain's tail and died in
                # warp_allocate, as in the replay loop below.
                chain = int(depth[done])
                upsert_iters += chain
                decodes += chain - 1
                shuffles += (base_sh + 1) * chain
                ballot_adjust = -1
                position = done
            self._apply_insert_writes(
                r_keys, values[replay_ops_arr] if kv else None,
                slab_map, r_buckets, dest, consuming, done,
            )

        # Python-native views for the replay loop (plain ints and list slices
        # are much faster than NumPy scalars and per-bucket array calls).
        if pure_insert or not replay_serial.size:
            replay_ops, replay_phases, replay_keys, replay_buckets = [], [], [], []
            replay_results: List[int] = []
        else:
            replay_ops = replay_ops_arr.tolist()
            replay_phases = phases_serial[replay_serial].tolist()
            replay_keys = keys[replay_ops_arr].tolist()
            replay_buckets = buckets[replay_ops_arr].tolist()
            replay_ranks = replay_serial.tolist()
            replay_results = [0] * len(replay_ops)
            values_l = values.tolist() if kv else None
            slot_keys_flat = snap.slot_key
            vals_flat = snap.words[:, snap.key_lanes + 1].ravel() if kv else None
            #: bucket -> [slot keys (scan order), slot values or None, chain]
            models: Dict[int, List[object]] = {}

        for op, phase, bucket, key in zip(replay_ops, replay_phases, replay_buckets, replay_keys):
            try:
                model = models[bucket]
            except KeyError:
                # Lazy per-bucket materialization: only buckets the replay
                # actually touches pay the array-to-list conversion.
                chain_len = int(snap.chain_len[bucket])
                lo = int(snap.offsets[bucket]) * eps
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
                    replay_results[position] = not_found
                else:
                    iters = slot // eps + 1
                    shuffles += 3 * iters - (0 if kv else 1)
                    replay_results[position] = model[1][slot] if kv else key
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
                    replay_results[position] = 1
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
                    slab_map.append(bucket, chain, address)
                    append_buckets.append(bucket)
                    append_ranks.append(replay_ranks[position])
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
        if replay_results:
            results[replay_ops_arr] = replay_results

        # One initial work-queue ballot per program *started*.  On the happy
        # path every program runs; after a mid-batch allocation failure only
        # programs up to (and including) the failing operation's ever issued
        # their initial ballot (generators are lazy under run_sequential),
        # and schedule-invariant operations only count if they precede it.
        if error is None:
            programs = int(program_start.sum())
        else:
            failed_rank = int(replay_serial[position])
            programs = int(program_start[: failed_rank + 1].sum())
            vec_serial = vec_serial[vec_serial < failed_rank]

        if vec_serial.size:
            v_ops = serial_all[vec_serial]
            v_keys = keys[v_ops]
            v_buckets = buckets[v_ops]
            v_delete = is_delete[vec_serial]
            stride = len(serial_all) + 1  # above every serial rank
            # Live slots sorted by (bucket, key, scan position): the d-th live
            # occurrence of a key, d = the deletions of the key ranked before
            # the operation, sits d places after its first one.
            codes, positions = snap.live_sorted()
            query = combine_codes(v_buckets, v_keys)
            slot = np.searchsorted(codes, query)
            if is_delete.any():
                slot += _count_earlier(
                    skeys[is_delete], np.flatnonzero(is_delete), v_keys, vec_serial, stride
                )
            found = slot < len(codes)
            found[found] = codes[slot[found]] == query[found]
            pos = positions[slot[found]]
            iters = snap.chain_len[v_buckets]
            if append_buckets:
                iters = iters + _count_earlier(
                    np.asarray(append_buckets, dtype=np.int64),
                    np.asarray(append_ranks, dtype=np.int64),
                    v_buckets, vec_serial, stride,
                )
            iters[found] = pos // eps + 1
            vec_iters = int(iters.sum())
            vec_delete_iters = int(iters[v_delete].sum())
            delete_iters += vec_delete_iters
            search_iters += vec_iters - vec_delete_iters
            decodes += vec_iters - len(v_ops)
            hit_delete = found & v_delete
            hit_search = found & ~v_delete
            deleted = int(hit_delete.sum())
            shuffles += 3 * vec_iters - deleted - (0 if kv else int(hit_search.sum()))
            write_words += delete_words * deleted

            out = np.where(v_delete, np.uint32(0), np.uint32(not_found))
            out[hit_delete] = 1
            if kv:
                out[hit_search] = snap.values_at(v_buckets[hit_search], pos[hit_search[found]])
            else:
                out[hit_search] = v_keys[hit_search]
            results[v_ops] = out
            if deleted:
                # Distinct slots that no replayed operation writes: a replayed
                # operation in the same bucket never touches the deleted key,
                # and with duplicates allowed none shares the bucket at all.
                t_pos = pos[v_delete[found]]
                lanes = snap.key_lanes[t_pos % eps]
                writes = [(lanes, np.full(deleted, tombstone, dtype=np.uint32))]
                if kv and not replace:
                    # Recycled slots must read as a full EMPTY_PAIR (cf. _mark_deleted).
                    writes.append((lanes + 1, np.full(deleted, empty_value, dtype=np.uint32)))
                slab_map.scatter(v_buckets[hit_delete], t_pos // eps, *writes)

        decode_wi, decode_shared = self._decode_cost
        total_iters = upsert_iters + delete_iters + search_iters
        tally.add("coalesced_read_transactions", total_iters)
        tally.add("warp_ballots", programs + 2 * total_iters + ballot_adjust)
        tally.add("warp_shuffles", shuffles)
        # Per iteration: charge(ITER) + first_set_lane(work queue) +
        # first_set_lane(dest/found).
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

        self._scatter_lane_writes(slab_map, klog_bucket, klog_pos, klog_word, 0)
        if kv:
            self._scatter_lane_writes(slab_map, vlog_bucket, vlog_pos, vlog_word, 1)
        tally.commit(counters)
        if error is not None:
            raise error
        return results

    # ------------------------------------------------------------------ #
    # Insertion rank arithmetic (only insertions replay)
    # ------------------------------------------------------------------ #

    def _resolve_unique(
        self, snap: _Snapshot, keys: np.ndarray, buckets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """REPLACE destinations: (dest position, slot-consuming mask).

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
        return dest, consuming

    def _resolve_duplicates(
        self, snap: _Snapshot, buckets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
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
        return dest, np.ones(n, dtype=bool)

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

        lanes = snap.key_lanes[dest[keep] % snap.eps]
        writes = [(lanes, keys[keep])]
        if cfg.key_value:
            writes.append((lanes + 1, values[keep]))
        slab_map.scatter(buckets[keep], dest[keep] // snap.eps, *writes)

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
        lanes = snap.key_lanes[pos % snap.eps] + lane_offset
        slab_map.scatter(buckets, pos // snap.eps, (lanes, words))
