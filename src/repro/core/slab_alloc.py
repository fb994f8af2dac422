"""SlabAlloc: the paper's warp-synchronous dynamic slab allocator (Section V).

Memory is organized hierarchically: ``num_super_blocks`` super blocks, each
divided into ``num_memory_blocks`` memory blocks, each holding
``units_per_block`` (default 1024) fixed-size 128-byte memory units (slabs).
Availability of the 1024 units of a memory block is tracked by 32 × 32-bit
bitmap words — exactly one word per warp lane, so a warp can cache its
*resident block*'s entire bitmap in registers.

Allocation protocol (warp-cooperative):

1. Every warp of a kernel owns a resident memory block, chosen by hashing
   ``(global warp id, resident-change attempt)`` into a (super block, memory
   block) pair; the warp reads the block's 32 bitmap words with a single
   coalesced access and caches them in registers.  Registers live as long
   as the kernel: the allocator forgets every resident when the device
   launches the next kernel (whose warps have fresh ids).
2. On an allocation request, lanes inspect their cached bitmap word, announce
   free units with a ballot, and the first lane with a free unit attempts to
   claim it by atomically OR-ing the corresponding bit into the *global*
   bitmap word.
3. If the bit was already set (another warp claimed it first), the lane
   refreshes its cached word from the atomic's return value and the warp
   retries.  If the whole resident block is full, the warp performs a
   *resident change*: it re-hashes to a new block and reads that block's
   bitmap (one coalesced access).
4. After ``growth_threshold`` resident changes within a single request, the
   allocator adds super blocks (up to the 8-bit addressing limit) and the hash
   range grows accordingly.

Deallocation atomically clears the unit's bit in the *global* bitmap (and, in
this simulation, re-initializes the unit's words to ``EMPTY_KEY`` so a
recycled slab reads as empty, which the CUDA implementation achieves by
memsetting pools).  It touches no warp's cached bitmap: a warp resident in
the freed unit's block sees the free when it next reads the block's words.

Addresses are the 32-bit layouts of :mod:`repro.core.address`.  The regular
allocator stores each super block's 64-bit base pointer in shared memory, so
every address decode on a lookup path costs one shared-memory read.
SlabAlloc-light (``light=True``) places all super blocks in one contiguous
array and skips that read at the price of a 4 GB capacity limit, which the
constructor and growth enforce.  In this simulator both variants keep the same
storage, the *slab arena*: the super blocks stored contiguously, one mapping
per growth step (so at most four with the default configuration, and one until
the allocator first grows).  A slab's row is plain address arithmetic, and the
host-side vectorized reads and writes (:meth:`SlabAlloc.read_slabs`,
:meth:`SlabAlloc.write_slabs`) loop only over those few mappings.  The device
cost of a decode is modelled separately, in
:meth:`SlabAlloc.charge_address_decode`.
"""

from __future__ import annotations

import bisect
import mmap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core import address as addr
from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.hashing import hash_pair
from repro.gpusim.device import Device
from repro.gpusim.errors import AllocationError, SlabAllocExhausted
from repro.gpusim.intrinsics import ballot_from_bools, first_set_lane
from repro.gpusim.memory import GlobalMemory
from repro.gpusim.warp import Warp

__all__ = ["SlabAlloc", "ResidentBlock"]

_FULL_WORD = 0xFFFFFFFF
_BITMAP_WORDS = 32

#: Capacity limit of SlabAlloc-light: a single contiguous array under 4 GB.
LIGHT_CAPACITY_BYTES = 4 * 1024**3


def _fields(addresses: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized, unchecked :func:`~repro.core.address.decode_address` of int64 addresses."""
    units = addresses & ((1 << addr.UNIT_BITS) - 1)
    blocks = (addresses >> addr.UNIT_BITS) & ((1 << addr.BLOCK_BITS) - 1)
    return addresses >> (addr.UNIT_BITS + addr.BLOCK_BITS), blocks, units


@dataclass
class ResidentBlock:
    """Per-warp allocator state: the resident block and its register-cached bitmap."""

    super_block: int
    block: int
    cached_bitmap: np.ndarray
    attempt: int = 0
    changes_this_request: int = field(default=0)


class SlabAlloc:
    """Warp-synchronous allocator of fixed-size 128-byte slabs.

    Parameters
    ----------
    device:
        The simulated device whose counters receive the allocator's events.
    config:
        Hierarchy sizing; defaults to the paper's 32 × 256 × 1024 configuration.
    slab_words:
        Words per memory unit (32 words = 128 bytes).
    seed:
        Seed mixed into the resident-block hash functions.
    light:
        ``True`` selects SlabAlloc-light: one contiguous pool of at most 4 GB
        (larger configs raise ``ValueError`` before anything is mapped, and
        growth stops at the bound), so an address decode needs no
        shared-memory read.
    """

    def __init__(
        self,
        device: Device,
        config: SlabAllocConfig | None = None,
        *,
        slab_words: int = C.SLAB_WORDS,
        seed: int = 0,
        light: bool = False,
    ) -> None:
        self.device = device
        self.mem = GlobalMemory(device.counters)
        self.config = config or SlabAllocConfig()
        self.slab_words = int(slab_words)
        capacity_bytes = self.config.capacity_units * 4 * self.slab_words
        if light and capacity_bytes > LIGHT_CAPACITY_BYTES:
            raise ValueError(
                "SlabAlloc-light requires all super blocks to fit in one contiguous "
                f"allocation of at most 4 GB; requested {capacity_bytes / 2**30:.1f} GB. "
                "Use the regular SlabAlloc for larger capacities."
            )
        self.seed = int(seed)
        self.light = bool(light)

        #: Current number of super blocks (grows up to config.max_super_blocks).
        self.num_super_blocks = 0
        #: Bitmap storage, ``(num_super_blocks, num_memory_blocks, 32)`` words.
        #: Growth replaces it with a larger copy, so callers index it afresh
        #: rather than hold a view.
        self._bitmap = self._new_bitmap(0)
        #: The slab arena: unit storage for every super block, stored
        #: contiguously in one anonymous no-huge-page mapping per growth step
        #: (see _add_super_blocks), so physical memory follows the slabs
        #: handed out one base page at a time.  Segment ``i`` starts at super
        #: block ``_segment_first[i]``; a slab's row in it is
        #: ``((super_block - first) * num_memory_blocks + block) *
        #: units_per_block + unit``.  Growth appends a segment and never moves
        #: one: a reference warp program holds a slab_view across yields,
        #: while another warp's allocation may grow the pool.
        self._arena: List[np.ndarray] = []
        self._segment_first: List[int] = []
        #: Resident blocks of the warps of the current kernel, by warp id.
        self._resident: Dict[int, ResidentBlock] = {}
        #: The device's ``kernel_launches`` count when ``_resident`` was last
        #: used; a different count means a new kernel, so the map is cleared.
        self._resident_launch = -1
        #: Number of currently allocated units (host-side bookkeeping).
        self._allocated_units = 0
        #: Optional fault hook (a :class:`repro.faults.FaultPlan` or scoped
        #: view); consulted at the ``alloc.warp_allocate`` site when set.
        self.faults = None
        self._add_super_blocks(self.config.num_super_blocks)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def warp_allocate(self, warp: Warp) -> int:
        """Allocate one memory unit on behalf of ``warp``; returns its 32-bit address.

        This is the ``SlabAlloc::warp_allocate()`` of the paper's pseudocode:
        the whole warp cooperates, and in the uncontended case the allocation
        costs exactly one 32-bit atomic operation.
        """
        if self.faults is not None:
            # Deterministic fault site: a plan can exhaust the allocator on
            # demand (raises SlabAllocExhausted) or slow a request down.
            self.faults.check("alloc.warp_allocate")
        state = self._resident_state(warp)
        state.changes_this_request = 0

        while True:
            warp.charge(C.ALLOC_ATTEMPT_INSTRUCTIONS)
            free_mask = warp.ballot(state.cached_bitmap != _FULL_WORD)
            lane = first_set_lane(free_mask)
            if lane < 0:
                state = self._change_resident(warp, state)
                continue

            cached_word = int(state.cached_bitmap[lane])
            bit = first_set_lane(~cached_word & _FULL_WORD)
            unit = lane * 32 + bit
            old = self.mem.atomic_or32(
                self._bitmap, (state.super_block, state.block, lane), 1 << bit
            )
            state.cached_bitmap[lane] = np.uint32(old | (1 << bit))
            if old & (1 << bit):
                # Another warp claimed this unit since our last bitmap read;
                # the cached word is now refreshed, retry.
                continue

            self.device.counters.allocations += 1
            self._allocated_units += 1
            # Hand the slab out reading all-EMPTY.  The arena starts as
            # untouched zero pages (see _new_segment), so the empty pattern
            # is written per 128-byte slab at allocation time; the write
            # faults in at most the one base page (4 KiB) that holds the
            # slab.  A warp's resident block hashes anywhere in the pool, so
            # an eager whole-block fill would fault in fresh pages on nearly
            # every allocation.
            store, row = self._location(state.super_block, state.block, unit)
            store[row] = C.EMPTY_KEY
            return addr.make_address(state.super_block, state.block, unit)

    def deallocate(self, warp: Warp, address: Union[int, np.ndarray]) -> None:
        """Return memory units to the allocator (atomically clears their bitmap bits).

        ``address`` is one slab address or an array of them, released in
        order in one vectorized pass: per unit ``DEALLOC_INSTRUCTIONS``, one
        ``atomic_and32`` and the recycle write of a slab that is not already
        empty.  No warp's cached bitmap changes.  An invalid or out-of-range
        address, or a double free (also of an address repeated in the
        array), raises after the units before it are released.
        """
        addresses = np.atleast_1d(np.asarray(address, dtype=np.int64))
        bad = self._first_unreleasable(addresses)
        self._release_units(warp, addresses[:bad])
        if bad == len(addresses):
            return
        rejected = int(addresses[bad])
        super_block, block, unit = addr.decode_address(rejected)
        self._check_bounds(super_block, block, unit)
        # An in-pool address is rejected only when its bit is already clear:
        # the atomic is charged, and it finds nothing to free.
        warp.charge(C.DEALLOC_INSTRUCTIONS)
        lane, bit = divmod(unit, 32)
        self.mem.atomic_and32(self._bitmap, (super_block, block, lane), _FULL_WORD ^ (1 << bit))
        raise AllocationError(
            f"double free of slab address 0x{rejected:08X} (unit was not allocated)"
        )

    def slab_view(self, address: int) -> Tuple[np.ndarray, int]:
        """Return ``(unit_store, row)`` such that ``unit_store[row]`` is the slab's words.

        ``unit_store`` is the arena segment holding the slab; it stays valid
        (and in place) when the allocator grows.
        """
        super_block, block, unit = addr.decode_address(address)
        self._check_bounds(super_block, block, unit)
        return self._location(super_block, block, unit)

    def read_slabs(self, addresses: np.ndarray, lane: Optional[int] = None) -> np.ndarray:
        """Vectorized :meth:`slab_view` read: the words of the slabs at ``addresses``.

        Returns a ``(len(addresses), slab_words)`` matrix, or the ``(len(addresses),)``
        words of one ``lane``.  One gather per arena segment.  Host-side
        (uncounted), like the other introspection helpers.
        """
        segments, rows = self._arena_rows(addresses)
        columns = slice(None) if lane is None else lane
        if segments is None:
            return self._arena[0][rows, columns]
        shape = (len(rows), self.slab_words) if lane is None else (len(rows),)
        out = np.empty(shape, dtype=np.uint32)
        for index, segment in enumerate(self._arena):
            chosen = segments == index
            out[chosen] = segment[rows[chosen], columns]
        return out

    def write_slabs(
        self, addresses: np.ndarray, values: np.ndarray, lanes: Optional[np.ndarray] = None
    ) -> None:
        """Vectorized write into the slabs at ``addresses``; host-side, uncounted.

        Writes whole slabs (``values`` is ``(len(addresses), slab_words)``),
        or, with ``lanes``, the one word ``values[i]`` at lane ``lanes[i]`` of
        slab ``addresses[i]``.  One scatter per arena segment.
        """
        segments, rows = self._arena_rows(addresses)
        values = np.asarray(values, dtype=np.uint32)
        for index, segment in enumerate(self._arena):
            chosen = slice(None) if segments is None else segments == index
            if lanes is None:
                segment[rows[chosen]] = values[chosen]
            else:
                segment[rows[chosen], lanes[chosen]] = values[chosen]

    def charge_address_decode(self) -> None:
        """Charge the cost of turning a 32-bit layout into a 64-bit pointer.

        The regular SlabAlloc keeps each super block's base pointer in shared
        memory, so every decode on a lookup path costs one shared-memory read
        plus the layout unpacking arithmetic; SlabAlloc-light stores everything
        contiguously so the decode is a single add off one global base pointer.
        This is the difference behind the paper's "up to 25 % faster searches
        with SlabAlloc-light" observation.
        """
        if self.light:
            self.device.counters.warp_instructions += 1
        else:
            self.mem.shared_read()
            self.device.counters.warp_instructions += 8

    def is_allocated(self, address: int) -> bool:
        """True if the unit at ``address`` is currently allocated."""
        super_block, block, unit = addr.decode_address(address)
        self._check_bounds(super_block, block, unit)
        lane, bit = divmod(unit, 32)
        return bool(int(self._bitmap[super_block, block, lane]) & (1 << bit))

    # ------------------------------------------------------------------ #
    # State export / restore (snapshot hooks, see repro.persist.snapshot)
    # ------------------------------------------------------------------ #

    def export_units(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every allocated unit's ``(addresses, words)``, in address order.

        Host-side and uncounted (like the other introspection helpers).  The
        pair fully determines the allocator's observable state: bitmaps are
        exactly the set bits of ``addresses`` (deallocation re-initializes
        units, so unallocated units always read as empty slabs), and
        ``words[i]`` is the 32-word content of the slab at ``addresses[i]``.
        """
        # Scan whole bitmap words and expand only the set ones to bits, so the
        # cost follows the allocated units rather than the capacity.  Words
        # past units_per_block are _new_bitmap's permanently set tail
        # padding, not real units.  Row-major order over (super block,
        # block, word, bit) is address order.
        bitmaps = self._bitmap[:, :, : self.config.units_per_block // 32]
        supers, blocks, lanes = np.nonzero(bitmaps)
        set_bits = (bitmaps[supers, blocks, lanes, None] >> np.arange(32, dtype=np.uint32)) & 1
        word, bits = np.nonzero(set_bits)
        addresses = (
            (supers[word] << (addr.UNIT_BITS + addr.BLOCK_BITS))
            | (blocks[word] << addr.UNIT_BITS)
            | (lanes[word] * 32 + bits)
        )
        return addresses.astype(np.uint32), self.read_slabs(addresses)

    def restore_units(
        self,
        addresses: np.ndarray,
        words: np.ndarray,
        *,
        num_super_blocks: Optional[int] = None,
    ) -> None:
        """Rebuild a pristine allocator's state from :meth:`export_units` output.

        Sets the bitmap bit and writes the slab words of every address, and
        grows to ``num_super_blocks`` first so a snapshot taken after
        allocator growth restores to the same hash range.  Host-side and
        uncounted; must run on a freshly constructed allocator.
        """
        if self._allocated_units:
            raise AllocationError(
                "restore_units needs a pristine allocator "
                f"({self._allocated_units} units already allocated)"
            )
        if num_super_blocks is not None:
            if num_super_blocks < self.num_super_blocks:
                raise AllocationError(
                    f"cannot shrink the allocator to {num_super_blocks} super blocks "
                    f"(configured with {self.num_super_blocks})"
                )
            # Grow in the steps _grow takes (doubling), one arena segment
            # each, so a restored allocator has the original's layout.
            while self.num_super_blocks < num_super_blocks:
                self._add_super_blocks(
                    min(self.num_super_blocks, num_super_blocks - self.num_super_blocks)
                )
        addresses = np.asarray(addresses, dtype=np.int64)
        words = np.asarray(words, dtype=np.uint32)
        if words.shape != (len(addresses), self.slab_words):
            raise AllocationError(
                f"restore_units: words shape {words.shape} does not match "
                f"{(len(addresses), self.slab_words)}"
            )
        if not len(addresses):
            self._allocated_units = 0
            return
        if np.unique(addresses).size != addresses.size:
            raise AllocationError("restore_units: duplicate addresses in input")
        # Vectorized mirror of export_units: scatter the slab words into the
        # arena (which rejects any address outside the pool), then set the
        # bitmap bits.
        self.write_slabs(addresses, words)
        supers, blocks, units = _fields(addresses)
        lanes, bits = np.divmod(units, 32)
        np.bitwise_or.at(
            self._bitmap, (supers, blocks, lanes), np.uint32(1) << bits.astype(np.uint32)
        )
        self._allocated_units = len(addresses)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def allocated_units(self) -> int:
        """Number of memory units currently allocated."""
        return self._allocated_units

    @property
    def capacity_units(self) -> int:
        """Total units addressable with the current number of super blocks."""
        return self.num_super_blocks * self.config.units_per_super_block

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_units * 4 * self.slab_words

    @property
    def allocated_bytes(self) -> int:
        return self._allocated_units * 4 * self.slab_words

    def occupancy(self) -> float:
        """Fraction of the allocator's capacity currently in use."""
        return self._allocated_units / self.capacity_units

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _new_bitmap(self, count: int) -> np.ndarray:
        """Bitmap words of ``count`` fresh super blocks."""
        bitmap = np.zeros(
            (count, self.config.num_memory_blocks, _BITMAP_WORDS), dtype=np.uint32
        )
        usable_words = self.config.units_per_block // 32
        if usable_words < _BITMAP_WORDS:
            # Mark the non-existent tail units as permanently allocated.
            bitmap[:, :, usable_words:] = _FULL_WORD
        return bitmap

    def _add_super_blocks(self, count: int) -> None:
        """Add ``count`` super blocks: their bitmaps and one arena segment."""
        rows = count * self.config.units_per_super_block
        # One anonymous mapping per segment: the kernel hands out zero pages
        # lazily, so reserving the segment costs no memory, and
        # MADV_NOHUGEPAGE keeps each first touch to a single base page
        # (4 KiB), whatever the host's THP mode.  (np.zeros is covered by
        # NumPy's huge-page hint, so under THP ``madvise`` one slab write
        # there faults in and zeroes a whole 2 MiB page.)  The array keeps
        # the mapping alive; it is unmapped when the last view goes.
        mapping = mmap.mmap(-1, rows * self.slab_words * 4)
        no_huge_pages = getattr(mmap, "MADV_NOHUGEPAGE", None)
        if no_huge_pages is not None:
            try:
                mapping.madvise(no_huge_pages)
            except OSError:
                # A kernel built without THP rejects the advice (EINVAL); it
                # has no huge pages to opt out of.
                pass
        self._segment_first.append(self.num_super_blocks)
        self._arena.append(
            np.frombuffer(mapping, dtype=np.uint32).reshape(rows, self.slab_words)
        )
        bitmap = self._new_bitmap(count)
        if self.num_super_blocks:
            # Growth copies the bitmaps.  The constructor's are used as
            # allocated, so their zero pages are touched only as warps read
            # and claim them.
            bitmap = np.concatenate([self._bitmap, bitmap])
        self._bitmap = bitmap
        self.num_super_blocks += count

    def _location(self, super_block: int, block: int, unit: int) -> Tuple[np.ndarray, int]:
        """``(segment, row)`` of a slab in the arena."""
        index = bisect.bisect_right(self._segment_first, super_block) - 1
        local = super_block - self._segment_first[index]
        row = (local * self.config.num_memory_blocks + block) * self.config.units_per_block + unit
        return self._arena[index], row

    def _arena_rows(self, addresses: np.ndarray) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Vectorized :meth:`_location`: ``(segment indexes, rows)`` of ``addresses``.

        The segment indexes are ``None`` while the arena is one segment.
        Raises :class:`AllocationError` for an address outside the pool.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        supers, blocks, units = _fields(addresses)
        if addresses.size and (
            int(addresses.min()) < 0
            or int(supers.max()) >= self.num_super_blocks
            or int(blocks.max()) >= self.config.num_memory_blocks
            or int(units.max()) >= self.config.units_per_block
        ):
            raise AllocationError("slab address out of range")
        rows = (supers * self.config.num_memory_blocks + blocks) * self.config.units_per_block
        rows += units
        if len(self._arena) == 1:
            return None, rows
        first = np.asarray(self._segment_first, dtype=np.int64)
        segments = np.searchsorted(first, supers, side="right") - 1
        rows -= first[segments] * self.config.units_per_super_block
        return segments, rows

    def _first_unreleasable(self, addresses: np.ndarray) -> int:
        """Index of the first address :meth:`deallocate` rejects.

        That is the first that is not a valid address, lies outside the pool,
        is not allocated, or repeats an earlier address of the array;
        ``len(addresses)`` when there is none.
        """
        supers, blocks, units = _fields(addresses)
        ok = (
            (addresses >= 0)
            & (supers < self.num_super_blocks)
            & (blocks < self.config.num_memory_blocks)
            & (units < self.config.units_per_block)
        )
        for sentinel in (C.EMPTY_POINTER, C.BASE_SLAB, C.DELETED_KEY):
            ok &= addresses != sentinel
        repeated = np.ones(len(addresses), dtype=bool)
        repeated[np.unique(addresses, return_index=True)[1]] = False
        ok &= ~repeated
        chosen = np.flatnonzero(ok)
        words = self._bitmap[supers[chosen], blocks[chosen], units[chosen] // 32]
        ok[chosen] = ((words >> (units[chosen] % 32).astype(np.uint32)) & 1).astype(bool)
        return int(np.argmin(ok)) if not ok.all() else len(addresses)

    def _release_units(self, warp: Warp, addresses: np.ndarray) -> None:
        """:meth:`deallocate` of distinct, allocated in-pool ``addresses``, vectorized."""
        count = len(addresses)
        if not count:
            return
        warp.charge(C.DEALLOC_INSTRUCTIONS * count)
        counters = self.device.counters
        counters.atomic32 += count
        counters.deallocations += count
        self._allocated_units -= count

        supers, blocks, units = _fields(addresses)
        lanes, bits = np.divmod(units, 32)
        np.bitwise_and.at(
            self._bitmap, (supers, blocks, lanes), ~(np.uint32(1) << bits.astype(np.uint32))
        )

        # Recycle the units that are not already empty slabs.
        dirty = addresses[(self.read_slabs(addresses) != C.EMPTY_KEY).any(axis=1)]
        if len(dirty):
            counters.coalesced_write_transactions += len(dirty)
            self.write_slabs(dirty, np.full((len(dirty), self.slab_words), C.EMPTY_KEY, np.uint32))

    def _check_bounds(self, super_block: int, block: int, unit: int) -> None:
        if super_block >= self.num_super_blocks:
            raise AllocationError(f"super block {super_block} does not exist")
        if block >= self.config.num_memory_blocks:
            raise AllocationError(f"memory block {block} does not exist")
        if unit >= self.config.units_per_block:
            raise AllocationError(f"memory unit {unit} does not exist")

    def _resident_state(self, warp: Warp) -> ResidentBlock:
        launch = self.device.counters.kernel_launches
        if launch != self._resident_launch:
            # A new kernel: the previous kernel's warps and registers are gone.
            self._resident.clear()
            self._resident_launch = launch
        state = self._resident.get(warp.warp_id)
        if state is None:
            state = self._assign_resident(warp, attempt=0)
            self._resident[warp.warp_id] = state
        return state

    def _assign_resident(self, warp: Warp, attempt: int) -> ResidentBlock:
        super_block = hash_pair(warp.warp_id, attempt, self.num_super_blocks, seed=self.seed)
        block = hash_pair(
            warp.warp_id, attempt, self.config.num_memory_blocks, seed=self.seed + 1
        )
        # Reading the new resident block's bitmaps is one coalesced access.
        cached = self.mem.read_slab(self._bitmap[super_block], block)
        return ResidentBlock(super_block=super_block, block=block, cached_bitmap=cached, attempt=attempt)

    def _change_resident(self, warp: Warp, state: ResidentBlock) -> ResidentBlock:
        self.device.counters.resident_changes += 1
        changes = state.changes_this_request + 1
        if changes >= self.config.growth_threshold or self._allocated_units >= self.capacity_units:
            # The paper: after a threshold number of resident changes, add new
            # super blocks and reflect them in the hash functions.
            self._grow()
            changes = 0
        if self._allocated_units >= self.capacity_units:
            raise SlabAllocExhausted(
                "SlabAlloc is out of memory: "
                f"{self._allocated_units}/{self.capacity_units} units allocated"
            )
        new_state = self._assign_resident(warp, attempt=state.attempt + 1)
        new_state.changes_this_request = changes
        self._resident[warp.warp_id] = new_state
        return new_state

    def _grow(self) -> None:
        """Add super blocks (the paper's growth path), if addressing and the host allow it.

        A SlabAlloc-light pool also stops at its 4 GB bound, so a full light
        pool reports exhaustion rather than outgrowing one contiguous array.
        """
        limit = self.config.max_super_blocks
        if self.light:
            super_block_bytes = self.config.units_per_super_block * 4 * self.slab_words
            limit = min(limit, LIGHT_CAPACITY_BYTES // super_block_bytes)
        if self.num_super_blocks >= limit:
            return
        try:
            self._add_super_blocks(min(self.num_super_blocks, limit - self.num_super_blocks))
        except OSError:
            # The host refused to reserve the new segment (ENOMEM under its
            # overcommit policy): the pool keeps its size, as at the
            # addressing limit, and a full pool reports exhaustion.
            pass
