"""Tests for SlabAlloc: bitmap allocation, resident changes, deallocation, growth."""

import errno
import json
import mmap
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import constants as C
from repro.core import slab_alloc
from repro.core.address import decode_address, make_address
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.gpusim.device import Device
from repro.gpusim.errors import AllocationError, SlabAllocExhausted
from repro.gpusim.warp import Warp
from repro.persist import snapshot


def make_alloc(ns=2, nm=8, nu=64, seed=3):
    device = Device()
    alloc = SlabAlloc(device, SlabAllocConfig(ns, nm, nu), seed=seed)
    return device, alloc


class TestAllocation:
    def test_addresses_are_unique(self):
        device, alloc = make_alloc()
        warps = [Warp(i, device.counters) for i in range(4)]
        addresses = [alloc.warp_allocate(warps[i % 4]) for i in range(200)]
        assert len(set(addresses)) == 200

    def test_allocated_bit_is_set(self):
        device, alloc = make_alloc()
        warp = Warp(0, device.counters)
        address = alloc.warp_allocate(warp)
        assert alloc.is_allocated(address)

    def test_allocation_count_tracks(self):
        device, alloc = make_alloc()
        warp = Warp(0, device.counters)
        for _ in range(10):
            alloc.warp_allocate(warp)
        assert alloc.allocated_units == 10
        assert device.counters.allocations == 10

    def test_fresh_slab_reads_as_empty(self):
        device, alloc = make_alloc()
        warp = Warp(0, device.counters)
        address = alloc.warp_allocate(warp)
        store, row = alloc.slab_view(address)
        assert np.all(store[row] == C.EMPTY_KEY)

    def test_single_atomic_in_uncontended_case(self):
        device, alloc = make_alloc()
        warp = Warp(0, device.counters)
        alloc.warp_allocate(warp)  # first call also reads the resident bitmap
        before = device.counters.atomic32
        alloc.warp_allocate(warp)
        assert device.counters.atomic32 == before + 1

    def test_different_warps_get_different_resident_blocks_usually(self):
        device, alloc = make_alloc(ns=4, nm=32)
        blocks = set()
        for warp_id in range(16):
            address = alloc.warp_allocate(Warp(warp_id, device.counters))
            super_block, block, _unit = decode_address(address)
            blocks.add((super_block, block))
        assert len(blocks) > 4

    def test_addresses_decode_within_configured_bounds(self):
        device, alloc = make_alloc(ns=2, nm=8, nu=64)
        warp = Warp(0, device.counters)
        for _ in range(100):
            super_block, block, unit = decode_address(alloc.warp_allocate(warp))
            assert super_block < alloc.num_super_blocks
            assert block < alloc.config.num_memory_blocks
            assert unit < alloc.config.units_per_block

    def test_capacity_properties(self):
        _, alloc = make_alloc(ns=2, nm=8, nu=64)
        assert alloc.capacity_units == 2 * 8 * 64
        assert alloc.capacity_bytes == alloc.capacity_units * 128
        assert alloc.occupancy() == 0.0


class TestDeallocation:
    def test_deallocate_clears_bit_and_count(self):
        device, alloc = make_alloc()
        warp = Warp(0, device.counters)
        address = alloc.warp_allocate(warp)
        alloc.deallocate(warp, address)
        assert not alloc.is_allocated(address)
        assert alloc.allocated_units == 0
        assert device.counters.deallocations == 1

    def test_double_free_detected(self):
        device, alloc = make_alloc()
        warp = Warp(0, device.counters)
        address = alloc.warp_allocate(warp)
        alloc.deallocate(warp, address)
        with pytest.raises(AllocationError):
            alloc.deallocate(warp, address)

    def test_deallocated_unit_is_recycled(self):
        device, alloc = make_alloc(ns=1, nm=1, nu=32)
        warp = Warp(0, device.counters)
        addresses = [alloc.warp_allocate(warp) for _ in range(32)]
        alloc.deallocate(warp, addresses[7])
        recycled = alloc.warp_allocate(warp)
        assert recycled == addresses[7]

    def test_recycled_slab_is_cleared(self):
        device, alloc = make_alloc()
        warp = Warp(0, device.counters)
        address = alloc.warp_allocate(warp)
        store, row = alloc.slab_view(address)
        store[row, 0] = 1234  # simulate use
        alloc.deallocate(warp, address)
        store, row = alloc.slab_view(address)
        assert np.all(store[row] == C.EMPTY_KEY)

    def test_deallocate_unallocated_address_rejected(self):
        device, alloc = make_alloc()
        warp = Warp(0, device.counters)
        alloc.warp_allocate(warp)
        with pytest.raises(AllocationError):
            alloc.deallocate(warp, 5)  # unit 5 of block 0 was never allocated

    def test_free_leaves_cached_bitmaps_untouched(self):
        """A free clears the global bit only; no warp's registers change."""
        device, alloc = make_alloc(ns=1, nm=4, nu=64, seed=11)
        warps = [Warp(i, device.counters) for i in range(16)]
        addresses = [alloc.warp_allocate(warps[i % len(warps)]) for i in range(160)]
        cached = {warp_id: r.cached_bitmap.copy() for warp_id, r in alloc._resident.items()}
        freed = addresses[::3]
        alloc.deallocate(warps[0], freed[0])
        alloc.deallocate(warps[1], np.array(freed[1:], dtype=np.int64))
        assert not any(alloc.is_allocated(address) for address in freed)
        assert alloc._resident.keys() == cached.keys()
        for warp_id, resident in alloc._resident.items():
            assert np.array_equal(resident.cached_bitmap, cached[warp_id])
        # A stale cached word costs a retry or a resident change, never a duplicate.
        again = [alloc.warp_allocate(warps[i % len(warps)]) for i in range(len(freed))]
        live = set(addresses) - set(freed)
        assert len(set(again)) == len(again) and not live & set(again)


def _release_state(device, alloc):
    """Everything a release may touch: counters, bitmaps, arena, residents, units."""
    return (
        device.counters.as_dict(),
        alloc._bitmap.tobytes(),
        [segment.tobytes() for segment in alloc._arena],
        {warp_id: r.cached_bitmap.tobytes() for warp_id, r in alloc._resident.items()},
        alloc._allocated_units,
    )


@pytest.mark.parametrize("light", [False, True])
class TestArrayDeallocate:
    """An array ``deallocate`` leaves the state the per-address loop leaves."""

    @staticmethod
    def populated(light):
        """A grown pool whose blocks host several warps; every third slab is written."""
        config = SlabAllocConfig(1, 4, 64, growth_threshold=2, max_super_blocks=8)
        device = Device()
        alloc = SlabAlloc(device, config, seed=7, light=light)
        warps = [Warp(i, device.counters) for i in range(24)]
        addresses = [alloc.warp_allocate(warps[i % len(warps)]) for i in range(400)]
        written = np.array(addresses[::3], dtype=np.int64)
        alloc.write_slabs(written, np.arange(len(written) * C.SLAB_WORDS, dtype=np.uint32)
                          .reshape(len(written), C.SLAB_WORDS))
        order = np.random.default_rng(5).permutation(len(addresses))
        return device, alloc, warps[3], np.array(addresses, dtype=np.int64)[order]

    def test_release_equals_the_loop(self, light):
        device, alloc, warp, addresses = self.populated(light)
        twin_device, twin, twin_warp, _ = self.populated(light)
        assert len(alloc._arena) > 1
        freed = addresses[:250]
        for address in freed.tolist():
            twin.deallocate(twin_warp, address)
        alloc.deallocate(warp, freed)
        assert _release_state(device, alloc) == _release_state(twin_device, twin)
        assert device.counters.deallocations == 250
        assert not any(alloc.is_allocated(address) for address in freed.tolist())

    def test_empty_slabs_get_no_recycle_write(self, light):
        device, alloc, warp, addresses = self.populated(light)
        dirty = int((alloc.read_slabs(addresses[:40]) != C.EMPTY_KEY).any(axis=1).sum())
        assert 0 < dirty < 40
        before = device.counters.coalesced_write_transactions
        alloc.deallocate(warp, addresses[:40])
        assert device.counters.coalesced_write_transactions - before == dirty
        assert (alloc.read_slabs(addresses[:40]) == C.EMPTY_KEY).all()

    @pytest.mark.parametrize("bad", ["repeat", "freed", "out_of_range"])
    def test_rejected_address_raises_after_the_units_before_it(self, light, bad):
        device, alloc, warp, addresses = self.populated(light)
        twin_device, twin, twin_warp, _ = self.populated(light)
        if bad == "freed":
            for pool, pool_warp in ((alloc, warp), (twin, twin_warp)):
                pool.deallocate(pool_warp, int(addresses[-1]))
        rejected = {
            "repeat": int(addresses[2]),
            "freed": int(addresses[-1]),
            "out_of_range": make_address(alloc.num_super_blocks, 0, 0),
        }[bad]
        batch = np.array([*addresses[:5], rejected, *addresses[5:9]], dtype=np.int64)
        with pytest.raises(AllocationError):
            for address in batch.tolist():
                twin.deallocate(twin_warp, address)
        with pytest.raises(AllocationError):
            alloc.deallocate(warp, batch)
        assert _release_state(device, alloc) == _release_state(twin_device, twin)
        assert all(alloc.is_allocated(address) for address in addresses[5:9].tolist())


class TestResidentChangesAndGrowth:
    def test_filling_a_block_triggers_resident_change(self):
        device, alloc = make_alloc(ns=1, nm=2, nu=64)
        warp = Warp(0, device.counters)
        for _ in range(80):  # more than one block's worth from a single warp
            alloc.warp_allocate(warp)
        assert device.counters.resident_changes >= 1

    def test_exhaustion_raises(self):
        device, alloc = make_alloc(ns=1, nm=1, nu=32)
        # Prevent growth so the pool genuinely exhausts.
        alloc.config = SlabAllocConfig(1, 1, 32, growth_threshold=10_000, max_super_blocks=1)
        warp = Warp(0, device.counters)
        for _ in range(32):
            alloc.warp_allocate(warp)
        with pytest.raises(AllocationError):
            alloc.warp_allocate(warp)

    def test_growth_adds_super_blocks_when_pressed(self):
        device = Device()
        alloc = SlabAlloc(
            device,
            SlabAllocConfig(1, 1, 32, growth_threshold=2, max_super_blocks=8),
            seed=1,
        )
        warp = Warp(0, device.counters)
        for _ in range(100):  # far beyond the initial 32-unit capacity
            alloc.warp_allocate(warp)
        assert alloc.num_super_blocks > 1
        assert alloc.allocated_units == 100

    def test_resident_change_reads_bitmap_coalescedly(self):
        device, alloc = make_alloc(ns=1, nm=2, nu=64)
        warp = Warp(0, device.counters)
        before = device.counters.coalesced_read_transactions
        for _ in range(80):
            alloc.warp_allocate(warp)
        reads = device.counters.coalesced_read_transactions - before
        assert reads >= device.counters.resident_changes


class TestResidentLifetime:
    """A resident block lives for one kernel, as a warp's registers do."""

    def test_resident_map_holds_only_the_last_launchs_warps(self, monkeypatch):
        policy = LoadFactorPolicy(auto=False, incremental=True, migration_step_buckets=4)
        table = SlabHash(8, seed=4, policy=policy, alloc_config=SlabAllocConfig(1, 16, 64))
        alloc = table.alloc
        launch_warps = {}  # kernel launch -> ids of the warps that allocated in it
        allocate = alloc.warp_allocate

        def spy(warp):
            launch = table.device.counters.kernel_launches
            launch_warps.setdefault(launch, set()).add(warp.warp_id)
            return allocate(warp)

        monkeypatch.setattr(alloc, "warp_allocate", spy)
        rng = np.random.default_rng(8)
        for step in range(300):
            ops = rng.choice([C.OP_INSERT, C.OP_DELETE, C.OP_SEARCH], size=64, p=[0.5, 0.35, 0.15])
            keys = rng.integers(1, 2000, size=64).astype(np.uint32)
            table.concurrent_batch(ops, keys, keys)
            table.maybe_resize()
            if step % 10 == 9:
                table.flush()
            last = launch_warps[max(launch_warps)] if launch_warps else set()
            assert set(alloc._resident) <= last
            assert len(alloc._resident) <= len(last)
        assert table.resize_stats.resizes > 0 and table.resize_stats.migration_steps > 0
        assert table.device.counters.deallocations > 0
        assert len(launch_warps) > 20  # allocating launches, each with fresh warps


class TestContention:
    def test_two_warps_sharing_a_block_never_get_the_same_unit(self):
        # A single memory block forces every warp onto the same bitmap words.
        device = Device()
        alloc = SlabAlloc(device, SlabAllocConfig(1, 1, 64), seed=0)
        warps = [Warp(i, device.counters) for i in range(4)]
        addresses = []
        for i in range(60):
            addresses.append(alloc.warp_allocate(warps[i % 4]))
        assert len(set(addresses)) == 60

    def test_stale_cached_bitmaps_cause_retries_not_duplicates(self):
        device = Device()
        alloc = SlabAlloc(device, SlabAllocConfig(1, 1, 64), seed=0)
        a, b = Warp(0, device.counters), Warp(1, device.counters)
        first = [alloc.warp_allocate(a) for _ in range(10)]
        second = [alloc.warp_allocate(b) for _ in range(10)]
        assert not set(first) & set(second)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=120))
    def test_property_any_interleaving_of_warps_yields_unique_addresses(self, warp_sequence):
        device = Device()
        alloc = SlabAlloc(device, SlabAllocConfig(1, 2, 64), seed=2)
        warps = {i: Warp(i, device.counters) for i in range(4)}
        addresses = [alloc.warp_allocate(warps[w]) for w in warp_sequence]
        assert len(set(addresses)) == len(addresses)
        assert alloc.allocated_units == len(addresses)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_property_allocate_free_cycles_preserve_invariants(self, data):
        device = Device()
        alloc = SlabAlloc(device, SlabAllocConfig(1, 2, 64), seed=5)
        warp = Warp(0, device.counters)
        live = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
            if live and data.draw(st.booleans()):
                address = live.pop(data.draw(st.integers(min_value=0, max_value=len(live) - 1)))
                alloc.deallocate(warp, address)
                assert not alloc.is_allocated(address)
            else:
                address = alloc.warp_allocate(warp)
                assert address not in live
                assert alloc.is_allocated(address)
                live.append(address)
        assert alloc.allocated_units == len(live)
        for address in live:
            assert alloc.is_allocated(address)


class TestSlabAllocLight:
    def test_light_variant_skips_shared_memory_decode(self):
        device = Device()
        light = SlabAlloc(device, SlabAllocConfig(2, 8, 64), seed=1, light=True)
        light.charge_address_decode()
        assert device.counters.shared_reads == 0

    def test_regular_variant_pays_shared_memory_decode(self):
        device, alloc = make_alloc()
        alloc.charge_address_decode()
        assert device.counters.shared_reads == 1

    def test_light_variant_rejects_configs_over_4gb(self, monkeypatch):
        """The bound is checked before anything is mapped."""
        mapped = []
        monkeypatch.setattr(SlabAlloc, "_add_super_blocks", lambda self, n: mapped.append(n))
        with pytest.raises(ValueError, match="4 GB"):
            SlabAlloc(Device(), SlabAllocConfig(256, 2**14, 1024), light=True)
        assert mapped == []

    def test_light_bound_is_inclusive_and_regular_alloc_is_unbounded(self, monkeypatch):
        monkeypatch.setattr(SlabAlloc, "_add_super_blocks", lambda self, n: None)
        # 32 x 256 x 1024 units of 128 bytes is exactly 1 GB; 128 super blocks
        # is exactly 4 GB, the largest pool SlabAlloc-light accepts.
        assert SlabAlloc(Device(), SlabAllocConfig(128, 256, 1024), light=True).light
        with pytest.raises(ValueError):
            SlabAlloc(Device(), SlabAllocConfig(129, 256, 1024), light=True)
        assert not SlabAlloc(Device(), SlabAllocConfig(256, 2**14, 1024)).light

    def test_light_variant_allocates_like_the_regular_one(self):
        device = Device()
        light = SlabAlloc(device, SlabAllocConfig(2, 8, 64), seed=1, light=True)
        warp = Warp(0, device.counters)
        addresses = [light.warp_allocate(warp) for _ in range(50)]
        assert len(set(addresses)) == 50

    def test_light_pool_growth_stops_at_the_bound(self, monkeypatch):
        # A super block of this config is 32 units of 128 bytes; a bound of
        # three of them caps _grow's doubling steps 1 -> 2 -> 3.
        monkeypatch.setattr(slab_alloc, "LIGHT_CAPACITY_BYTES", 3 * 32 * 128)
        config = SlabAllocConfig(1, 1, 32, growth_threshold=2, max_super_blocks=8)
        device = Device()
        light = SlabAlloc(device, config, seed=1, light=True)
        warp = Warp(0, device.counters)
        addresses = [light.warp_allocate(warp) for _ in range(96)]
        with pytest.raises(SlabAllocExhausted):
            light.warp_allocate(warp)
        assert light.num_super_blocks == 3 and len(set(addresses)) == 96
        assert light.capacity_bytes == slab_alloc.LIGHT_CAPACITY_BYTES
        regular = SlabAlloc(Device(), config, seed=1)
        for _ in range(97):
            regular.warp_allocate(warp)
        assert regular.num_super_blocks > 3

    def test_slab_hash_light_flag_reaches_the_allocator(self):
        table = SlabHash(4, light_alloc=True, alloc_config=SlabAllocConfig(2, 8, 64))
        assert table.alloc.light
        with pytest.raises(ValueError, match="4 GB"):
            SlabHash(4, light_alloc=True, alloc_config=SlabAllocConfig(256, 2**14, 1024))


def _numpy_madvise_hugepage():
    core = getattr(np, "_core", None) or np.core
    return core.multiarray._get_madvise_hugepage()


def _segment_pointers(alloc):
    return [segment.ctypes.data for segment in alloc._arena]


#: Grows at the second resident change of a request: 1 -> 2 -> 4 -> 8 super blocks.
TINY = SlabAllocConfig(1, 2, 32, growth_threshold=2, max_super_blocks=8)


class TestSlabArena:
    def test_fresh_arena_is_one_zeroed_uint32_mapping(self):
        _, alloc = make_alloc(ns=2, nm=8, nu=64)
        assert len(alloc._arena) == 1
        (arena,) = alloc._arena
        assert arena.dtype == np.uint32
        assert arena.shape == (2 * 8 * 64, C.SLAB_WORDS)
        assert arena.flags["C_CONTIGUOUS"] and arena.flags["WRITEABLE"]
        assert not arena.any()

    def test_rows_are_address_arithmetic(self):
        device, alloc = make_alloc(ns=2, nm=8, nu=64)
        for warp_id in range(40):
            address = alloc.warp_allocate(Warp(warp_id, device.counters))
            super_block, block, unit = decode_address(address)
            store, row = alloc.slab_view(address)
            assert store is alloc._arena[0]
            assert row == (super_block * 8 + block) * 64 + unit
            assert np.all(store[row] == C.EMPTY_KEY)
        assert np.count_nonzero(alloc._arena[0].any(axis=1)) == 40

    def test_each_growth_step_adds_one_mapping_in_place(self):
        device, alloc = make_alloc(ns=1, nm=2, nu=32)
        alloc._arena[0][5] = 7  # a slab write held across the growth
        for step in range(1, 4):
            before = _segment_pointers(alloc)
            first = alloc.num_super_blocks
            alloc._grow()
            assert len(alloc._arena) == step + 1
            assert _segment_pointers(alloc)[:step] == before
            assert alloc._segment_first[-1] == first
            assert alloc._arena[-1].shape == (first * 2 * 32, C.SLAB_WORDS)
        assert alloc.num_super_blocks == 8
        assert np.all(alloc._arena[0][5] == 7)
        # Grown super blocks resolve into their own segment, offset by its first.
        store, row = alloc.slab_view(make_address(5, 1, 3))
        assert store is alloc._arena[3]
        assert row == ((5 - 4) * 2 + 1) * 32 + 3

    def test_restore_grows_in_the_same_steps(self):
        device = Device()
        alloc = SlabAlloc(device, TINY, seed=1)
        warp = Warp(0, device.counters)
        addresses = [alloc.warp_allocate(warp) for _ in range(100)]
        twin = SlabAlloc(Device(), TINY, seed=1)
        twin.restore_units(*alloc.export_units(), num_super_blocks=alloc.num_super_blocks)
        assert twin._segment_first == alloc._segment_first
        assert [s.shape for s in twin._arena] == [s.shape for s in alloc._arena]
        assert twin.export_units()[0].tolist() == sorted(addresses)

    def test_export_of_a_padded_grown_pool_is_its_allocated_units(self):
        # 64 units per block leave 30 of the 32 bitmap words as tail padding.
        config = SlabAllocConfig(1, 2, 64, growth_threshold=2, max_super_blocks=8)
        device = Device()
        alloc = SlabAlloc(device, config, seed=4)
        warp = Warp(0, device.counters)
        addresses = [alloc.warp_allocate(warp) for _ in range(300)]
        for address in addresses[::3]:
            alloc.deallocate(warp, address)
        live = sorted(set(addresses) - set(addresses[::3]))
        words = np.arange(len(live) * 32, dtype=np.uint32).reshape(-1, 32)
        alloc.write_slabs(np.array(live, np.int64), words)
        assert alloc.num_super_blocks > 1

        exported, words = alloc.export_units()
        assert exported.dtype == np.uint32
        assert exported.tolist() == live
        twin = SlabAlloc(Device(), config, seed=4)
        twin.restore_units(exported, words, num_super_blocks=alloc.num_super_blocks)
        again, again_words = twin.export_units()
        assert again.tobytes() == exported.tobytes()
        assert again_words.tobytes() == words.tobytes()
        assert twin.allocated_units == alloc.allocated_units == len(live)

    def test_vectorized_reads_and_writes_agree_with_slab_view_after_growth(self):
        device = Device()
        alloc = SlabAlloc(device, TINY, seed=1)
        warp = Warp(0, device.counters)
        addresses = np.array([alloc.warp_allocate(warp) for _ in range(100)], np.int64)
        assert len(alloc._arena) >= 3  # grown at least twice
        supers = addresses >> 24
        bounds = alloc._segment_first + [alloc.num_super_blocks]
        for first, end in zip(bounds, bounds[1:]):  # every segment holds slabs
            assert ((supers >= first) & (supers < end)).any()

        words = np.arange(len(addresses) * C.SLAB_WORDS, dtype=np.uint32).reshape(
            len(addresses), C.SLAB_WORDS
        )
        alloc.write_slabs(addresses, words)
        for address, expected in zip(addresses.tolist(), words):
            store, row = alloc.slab_view(address)
            assert np.array_equal(store[row], expected)
        assert np.array_equal(alloc.read_slabs(addresses), words)
        assert np.array_equal(alloc.read_slabs(addresses, 5), words[:, 5])

        lanes = np.arange(len(addresses), dtype=np.int64) % C.SLAB_WORDS
        marker = 0xABCD0000  # above every word written so far
        alloc.write_slabs(addresses, np.full(len(addresses), marker, np.uint32), lanes)
        for address, lane in zip(addresses.tolist(), lanes.tolist()):
            store, row = alloc.slab_view(address)
            assert store[row, lane] == marker
        assert (alloc.read_slabs(addresses) == marker).sum() == len(addresses)
        assert alloc.read_slabs(np.empty(0, np.int64)).shape == (0, C.SLAB_WORDS)

    def test_refused_growth_keeps_the_pool_and_reports_exhaustion(self, monkeypatch):
        device = Device()
        config = SlabAllocConfig(1, 1, 32, growth_threshold=2, max_super_blocks=8)
        alloc = SlabAlloc(device, config, seed=1)

        def refuse(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", refuse)
        warp = Warp(0, device.counters)
        addresses = [alloc.warp_allocate(warp) for _ in range(32)]
        with pytest.raises(SlabAllocExhausted):
            alloc.warp_allocate(warp)
        assert alloc.num_super_blocks == 1 and len(alloc._arena) == 1
        assert alloc.allocated_units == len(set(addresses)) == 32

    def test_out_of_range_addresses_are_rejected(self):
        _, alloc = make_alloc(ns=2, nm=8, nu=64)
        for address in (make_address(2, 0, 0), make_address(0, 8, 0), make_address(0, 0, 64)):
            with pytest.raises(AllocationError):
                alloc.read_slabs(np.array([address], np.int64))
            with pytest.raises(AllocationError):
                alloc.write_slabs(np.array([address], np.int64), np.zeros((1, 32), np.uint32))
            with pytest.raises(AllocationError):
                alloc.restore_units(np.array([address], np.int64), np.zeros((1, 32), np.uint32))
            assert alloc.allocated_units == 0 and not alloc._arena[0].any()

    def test_growth_mid_batch_matches_the_reference_backend(self, tmp_path):
        def run(backend):
            table = SlabHash(2, alloc_config=TINY, seed=21, backend=backend)
            keys = np.arange(1, 1201, dtype=np.uint32)
            op_codes = np.full(len(keys), C.OP_INSERT, dtype=np.int64)
            op_codes[::5] = C.OP_SEARCH
            results = table.concurrent_batch(op_codes, keys, keys * np.uint32(3))
            path = snapshot.save(table, str(tmp_path / f"{backend}.snap"))
            with np.load(path) as archive:
                header = json.loads(str(archive["header"]))
                assert header.pop("backend") == backend  # the one intended difference
                arrays = {name: archive[name].tobytes() for name in archive.files}
            arrays["header"] = json.dumps(header, sort_keys=True).encode()
            return table, results, arrays

        reference, results_r, snap_r = run("reference")
        vectorized, results_v, snap_v = run("vectorized")
        assert len(vectorized.alloc._arena) >= 3  # grown at least twice mid-batch
        assert np.array_equal(results_r, results_v)
        assert reference.device.counters.as_dict() == vectorized.device.counters.as_dict()
        assert snap_r == snap_v

    @pytest.mark.parametrize("grow", [False, True])
    def test_export_restore_round_trip_is_byte_identical(self, grow):
        if grow:
            config = SlabAllocConfig(1, 2, 32, growth_threshold=2, max_super_blocks=8)
        else:
            config = SlabAllocConfig(2, 8, 64)
        device = Device()
        alloc = SlabAlloc(device, config, seed=1)
        warp = Warp(0, device.counters)
        addresses = [alloc.warp_allocate(warp) for _ in range(100)]
        assert (alloc.num_super_blocks > config.num_super_blocks) == grow
        for index, address in enumerate(addresses):
            store, row = alloc.slab_view(address)
            store[row] = np.arange(C.SLAB_WORDS, dtype=np.uint32) + 100 * index
        for address in addresses[::3]:
            alloc.deallocate(warp, address)
        exported = alloc.export_units()

        twin = SlabAlloc(Device(), config, seed=1)
        twin.restore_units(*exported, num_super_blocks=alloc.num_super_blocks)
        restored = twin.export_units()
        assert twin.num_super_blocks == alloc.num_super_blocks
        for original, copy in zip(exported, restored):
            assert original.dtype == copy.dtype and original.shape == copy.shape
            assert original.tobytes() == copy.tobytes()

    def test_store_is_built_when_the_kernel_rejects_the_advice(self, monkeypatch):
        # Kernels without THP answer MADV_NOHUGEPAGE with EINVAL, as they
        # answer any advice value they do not know.
        monkeypatch.setattr(mmap, "MADV_NOHUGEPAGE", 9999, raising=False)
        device, alloc = make_alloc()
        store, row = alloc.slab_view(alloc.warp_allocate(Warp(0, device.counters)))
        assert np.all(store[row] == C.EMPTY_KEY)

    def test_numpy_huge_page_flag_is_left_alone(self):
        before = _numpy_madvise_hugepage()
        device, alloc = make_alloc()
        alloc.warp_allocate(Warp(0, device.counters))
        assert _numpy_madvise_hugepage() == before


# Runs in a fresh interpreter so that no other allocator's mappings share
# (or merge into) the VMAs that back this allocator's arena.
_STORE_MEMORY_PROBE = textwrap.dedent(
    """
    import json, mmap, re
    from repro.core.slab_alloc import SlabAlloc
    from repro.gpusim.device import Device
    from repro.gpusim.warp import Warp

    device = Device()
    alloc = SlabAlloc(device, seed=1)
    for warp_id in range(2000):
        alloc.warp_allocate(Warp(warp_id, device.counters))
    ranges = [(s.ctypes.data, s.ctypes.data + s.nbytes) for s in alloc._arena]

    vmas, current = [], None
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = re.match(r"([0-9a-f]+)-([0-9a-f]+) ", line)
            if head:
                current = {"start": int(head[1], 16), "end": int(head[2], 16)}
                vmas.append(current)
            else:
                key, _, value = line.partition(":")
                current[key] = value.split()
    overlapping = [
        v for v in vmas if any(v["start"] < end and start < v["end"] for start, end in ranges)
    ]
    print(json.dumps({
        "slabs": alloc.allocated_units,
        "mappings": len(ranges),
        "vmas": len(overlapping),
        "rss_kb": sum(int(v["Rss"][0]) for v in overlapping),
        "page_kb": mmap.PAGESIZE // 1024,
        "anon_huge_kb": sum(int(v["AnonHugePages"][0]) for v in overlapping),
        "without_nh": sum("nh" not in v["VmFlags"] for v in overlapping),
    }))
    """
)


_HAS_SMAPS_AND_THP = os.path.exists("/proc/self/smaps") and os.path.exists(
    "/sys/kernel/mm/transparent_hugepage"
)


@pytest.mark.skipif(
    not _HAS_SMAPS_AND_THP,
    reason="needs Linux /proc/self/smaps and transparent huge pages",
)
def test_store_memory_tracks_allocated_slabs():
    """Resident memory of the slab arena grows by base pages, never huge pages."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", _STORE_MEMORY_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    assert probe["slabs"] == 2000
    assert probe["mappings"] == 1
    assert probe["vmas"] >= 1
    assert probe["anon_huge_kb"] == 0
    assert probe["without_nh"] == 0
    # At most one page per slab written, with one page per mapping to spare.
    assert probe["rss_kb"] <= (probe["slabs"] + probe["mappings"]) * probe["page_kb"]
