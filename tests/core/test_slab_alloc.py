"""Tests for SlabAlloc: bitmap allocation, resident changes, deallocation, growth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import constants as C
from repro.core.address import decode_address
from repro.core.config import SlabAllocConfig
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_alloc_light import SlabAllocLight
from repro.gpusim.device import Device
from repro.gpusim.errors import AllocationError
from repro.gpusim.warp import Warp


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

    def test_deallocate_matches_full_resident_scan(self):
        """Per-block resident index: every cached bitmap equals a scan of all warps."""
        device, alloc = make_alloc(ns=1, nm=4, nu=64, seed=11)
        rng = np.random.default_rng(13)
        warps = [Warp(i, device.counters) for i in range(48)]
        live = []
        for step in range(600):
            if live and (len(live) > 230 or rng.random() < 0.3):
                address = live.pop(int(rng.integers(len(live))))
                super_block, block, unit = decode_address(address)
                lane, bit = divmod(unit, 32)
                # What the full scan over every resident warp leaves behind.
                expected = {}
                for warp_id, resident in alloc._resident.items():
                    cached = resident.cached_bitmap.copy()
                    if (resident.super_block, resident.block) == (super_block, block):
                        cached[lane] &= np.uint32(~(1 << bit) & 0xFFFFFFFF)
                    expected[warp_id] = cached
                alloc.deallocate(warps[step % len(warps)], address)
                for warp_id, resident in alloc._resident.items():
                    assert np.array_equal(resident.cached_bitmap, expected[warp_id])
            else:
                live.append(alloc.warp_allocate(warps[int(rng.integers(len(warps)))]))
        assert device.counters.resident_changes > 0
        sharing = {}
        for resident in alloc._resident.values():
            key = (resident.super_block, resident.block)
            sharing[key] = sharing.get(key, 0) + 1
        assert max(sharing.values()) > 1


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
        light = SlabAllocLight(device, SlabAllocConfig(2, 8, 64), seed=1)
        light.charge_address_decode()
        assert device.counters.shared_reads == 0

    def test_regular_variant_pays_shared_memory_decode(self):
        device, alloc = make_alloc()
        alloc.charge_address_decode()
        assert device.counters.shared_reads == 1

    def test_light_variant_rejects_configs_over_4gb(self):
        with pytest.raises(ValueError):
            SlabAllocLight(Device(), SlabAllocConfig(256, 2**14, 1024))

    def test_light_variant_allocates_like_the_regular_one(self):
        device = Device()
        light = SlabAllocLight(device, SlabAllocConfig(2, 8, 64), seed=1)
        warp = Warp(0, device.counters)
        addresses = [light.warp_allocate(warp) for _ in range(50)]
        assert len(set(addresses)) == 50
