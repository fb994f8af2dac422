"""Tests for the warp-cooperative slab list operations (SEARCH/INSERT/REPLACE/DELETE...)."""

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig, SlabConfig
from repro.core.resize import begin_migration, migrate_step
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.core.slab_list import SlabListCollection
from repro.gpusim.device import Device
from repro.gpusim.scheduler import run_sequential
from repro.gpusim.warp import WARP_SIZE, Warp


def make_lists(num_lists=1, key_value=True, unique_keys=True):
    device = Device()
    alloc = SlabAlloc(device, SlabAllocConfig(2, 8, 64), seed=1)
    lists = SlabListCollection(
        device, alloc, num_lists, SlabConfig(key_value=key_value, unique_keys=unique_keys)
    )
    return device, alloc, lists


def lane_arrays(pairs, bucket=0):
    """Build 32-lane arrays for up to 32 (key, value) operations."""
    is_active = np.zeros(WARP_SIZE, dtype=bool)
    keys = np.full(WARP_SIZE, C.EMPTY_KEY, dtype=np.uint32)
    values = np.full(WARP_SIZE, C.EMPTY_VALUE, dtype=np.uint32)
    buckets = np.full(WARP_SIZE, bucket, dtype=np.int64)
    for lane, (key, value) in enumerate(pairs):
        is_active[lane] = True
        keys[lane] = key
        values[lane] = value
    return is_active, buckets, keys, values


def do_insert(lists, device, pairs, bucket=0, replace=True):
    warp = Warp(0, device.counters)
    is_active, buckets, keys, values = lane_arrays(pairs, bucket)
    op = lists.warp_replace if replace else lists.warp_insert
    run_sequential([op(warp, is_active, buckets, keys, values)])


def do_search(lists, device, query_keys, bucket=0):
    warp = Warp(1, device.counters)
    is_active, buckets, keys, _ = lane_arrays([(k, 0) for k in query_keys], bucket)
    out = np.full(WARP_SIZE, C.SEARCH_NOT_FOUND, dtype=np.uint32)
    run_sequential([lists.warp_search(warp, is_active, buckets, keys, out)])
    return out[: len(query_keys)]


class TestInsertAndSearch:
    def test_insert_then_search_single_element(self):
        device, _, lists = make_lists()
        do_insert(lists, device, [(42, 100)])
        assert do_search(lists, device, [42])[0] == 100

    def test_search_missing_returns_not_found(self):
        device, _, lists = make_lists()
        do_insert(lists, device, [(42, 100)])
        assert do_search(lists, device, [43])[0] == C.SEARCH_NOT_FOUND

    def test_search_on_empty_list(self):
        device, _, lists = make_lists()
        assert do_search(lists, device, [1, 2, 3]).tolist() == [C.SEARCH_NOT_FOUND] * 3

    def test_full_warp_of_inserts(self):
        device, _, lists = make_lists()
        pairs = [(k, k * 2) for k in range(1, 33)]
        do_insert(lists, device, pairs)
        found = do_search(lists, device, [k for k, _ in pairs])
        assert found.tolist() == [k * 2 for k, _ in pairs]

    def test_inserts_spill_into_allocated_slabs(self):
        device, alloc, lists = make_lists()
        pairs = [(k, k) for k in range(1, 41)]  # 40 pairs > 15 per slab
        do_insert(lists, device, pairs[:32])
        do_insert(lists, device, pairs[32:])
        assert alloc.allocated_units >= 2
        assert lists.slab_count(0) >= 3
        found = do_search(lists, device, [k for k, _ in pairs[:32]])
        assert found.tolist() == [k for k, _ in pairs[:32]]

    def test_base_slab_filled_before_allocation(self):
        device, alloc, lists = make_lists()
        do_insert(lists, device, [(k, k) for k in range(1, 16)])  # exactly 15
        assert alloc.allocated_units == 0
        assert lists.slab_count(0) == 1

    def test_items_stored_only_in_key_lanes(self):
        device, _, lists = make_lists()
        do_insert(lists, device, [(7, 70)])
        words = lists.base_slabs[0]
        key_lanes = {lane for lane in range(0, 30, 2) if words[lane] == 7}
        assert len(key_lanes) == 1
        assert words[C.ADDRESS_LANE] == C.EMPTY_POINTER

    def test_insert_counts_one_slab_read_and_one_cas_per_element_at_low_load(self):
        device, _, lists = make_lists()
        do_insert(lists, device, [(k, k) for k in range(1, 11)])
        assert device.counters.atomic64 == 10
        assert device.counters.coalesced_read_transactions >= 10

    def test_multiple_lists_are_independent(self):
        device, _, lists = make_lists(num_lists=4)
        do_insert(lists, device, [(5, 50)], bucket=0)
        do_insert(lists, device, [(5, 99)], bucket=3)
        assert do_search(lists, device, [5], bucket=0)[0] == 50
        assert do_search(lists, device, [5], bucket=3)[0] == 99
        assert do_search(lists, device, [5], bucket=1)[0] == C.SEARCH_NOT_FOUND


class TestReplaceSemantics:
    def test_replace_overwrites_existing_value(self):
        device, _, lists = make_lists()
        do_insert(lists, device, [(42, 1)])
        do_insert(lists, device, [(42, 2)])
        assert do_search(lists, device, [42])[0] == 2
        assert len(lists.live_items(0)) == 1

    def test_replace_does_not_duplicate_across_warps(self):
        device, _, lists = make_lists()
        for value in (1, 2, 3):
            do_insert(lists, device, [(7, value)])
        assert len(lists.live_items(0)) == 1
        assert do_search(lists, device, [7])[0] == 3

    def test_insert_mode_allows_duplicates(self):
        device, _, lists = make_lists(unique_keys=False)
        do_insert(lists, device, [(7, 1)], replace=False)
        do_insert(lists, device, [(7, 2)], replace=False)
        assert len(lists.live_items(0)) == 2


class TestDelete:
    def test_delete_removes_element(self):
        device, _, lists = make_lists()
        do_insert(lists, device, [(10, 100), (11, 110)])
        warp = Warp(2, device.counters)
        is_active, buckets, keys, _ = lane_arrays([(10, 0)])
        out = np.zeros(WARP_SIZE, dtype=np.int64)
        run_sequential([lists.warp_delete(warp, is_active, buckets, keys, out)])
        assert out[0] == 1
        assert do_search(lists, device, [10])[0] == C.SEARCH_NOT_FOUND
        assert do_search(lists, device, [11])[0] == 110

    def test_delete_missing_key_reports_zero(self):
        device, _, lists = make_lists()
        do_insert(lists, device, [(10, 100)])
        warp = Warp(2, device.counters)
        is_active, buckets, keys, _ = lane_arrays([(99, 0)])
        out = np.zeros(WARP_SIZE, dtype=np.int64)
        run_sequential([lists.warp_delete(warp, is_active, buckets, keys, out)])
        assert out[0] == 0

    def test_unique_mode_uses_tombstone_not_empty(self):
        device, _, lists = make_lists(unique_keys=True)
        do_insert(lists, device, [(10, 100)])
        warp = Warp(2, device.counters)
        is_active, buckets, keys, _ = lane_arrays([(10, 0)])
        run_sequential([lists.warp_delete(warp, is_active, buckets, keys)])
        assert C.DELETED_KEY in lists.base_slabs[0]

    def test_duplicate_mode_recycles_slot_as_empty_pair(self):
        device, _, lists = make_lists(unique_keys=False)
        do_insert(lists, device, [(10, 100)], replace=False)
        warp = Warp(2, device.counters)
        is_active, buckets, keys, _ = lane_arrays([(10, 0)])
        run_sequential([lists.warp_delete(warp, is_active, buckets, keys)])
        assert C.DELETED_KEY not in lists.base_slabs[0]
        # The slot must be reusable: a later INSERT's CAS expects EMPTY_PAIR.
        do_insert(lists, device, [(11, 110)], replace=False)
        assert do_search(lists, device, [11])[0] == 110

    def test_delete_all_removes_every_duplicate(self):
        device, _, lists = make_lists(unique_keys=False)
        for value in range(5):
            do_insert(lists, device, [(7, value)], replace=False)
        warp = Warp(2, device.counters)
        is_active, buckets, keys, _ = lane_arrays([(7, 0)])
        out = np.zeros(WARP_SIZE, dtype=np.int64)
        run_sequential([lists.warp_delete_all(warp, is_active, buckets, keys, out)])
        assert out[0] == 5
        assert lists.live_items(0) == []

    def test_delete_then_reinsert_same_key(self):
        device, _, lists = make_lists()
        do_insert(lists, device, [(10, 1)])
        warp = Warp(2, device.counters)
        is_active, buckets, keys, _ = lane_arrays([(10, 0)])
        run_sequential([lists.warp_delete(warp, is_active, buckets, keys)])
        do_insert(lists, device, [(10, 2)])
        assert do_search(lists, device, [10])[0] == 2
        assert len(lists.live_items(0)) == 1


class TestSearchAll:
    def test_search_all_returns_every_copy(self):
        device, _, lists = make_lists(unique_keys=False)
        for value in (1, 2, 3):
            do_insert(lists, device, [(7, value)], replace=False)
        warp = Warp(3, device.counters)
        is_active, buckets, keys, _ = lane_arrays([(7, 0)])
        out = [[] for _ in range(WARP_SIZE)]
        run_sequential([lists.warp_search_all(warp, is_active, buckets, keys, out)])
        assert sorted(out[0]) == [1, 2, 3]

    def test_search_all_missing_key_returns_empty(self):
        device, _, lists = make_lists(unique_keys=False)
        do_insert(lists, device, [(7, 1)], replace=False)
        warp = Warp(3, device.counters)
        is_active, buckets, keys, _ = lane_arrays([(8, 0)])
        out = [[] for _ in range(WARP_SIZE)]
        run_sequential([lists.warp_search_all(warp, is_active, buckets, keys, out)])
        assert out[0] == []

    def test_search_all_spans_multiple_slabs(self):
        device, _, lists = make_lists(unique_keys=False)
        for chunk in range(3):
            do_insert(
                lists, device, [(7, chunk * 20 + i) for i in range(20)], replace=False
            )
        warp = Warp(3, device.counters)
        is_active, buckets, keys, _ = lane_arrays([(7, 0)])
        out = [[] for _ in range(WARP_SIZE)]
        run_sequential([lists.warp_search_all(warp, is_active, buckets, keys, out)])
        assert len(out[0]) == 60


class TestKeyOnlyMode:
    def test_insert_and_search_key_only(self):
        device, _, lists = make_lists(key_value=False)
        warp = Warp(0, device.counters)
        is_active = np.zeros(WARP_SIZE, dtype=bool)
        keys = np.full(WARP_SIZE, C.EMPTY_KEY, dtype=np.uint32)
        buckets = np.zeros(WARP_SIZE, dtype=np.int64)
        for lane, key in enumerate(range(1, 20)):
            is_active[lane] = True
            keys[lane] = key
        run_sequential([lists.warp_replace(warp, is_active, buckets, keys, None)])
        found = do_search(lists, device, list(range(1, 20)))
        assert found.tolist() == list(range(1, 20))
        assert do_search(lists, device, [999])[0] == C.SEARCH_NOT_FOUND

    def test_key_only_mode_packs_30_keys_per_slab(self):
        device, alloc, lists = make_lists(key_value=False)
        warp = Warp(0, device.counters)
        is_active = np.ones(WARP_SIZE, dtype=bool)
        is_active[30:] = False
        keys = np.arange(1, 33, dtype=np.uint32)
        buckets = np.zeros(WARP_SIZE, dtype=np.int64)
        run_sequential([lists.warp_replace(warp, is_active, buckets, keys, None)])
        assert alloc.allocated_units == 0  # 30 keys fit exactly in the base slab
        assert len(lists.live_items(0)) == 30

    def test_key_value_mode_requires_values(self):
        device, _, lists = make_lists(key_value=True)
        warp = Warp(0, device.counters)
        is_active, buckets, keys, _ = lane_arrays([(1, 1)])
        with pytest.raises(ValueError):
            next(lists.warp_replace(warp, is_active, buckets, keys, None))


class TestIntrospection:
    def test_chain_addresses_and_total_slabs(self):
        device, _, lists = make_lists()
        do_insert(lists, device, [(k, k) for k in range(1, 33)])
        do_insert(lists, device, [(k, k) for k in range(33, 50)])
        chain = lists.chain_addresses(0)
        assert len(chain) == lists.slab_count(0) - 1
        assert lists.total_slabs() == 1 + len(chain)

    def test_live_item_count_and_used_bytes(self):
        device, _, lists = make_lists(num_lists=2)
        do_insert(lists, device, [(k, k) for k in range(1, 11)], bucket=0)
        do_insert(lists, device, [(k, k) for k in range(11, 16)], bucket=1)
        assert lists.live_item_count() == 15
        assert lists.used_bytes() == lists.total_slabs() * 128

    def test_invalid_num_lists(self):
        device = Device()
        alloc = SlabAlloc(device, SlabAllocConfig(1, 2, 64))
        with pytest.raises(ValueError):
            SlabListCollection(device, alloc, 0)


def assert_scoped_chain_table(lists, buckets):
    """``chain_table(buckets)`` is the full ChainTable restricted to ``buckets``."""
    full = lists.chain_table()
    part = lists.chain_table(buckets)
    selected = np.zeros(lists.num_lists, dtype=bool)
    selected[buckets] = True
    assert len(part.offsets) == lists.num_lists + 1
    lengths = part.chain_lengths()
    assert not lengths[~selected].any()
    assert np.array_equal(lengths[selected], full.chain_lengths()[selected])
    assert part.num_slabs == int(lengths.sum())
    full_words, part_words = full.words(), part.words()
    for bucket in buckets:
        f = slice(full.offsets[bucket], full.offsets[bucket + 1])
        p = slice(part.offsets[bucket], part.offsets[bucket + 1])
        assert np.array_equal(part.addresses[p], full.addresses[f])
        assert np.array_equal(part.bucket_of[p], full.bucket_of[f])
        assert np.array_equal(part_words[p], full_words[f])
    # Each row of words() is the slab its address names.
    for words, bucket, address in zip(part_words, part.bucket_of, part.addresses):
        if address == C.BASE_SLAB:
            store, row = lists.base_slabs, int(bucket)
        else:
            store, row = lists.alloc.slab_view(int(address))
        assert np.array_equal(words, store[row])


class TestScopedChainTable:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_full_table_on_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        table = SlabHash(
            int(rng.integers(3, 40)),
            alloc_config=SlabAllocConfig(2, 8, 64),
            seed=seed,
            unique_keys=bool(seed % 2),
        )
        keys = rng.choice(np.arange(1, 5000, dtype=np.uint32), 700, replace=False)
        table.bulk_build(keys, keys)
        table.bulk_delete(keys[: 200])
        num = table.num_buckets
        for size in (0, 1, num // 2, num):
            chosen = np.sort(rng.choice(num, size, replace=False)).astype(np.int64)
            assert_scoped_chain_table(table.lists, chosen)

    def test_matches_full_table_mid_migration(self):
        table = SlabHash(8, alloc_config=SlabAllocConfig(2, 8, 64), seed=5)
        keys = np.arange(1, 600, dtype=np.uint32)
        table.bulk_build(keys, keys)
        begin_migration(table, 24, step_buckets=3)
        migrate_step(table)
        migrate_step(table)
        assert table.migration is not None
        rng = np.random.default_rng(7)
        for lists in (table.lists, table.migration.new_lists):
            for size in (1, 4, lists.num_lists):
                chosen = np.sort(rng.choice(lists.num_lists, size, replace=False))
                assert_scoped_chain_table(lists, chosen.astype(np.int64))
