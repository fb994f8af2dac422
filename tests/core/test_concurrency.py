"""Concurrency tests: interleaved warp schedules exercising the lock-free paths.

The warp procedures yield at every global-memory access, so the randomized
scheduler genuinely interleaves CAS attempts, slab-append races and concurrent
delete/search traversals.  These tests sweep scheduler seeds and assert that
the final table state (and every observed result) is consistent with *some*
sequential order of the submitted operations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.slab_hash import SlabHash
from repro.gpusim.scheduler import WarpScheduler, run_sequential
from repro.gpusim.warp import WARP_SIZE, Warp

from tests.conftest import make_keys

CFG = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=8, units_per_block=64)


def new_table(buckets=2, **kwargs):
    kwargs.setdefault("alloc_config", CFG)
    kwargs.setdefault("seed", 11)
    return SlabHash(buckets, **kwargs)


class TestConcurrentInsertions:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_concurrent_inserts_of_distinct_keys_all_land(self, seed):
        table = new_table(buckets=1)  # a single bucket maximizes contention
        keys = make_keys(96, seed=seed)
        ops = np.full(len(keys), C.OP_INSERT)
        table.concurrent_batch(ops, keys, keys, scheduler=WarpScheduler(seed=seed))
        stored = dict(table.items())
        assert sorted(stored) == sorted(int(k) for k in keys)
        assert len(table) == len(keys)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_concurrent_replaces_of_same_key_keep_one_copy(self, seed):
        table = new_table(buckets=1)
        keys = np.full(64, 12345, dtype=np.uint32)
        values = np.arange(64, dtype=np.uint32)
        ops = np.full(64, C.OP_INSERT)
        table.concurrent_batch(ops, keys, values, scheduler=WarpScheduler(seed=seed))
        assert len(table) == 1
        # The surviving value must be one of the submitted values.
        assert table.search(12345) in set(values.tolist())

    def test_append_race_releases_losing_slab(self):
        """Two warps racing to append a slab to the same full bucket: one wins,
        the loser must deallocate its freshly allocated slab."""
        table = new_table(buckets=1)
        base = make_keys(15, seed=7)  # fill the base slab exactly
        table.bulk_build(base, base)

        extra = make_keys(40, seed=8) + np.uint32(2**29)
        programs = []
        for half in (extra[:20], extra[20:]):
            warp = table._next_warp()
            is_active = np.zeros(WARP_SIZE, dtype=bool)
            is_active[: len(half)] = True
            lane_keys = np.full(WARP_SIZE, C.EMPTY_KEY, dtype=np.uint32)
            lane_keys[: len(half)] = half
            lane_buckets = np.zeros(WARP_SIZE, dtype=np.int64)
            programs.append(
                table.lists.warp_replace(warp, is_active, lane_buckets, lane_keys, lane_keys)
            )
        WarpScheduler(seed=5).run(programs)

        stored = {k for k, _ in table.items()}
        assert set(int(k) for k in extra) <= stored
        # Allocator bookkeeping survived any lost races: every allocated slab
        # is reachable from the bucket chain.
        assert table.alloc.allocated_units == len(table.lists.chain_addresses(0))

    def test_cas_failures_occur_under_contention(self):
        table = new_table(buckets=1)
        keys = make_keys(64, seed=3)
        ops = np.full(len(keys), C.OP_INSERT)
        table.concurrent_batch(ops, keys, keys, scheduler=WarpScheduler(seed=1))
        # With every operation hammering one bucket, at least some CAS retries
        # or slab-append races are expected across seeds; assert the machinery
        # is exercised rather than silent.
        counters = table.device.counters
        assert counters.atomic64 >= len(keys)


class TestMixedConcurrentBatches:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_search_results_are_consistent_with_some_serialization(self, seed):
        table = new_table(buckets=2)
        base = make_keys(100, seed=20)
        table.bulk_build(base, base)

        new = make_keys(50, seed=21) + np.uint32(2**29)
        untouched = base[50:]
        ops = np.concatenate(
            [
                np.full(50, C.OP_INSERT),
                np.full(50, C.OP_DELETE),
                np.full(50, C.OP_SEARCH),
            ]
        )
        keys = np.concatenate([new, base[:50], untouched[:50]]).astype(np.uint32)
        values = keys.copy()
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(ops))
        results = table.concurrent_batch(
            ops[perm], keys[perm], values[perm], scheduler=WarpScheduler(seed=seed)
        )

        # Searches target keys that no concurrent operation touches, so they
        # must all succeed regardless of the interleaving.
        search_mask = ops[perm] == C.OP_SEARCH
        assert np.array_equal(results[search_mask], keys[perm][search_mask])

        # Final state: inserted keys present, deleted keys absent, rest intact.
        stored = {k for k, _ in table.items()}
        assert set(int(k) for k in new) <= stored
        assert not set(int(k) for k in base[:50]) & stored
        assert set(int(k) for k in untouched) <= stored

    def test_sequential_schedule_is_a_valid_special_case(self):
        table = new_table(buckets=2)
        base = make_keys(64, seed=40)
        table.bulk_build(base, base)
        ops = np.full(32, C.OP_SEARCH)
        results = table.concurrent_batch(ops, base[:32], base[:32], scheduler=None)
        assert np.array_equal(results, base[:32])

    def test_concurrent_delete_and_search_of_same_key_is_atomic(self):
        """A search racing a delete of the same key either finds the full pair
        or nothing — never a torn value."""
        for seed in range(5):
            table = new_table(buckets=1)
            table.insert(777, 888)
            ops = np.array([C.OP_DELETE, C.OP_SEARCH])
            keys = np.array([777, 777], dtype=np.uint32)
            values = np.array([0, 0], dtype=np.uint32)
            results = table.concurrent_batch(
                ops, keys, values, scheduler=WarpScheduler(seed=seed)
            )
            assert results[1] in (888, C.SEARCH_NOT_FOUND)
            assert table.search(777) is None


class TestSchedulePropertyBased:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_final_state_independent_of_schedule_for_disjoint_keys(self, seed):
        """Operations on disjoint keys commute: any interleaving must produce
        the same final table contents."""
        table = new_table(buckets=1)
        keys = make_keys(48, seed=123)
        ops = np.full(len(keys), C.OP_INSERT)
        table.concurrent_batch(ops, keys, keys, scheduler=WarpScheduler(seed=seed))
        assert sorted(k for k, _ in table.items()) == sorted(int(k) for k in keys)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_interleaved_equals_sequential_reference(self, seed):
        """For a mixed batch, the interleaved outcome matches the Python-dict
        reference executed in any order (here: the operations are disjoint, so
        order is irrelevant)."""
        base = make_keys(40, seed=50)
        inserts = make_keys(20, seed=51) + np.uint32(2**29)
        deletes = base[:20]
        ops = np.concatenate([np.full(20, C.OP_INSERT), np.full(20, C.OP_DELETE)])
        keys = np.concatenate([inserts, deletes]).astype(np.uint32)

        table = new_table(buckets=2)
        table.bulk_build(base, base)
        table.concurrent_batch(ops, keys, keys, scheduler=WarpScheduler(seed=seed))

        reference = {int(k): int(k) for k in base}
        for key in deletes:
            reference.pop(int(key), None)
        for key in inserts:
            reference[int(key)] = int(key)
        assert dict(table.items()) == reference
