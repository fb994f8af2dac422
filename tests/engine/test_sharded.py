"""Tests for the sharded engine: results must match an unsharded SlabHash."""

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.slab_hash import SlabHash
from repro.engine import ShardedSlabHash
from repro.workloads.generators import missing_queries, unique_random_keys, values_for_keys

from tests.conftest import make_keys

#: Small allocator so each shard stays light.
ALLOC = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=16, units_per_block=64)


def make_engine(num_shards, *, buckets=8, **kwargs):
    return ShardedSlabHash(num_shards, buckets, alloc_config=ALLOC, **kwargs)


def make_pair(num_shards, num_elements, *, seed=0):
    """A sharded engine and an unsharded reference table of equal total size."""
    engine = ShardedSlabHash.for_utilization(
        num_shards, num_elements, 0.6, alloc_config=ALLOC, seed=seed
    )
    single = SlabHash(
        SlabHash.buckets_for_utilization(num_elements, 0.6), alloc_config=ALLOC, seed=seed
    )
    return engine, single


class TestConstruction:
    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            ShardedSlabHash(0, 8)

    def test_each_shard_has_its_own_device_and_allocator(self):
        engine = make_engine(4)
        assert len({id(s.device) for s in engine.shards}) == 4
        assert len({id(s.alloc) for s in engine.shards}) == 4

    def test_total_buckets_sum_over_shards(self):
        assert make_engine(3, buckets=8).num_buckets == 24


@pytest.mark.smoke
class TestBulkEquivalence:
    """Sharded bulk results must be bit-identical to one unsharded table."""

    @pytest.mark.parametrize("num_shards", (1, 2, 5, 8))
    def test_build_search_delete_match_single_table(self, num_shards):
        n = 600
        keys = unique_random_keys(n, seed=21)
        values = values_for_keys(keys)
        engine, single = make_pair(num_shards, n, seed=1)

        engine.bulk_build(keys, values)
        single.bulk_build(keys, values)
        assert len(engine) == len(single) == n

        hits = keys[::3]
        misses = missing_queries(200, seed=5)
        assert np.array_equal(engine.bulk_search(hits), single.bulk_search(hits))
        assert np.array_equal(engine.bulk_search(misses), single.bulk_search(misses))

        doomed = np.concatenate([keys[:200], misses[:50]])
        assert np.array_equal(engine.bulk_delete(doomed), single.bulk_delete(doomed))
        assert np.array_equal(engine.bulk_search(hits), single.bulk_search(hits))
        assert len(engine) == len(single)

    def test_duplicate_keys_mode_matches_single_table(self):
        keys = np.repeat(make_keys(40, seed=3), 3)  # every key three times
        values = np.arange(len(keys), dtype=np.uint32)
        engine = make_engine(4, unique_keys=False, seed=2)
        single = SlabHash(32, unique_keys=False, alloc_config=ALLOC, seed=2)
        engine.bulk_insert(keys, values)
        single.bulk_insert(keys, values)
        assert np.array_equal(engine.bulk_delete(keys), single.bulk_delete(keys))
        assert len(engine) == len(single) == 0

    def test_reserved_keys_are_rejected_like_the_single_table(self):
        """Out-of-domain keys must raise, never be silently dropped."""
        engine = make_engine(2, buckets=16)
        bad = np.array([0xFFFFFFFF], dtype=np.uint64)
        with pytest.raises(ValueError):
            engine.bulk_insert(bad, np.array([7], dtype=np.uint32))
        with pytest.raises(ValueError):
            engine.bulk_search(bad)
        with pytest.raises(ValueError):
            engine.insert(0xFFFFFFFE, 1)
        assert len(engine) == 0

    def test_items_match_single_table_as_sets(self):
        keys = make_keys(150, seed=8)
        values = values_for_keys(keys)
        engine, single = make_pair(3, 150, seed=4)
        engine.bulk_build(keys, values)
        single.bulk_build(keys, values)
        assert set(engine.items()) == set(single.items())


@pytest.mark.smoke
class TestConcurrentEquivalence:
    def test_mixed_batch_matches_single_table(self):
        """Insert/search/delete on disjoint key sets: schedule-independent."""
        rng = np.random.default_rng(7)
        stored = unique_random_keys(300, seed=31)
        values = values_for_keys(stored)
        new_keys = missing_queries(100, seed=33)

        ops, keys = [], []
        for key in stored[:100]:
            ops.append(C.OP_DELETE), keys.append(key)
        for key in stored[100:200]:
            ops.append(C.OP_SEARCH), keys.append(key)
        for key in new_keys:
            ops.append(C.OP_INSERT), keys.append(key)
        order = rng.permutation(len(ops))
        ops = np.array(ops, dtype=np.int64)[order]
        keys = np.array(keys, dtype=np.uint32)[order]
        vals = values_for_keys(keys)

        engine, single = make_pair(4, 300, seed=6)
        engine.bulk_build(stored, values)
        single.bulk_build(stored, values)

        out_sharded = engine.concurrent_batch(ops, keys, vals, scheduler_seed=11)
        out_single = single.concurrent_batch(ops, keys, vals)
        assert np.array_equal(out_sharded, out_single)
        assert len(engine) == len(single)


class TestSingleOperationApi:
    def test_insert_search_delete_roundtrip(self):
        engine = make_engine(3, seed=9)
        engine.insert(1234, 99)
        assert 1234 in engine
        assert engine.search(1234) == 99
        assert engine.delete(1234)
        assert 1234 not in engine
        assert not engine.delete(1234)

    def test_flush_compacts_all_shards(self):
        keys = make_keys(200, seed=6)
        engine = make_engine(4, buckets=4, seed=3)
        engine.bulk_insert(keys, values_for_keys(keys))
        engine.bulk_delete(keys[:150])
        before = engine.used_bytes()
        engine.flush()
        assert engine.used_bytes() <= before
        assert len(engine) == 50


class TestMeasurement:
    def test_measure_accounts_all_routed_ops(self):
        keys = make_keys(128, seed=2)
        engine = make_engine(4, seed=1)
        stats = engine.measure(
            lambda: engine.bulk_insert(keys, values_for_keys(keys)), label="build"
        )
        assert stats.num_ops == 128
        assert sum(p.num_ops for p in stats.shards) == 128
        assert stats.aggregate.kernel_launches >= 4

    def test_parallel_time_is_max_of_shards(self):
        keys = make_keys(256, seed=4)
        engine = make_engine(4, seed=1)
        stats = engine.measure(lambda: engine.bulk_insert(keys, values_for_keys(keys)))
        assert stats.parallel_seconds == max(p.seconds for p in stats.shards)
        assert stats.parallel_seconds < stats.serial_seconds
        assert 1.0 < stats.parallel_speedup <= 4.0

    def test_scale_to_ops_preserves_relative_shard_loads(self):
        keys = make_keys(128, seed=4)
        engine = make_engine(4, seed=1)
        stats = engine.measure(
            lambda: engine.bulk_insert(keys, values_for_keys(keys)), scale_to_ops=12800
        )
        assert stats.num_ops == 12800
        assert sum(p.num_ops for p in stats.shards) == pytest.approx(12800, abs=4)


def assert_same_state(first, second):
    """Items, per-shard layout, allocator occupancy and counters all match."""
    assert first.items() == second.items()
    assert first.shard_sizes().tolist() == second.shard_sizes().tolist()
    for a, b in zip(first.shards, second.shards):
        assert a.num_buckets == b.num_buckets
        assert a.alloc.allocated_units == b.alloc.allocated_units
        assert a.device.counters.as_dict() == b.device.counters.as_dict()


class TestSerialDeterminism:
    """Every shard runs in the calling thread, in shard order, so two
    identically constructed engines fed the same calls stay bit-identical."""

    def make_twins(self):
        return [make_engine(2, buckets=24, seed=29, backend="vectorized") for _ in range(2)]

    def test_bulk_ops_are_bit_identical_across_twins(self):
        keys = make_keys(600, seed=1)
        values = (keys * np.uint32(7)) & np.uint32(0xFFFF)
        misses = missing_queries(100, seed=2)
        outputs = []
        for engine in self.make_twins():
            engine.bulk_insert(keys, values)
            outputs.append(
                (
                    engine.bulk_search(keys),
                    engine.bulk_delete(keys[:150]),
                    engine.bulk_search(misses),
                    engine,
                )
            )
        (found, deleted, missed, first), (found2, deleted2, missed2, second) = outputs
        assert np.array_equal(found, values)
        assert np.array_equal(found, found2)
        assert np.array_equal(deleted, deleted2)
        assert np.array_equal(missed, missed2)
        assert np.all(missed == C.SEARCH_NOT_FOUND)
        assert len(first) == 450
        assert_same_state(first, second)

    def test_concurrent_batch_is_bit_identical_under_one_scheduler_seed(self):
        keys = make_keys(512, seed=3)
        values = keys & np.uint32(0xFFF)
        op_codes = np.concatenate(
            [
                np.full(256, C.OP_INSERT),
                np.full(128, C.OP_SEARCH),
                np.full(128, C.OP_DELETE),
            ]
        )
        stream = np.concatenate([keys[:256], keys[:128], keys[64:192]])
        stream_values = np.concatenate([values[:256], values[:128], values[64:192]])
        first, second = self.make_twins()
        out_first = first.concurrent_batch(op_codes, stream, stream_values, scheduler_seed=77)
        out_second = second.concurrent_batch(op_codes, stream, stream_values, scheduler_seed=77)
        assert np.array_equal(out_first, out_second)
        assert_same_state(first, second)

    def test_single_ops_agree_with_bulk_ops(self):
        keys = make_keys(64, seed=5)
        values = keys % np.uint32(500) + np.uint32(1)
        singles, bulk = self.make_twins()
        for key, value in zip(keys, values):
            singles.insert(int(key), int(value))
        bulk.bulk_insert(keys, values)
        assert set(singles.items()) == set(bulk.items())
        assert np.array_equal(singles.shard_sizes(), bulk.shard_sizes())
        found = bulk.bulk_search(keys[:16])
        assert [singles.search(int(key)) for key in keys[:16]] == found.tolist()
        assert singles.delete(int(keys[0])) == bool(bulk.bulk_delete(keys[:1])[0])
        assert int(keys[0]) not in singles
        assert len(singles) == len(bulk) == 63

    def test_size_accessors_sum_over_shards(self):
        engine = make_engine(3, buckets=8, seed=4)
        keys = make_keys(300, seed=8)
        engine.bulk_insert(keys, values_for_keys(keys))
        sizes = engine.shard_sizes()
        assert int(sizes.sum()) == len(engine) == 300
        assert sizes.tolist() == [len(shard) for shard in engine.shards]
        assert engine.used_bytes() == sum(shard.used_bytes() for shard in engine.shards)
        assert engine.num_buckets == sum(shard.num_buckets for shard in engine.shards)
        element_bytes = engine.shards[0].config.element_bytes
        assert engine.memory_utilization() == pytest.approx(
            300 * element_bytes / engine.used_bytes()
        )


class TestShardList:
    def test_replacing_a_shard_takes_effect(self, tmp_path):
        """``shards`` is a plain list: assigning a restored table to one slot
        (what the service's quarantine restore does) is all it takes."""
        from repro.persist import load, save

        engine = make_engine(2, buckets=16, seed=12)
        keys = make_keys(200, seed=12)
        engine.bulk_insert(keys, values_for_keys(keys))
        path = save(engine.shards[1], str(tmp_path / "shard1.npz"))
        later = missing_queries(50, seed=13)
        engine.bulk_insert(later, values_for_keys(later))
        owner = engine.router.route(later)

        restored = load(path)
        engine.shards[1] = restored
        assert engine.devices[1] is restored.device
        assert len(engine) == int(engine.shard_sizes().sum())
        found = engine.bulk_search(later)
        assert np.all(found[owner == 1] == C.SEARCH_NOT_FOUND)
        assert np.array_equal(found[owner == 0], values_for_keys(later)[owner == 0])
        assert np.array_equal(engine.bulk_search(keys), values_for_keys(keys))

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_one_shard_engine_over_a_table_runs_as_the_table(self, backend):
        """``from_shards([table])`` does exactly what ``table`` does: a twin
        built from the same seed, driven directly, ends bit-identical."""
        wrapped, twin = (
            SlabHash(4, alloc_config=ALLOC, seed=17, backend=backend) for _ in range(2)
        )
        engine = ShardedSlabHash.from_shards([wrapped])
        rng = np.random.default_rng(17)
        for round_ in range(4):
            keys = make_keys(200, seed=40 + round_)
            ops = rng.choice([C.OP_INSERT, C.OP_SEARCH, C.OP_DELETE], size=keys.size)
            vals = values_for_keys(keys)
            assert np.array_equal(
                engine.concurrent_batch(ops, keys, vals),
                twin.concurrent_batch(ops, keys, vals),
            )
        assert engine.shards[0] is wrapped
        assert wrapped.items() == twin.items()
        assert wrapped.device.counters.as_dict() == twin.device.counters.as_dict()
        assert engine._ops_routed.tolist() == [4 * 200]

    @pytest.mark.parametrize("knob", [{"executor": "process"}, {"executor_workers": 2}])
    def test_there_is_no_executor_knob(self, knob):
        with pytest.raises(TypeError):
            ShardedSlabHash(2, 8, **knob)
