"""Per-shard resize / rebalance on the sharded engine.

Regression focus: ``ShardedSlabHash.__len__``, ``measure`` and
:class:`~repro.engine.stats.EngineStats` must report consistent totals
immediately after a per-shard resize or a ``rebalance()`` — resizing changes
bucket arrays, never contents or routing, and a maintenance phase that
routes zero operations must still be measurable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.engine import MigrationInFlightError, ShardedSlabHash

from tests.conftest import make_keys

ALLOC = SlabAllocConfig(num_super_blocks=4, num_memory_blocks=32, units_per_block=128)


def build_engine(**kwargs):
    engine = ShardedSlabHash(4, 8, alloc_config=ALLOC, seed=17, **kwargs)
    keys = make_keys(800, seed=17)
    values = (keys * np.uint32(7)) & np.uint32(0xFFFF)
    engine.bulk_build(keys, values)
    return engine, keys, values


class TestPerShardResize:
    def test_totals_consistent_immediately_after_shard_resize(self):
        engine, keys, values = build_engine()
        total_before = len(engine)
        sizes_before = engine.shard_sizes().copy()
        items_before = sorted(engine.items())

        result = engine.resize_shard(1, 64)
        assert result.direction == "grow"
        # __len__, shard_sizes and items must all agree right away.
        assert len(engine) == total_before
        assert np.array_equal(engine.shard_sizes(), sizes_before)
        assert sorted(engine.items()) == items_before
        assert engine.num_buckets == 3 * 8 + 64
        assert np.array_equal(engine.bulk_search(keys), values.astype(np.uint32))

    def test_shard_index_is_validated(self):
        engine, _, _ = build_engine()
        with pytest.raises(ValueError):
            engine.resize_shard(4, 16)
        with pytest.raises(ValueError):
            engine.resize_shard(-1, 16)

    def test_measure_covers_resize_maintenance_phase(self):
        """A zero-routed-ops phase (pure resize) is measurable, not an error."""
        engine, _, _ = build_engine()
        stats = engine.measure(lambda: engine.resize_shard(0, 128), label="resize shard 0")
        assert stats.num_ops == 0
        assert stats.throughput == 0.0
        assert stats.load_imbalance == 1.0
        # The migration's device work is merged from the resized shard.
        assert stats.aggregate.coalesced_read_transactions > 0
        assert stats.parallel_seconds > 0


class TestRebalance:
    def test_rebalance_right_sizes_skewed_shards(self):
        engine, keys, values = build_engine()
        policy = LoadFactorPolicy(min_buckets=2)
        # Skew the shards by hand: one far too small, one far too large.
        engine.resize_shard(0, 1)
        engine.resize_shard(2, 256)
        total_before = len(engine)
        items_before = sorted(engine.items())

        results = engine.rebalance(policy)
        assert results  # at least the two skewed shards moved
        assert all(r.trigger == "rebalance" for r in results)
        for shard in engine.shards:
            target = policy.target_buckets(len(shard), shard.config.elements_per_slab)
            assert abs(target - shard.num_buckets) <= policy.hysteresis * shard.num_buckets

        assert len(engine) == total_before
        assert sorted(engine.items()) == items_before
        assert np.array_equal(engine.bulk_search(keys), values.astype(np.uint32))

    def test_rebalance_is_idempotent(self):
        engine, _, _ = build_engine()
        policy = LoadFactorPolicy(min_buckets=2)
        engine.rebalance(policy)
        assert engine.rebalance(policy) == []

    def test_rebalance_without_any_policy_is_rejected(self):
        engine, _, _ = build_engine()
        with pytest.raises(ValueError):
            engine.rebalance()

    def test_measure_of_rebalance_reports_consistent_totals(self):
        engine, keys, values = build_engine()
        policy = LoadFactorPolicy(min_buckets=2)
        engine.resize_shard(3, 1)
        before = len(engine)
        stats = engine.measure(lambda: engine.rebalance(policy), label="rebalance")
        assert stats.num_ops == 0
        assert stats.aggregate.coalesced_read_transactions > 0
        assert len(engine) == before
        # EngineStats totals and engine totals agree: nothing was routed.
        assert sum(p.num_ops for p in stats.shards) == 0


class TestRebalanceExhaustion:
    """Regression: a mid-migration SlabAlloc exhaustion inside ``rebalance()``
    must restore the failing shard completely — bucket array, chains, items
    AND the partially migrated new slabs returned to the allocator — exactly
    like the single-table path, on both backends, and must not starve the
    other (independent) shards of their rebalance attempt."""

    TIGHT = SlabAllocConfig(
        num_super_blocks=1, num_memory_blocks=1, units_per_block=32,
        growth_threshold=10_000, max_super_blocks=1,
    )
    #: Shrinking every shard to ~1 bucket needs ~n/15 fresh slabs while the
    #: old chains are still held -> the 32-unit pool must run out mid-way.
    SQUEEZE = LoadFactorPolicy(
        beta_low=2.0, beta_high=100.0, target_beta=40.0, min_buckets=1
    )

    def _build(self, backend):
        engine = ShardedSlabHash(2, 32, alloc_config=self.TIGHT, seed=7, backend=backend)
        keys = make_keys(1000, seed=7)
        engine.bulk_build(keys, keys)
        return engine, keys

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_failed_shard_is_fully_restored(self, backend):
        from repro.gpusim.errors import AllocationError

        engine, keys = self._build(backend)
        items_before = sorted(engine.items())
        buckets_before = [shard.num_buckets for shard in engine.shards]
        units_before = [shard.alloc.allocated_units for shard in engine.shards]
        chains_before = [shard.bucket_slab_counts().tolist() for shard in engine.shards]

        with pytest.raises(AllocationError):
            engine.rebalance(self.SQUEEZE)

        assert [shard.num_buckets for shard in engine.shards] == buckets_before
        # No partially migrated slab may leak: occupancy exactly as before.
        assert [shard.alloc.allocated_units for shard in engine.shards] == units_before
        assert [
            shard.bucket_slab_counts().tolist() for shard in engine.shards
        ] == chains_before
        assert sorted(engine.items()) == items_before
        assert np.array_equal(engine.bulk_search(keys), keys.astype(np.uint32))

    def test_backends_fail_and_restore_with_identical_counters(self):
        from repro.gpusim.errors import AllocationError

        counters = {}
        for backend in ("reference", "vectorized"):
            engine, _ = self._build(backend)
            with pytest.raises(AllocationError):
                engine.rebalance(self.SQUEEZE)
            counters[backend] = [
                shard.device.counters.as_dict() for shard in engine.shards
            ]
        assert counters["reference"] == counters["vectorized"]

    def test_other_shards_still_get_their_rebalance_attempt(self):
        """One shard's exhaustion must not abort the other shards' maintenance
        (each shard has its own allocator).  Here shard 0 is small enough to
        rebalance within the pool while shard 1 exhausts; both outcomes must
        coexist: shard 0 committed, shard 1 restored, error re-raised."""
        from repro.gpusim.errors import AllocationError

        engine = ShardedSlabHash(2, 32, alloc_config=self.TIGHT, seed=7)
        keys = make_keys(1000, seed=7)
        parts = engine.router.partition(keys)
        heavy = keys[parts[1]]
        engine.bulk_insert(heavy, heavy)           # shard 1: exhausts on shrink
        light = keys[parts[0]][:40]
        engine.bulk_insert(light, light)           # shard 0: 40 items, fits in 3 slabs
        items_before = sorted(engine.items())

        with pytest.raises(AllocationError):
            engine.rebalance(self.SQUEEZE)

        assert engine.shards[0].num_buckets == 1   # committed despite the error
        assert engine.shards[1].num_buckets == 32  # restored
        assert sorted(engine.items()) == items_before
        assert np.array_equal(engine.bulk_search(heavy), heavy.astype(np.uint32))
        assert np.array_equal(engine.bulk_search(light), light.astype(np.uint32))


class TestEnginePolicy:
    def test_engine_policy_reaches_every_shard(self):
        policy = LoadFactorPolicy(min_buckets=2)
        engine = ShardedSlabHash(
            2, 2, alloc_config=ALLOC, seed=23, load_factor_policy=policy
        )
        keys = make_keys(900, seed=23)
        for chunk in np.array_split(keys, 5):
            engine.bulk_insert(chunk, chunk)
        assert all(shard.resize_stats.grows >= 1 for shard in engine.shards)
        for chunk in np.array_split(keys[:840], 5):
            engine.bulk_delete(chunk)
        assert all(shard.resize_stats.shrinks >= 1 for shard in engine.shards)
        for shard in engine.shards:
            eps = shard.config.elements_per_slab
            assert policy.decide(len(shard), shard.num_buckets, eps) is None
        assert np.array_equal(engine.bulk_search(keys[840:]), keys[840:].astype(np.uint32))

    def test_deferred_engine_policy_via_maybe_resize(self):
        policy = LoadFactorPolicy(min_buckets=2).deferred()
        engine = ShardedSlabHash(
            2, 2, alloc_config=ALLOC, seed=29, load_factor_policy=policy
        )
        keys = make_keys(600, seed=29)
        engine.bulk_insert(keys, keys)
        assert engine.num_buckets == 4  # deferred: nothing moved yet
        results = engine.maybe_resize()
        assert results
        for shard in engine.shards:
            eps = shard.config.elements_per_slab
            assert policy.decide(len(shard), shard.num_buckets, eps) is None


class TestRebalanceMigrationBugfix:
    """Regression: rebalance vs in-flight incremental migrations."""

    def test_rebalance_pumps_migration_to_completion_and_matches_dict_model(self):
        policy = LoadFactorPolicy(min_buckets=2)
        eng = ShardedSlabHash(
            2, 24, seed=31, alloc_config=ALLOC, load_factor_policy=policy
        )
        keys = make_keys(400, seed=31)
        model = {}
        eng.bulk_insert(keys, keys)
        for key in keys:
            model[int(key)] = int(key)
        eng.resize_shard(0, 96, incremental=True, step_buckets=2)
        assert eng.migrating_shards() == [0]
        results = eng.rebalance()
        # The in-flight migration was pumped to completion — never rebuilt
        # from a half-migrated bucket view — and the shard then retargeted.
        assert eng.migrating_shards() == []
        assert any(r.trigger in ("manual", "rebalance") for r in results)
        assert sorted(eng.items()) == sorted(model.items())
        found = eng.bulk_search(keys)
        assert np.array_equal(found.astype(np.uint64), keys.astype(np.uint64))

    def test_rebalance_on_migrating_error_refuses_without_touching_state(self):
        policy = LoadFactorPolicy(min_buckets=2)
        eng = ShardedSlabHash(
            2, 24, seed=33, alloc_config=ALLOC, load_factor_policy=policy
        )
        keys = make_keys(300, seed=33)
        eng.bulk_insert(keys, keys)
        eng.resize_shard(1, 96, incremental=True, step_buckets=2)
        watermark = eng.shards[1].migration.watermark
        with pytest.raises(MigrationInFlightError) as excinfo:
            eng.rebalance(on_migrating="error")
        assert excinfo.value.shards == [1]
        # Refused up front: the migration is still in flight, unadvanced.
        assert eng.migrating_shards() == [1]
        assert eng.shards[1].migration.watermark == watermark

    def test_rebalance_on_migrating_is_validated(self):
        eng = ShardedSlabHash(2, 24, alloc_config=ALLOC)
        with pytest.raises(ValueError, match="on_migrating"):
            eng.rebalance(LoadFactorPolicy(min_buckets=2), on_migrating="skip")


def engine_state(engine):
    return (
        engine.items(),
        [shard.num_buckets for shard in engine.shards],
        [shard.alloc.allocated_units for shard in engine.shards],
        [device.counters.as_dict() for device in engine.devices],
    )


class TestIncrementalShardMigration:
    """Per-shard incremental migrations driven through the engine API."""

    def begin(self, seed=7):
        engine = ShardedSlabHash(2, 48, seed=seed, alloc_config=ALLOC, backend="vectorized")
        keys = make_keys(400, seed=seed)
        engine.bulk_insert(keys, keys)
        assert engine.resize_shard(1, 96, incremental=True, step_buckets=4) is None
        return engine, keys

    def test_steps_advance_to_completion_and_match_dict_model(self):
        engine, keys = self.begin()
        assert engine.migrating_shards() == [1]
        shard_items = len(engine.shards[1])
        watermark, moved, steps = 0, 0, []
        while engine.migrating_shards():
            step = engine.migrate_step_shard(1)
            assert step.buckets_moved <= 4
            assert step.watermark >= watermark
            watermark = step.watermark
            moved += step.items_moved
            steps.append(step)
        assert [step.done for step in steps] == [False] * (len(steps) - 1) + [True]
        assert steps[-1].result is not None
        assert moved == shard_items
        assert [shard.num_buckets for shard in engine.shards] == [48, 96]
        assert sorted(engine.items()) == sorted((int(k), int(k)) for k in keys)
        assert np.array_equal(engine.bulk_search(keys), keys)

    def test_step_sequence_is_bit_identical_across_twins(self):
        first, _ = self.begin(seed=9)
        second, _ = self.begin(seed=9)
        while first.migrating_shards():
            a = first.migrate_step_shard(1)
            b = second.migrate_step_shard(1)
            assert (a.buckets_moved, a.items_moved, a.watermark, a.done) == (
                b.buckets_moved,
                b.items_moved,
                b.watermark,
                b.done,
            )
        assert second.migrating_shards() == []
        assert engine_state(first) == engine_state(second)

    def test_migrate_step_shard_index_is_validated(self):
        engine, _ = self.begin()
        for shard in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                engine.migrate_step_shard(shard)
            with pytest.raises(ValueError, match="out of range"):
                engine.maybe_resize_shard(shard)

    def test_maybe_resize_shard_pumps_only_that_shard(self):
        engine, keys = self.begin()
        engine.resize_shard(0, 96, incremental=True, step_buckets=4)
        untouched = engine.shards[0].migration.watermark
        while 1 in engine.migrating_shards():
            engine.maybe_resize_shard(1)
        assert engine.migrating_shards() == [0]
        assert engine.shards[0].migration.watermark == untouched
        assert np.array_equal(engine.bulk_search(keys), keys)

    def test_policy_pump_and_rebalance_are_bit_identical_across_twins(self):
        policy = LoadFactorPolicy(min_buckets=2).deferred()
        keys = make_keys(500, seed=9)
        twins, performed = [], []
        for _ in range(2):
            engine = ShardedSlabHash(
                2, 8, seed=29, alloc_config=ALLOC, backend="vectorized",
                load_factor_policy=policy,
            )
            engine.bulk_insert(keys, keys)
            engine.maybe_resize()
            performed.append(
                [(r.old_buckets, r.new_buckets) for r in engine.rebalance()]
            )
            twins.append(engine)
        assert performed[0] == performed[1]
        assert engine_state(twins[0]) == engine_state(twins[1])
        assert sorted(twins[0].items()) == sorted((int(k), int(k)) for k in keys)
