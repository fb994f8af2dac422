"""Equivalence and policy tests for online table resizing (repro.core.resize).

The contract under test: after ``resize(B)`` the table behaves exactly like
an equivalently-sized freshly built table holding the same contents — same
items, same search results, same multi-value (duplicate-key) semantics —
with the migration charged to the device counters, and the no-op /
hysteresis rules of :class:`LoadFactorPolicy` holding at the boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.bulk_exec import gather_band
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy, resize_table
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.gpusim.device import Device
from repro.gpusim.errors import AllocationError

from tests.conftest import make_keys

ALLOC = SlabAllocConfig(num_super_blocks=4, num_memory_blocks=32, units_per_block=128)


def build_table(num_buckets, *, backend="vectorized", seed=11, n=600, **kwargs):
    keys = make_keys(n, seed=seed)
    values = (keys * np.uint32(3)) & np.uint32(0xFFFF)
    table = SlabHash(num_buckets, alloc_config=ALLOC, seed=seed, backend=backend, **kwargs)
    table.bulk_build(keys, values)
    return table, keys, values


def fresh_equivalent(table, num_buckets, keys, values, *, seed=11):
    fresh = SlabHash(
        num_buckets,
        alloc_config=ALLOC,
        seed=seed,
        backend=table.backend,
        unique_keys=table.config.unique_keys,
        key_value=table.config.key_value,
    )
    fresh.bulk_build(keys, values)
    return fresh


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
class TestResizeEquivalence:
    def test_grow_matches_freshly_built_table(self, backend):
        table, keys, values = build_table(8, backend=backend)
        result = table.resize(128)
        assert result.direction == "grow"
        assert result.migrated == 600
        assert table.num_buckets == 128
        assert len(table) == 600
        fresh = fresh_equivalent(table, 128, keys, values)
        assert sorted(table.items()) == sorted(fresh.items())
        assert np.array_equal(table.bulk_search(keys), fresh.bulk_search(keys))
        # The hash draw is re-ranged, not re-drawn: bucket layouts agree too.
        assert np.array_equal(table.bucket_slab_counts(), fresh.bucket_slab_counts())

    def test_shrink_matches_freshly_built_table(self, backend):
        table, keys, values = build_table(128, backend=backend)
        result = table.resize(8)
        assert result.direction == "shrink"
        assert table.num_buckets == 8
        fresh = fresh_equivalent(table, 8, keys, values)
        assert sorted(table.items()) == sorted(fresh.items())
        assert np.array_equal(table.bulk_search(keys), fresh.bulk_search(keys))
        missing = make_keys(100, seed=99)
        missing = np.setdiff1d(missing, keys)
        assert np.array_equal(table.bulk_search(missing), fresh.bulk_search(missing))

    def test_resize_mid_allocator_growth(self, backend):
        """Resizing a table whose allocator has already grown new super blocks."""
        tiny = SlabAllocConfig(num_super_blocks=1, num_memory_blocks=2,
                               units_per_block=32, growth_threshold=2, max_super_blocks=16)
        keys = make_keys(1200, seed=5)
        values = keys.copy()
        table = SlabHash(2, alloc_config=tiny, seed=5, backend=backend)
        table.bulk_build(keys, values)
        assert table.alloc.num_super_blocks > 1  # growth happened pre-resize
        table.resize(96)
        assert len(table) == 1200
        assert np.array_equal(
            table.bulk_search(keys), values.astype(np.uint32)
        )
        # And back down, with slabs spread across grown stores.
        table.resize(4)
        assert len(table) == 1200
        assert np.array_equal(table.bulk_search(keys), values.astype(np.uint32))

    def test_duplicate_keys_preserved_across_resize(self, backend):
        """Multi-value mode: search_all multisets and delete order survive."""
        table = SlabHash(4, alloc_config=ALLOC, seed=3, backend=backend,
                         unique_keys=False)
        keys = np.repeat(np.array([100, 200, 300], dtype=np.uint32), 4)
        values = np.arange(12, dtype=np.uint32)
        table.bulk_insert(keys, values)
        before = {int(k): sorted(table.search_all(int(k))) for k in (100, 200, 300)}
        table.resize(64)
        assert len(table) == 12
        for key in (100, 200, 300):
            assert sorted(table.search_all(key)) == before[key]
        # delete removes the least-recent occurrence, then delete_all the rest.
        assert table.delete(100) is True
        assert len(table.search_all(100)) == 3
        assert table.delete_all(100) == 3
        assert table.search_all(100) == []
        assert sorted(table.search_all(200)) == before[200]

    def test_failed_resize_leaves_table_intact(self, backend):
        """Allocator exhaustion mid-migration must not corrupt the table."""
        device = Device()
        alloc = SlabAlloc(
            device,
            SlabAllocConfig(1, 2, 32, growth_threshold=10_000, max_super_blocks=1),
            seed=1,
        )
        # 2 buckets x ~300 elements: chained slabs consume most of the pool.
        table = SlabHash(2, device=device, alloc=alloc, seed=7, backend=backend)
        keys = make_keys(500, seed=7)
        table.bulk_build(keys, keys)
        items_before = sorted(table.items())
        buckets_before = table.num_buckets
        # Migrating into 1 bucket needs fresh slabs for every element while the
        # old ones are still held -> the exhausted allocator must fail.
        with pytest.raises(AllocationError):
            table.resize(1)
        assert table.num_buckets == buckets_before
        assert sorted(table.items()) == items_before
        assert np.array_equal(table.bulk_search(keys), keys.astype(np.uint32))


class TestGatherBand:
    """The migration's band gather equals the per-bucket ``live_items`` walk."""

    @pytest.mark.parametrize("key_value", [True, False])
    @pytest.mark.parametrize("unique_keys", [True, False])
    def test_matches_live_items_over_random_bands(self, key_value, unique_keys):
        rng = np.random.default_rng(61)
        table = SlabHash(
            7, alloc_config=ALLOC, seed=61, key_value=key_value, unique_keys=unique_keys
        )
        keys = rng.integers(1, 400, 900).astype(np.uint32)  # repeats: duplicates mode
        values = keys * np.uint32(5) if key_value else None
        table.bulk_insert(keys, values)
        # Deletions leave tombstones (unique keys) or EMPTY slots that the
        # next insertions recycle mid-chain (duplicates).
        table.bulk_delete(rng.choice(keys, 300))
        refill = rng.integers(400, 600, 120).astype(np.uint32)
        table.bulk_insert(refill, refill * np.uint32(5) if key_value else None)

        lists = table.lists
        slots = lists.chain_table().words()[:, list(table.config.key_lanes)]
        assert (lists.slab_counts() > 1).all()  # every bucket chains
        assert (slots == C.DELETED_KEY).any() == unique_keys
        for _ in range(20):
            lo, hi = sorted(rng.integers(0, lists.num_lists + 1, 2).tolist())
            got_keys, got_values = gather_band(lists, lo, hi)
            walk = [item for bucket in range(lo, hi) for item in lists.live_items(bucket)]
            assert got_keys.tolist() == [key for key, _ in walk]
            if key_value:
                assert got_values.tolist() == [value for _, value in walk]
            else:
                assert got_values is None


class TestResizeAccounting:
    def test_migration_is_charged_to_the_device(self):
        table, keys, values = build_table(8)
        before = table.device.snapshot()
        result = table.resize(16)  # beta ~2.5: the new buckets still chain
        delta = table.device.counters.diff(before)
        assert result.counters.as_dict() == delta.as_dict()
        assert result.seconds > 0
        assert delta.kernel_launches == 1  # the migration's bulk insertion
        assert delta.coalesced_read_transactions > 0
        assert delta.allocations > 0  # new chained slabs
        assert delta.deallocations >= result.released_slabs > 0
        assert table.resize_stats.grows == 1
        assert table.resize_stats.migrated_items == 600
        assert table.resize_stats.modelled_seconds == pytest.approx(result.seconds)

    def test_backends_resize_with_identical_counters(self):
        tables = {}
        for backend in ("reference", "vectorized"):
            table, keys, values = build_table(8, backend=backend)
            table.resize(100)
            table.resize(16)
            tables[backend] = table
        assert (
            tables["reference"].device.counters.as_dict()
            == tables["vectorized"].device.counters.as_dict()
        )
        assert sorted(tables["reference"].items()) == sorted(tables["vectorized"].items())

    def test_noop_resize_costs_nothing(self):
        table, keys, values = build_table(8)
        before = table.device.snapshot()
        result = table.resize(8)
        assert result.direction == "noop"
        assert not result.changed
        assert result.migrated == 0
        assert table.device.counters.diff(before).as_dict() == {
            field: 0 for field in before.as_dict()
        }
        assert table.resize_stats.noops == 1
        assert table.resize_stats.resizes == 0

    def test_resize_rejects_nonpositive_buckets(self):
        table, _, _ = build_table(8)
        with pytest.raises(ValueError):
            table.resize(0)
        with pytest.raises(ValueError):
            resize_table(table, -3)


class TestLoadFactorPolicy:
    def test_decide_is_quiet_inside_the_band(self):
        policy = LoadFactorPolicy()
        eps = 15
        # beta = 600 / (15 * 80) = 0.5: inside [0.25, 1.0].
        assert policy.decide(600, 80, eps) is None

    def test_decide_grows_past_the_band_and_lands_at_target(self):
        policy = LoadFactorPolicy()
        eps = 15
        buckets = 10
        n = 2000  # beta = 13.3
        decision = policy.decide(n, buckets, eps)
        assert decision is not None and decision > buckets
        assert decision >= policy.target_buckets(n, eps)
        # After the grow the policy is quiescent.
        assert policy.decide(n, decision, eps) is None

    def test_decide_shrinks_geometrically_to_quiescence(self):
        policy = LoadFactorPolicy()
        eps = 15
        n, buckets = 30, 512  # beta = 0.0039
        steps = 0
        while True:
            decision = policy.decide(n, buckets, eps)
            if decision is None:
                break
            assert decision < buckets  # a shrink trigger never grows
            buckets = decision
            steps += 1
            assert steps < 16
        assert policy.beta(n, buckets, eps) >= policy.beta_low or buckets == policy.min_buckets

    def test_hysteresis_suppresses_marginal_changes(self):
        eps = 15
        n = int(0.24 * eps * 100)  # beta = 0.24 at 100 buckets: just below the band
        # The indicated shrink (to 50 buckets) falls inside a wide dead-zone...
        wide = LoadFactorPolicy(hysteresis=0.8)
        assert wide.decide(n, 100, eps) is None
        # ... while the default narrow dead-zone lets the same shrink through.
        assert LoadFactorPolicy().decide(n, 100, eps) == 50

    def test_min_buckets_floor(self):
        policy = LoadFactorPolicy(min_buckets=8)
        assert policy.decide(0, 8, 15) is None
        # An empty table steps geometrically down and stops at the floor.
        buckets = 64
        while (decision := policy.decide(0, buckets, 15)) is not None:
            assert decision == max(8, buckets // 2)
            buckets = decision
        assert buckets == 8

    def test_invalid_policies_are_rejected(self):
        with pytest.raises(ValueError):
            LoadFactorPolicy(beta_low=0.8, beta_high=0.5)
        with pytest.raises(ValueError):
            LoadFactorPolicy(target_beta=2.0)
        with pytest.raises(ValueError):
            LoadFactorPolicy(grow_factor=0.9)
        with pytest.raises(ValueError):
            LoadFactorPolicy(shrink_factor=1.5)
        with pytest.raises(ValueError):
            LoadFactorPolicy(min_buckets=0)
        with pytest.raises(ValueError):
            # Overshoot guard: 1.0 / 8 < 0.25 would thrash grow->shrink.
            LoadFactorPolicy(grow_factor=8.0)

    def test_deferred_policy_only_resizes_on_request(self):
        policy = LoadFactorPolicy(min_buckets=4).deferred()
        table = SlabHash(4, alloc_config=ALLOC, seed=9, policy=policy)
        keys = make_keys(800, seed=9)
        table.bulk_insert(keys, keys)
        assert table.num_buckets == 4  # nothing happened automatically
        results = table.maybe_resize()
        assert results and all(r.trigger == "policy" for r in results)
        assert table.num_buckets > 4
        assert policy.decide(len(table), table.num_buckets, table.config.elements_per_slab) is None

    def test_auto_policy_grows_and_shrinks_through_churn(self):
        policy = LoadFactorPolicy(min_buckets=4)
        table = SlabHash(4, alloc_config=ALLOC, seed=13, policy=policy)
        keys = make_keys(900, seed=13)
        for chunk in np.array_split(keys, 6):
            table.bulk_insert(chunk, chunk)
        assert table.resize_stats.grows >= 1
        grown = table.num_buckets
        assert grown > 4
        for chunk in np.array_split(keys[:850], 6):
            table.bulk_delete(chunk)
        assert table.resize_stats.shrinks >= 1
        assert table.num_buckets < grown
        eps = table.config.elements_per_slab
        assert policy.decide(len(table), table.num_buckets, eps) is None
        # Surviving contents are fully intact after all the migrations.
        assert np.array_equal(
            table.bulk_search(keys[850:]), keys[850:].astype(np.uint32)
        )
