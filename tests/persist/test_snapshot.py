"""Snapshot round-trip: bit-identical restore on both backends.

"Bit-identical" is the acceptance bar of the persistence layer: the restored
table must match the original in items (content *and* bucket scan order),
chain structure, allocator occupancy and device counters — and, because the
simulator is deterministic given state, every *future* operation must then
produce identical results and identical counter deltas.  These tests assert
all of it, for single tables (both backends, both layouts, both key
semantics) and for the sharded engine's manifest-directory format.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.config import SlabAllocConfig
from repro.core.constants import SEARCH_NOT_FOUND
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.engine import ShardedSlabHash
from repro.persist import SNAPSHOT_VERSION, load, save

from tests.conftest import make_keys

SMALL_ALLOC = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=8, units_per_block=64)


def assert_bit_identical(original, restored):
    """The full equivalence contract between a table/engine and its restore."""
    originals = original.shards if isinstance(original, ShardedSlabHash) else [original]
    restoreds = restored.shards if isinstance(restored, ShardedSlabHash) else [restored]
    assert len(original) == len(restored)
    assert original.items() == restored.items()  # content and scan order
    for table, twin in zip(originals, restoreds):
        assert table.num_buckets == twin.num_buckets
        assert np.array_equal(table.lists.base_slabs, twin.lists.base_slabs)
        assert np.array_equal(table.bucket_slab_counts(), twin.bucket_slab_counts())
        assert table.alloc.allocated_units == twin.alloc.allocated_units
        assert table.alloc.num_super_blocks == twin.alloc.num_super_blocks
        assert table.device.counters.as_dict() == twin.device.counters.as_dict()
        assert table._warp_counter == twin._warp_counter
        assert (table.hash_fn.a, table.hash_fn.b) == (twin.hash_fn.a, twin.hash_fn.b)
        original_addresses, original_words = table.alloc.export_units()
        restored_addresses, restored_words = twin.alloc.export_units()
        assert np.array_equal(original_addresses, restored_addresses)
        assert np.array_equal(original_words, restored_words)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
class TestTableRoundTrip:
    def test_restore_is_bit_identical(self, backend, tmp_path):
        table = SlabHash(32, alloc_config=SMALL_ALLOC, seed=11, backend=backend)
        keys = make_keys(900, seed=11)
        table.bulk_build(keys, keys)
        table.bulk_delete(keys[:300])
        restored = load(save(table, str(tmp_path / "table.npz")))
        assert_bit_identical(table, restored)

    def test_future_operations_stay_counter_identical(self, backend, tmp_path):
        """After a restore, the twin's behavior — results, state, device
        counters — tracks the original exactly, operation for operation."""
        table = SlabHash(16, alloc_config=SMALL_ALLOC, seed=3, backend=backend)
        keys = make_keys(600, seed=3)
        table.bulk_build(keys, keys)
        restored = load(save(table, str(tmp_path / "table.npz")))

        more = make_keys(400, seed=4)
        for twin in (table, restored):
            twin.bulk_insert(more, more)
            twin.bulk_delete(keys[:200])
            twin.flush()
        assert np.array_equal(table.bulk_search(more), restored.bulk_search(more))
        assert_bit_identical(table, restored)

    def test_key_only_mode_round_trips(self, backend, tmp_path):
        table = SlabHash(
            16, alloc_config=SMALL_ALLOC, seed=5, backend=backend, key_value=False
        )
        keys = make_keys(500, seed=5)
        table.bulk_build(keys)
        restored = load(save(table, str(tmp_path / "table.npz")))
        assert_bit_identical(table, restored)
        assert restored.config.key_value is False

    def test_policy_and_resize_stats_survive(self, backend, tmp_path):
        policy = LoadFactorPolicy(min_buckets=2)
        table = SlabHash(
            2, alloc_config=SMALL_ALLOC, seed=9, backend=backend, policy=policy
        )
        keys = make_keys(700, seed=9)
        table.bulk_insert(keys, keys)      # auto-policy grows
        table.bulk_delete(keys[:650])      # ... and shrinks
        assert table.resize_stats.grows >= 1 and table.resize_stats.shrinks >= 1
        restored = load(save(table, str(tmp_path / "table.npz")))
        assert restored.policy == policy
        assert restored.resize_stats.as_dict() == table.resize_stats.as_dict()
        assert_bit_identical(table, restored)

    def test_resized_table_round_trips(self, backend, tmp_path):
        """The hash draw survives a resize (re-ranged (a, b)), so a snapshot
        taken after resizing must restore the re-ranged function, not a fresh
        draw."""
        table = SlabHash(8, alloc_config=SMALL_ALLOC, seed=13, backend=backend)
        keys = make_keys(400, seed=13)
        table.bulk_build(keys, keys)
        table.resize(64)
        restored = load(save(table, str(tmp_path / "table.npz")))
        assert_bit_identical(table, restored)
        assert np.array_equal(restored.bulk_search(keys), keys.astype(np.uint32))


class TestDuplicateKeySemantics:
    """Round-trip coverage for the two key-uniqueness modes (satellite:
    duplicate contents must keep their exact ``items()`` order, because
    delete / search_all semantics depend on scan order)."""

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_duplicates_mode_preserves_items_order_and_counters(self, backend, tmp_path):
        table = SlabHash(
            4, alloc_config=SMALL_ALLOC, seed=21, backend=backend, unique_keys=False
        )
        keys = make_keys(120, seed=21)
        # Every key three times with distinct values: items() order now
        # encodes which copy is "least recent" for delete/search_all.
        dup_keys = np.concatenate([keys, keys, keys])
        dup_values = np.concatenate(
            [np.full(len(keys), fill, dtype=np.uint32) for fill in (1, 2, 3)]
        )
        table.bulk_insert(dup_keys, dup_values)
        table.delete(int(keys[0]))  # tombstone-free removal of one copy

        restored = load(save(table, str(tmp_path / "table.npz")))
        assert restored.items() == table.items()  # exact order, not just multiset
        assert_bit_identical(table, restored)
        probe = int(keys[1])
        assert restored.search_all(probe) == table.search_all(probe)
        # Deleting on both sides removes the *same* copy next.
        assert restored.delete(probe) == table.delete(probe)
        assert restored.items() == table.items()

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_replace_mode_tombstones_round_trip(self, backend, tmp_path):
        """REPLACE-mode tables carry DELETED_KEY tombstones; the snapshot must
        reproduce them (they shape future traversal costs and counters)."""
        table = SlabHash(2, alloc_config=SMALL_ALLOC, seed=23, backend=backend)
        keys = make_keys(200, seed=23)
        table.bulk_build(keys, keys)
        table.bulk_delete(keys[:80])             # leaves tombstones
        table.bulk_insert(keys[:40], keys[:40])  # replaces into fresh slots
        restored = load(save(table, str(tmp_path / "table.npz")))
        assert_bit_identical(table, restored)
        # Tombstoned slabs are part of the words: future searches cost the same.
        for twin in (table, restored):
            twin.bulk_search(keys)
        assert table.device.counters.as_dict() == restored.device.counters.as_dict()


class TestEngineRoundTrip:
    def test_engine_restore_is_bit_identical(self, tmp_path):
        engine = ShardedSlabHash(
            3, 8, alloc_config=SMALL_ALLOC, seed=31,
            load_factor_policy=LoadFactorPolicy(min_buckets=2),
        )
        keys = make_keys(900, seed=31)
        engine.bulk_build(keys, keys)
        engine.bulk_delete(keys[:200])
        path = str(tmp_path / "engine-snapshot")
        restored = load(save(engine, path))
        assert isinstance(restored, ShardedSlabHash)
        assert_bit_identical(engine, restored)
        assert np.array_equal(restored._ops_routed, engine._ops_routed)
        # Router draw restored: every key routes to the same shard.
        assert np.array_equal(restored.router.route(keys), engine.router.route(keys))

    def test_engine_future_behavior_tracks_original(self, tmp_path):
        engine = ShardedSlabHash(2, 16, alloc_config=SMALL_ALLOC, seed=37)
        keys = make_keys(500, seed=37)
        engine.bulk_build(keys, keys)
        restored = load(save(engine, str(tmp_path / "engine-snapshot")))
        more = make_keys(300, seed=38)
        for twin in (engine, restored):
            twin.bulk_insert(more, more)
            twin.bulk_delete(keys[:100])
        assert_bit_identical(engine, restored)

    def test_manifest_is_versioned_json(self, tmp_path):
        engine = ShardedSlabHash(2, 4, alloc_config=SMALL_ALLOC, seed=41)
        path = str(tmp_path / "engine-snapshot")
        save(engine, path)
        with open(os.path.join(path, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["version"] == SNAPSHOT_VERSION
        assert manifest["kind"] == "sharded_slab_hash"
        assert manifest["router"] == {"a": engine.router._hash.a, "b": engine.router._hash.b}
        assert len(manifest["shards"]) == 2
        for name in manifest["shards"]:
            assert os.path.exists(os.path.join(path, name))

    def test_identical_engines_write_identical_bytes(self, tmp_path):
        keys = make_keys(400, seed=43)
        paths = []
        for name in ("first", "second"):
            engine = ShardedSlabHash(3, 8, alloc_config=SMALL_ALLOC, seed=43)
            engine.bulk_build(keys, keys)
            engine.bulk_delete(keys[:50])
            paths.append(save(engine, str(tmp_path / name)))
        names = sorted(os.listdir(paths[0]))
        assert names == sorted(os.listdir(paths[1]))
        for name in names:
            with open(os.path.join(paths[0], name), "rb") as a, open(
                os.path.join(paths[1], name), "rb"
            ) as b:
                assert a.read() == b.read(), name

    def test_engine_saved_mid_migration_round_trips(self, tmp_path):
        engine = ShardedSlabHash(
            2, 24, alloc_config=SMALL_ALLOC, seed=47, backend="vectorized"
        )
        keys = make_keys(300, seed=47)
        engine.bulk_insert(keys, keys)
        engine.resize_shard(1, 48, incremental=True, step_buckets=4)
        engine.migrate_step_shard(1)
        restored = load(save(engine, str(tmp_path / "engine-snapshot")))
        assert restored.migrating_shards() == [1]
        assert (
            restored.shards[1].migration.watermark
            == engine.shards[1].migration.watermark
        )
        assert_bit_identical(engine, restored)
        # Both finish the migration step for step, then agree bit for bit.
        while engine.migrating_shards():
            a = engine.migrate_step_shard(1)
            b = restored.migrate_step_shard(1)
            assert (a.buckets_moved, a.items_moved, a.watermark) == (
                b.buckets_moved,
                b.items_moved,
                b.watermark,
            )
        assert restored.migrating_shards() == []
        assert_bit_identical(engine, restored)
        assert np.array_equal(restored.bulk_search(keys), keys)

    def test_loaded_shard_snapshot_restores_one_slot(self, tmp_path):
        """An engine snapshot's shard ``i`` can replace shard ``i`` of a live
        engine, leaving every other shard untouched."""
        engine = ShardedSlabHash(2, 16, alloc_config=SMALL_ALLOC, seed=53)
        keys = make_keys(300, seed=53)
        engine.bulk_build(keys, keys)
        snapshot = load(save(engine, str(tmp_path / "engine-snapshot")))
        engine.bulk_delete(keys)
        assert len(engine) == 0
        engine.shards[0] = snapshot.shards[0]
        assert engine.devices[0] is snapshot.shards[0].device
        assert len(engine.shards[1]) == 0
        assert len(engine) == len(snapshot.shards[0])
        owner = engine.router.route(keys)
        found = engine.bulk_search(keys)
        assert np.array_equal(found[owner == 0], keys[owner == 0])
        assert np.all(found[owner == 1] == SEARCH_NOT_FOUND)


class TestFormatGuards:
    def test_save_rejects_other_objects(self, tmp_path):
        with pytest.raises(TypeError):
            save({"not": "a table"}, str(tmp_path / "nope.npz"))

    def test_load_rejects_unknown_version(self, tmp_path):
        table = SlabHash(4, alloc_config=SMALL_ALLOC, seed=1)
        path = str(tmp_path / "table.npz")
        save(table, path)
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(str(archive["header"][()]))
            arrays = {name: archive[name] for name in archive.files if name != "header"}
        header["version"] = SNAPSHOT_VERSION + 1
        with open(path, "wb") as handle:
            np.savez(handle, header=np.array(json.dumps(header)), **arrays)
        with pytest.raises(ValueError, match="version"):
            load(path)

    @pytest.mark.parametrize("version", [2, SNAPSHOT_VERSION + 1])
    def test_load_rejects_other_manifest_versions(self, tmp_path, version):
        """A v2 manifest may name another routing policy; it is refused, not misread."""
        path = str(tmp_path / "engine-snapshot")
        save(ShardedSlabHash(2, 4, alloc_config=SMALL_ALLOC, seed=1), path)
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["version"] = version
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="version"):
            load(path)

    def test_light_allocator_round_trips(self, tmp_path):
        table = SlabHash(4, light_alloc=True, alloc_config=SMALL_ALLOC, seed=1)
        keys = make_keys(100, seed=1)
        table.bulk_build(keys, keys)
        restored = load(save(table, str(tmp_path / "light.npz")))
        assert restored.alloc.light
        assert_bit_identical(table, restored)

    def test_table_save_load_hooks(self, tmp_path):
        table = SlabHash(8, alloc_config=SMALL_ALLOC, seed=2)
        keys = make_keys(100, seed=2)
        table.bulk_build(keys, keys)
        restored = SlabHash.load(table.save(str(tmp_path / "hook.npz")))
        assert_bit_identical(table, restored)

    def test_engine_save_load_hooks(self, tmp_path):
        engine = ShardedSlabHash(2, 4, alloc_config=SMALL_ALLOC, seed=3)
        keys = make_keys(100, seed=3)
        engine.bulk_build(keys, keys)
        restored = ShardedSlabHash.load(engine.save(str(tmp_path / "hook-dir")))
        assert_bit_identical(engine, restored)

    def test_load_hook_rejects_wrong_kind(self, tmp_path):
        table = SlabHash(4, alloc_config=SMALL_ALLOC, seed=4)
        path = table.save(str(tmp_path / "table.npz"))
        with pytest.raises((TypeError, ValueError)):
            ShardedSlabHash.load(path)
