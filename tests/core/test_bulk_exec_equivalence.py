"""Property-style equivalence suite: vectorized backend vs reference schedule.

The vectorized bulk backend (:mod:`repro.core.bulk_exec`) promises *bit
identical* behaviour to the sequential reference schedule: same return arrays,
same final table state (base slabs, chain addresses, chained slab contents,
allocator bookkeeping, warp ids), and the same device counters event for
event.  These tests drive paired tables — one per backend — through the same
operation streams and assert all three, sweeping key distributions, all four
(key_value x unique_keys) modes, both allocator variants, allocator growth and
exhaustion, and the sharded engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.bulk_exec import BACKENDS, get_default_backend, set_default_backend
from repro.core.config import SlabAllocConfig
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.engine.sharded import ShardedSlabHash
from repro.gpusim.device import Device
from repro.gpusim.errors import AllocationError

SMALL_ALLOC = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=4, units_per_block=64)


# --------------------------------------------------------------------------- #
# Comparison helpers
# --------------------------------------------------------------------------- #


def table_pair(**kwargs):
    reference = SlabHash(backend="reference", **kwargs)
    vectorized = SlabHash(backend="vectorized", **kwargs)
    return reference, vectorized


def assert_same_state(reference: SlabHash, vectorized: SlabHash) -> None:
    """Full structural equality: every slab word, chain link and counter."""
    assert np.array_equal(reference.lists.base_slabs, vectorized.lists.base_slabs)
    for bucket in range(reference.num_buckets):
        chain_r = reference.lists.chain_addresses(bucket)
        chain_v = vectorized.lists.chain_addresses(bucket)
        assert chain_r == chain_v, f"chain addresses differ in bucket {bucket}"
        for address in chain_r:
            store_r, row_r = reference.alloc.slab_view(address)
            store_v, row_v = vectorized.alloc.slab_view(address)
            assert np.array_equal(store_r[row_r], store_v[row_v]), (
                f"slab 0x{address:08X} contents differ"
            )
    assert reference.alloc.allocated_units == vectorized.alloc.allocated_units
    assert reference.alloc.num_super_blocks == vectorized.alloc.num_super_blocks
    assert reference._warp_counter == vectorized._warp_counter
    assert reference.device.counters.as_dict() == vectorized.device.counters.as_dict()


def run_both(reference: SlabHash, vectorized: SlabHash, stream) -> None:
    """Apply an operation stream to both tables, asserting results and state."""
    for op, payload in stream:
        if op == "insert":
            keys, values = payload
            if reference.config.key_value:
                reference.bulk_insert(keys, values)
                vectorized.bulk_insert(keys, values)
            else:
                reference.bulk_insert(keys)
                vectorized.bulk_insert(keys)
        elif op == "search":
            out_r = reference.bulk_search(payload)
            out_v = vectorized.bulk_search(payload)
            assert np.array_equal(out_r, out_v), "bulk_search results differ"
        elif op == "delete":
            out_r = reference.bulk_delete(payload)
            out_v = vectorized.bulk_delete(payload)
            assert np.array_equal(out_r, out_v), "bulk_delete results differ"
        else:  # pragma: no cover - test-stream typo guard
            raise ValueError(op)
        assert_same_state(reference, vectorized)


def random_stream(rng: np.random.Generator, *, key_domain: int, steps: int = 8):
    """A mixed insert/search/delete stream drawn from one key distribution."""
    stream = []
    for step in range(steps):
        count = int(rng.integers(1, 260))
        keys = rng.integers(0, key_domain, size=count).astype(np.uint32)
        values = rng.integers(0, 2**31, size=count).astype(np.uint32)
        stream.append((("insert", "search", "delete")[step % 3],
                       (keys, values) if step % 3 == 0 else keys))
    return stream


# --------------------------------------------------------------------------- #
# Mode and distribution sweeps
# --------------------------------------------------------------------------- #


class TestModeSweep:
    @pytest.mark.parametrize("key_value", [True, False])
    @pytest.mark.parametrize("unique_keys", [True, False])
    @pytest.mark.parametrize("light_alloc", [False, True])
    def test_mixed_stream_equivalence(self, key_value, unique_keys, light_alloc):
        reference, vectorized = table_pair(
            num_buckets=5,
            key_value=key_value,
            unique_keys=unique_keys,
            light_alloc=light_alloc,
            alloc_config=SMALL_ALLOC,
            seed=11,
        )
        rng = np.random.default_rng(hash((key_value, unique_keys, light_alloc)) % 2**32)
        run_both(reference, vectorized, random_stream(rng, key_domain=1500))

    @pytest.mark.parametrize("distribution", ["uniform", "heavy-duplicates", "clustered", "sequential"])
    def test_key_distributions(self, distribution):
        rng = np.random.default_rng(hash(distribution) % 2**32)
        if distribution == "uniform":
            draw = lambda n: rng.integers(0, 2**30, n)
        elif distribution == "heavy-duplicates":
            draw = lambda n: rng.integers(0, 40, n)  # ~n/40 copies per key
        elif distribution == "clustered":
            draw = lambda n: rng.integers(0, 8, n) * 1000 + rng.integers(0, 4, n)
        else:
            draw = lambda n: np.arange(n) * 3
        reference, vectorized = table_pair(
            num_buckets=4, unique_keys=False, alloc_config=SMALL_ALLOC, seed=3
        )
        stream = []
        for step in range(6):
            keys = draw(int(rng.integers(1, 200))).astype(np.uint32)
            values = (keys + 1).astype(np.uint32)
            stream.append((("insert", "search", "delete")[step % 3],
                           (keys, values) if step % 3 == 0 else keys))
        run_both(reference, vectorized, stream)

    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 64, 100])
    def test_warp_boundary_batch_sizes(self, count):
        keys = (np.arange(count, dtype=np.uint32) * 17 + 1).astype(np.uint32)
        values = np.arange(count, dtype=np.uint32)
        reference, vectorized = table_pair(num_buckets=3, alloc_config=SMALL_ALLOC, seed=5)
        run_both(
            reference,
            vectorized,
            [("insert", (keys, values)), ("search", keys), ("delete", keys)],
        )


class TestSemanticsEdges:
    @pytest.mark.smoke
    def test_replace_overwrites_and_counts_match(self):
        keys = np.arange(1, 200, dtype=np.uint32)
        reference, vectorized = table_pair(num_buckets=4, alloc_config=SMALL_ALLOC, seed=7)
        run_both(
            reference,
            vectorized,
            [
                ("insert", (keys, keys)),
                ("insert", (keys, keys + 9)),  # pure REPLACE traffic
                ("search", keys),
            ],
        )
        assert vectorized.search(1) == 10

    def test_deletes_of_absent_keys_traverse_full_chains(self):
        present = np.arange(1, 400, dtype=np.uint32)
        absent = np.arange(10_000, 10_400, dtype=np.uint32)
        reference, vectorized = table_pair(num_buckets=2, alloc_config=SMALL_ALLOC, seed=9)
        run_both(
            reference,
            vectorized,
            [
                ("insert", (present, present)),
                ("delete", absent),                # all misses, multi-slab chains
                ("delete", np.concatenate([present[:50], absent[:50]])),
                ("search", np.concatenate([present, absent])),
            ],
        )

    def test_duplicate_deletes_in_one_batch(self):
        keys = np.repeat(np.arange(10, dtype=np.uint32), 6)
        reference, vectorized = table_pair(
            num_buckets=2, unique_keys=False, alloc_config=SMALL_ALLOC, seed=13
        )
        run_both(
            reference,
            vectorized,
            [
                ("insert", (keys, keys + 1)),
                ("delete", np.repeat(np.arange(12, dtype=np.uint32), 4)),
                ("search", keys),
            ],
        )

    def test_duplicates_mode_recycles_mid_chain_empties(self):
        keys = np.repeat(np.arange(20, dtype=np.uint32), 10)
        reference, vectorized = table_pair(
            num_buckets=3, unique_keys=False, alloc_config=SMALL_ALLOC, seed=15
        )
        run_both(
            reference,
            vectorized,
            [
                ("insert", (keys, keys)),
                ("delete", keys[::2]),            # punches mid-chain EMPTY holes
                ("insert", (keys[:120], keys[:120] + 5)),  # must reuse them in scan order
                ("search", np.arange(25, dtype=np.uint32)),
            ],
        )

    def test_flush_then_more_bulk_traffic(self):
        rng = np.random.default_rng(17)
        keys = rng.choice(2**20, 500, replace=False).astype(np.uint32)
        reference, vectorized = table_pair(num_buckets=3, alloc_config=SMALL_ALLOC, seed=17)
        reference.bulk_build(keys, keys)
        vectorized.bulk_build(keys, keys)
        reference.bulk_delete(keys[:350])
        vectorized.bulk_delete(keys[:350])
        reference.flush()
        vectorized.flush()
        assert_same_state(reference, vectorized)
        run_both(
            reference,
            vectorized,
            [("insert", (keys[:200], keys[:200] + 2)), ("search", keys)],
        )

    def test_single_operation_api_goes_through_bulk_paths(self):
        reference, vectorized = table_pair(num_buckets=2, alloc_config=SMALL_ALLOC, seed=19)
        for table in (reference, vectorized):
            table.insert(10, 1)
            table.insert(11, 2)
            table.insert(10, 3)
        assert reference.search(10) == vectorized.search(10) == 3
        assert reference.delete(10) is vectorized.delete(10) is True
        assert reference.delete(10) is vectorized.delete(10) is False
        assert_same_state(reference, vectorized)


class TestAllocatorInteraction:
    def test_growth_path_counts_identically(self):
        tiny = SlabAllocConfig(num_super_blocks=1, num_memory_blocks=2,
                               units_per_block=32, growth_threshold=2, max_super_blocks=8)
        rng = np.random.default_rng(21)
        keys = rng.choice(2**24, 1500, replace=False).astype(np.uint32)
        reference, vectorized = table_pair(num_buckets=2, alloc_config=tiny, seed=21)
        run_both(reference, vectorized, [("insert", (keys, keys)), ("search", keys)])
        assert vectorized.alloc.num_super_blocks > 1  # growth actually happened

    def test_exhaustion_mid_batch_matches_reference_partial_state(self):
        def build(backend):
            device = Device()
            alloc = SlabAlloc(
                device,
                SlabAllocConfig(1, 1, 32, growth_threshold=10_000, max_super_blocks=1),
                seed=1,
            )
            table = SlabHash(1, device=device, alloc=alloc, seed=2, backend=backend)
            rng = np.random.default_rng(23)
            keys = rng.choice(2**24, 2000, replace=False).astype(np.uint32)
            with pytest.raises(AllocationError):
                table.bulk_build(keys, keys)
            return table

        reference, vectorized = build("reference"), build("vectorized")
        assert len(reference.items()) > 0
        assert reference.items() == vectorized.items()
        assert_same_state(reference, vectorized)


class TestShardedEngine:
    def test_sharded_engine_backends_are_equivalent(self):
        rng = np.random.default_rng(29)
        keys = rng.choice(2**24, 700, replace=False).astype(np.uint32)
        values = np.arange(700, dtype=np.uint32)

        def build(backend):
            return ShardedSlabHash(
                3, 4, alloc_config=SMALL_ALLOC, seed=31, backend=backend
            )

        reference, vectorized = build("reference"), build("vectorized")
        reference.bulk_build(keys, values)
        vectorized.bulk_build(keys, values)
        assert np.array_equal(reference.bulk_search(keys), vectorized.bulk_search(keys))
        assert np.array_equal(
            reference.bulk_delete(keys[:300]), vectorized.bulk_delete(keys[:300])
        )
        for shard_r, shard_v in zip(reference.shards, vectorized.shards):
            assert_same_state(shard_r, shard_v)

    def test_sharded_measure_is_backend_independent(self):
        rng = np.random.default_rng(33)
        keys = rng.choice(2**24, 600, replace=False).astype(np.uint32)
        values = np.arange(600, dtype=np.uint32)
        stats = {}
        for backend in BACKENDS:
            engine = ShardedSlabHash(2, 8, alloc_config=SMALL_ALLOC, seed=35, backend=backend)
            stats[backend] = engine.measure(
                lambda: engine.bulk_build(keys, values), label="build"
            )
        assert stats["vectorized"].parallel_seconds == stats["reference"].parallel_seconds
        assert stats["vectorized"].aggregate.as_dict() == stats["reference"].aggregate.as_dict()


class TestBackendSelection:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SlabHash(4, backend="warp-speed")
        with pytest.raises(ValueError, match="unknown backend"):
            set_default_backend("warp-speed")

    def test_default_backend_round_trip(self):
        assert get_default_backend() == "vectorized"
        try:
            set_default_backend("reference")
            assert SlabHash(2, alloc_config=SMALL_ALLOC).backend == "reference"
        finally:
            set_default_backend("vectorized")
        assert SlabHash(2, alloc_config=SMALL_ALLOC).backend == "vectorized"

    def test_unscheduled_concurrent_batch_follows_the_backend(self):
        # Without a scheduler, concurrent_batch runs the deterministic phased
        # schedule, which the vectorized backend resolves through its fast
        # path with identical results and counters (the full sweep lives in
        # tests/core/test_concurrent_exec_equivalence.py).
        rng = np.random.default_rng(37)
        keys = rng.choice(2**20, 128, replace=False).astype(np.uint32)
        ops = np.full(128, C.OP_INSERT, dtype=np.int64)
        results = {}
        for backend in BACKENDS:
            table = SlabHash(4, alloc_config=SMALL_ALLOC, seed=39, backend=backend)
            results[backend] = table.concurrent_batch(ops, keys, keys)
            results[backend + "-counters"] = table.device.counters.as_dict()
        assert np.array_equal(results["vectorized"], results["reference"])
        assert results["vectorized-counters"] == results["reference-counters"]
