"""Equivalence suite for unscheduled batches: vectorized vs reference.

An *unscheduled* ``concurrent_batch`` (``scheduler=None``) drains one warp
program per (chunk, phase) sequentially — a deterministic schedule — so the
vectorized backend resolves it through its one phased kernel,
:meth:`repro.core.bulk_exec.BulkExecutor.run`, and promises *bit identical*
behaviour to the reference generators: same result arrays, same final table
state (every slab word, chain link, allocator bookkeeping, warp ids) and the
same device counters event for event.  These tests drive paired tables
through mixed insert/delete/search batches sweeping the paper's Gamma
distributions, all four (key_value x unique_keys) modes, both allocator
variants, warp-boundary batch sizes, conflicting same-key operations,
repeated deletions and searches of one key (the kernel's deletion-rank
rule), allocator growth/exhaustion, the sharded engine, the documented
fallbacks (explicit schedulers, non-canonical layouts), and the identity of
each bulk op with a single-op-type batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.engine.sharded import ShardedSlabHash
from repro.gpusim.device import Device
from repro.gpusim.errors import AllocationError
from repro.gpusim.scheduler import WarpScheduler
from repro.workloads.distributions import PAPER_DISTRIBUTIONS, build_concurrent_workload
from repro.workloads.generators import unique_random_keys, values_for_keys

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


def run_concurrent_both(reference, vectorized, op_codes, keys, values=None):
    """Run one mixed batch on both backends, asserting results and state."""
    if not reference.config.key_value:
        values = None
    out_r = reference.concurrent_batch(op_codes, keys, values)
    out_v = vectorized.concurrent_batch(op_codes, keys, values)
    assert np.array_equal(out_r, out_v), "concurrent_batch results differ"
    assert_same_state(reference, vectorized)
    return out_v


def build_both(reference, vectorized, keys):
    values = values_for_keys(keys) if reference.config.key_value else None
    reference.bulk_build(keys, values)
    vectorized.bulk_build(keys, values)


def rank_rule_batches(table, keys, seed):
    """Two 128-op batches, as (op codes, keys), for the deletion-rank rule.

    The first has no insertion: two to four deletions each of six keys and
    searches of the same keys, shuffled over four warp chunks, so searches
    run before, between and after the deletions of their key.  In the second
    every insertion targets one bucket; it also deletes (twice each) and
    searches keys of that bucket and of a bucket no insertion targets.
    """
    rng = np.random.default_rng(seed)
    hot = keys[:6]
    deletes = np.repeat(hot, 2 + np.arange(6) % 3)
    ops = np.full(128, C.OP_SEARCH, dtype=np.int64)
    ops[: len(deletes)] = C.OP_DELETE
    batch = np.concatenate([deletes, rng.choice(hot, 128 - len(deletes))])
    order = rng.permutation(128)
    batches = [(ops[order], batch[order].astype(np.uint32))]

    buckets = table.hash_fn.hash_array(keys)
    targeted = buckets[0]
    untargeted = buckets[buckets != targeted][0]
    candidates = np.arange(10**6, 10**6 + 2000, dtype=np.uint32)
    inserted = candidates[table.hash_fn.hash_array(candidates) == targeted][:40]
    doomed = np.concatenate(
        [keys[buckets == targeted][:3], keys[buckets == untargeted][:3]]
    )
    searched = rng.choice(doomed, 128 - len(inserted) - 2 * len(doomed))
    ops = np.repeat([C.OP_INSERT, C.OP_DELETE, C.OP_SEARCH],
                    [len(inserted), 2 * len(doomed), len(searched)]).astype(np.int64)
    batch = np.concatenate([inserted, np.repeat(doomed, 2), searched])
    order = rng.permutation(128)
    batches.append((ops[order], batch[order].astype(np.uint32)))
    return batches


# --------------------------------------------------------------------------- #
# Mode, distribution and shape sweeps
# --------------------------------------------------------------------------- #


class TestModeSweep:
    @pytest.mark.parametrize("key_value", [True, False])
    @pytest.mark.parametrize("unique_keys", [True, False])
    @pytest.mark.parametrize("light_alloc", [False, True])
    def test_modes_with_mixed_batches(self, key_value, unique_keys, light_alloc):
        reference, vectorized = table_pair(
            num_buckets=5,
            key_value=key_value,
            unique_keys=unique_keys,
            light_alloc=light_alloc,
            alloc_config=SMALL_ALLOC,
            seed=11,
        )
        keys = unique_random_keys(400, seed=11)
        build_both(reference, vectorized, keys)
        for step in range(3):  # repeated batches: later ones start from mutated state
            workload = build_concurrent_workload(
                PAPER_DISTRIBUTIONS[1], 700, keys, seed=13 + step
            )
            run_concurrent_both(
                reference, vectorized, workload.op_codes, workload.keys, workload.values
            )
        # Three more copies of some keys (with duplicates allowed) for the
        # deletion-rank batches to delete and search past.
        for _ in range(3):
            build_both(reference, vectorized, keys[:60])
        for op_codes, batch_keys in rank_rule_batches(vectorized, keys[:60], seed=17):
            run_concurrent_both(reference, vectorized, op_codes, batch_keys, batch_keys + 7)

    @pytest.mark.smoke
    @pytest.mark.parametrize(
        "distribution", PAPER_DISTRIBUTIONS, ids=lambda d: d.describe()
    )
    def test_paper_distributions(self, distribution):
        reference, vectorized = table_pair(num_buckets=6, alloc_config=SMALL_ALLOC, seed=17)
        keys = unique_random_keys(500, seed=17)
        build_both(reference, vectorized, keys)
        workload = build_concurrent_workload(distribution, 1500, keys, seed=19)
        run_concurrent_both(
            reference, vectorized, workload.op_codes, workload.keys, workload.values
        )

    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 64, 100])
    def test_warp_boundary_batch_sizes(self, count):
        reference, vectorized = table_pair(num_buckets=3, alloc_config=SMALL_ALLOC, seed=23)
        init = np.arange(1, 40, dtype=np.uint32)
        build_both(reference, vectorized, init)
        rng = np.random.default_rng(count)
        op_codes = rng.integers(1, 4, size=count).astype(np.int64)
        keys = rng.integers(1, 80, size=count).astype(np.uint32)
        values = rng.integers(0, 2**31, size=count).astype(np.uint32)
        out = run_concurrent_both(reference, vectorized, op_codes, keys, values)
        assert out.shape == (count,)


class TestSemanticsEdges:
    def test_conflicting_operations_on_same_keys(self):
        """Insert/delete/search the same small key set repeatedly in one batch."""
        for unique_keys in (True, False):
            for key_value in (True, False):
                reference, vectorized = table_pair(
                    num_buckets=3,
                    key_value=key_value,
                    unique_keys=unique_keys,
                    alloc_config=SMALL_ALLOC,
                    seed=29,
                )
                init = np.arange(1, 120, dtype=np.uint32)
                build_both(reference, vectorized, init)
                rng = np.random.default_rng(31)
                op_codes = rng.integers(1, 4, 900).astype(np.int64)
                keys = rng.integers(1, 60, 900).astype(np.uint32)
                values = rng.integers(0, 2**30, 900).astype(np.uint32)
                run_concurrent_both(reference, vectorized, op_codes, keys, values)

    def test_search_rank_relative_to_delete(self):
        """A search sees its key until the deletion's serial rank, then misses."""
        reference, vectorized = table_pair(num_buckets=2, alloc_config=SMALL_ALLOC, seed=3)
        init = np.arange(1, 200, dtype=np.uint32)
        build_both(reference, vectorized, init)
        # warp 0 deletes key 50; warp 1 searches it (runs after -> miss).
        # warp 2 searches key 60; warp 3 deletes it (search runs first -> hit).
        op_codes = np.concatenate(
            [
                np.full(32, C.OP_DELETE),
                np.full(32, C.OP_SEARCH),
                np.full(32, C.OP_SEARCH),
                np.full(32, C.OP_DELETE),
            ]
        ).astype(np.int64)
        keys = np.concatenate(
            [np.full(32, 50), np.full(32, 50), np.full(32, 60), np.full(32, 60)]
        ).astype(np.uint32)
        values = np.zeros(128, dtype=np.uint32)
        out = run_concurrent_both(reference, vectorized, op_codes, keys, values)
        assert out[32] == C.SEARCH_NOT_FOUND
        assert int(out[64]) == int(values_for_keys(np.array([60], dtype=np.uint32))[0])

    def test_insert_then_search_within_one_batch(self):
        """Searches of keys inserted earlier in the batch observe them."""
        reference, vectorized = table_pair(num_buckets=2, alloc_config=SMALL_ALLOC, seed=5)
        new_keys = np.arange(1000, 1032, dtype=np.uint32)
        op_codes = np.concatenate(
            [np.full(32, C.OP_INSERT), np.full(32, C.OP_SEARCH)]
        ).astype(np.int64)
        keys = np.concatenate([new_keys, new_keys]).astype(np.uint32)
        values = np.concatenate([new_keys + 5, np.zeros(32, dtype=np.uint32)]).astype(np.uint32)
        out = run_concurrent_both(reference, vectorized, op_codes, keys, values)
        assert np.array_equal(out[32:], new_keys + 5)

    def test_duplicates_mode_recycles_slots_mid_batch(self):
        """Deletions punch EMPTY holes that later insertions claim in scan order."""
        reference, vectorized = table_pair(
            num_buckets=2, unique_keys=False, alloc_config=SMALL_ALLOC, seed=7
        )
        init = np.repeat(np.arange(1, 21, dtype=np.uint32), 8)
        build_both(reference, vectorized, init)
        op_codes = np.concatenate(
            [np.full(64, C.OP_DELETE), np.full(64, C.OP_INSERT), np.full(32, C.OP_SEARCH)]
        ).astype(np.int64)
        rng = np.random.default_rng(9)
        keys = np.concatenate(
            [
                np.repeat(np.arange(1, 17, dtype=np.uint32), 4),
                rng.integers(100, 160, 64),
                rng.integers(1, 25, 32),
            ]
        ).astype(np.uint32)
        values = (keys + 1).astype(np.uint32)
        run_concurrent_both(reference, vectorized, op_codes, keys, values)

    def test_unknown_op_codes_are_ignored(self):
        """Codes outside {INSERT, DELETE, SEARCH} execute nothing, result 0."""
        reference, vectorized = table_pair(num_buckets=2, alloc_config=SMALL_ALLOC, seed=11)
        init = np.arange(1, 50, dtype=np.uint32)
        build_both(reference, vectorized, init)
        op_codes = np.array([C.OP_SEARCH, 0, 99, C.OP_INSERT, -1, C.OP_DELETE], dtype=np.int64)
        keys = np.array([10, 11, 12, 500, 14, 20], dtype=np.uint32)
        values = (keys + 3).astype(np.uint32)
        out = run_concurrent_both(reference, vectorized, op_codes, keys, values)
        assert out[1] == out[2] == out[4] == 0

    def test_chain_growth_visible_to_later_misses(self):
        """Earlier inserts append slabs; later miss traversals count the longer chain."""
        reference, vectorized = table_pair(num_buckets=1, alloc_config=SMALL_ALLOC, seed=13)
        init = np.arange(1, 20, dtype=np.uint32)
        build_both(reference, vectorized, init)
        op_codes = np.concatenate(
            [np.full(64, C.OP_INSERT), np.full(32, C.OP_SEARCH), np.full(32, C.OP_DELETE)]
        ).astype(np.int64)
        keys = np.concatenate(
            [
                np.arange(1000, 1064, dtype=np.uint32),  # grows the single chain
                np.arange(5000, 5032, dtype=np.uint32),  # all misses
                np.arange(6000, 6032, dtype=np.uint32),  # all misses
            ]
        ).astype(np.uint32)
        values = (keys + 1).astype(np.uint32)
        run_concurrent_both(reference, vectorized, op_codes, keys, values)
        assert vectorized.total_slabs() > 2  # growth actually happened

    def test_mixed_batches_interleaved_with_bulk_traffic(self):
        reference, vectorized = table_pair(num_buckets=4, alloc_config=SMALL_ALLOC, seed=15)
        keys = unique_random_keys(300, seed=15)
        build_both(reference, vectorized, keys)
        workload = build_concurrent_workload(PAPER_DISTRIBUTIONS[0], 500, keys, seed=17)
        run_concurrent_both(
            reference, vectorized, workload.op_codes, workload.keys, workload.values
        )
        extra = unique_random_keys(100, seed=19)
        for table in (reference, vectorized):
            table.bulk_insert(extra, values_for_keys(extra))
        assert np.array_equal(reference.bulk_search(extra), vectorized.bulk_search(extra))
        assert_same_state(reference, vectorized)
        workload = build_concurrent_workload(PAPER_DISTRIBUTIONS[2], 500, extra, seed=21)
        run_concurrent_both(
            reference, vectorized, workload.op_codes, workload.keys, workload.values
        )


class TestAllocatorInteraction:
    def test_growth_path_counts_identically(self):
        tiny = SlabAllocConfig(num_super_blocks=1, num_memory_blocks=2,
                               units_per_block=32, growth_threshold=2, max_super_blocks=8)
        reference, vectorized = table_pair(num_buckets=2, alloc_config=tiny, seed=21)
        keys = unique_random_keys(600, seed=21)
        build_both(reference, vectorized, keys)
        rng = np.random.default_rng(23)
        op_codes = np.full(1200, C.OP_INSERT, dtype=np.int64)
        op_codes[::5] = C.OP_SEARCH
        new = rng.choice(2**24, 1200, replace=False).astype(np.uint32)
        run_concurrent_both(reference, vectorized, op_codes, new, new)
        assert vectorized.alloc.num_super_blocks > 1  # growth actually happened

    @pytest.mark.parametrize("unique_keys", [True, False])
    def test_exhaustion_mid_batch_matches_reference_partial_state(self, unique_keys):
        def build(backend):
            device = Device()
            alloc = SlabAlloc(
                device,
                SlabAllocConfig(1, 1, 32, growth_threshold=10_000, max_super_blocks=1),
                seed=1,
            )
            table = SlabHash(
                1, device=device, alloc=alloc, seed=2, backend=backend, unique_keys=unique_keys
            )
            rng = np.random.default_rng(23)
            keys = rng.choice(2**24, 2000, replace=False).astype(np.uint32)
            table.bulk_build(keys[:60], keys[:60])
            op_codes = np.full(2000, C.OP_INSERT, dtype=np.int64)
            op_codes[::7] = C.OP_SEARCH
            op_codes[3::11] = C.OP_DELETE
            # Deletions and searches of built keys (some deleted twice) run
            # vectorized, on both sides of the failing insertion.
            untouched = op_codes != C.OP_INSERT
            keys[untouched] = rng.choice(keys[:60], int(untouched.sum()))
            with pytest.raises(AllocationError):
                table.concurrent_batch(op_codes, keys, keys)
            return table

        reference, vectorized = build("reference"), build("vectorized")
        assert len(reference.items()) > 0
        assert reference.items() == vectorized.items()
        assert_same_state(reference, vectorized)


class TestUniformBatchIdentity:
    """A bulk op is a concurrent batch whose operations share one op code."""

    BULK = {
        C.OP_INSERT: lambda table, keys, values: table.bulk_insert(keys, values),
        C.OP_DELETE: lambda table, keys, values: table.bulk_delete(keys),
        C.OP_SEARCH: lambda table, keys, values: table.bulk_search(keys),
    }

    @staticmethod
    def twins(backend, key_value, unique_keys, alloc_config):
        return tuple(
            SlabHash(
                3, backend=backend, key_value=key_value, unique_keys=unique_keys,
                alloc_config=alloc_config, seed=71,
            )
            for _ in range(2)
        )

    def run_pair(self, bulk, batch, op, keys):
        values = keys * np.uint32(3) if bulk.config.key_value else None
        out_bulk = self.BULK[op](bulk, keys, values)
        out_batch = batch.concurrent_batch(np.full(len(keys), op), keys, values)
        if out_bulk is None:
            assert not out_batch.any()
        else:
            assert np.array_equal(out_bulk, out_batch)
        assert_same_state(bulk, batch)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("key_value", [True, False])
    @pytest.mark.parametrize("unique_keys", [True, False])
    def test_bulk_ops_equal_uniform_concurrent_batches(self, backend, key_value, unique_keys):
        bulk, batch = self.twins(backend, key_value, unique_keys, SMALL_ALLOC)
        rng = np.random.default_rng(73)
        for op, size in [
            (C.OP_INSERT, 500), (C.OP_SEARCH, 300), (C.OP_DELETE, 250),
            (C.OP_INSERT, 130), (C.OP_SEARCH, 0), (C.OP_DELETE, 77), (C.OP_SEARCH, 400),
        ]:
            keys = rng.integers(1, 450, size).astype(np.uint32)  # repeated keys
            self.run_pair(bulk, batch, op, keys)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("key_value", [True, False])
    @pytest.mark.parametrize("unique_keys", [True, False])
    def test_exhaustion_mid_batch_reserves_every_chunk(self, backend, key_value, unique_keys):
        exhaustible = SlabAllocConfig(1, 1, 32, growth_threshold=10_000, max_super_blocks=1)
        bulk, batch = self.twins(backend, key_value, unique_keys, exhaustible)
        keys = np.random.default_rng(79).choice(2**24, 2000, replace=False).astype(np.uint32)
        values = keys * np.uint32(3) if key_value else None
        with pytest.raises(AllocationError):
            bulk.bulk_insert(keys, values)
        with pytest.raises(AllocationError):
            batch.concurrent_batch(np.full(len(keys), C.OP_INSERT), keys, values)
        assert len(bulk.items()) > 0
        assert_same_state(bulk, batch)
        # The launch reserved the warp ids of all its 63 chunks, also of
        # those that never ran.
        assert bulk._warp_counter == 63


class TestShardedEngine:
    def test_sharded_concurrent_batches_are_equivalent(self):
        keys = unique_random_keys(600, seed=29)
        values = values_for_keys(keys)

        def build(backend):
            engine = ShardedSlabHash(
                3, 4, alloc_config=SMALL_ALLOC, seed=31, backend=backend
            )
            engine.bulk_build(keys, values)
            return engine

        reference, vectorized = build("reference"), build("vectorized")
        workload = build_concurrent_workload(PAPER_DISTRIBUTIONS[1], 1200, keys, seed=33)
        out_r = reference.concurrent_batch(workload.op_codes, workload.keys, workload.values)
        out_v = vectorized.concurrent_batch(workload.op_codes, workload.keys, workload.values)
        assert np.array_equal(out_r, out_v)
        for shard_r, shard_v in zip(reference.shards, vectorized.shards):
            assert_same_state(shard_r, shard_v)


class TestFallbacks:
    def test_explicit_scheduler_runs_reference_generators(self):
        """With a WarpScheduler both backends interleave identically (same seed)."""
        outcomes = {}
        keys = unique_random_keys(300, seed=37)
        for backend in ("reference", "vectorized"):
            table = SlabHash(4, alloc_config=SMALL_ALLOC, seed=39, backend=backend)
            table.bulk_build(keys, values_for_keys(keys))
            workload = build_concurrent_workload(PAPER_DISTRIBUTIONS[1], 600, keys, seed=41)
            out = table.concurrent_batch(
                workload.op_codes,
                workload.keys,
                workload.values,
                scheduler=WarpScheduler(seed=43),
            )
            outcomes[backend] = (out, table.device.counters.as_dict())
        assert np.array_equal(outcomes["reference"][0], outcomes["vectorized"][0])
        assert outcomes["reference"][1] == outcomes["vectorized"][1]

    def test_non_canonical_state_falls_back_to_reference(self):
        """External mid-chain EMPTY holes route the call through the generators."""
        pair = table_pair(num_buckets=1, alloc_config=SMALL_ALLOC, seed=45)
        keys = np.arange(1, 40, dtype=np.uint32)
        for table in pair:
            table.bulk_build(keys, keys)
            # Punch a hole: externally EMPTY a mid-chain pair (bypassing the API).
            table.lists.base_slabs[0, 0] = C.EMPTY_KEY
            table.lists.base_slabs[0, 1] = C.EMPTY_VALUE
        reference, vectorized = pair
        rng = np.random.default_rng(47)
        op_codes = rng.integers(1, 4, 200).astype(np.int64)
        probe = rng.integers(1, 60, 200).astype(np.uint32)
        run_concurrent_both(reference, vectorized, op_codes, probe, probe)

    def test_non_canonical_bucket_forces_fallback_only_when_touched(self, monkeypatch):
        """The canonical-layout guard inspects only the buckets a batch hashes
        to, and only for batches with an insertion."""
        reference, vectorized = table_pair(num_buckets=8, alloc_config=SMALL_ALLOC, seed=51)
        keys = np.arange(1, 300, dtype=np.uint32)
        build_both(reference, vectorized, keys)
        holed = 3

        def punch_hole():
            for table in (reference, vectorized):
                table.lists.base_slabs[holed, 0] = C.EMPTY_KEY
                table.lists.base_slabs[holed, 1] = C.EMPTY_VALUE

        punch_hole()
        fallbacks = []
        original = vectorized._reference_concurrent_batch

        def spy(*args):
            fallbacks.append(args[0].tolist())
            return original(*args)

        monkeypatch.setattr(vectorized, "_reference_concurrent_batch", spy)

        rng = np.random.default_rng(53)
        probe = rng.integers(1, 400, 400).astype(np.uint32)
        away = probe[vectorized.hash_fn.hash_array(probe) != holed]
        op_codes = rng.integers(1, 4, len(away)).astype(np.int64)
        run_concurrent_both(reference, vectorized, op_codes, away, away)
        fresh = np.arange(1000, 1200, dtype=np.uint32)
        fresh = fresh[vectorized.hash_fn.hash_array(fresh) != holed]
        reference.bulk_insert(fresh, fresh)
        vectorized.bulk_insert(fresh, fresh)
        assert_same_state(reference, vectorized)
        assert fallbacks == []

        # Deletions and searches only look for live occurrences, so a batch
        # without insertions stays vectorized even when it touches the hole.
        searches = np.full(len(probe), C.OP_SEARCH, dtype=np.int64)
        run_concurrent_both(reference, vectorized, searches, probe, probe)
        op_codes = np.where(rng.random(len(probe)) < 0.5, C.OP_SEARCH, C.OP_DELETE)
        run_concurrent_both(reference, vectorized, op_codes, probe, probe)
        assert fallbacks == []
        # Deletions only tombstone, so the hole stays.
        assert vectorized.lists.base_slabs[holed, 0] == C.EMPTY_KEY

        # A batch with an insertion into the holed bucket falls back, mixed
        # or bulk.
        op_codes = rng.integers(1, 4, len(probe)).astype(np.int64)
        inserted = probe[op_codes == C.OP_INSERT]
        assert (vectorized.hash_fn.hash_array(inserted) == holed).any()
        run_concurrent_both(reference, vectorized, op_codes, probe, probe)
        assert len(fallbacks) == 1
        assert set(fallbacks[0]) == {C.OP_INSERT, C.OP_DELETE, C.OP_SEARCH}
        punch_hole()  # the insertions may have claimed it
        touching = np.arange(2000, 2100, dtype=np.uint32)
        assert (vectorized.hash_fn.hash_array(touching) == holed).any()
        reference.bulk_insert(touching, touching)
        vectorized.bulk_insert(touching, touching)
        assert_same_state(reference, vectorized)
        assert len(fallbacks) == 2 and set(fallbacks[1]) == {C.OP_INSERT}
