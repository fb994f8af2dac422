"""Between-batch resizing in the async service layer.

A deferred :class:`~repro.core.resize.LoadFactorPolicy` is applied by the
service after each micro-batch's futures resolve, so migrations happen while
no request is in flight; correctness is checked against an oracle dict and
the coverage counters must show real grow/shrink cycles.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.engine.sharded import ShardedSlabHash
from repro.service import ServiceConfig, SlabHashService
from repro.workloads.generators import unique_random_keys

SMALL_ALLOC = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=8, units_per_block=64)
FAST = ServiceConfig(max_batch_size=128, max_delay=0.0005)


def churn_stream(n: int, seed: int):
    """Insert a burst of keys, then delete most of it (forces grow + shrink)."""
    keys = unique_random_keys(n, seed=seed)
    doomed = keys[: int(n * 0.9)]
    op_codes = np.concatenate(
        [np.full(len(keys), C.OP_INSERT), np.full(len(doomed), C.OP_DELETE)]
    )
    stream_keys = np.concatenate([keys, doomed])
    values = (stream_keys * np.uint32(5)) & np.uint32(0xFFFF)
    return op_codes, stream_keys, values, keys


class TestServiceResize:
    def test_deferred_policy_resizes_between_batches(self):
        policy = LoadFactorPolicy(min_buckets=2).deferred()
        table = SlabHash(2, alloc_config=SMALL_ALLOC, seed=3, policy=policy)
        op_codes, keys, values, inserted = churn_stream(700, seed=3)

        async def main():
            async with SlabHashService(table, config=FAST) as service:
                results = await service.submit_many(op_codes, keys, values)
                survivors = inserted[int(len(inserted) * 0.9):]
                found = await service.submit_many(
                    np.full(len(survivors), C.OP_SEARCH), survivors
                )
                stats = service.stats()
                return results, found, stats.resizes_performed, stats.resize_modelled_seconds

        results, found, resizes, modelled = asyncio.run(main())
        # All deletes hit (every doomed key was inserted in an earlier batch or
        # the same batch before it in stream order).
        assert (results[len(inserted):] == 1).all()
        survivors = inserted[int(len(inserted) * 0.9):]
        expected = (survivors.astype(np.uint64) * 5) & 0xFFFF
        assert np.array_equal(found, expected.astype(np.uint32))
        # The service (not the table) triggered the migrations, between batches.
        assert resizes >= 2
        assert modelled > 0
        assert table.resize_stats.grows >= 1
        assert table.resize_stats.shrinks >= 1
        eps = table.config.elements_per_slab
        assert policy.decide(len(table), table.num_buckets, eps) is None

    def test_sharded_engine_resizes_between_batches(self):
        policy = LoadFactorPolicy(min_buckets=2).deferred()
        engine = ShardedSlabHash(
            2, 2, alloc_config=SMALL_ALLOC, seed=7, load_factor_policy=policy
        )
        op_codes, keys, values, inserted = churn_stream(600, seed=7)

        async def main():
            async with SlabHashService(engine, config=FAST) as service:
                await service.submit_many(op_codes, keys, values)
                return service.stats().resizes_performed

        resizes = asyncio.run(main())
        assert resizes >= 2
        assert any(shard.resize_stats.grows >= 1 for shard in engine.shards)
        for shard in engine.shards:
            eps = shard.config.elements_per_slab
            assert policy.decide(len(shard), shard.num_buckets, eps) is None

    def test_failed_between_batch_resize_keeps_service_alive(self):
        """A migration failure is recorded; the drain loop must keep serving."""
        table = SlabHash(4, alloc_config=SMALL_ALLOC, seed=13)

        async def main():
            async with SlabHashService(table, config=FAST) as service:
                await service.insert(1, 10)

                def boom():  # stand-in for allocator exhaustion mid-migration
                    raise RuntimeError("migration failed")

                table.maybe_resize = boom
                await service.insert(2, 20)  # triggers the failing resize
                assert await service.search(1) == 10  # still serving
                assert await service.search(2) == 20
                return service.stats().resize_failures

        failures = asyncio.run(main())
        assert len(failures) >= 1
        assert "RuntimeError: migration failed" in failures[0]
        assert "after batch" in failures[0]

    def test_resize_failure_survives_a_subsequent_success(self):
        """A later successful migration must not erase a recorded failure."""
        table = SlabHash(4, alloc_config=SMALL_ALLOC, seed=13)

        async def main():
            async with SlabHashService(table, config=FAST) as service:
                real_maybe_resize = table.maybe_resize
                calls = {"n": 0}

                def flaky():
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise RuntimeError("transient exhaustion")
                    return real_maybe_resize()

                table.maybe_resize = flaky
                await service.insert(1, 10)  # batch 0: failing resize
                await service.search(1)      # batch 1+: succeeding resizes
                await service.insert(2, 20)
                assert calls["n"] >= 2  # a success really did follow
                return service.stats()

        stats = asyncio.run(main())
        failures = stats.resize_failures
        assert len(failures) == 1  # recorded once, never overwritten
        assert "transient exhaustion" in failures[0]
        assert stats.as_dict()["resize_failures"] == list(failures)
        assert stats.resizes_performed == stats.as_dict()["resizes_performed"]

    def test_service_without_policy_never_resizes(self):
        table = SlabHash(4, alloc_config=SMALL_ALLOC, seed=11)

        async def main():
            async with SlabHashService(table, config=FAST) as service:
                for key in range(1, 200):
                    await service.insert(key, key)
                return service.stats().resizes_performed

        assert asyncio.run(main()) == 0
        assert table.resize_stats.resizes == 0
