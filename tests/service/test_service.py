"""Integration tests for the async request-service layer.

Plain ``asyncio.run`` drives the coroutines (no pytest-asyncio dependency);
correctness is checked against a host-side oracle dict and against direct
engine calls.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.slab_hash import SlabHash
from repro.engine.sharded import ShardedSlabHash
from repro.service import ServiceConfig, SlabHashService
from repro.workloads.distributions import GAMMA_40_UPDATES, build_concurrent_workload
from repro.workloads.generators import unique_random_keys, values_for_keys

SMALL_ALLOC = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=8, units_per_block=64)
FAST = ServiceConfig(max_batch_size=128, max_delay=0.0005)


def make_engine(**kwargs) -> ShardedSlabHash:
    return ShardedSlabHash(3, 16, alloc_config=SMALL_ALLOC, seed=5, **kwargs)


class TestSingleOperations:
    @pytest.mark.smoke
    def test_insert_search_delete_round_trip(self):
        async def main():
            async with SlabHashService(make_engine(), config=FAST) as service:
                await service.insert(42, 1000)
                assert await service.search(42) == 1000
                assert await service.delete(42) is True
                assert await service.delete(42) is False
                assert await service.search(42) is None

        asyncio.run(main())

    def test_single_table_engine_supported(self):
        async def main():
            table = SlabHash(8, alloc_config=SMALL_ALLOC, seed=3)
            async with SlabHashService(table, config=FAST) as service:
                await service.insert(7, 70)
                assert await service.search(7) == 70
            assert table.search(7) == 70  # state lives in the underlying table

        asyncio.run(main())

    def test_key_only_mode(self):
        async def main():
            engine = make_engine(key_value=False)
            async with SlabHashService(engine, config=FAST) as service:
                await service.insert(99)
                assert await service.search(99) == 99
                assert await service.delete(99) is True

        asyncio.run(main())

    def test_validation_errors(self):
        async def main():
            async with SlabHashService(make_engine(), config=FAST) as service:
                with pytest.raises(ValueError, match="storable key domain"):
                    await service.insert(C.EMPTY_KEY, 1)
                with pytest.raises(ValueError, match="requires a value"):
                    await service.insert(5)
                with pytest.raises(ValueError, match="unknown operation code"):
                    await service.submit(42, 5)

        asyncio.run(main())

    def test_submit_requires_running_service(self):
        async def main():
            service = SlabHashService(make_engine(), config=FAST)
            with pytest.raises(RuntimeError, match="not running"):
                await service.insert(1, 2)

        asyncio.run(main())


class TestStreams:
    def test_mixed_stream_matches_oracle(self):
        """Service results agree with a host-side model of REPLACE semantics."""

        async def main():
            engine = make_engine()
            keys = unique_random_keys(500, seed=7)
            values = values_for_keys(keys)
            engine.bulk_build(keys, values)
            oracle = dict(zip(keys.tolist(), values.tolist()))

            rng = np.random.default_rng(11)
            op_codes, op_keys, op_values, expected = [], [], [], []
            fresh = iter(unique_random_keys(400, seed=13).tolist())
            for _ in range(600):
                kind = rng.integers(0, 3)
                if kind == 0:
                    key, value = next(fresh), int(rng.integers(0, 2**30))
                    op_codes.append(C.OP_INSERT)
                    op_keys.append(key)
                    op_values.append(value)
                    expected.append(0)
                    oracle[key] = value
                elif kind == 1:
                    key = int(rng.choice(list(oracle) or [1]))
                    op_codes.append(C.OP_DELETE)
                    op_keys.append(key)
                    op_values.append(0)
                    expected.append(1 if key in oracle else 0)
                    oracle.pop(key, None)
                else:
                    key = int(rng.choice(list(oracle) or [1]))
                    op_codes.append(C.OP_SEARCH)
                    op_keys.append(key)
                    op_values.append(0)
                    expected.append(oracle.get(key, C.SEARCH_NOT_FOUND))

            async with SlabHashService(engine, config=FAST) as service:
                # Sequential awaits: each op completes before the next is
                # logged, so the oracle's serial semantics apply exactly.
                results = []
                for op, key, value in zip(op_codes, op_keys, op_values):
                    results.append(await service.submit(op, key, value))
            assert results == [int(e) & 0xFFFFFFFF for e in expected]

        asyncio.run(main())

    def test_submit_many_returns_results_in_stream_order(self):
        async def main():
            engine = make_engine()
            keys = unique_random_keys(800, seed=17)
            engine.bulk_build(keys, values_for_keys(keys))
            workload = build_concurrent_workload(GAMMA_40_UPDATES, 1500, keys, seed=19)
            async with SlabHashService(engine, config=FAST) as service:
                out = await service.submit_many(
                    workload.op_codes, workload.keys, workload.values
                )
            assert out.shape == (1500,)
            assert out.dtype == np.uint32
            # Spot-check searches of keys never mutated by the workload.
            untouched = ~np.isin(keys, workload.keys[workload.op_codes != C.OP_SEARCH])
            lookup = dict(zip(keys.tolist(), values_for_keys(keys).tolist()))
            searches = np.flatnonzero(
                (workload.op_codes == C.OP_SEARCH)
                & np.isin(workload.keys, keys[untouched])
            )[:50]
            for position in searches:
                assert out[position] == lookup[int(workload.keys[position])]

        asyncio.run(main())

    def test_stop_flushes_pending_operations(self):
        async def main():
            engine = make_engine()
            service = await SlabHashService(
                engine, config=ServiceConfig(max_batch_size=128, max_delay=30.0)
            ).start()
            # With a 30s delay budget nothing would flush on its own; stop()
            # must force the ragged tail through and resolve every future.
            futures = [
                asyncio.ensure_future(service.insert(1000 + index, index))
                for index in range(10)
            ]
            await asyncio.sleep(0)
            await service.stop()
            await asyncio.gather(*futures)
            assert service.pending == 0
            assert service.stats().ops_completed == 10
            assert len(engine) == len(engine.shards[0].items()) + sum(
                len(s.items()) for s in engine.shards[1:]
            )

        asyncio.run(main())

    def test_failed_batch_fails_its_futures_and_service_continues(self):
        async def main():
            # A one-bucket, one-block allocator exhausts quickly.
            from repro.core.slab_alloc import SlabAlloc
            from repro.gpusim.device import Device
            from repro.gpusim.errors import AllocationError

            device = Device()
            alloc = SlabAlloc(
                device,
                SlabAllocConfig(1, 1, 32, growth_threshold=10_000, max_super_blocks=1),
                seed=1,
            )
            table = SlabHash(1, device=device, alloc=alloc, seed=2)
            async with SlabHashService(table, config=FAST) as service:
                rng = np.random.default_rng(23)
                doomed = rng.choice(2**24, 2000, replace=False).astype(np.uint32)
                with pytest.raises(AllocationError):
                    await service.submit_many(
                        np.full(2000, C.OP_INSERT), doomed, doomed
                    )
                # The admission's single future raises once every chunk of
                # the doomed slice has drained, so nothing is left pending.
                while service.pending:
                    await asyncio.sleep(0.001)
                assert service.stats().ops_failed > 0
                # The service survives and keeps serving reads.
                assert await service.search(int(doomed[0])) is not None

        asyncio.run(main())


class TestStatsAndBatching:
    def test_stats_accounting(self):
        async def main():
            engine = make_engine()
            keys = unique_random_keys(600, seed=29)
            engine.bulk_build(keys, values_for_keys(keys))
            workload = build_concurrent_workload(GAMMA_40_UPDATES, 1000, keys, seed=31)
            async with SlabHashService(engine, config=FAST) as service:
                await service.submit_many(workload.op_codes, workload.keys, workload.values)
                stats = service.stats()
            assert stats.ops_enqueued == 1000
            assert stats.ops_completed == 1000
            assert stats.ops_failed == 0
            assert stats.batches_executed >= 1000 // 128
            assert stats.latency.count == 1000
            assert stats.latency.p50 <= stats.latency.p90 <= stats.latency.p99
            assert stats.latency.p99 <= stats.latency.max
            assert stats.wall_seconds > 0
            assert stats.ops_per_second > 0
            assert stats.modelled_seconds > 0
            assert stats.modelled_ops_per_second > 0
            assert stats.mean_batch_size > 0
            round_trip = stats.as_dict()
            assert round_trip["latency"]["count"] == 1000

        asyncio.run(main())

    def test_batches_are_warp_aligned_under_load(self):
        async def main():
            # A single-table service has one drain lane, so the 256-op stream
            # is not split by shard routing and every cut is a full multiple
            # of 64 (256 == 4 * 64); the forced tail, if any, is empty.
            table = SlabHash(16, alloc_config=SMALL_ALLOC, seed=5)
            keys = unique_random_keys(400, seed=37)
            table.bulk_build(keys, values_for_keys(keys))
            async with SlabHashService(
                table, config=ServiceConfig(max_batch_size=64, max_delay=0.5)
            ) as service:
                queries = np.tile(keys[:64], 4)
                await service.submit_many(
                    np.full(256, C.OP_SEARCH), queries, np.zeros(256)
                )
                stats = service.stats()
            assert stats.warp_aligned_batches == stats.batches_executed
            assert stats.deadline_forced_batches == 0

        asyncio.run(main())
