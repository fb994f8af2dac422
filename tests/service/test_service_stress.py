"""High-concurrency soak of the rebuilt service path, diffed against a model.

Dozens of concurrent clients — each owning a disjoint slice of the key
space — pound the per-shard drain loops with a mix of awaited single
operations and bulk ``submit_many`` admissions, keeping thousands of
operations in flight at once.  Each client tracks its own dict model
(disjoint ownership makes the models exact regardless of how the event loop
interleaves clients), and every admission's results are checked against it,
so a lost, duplicated, or misrouted future shows up as a hard diff rather
than a hang or a silently wrong aggregate.

Per-key ordering is asserted two ways: dedicated ordering clients run an
awaited insert→replace→search→delete→search chain per key (each step's
result proves the previous step was applied first), and bulk clients verify
replace-semantics across rounds on keys they revisit.

The scenario seed is pinned for reproducibility; CI's ``service-stress``
job also passes ``SERVICE_STRESS_SEED`` derived from the workflow run id so
every run explores one fresh interleaving (a failure names the seed needed
to replay it locally).
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.core import constants as C
from repro.engine.sharded import ShardedSlabHash
from repro.service import ServiceConfig, SlabHashService

PINNED_SEED = 714

NUM_BULK_CLIENTS = 48
NUM_ORDERING_CLIENTS = 8
ROUNDS_PER_CLIENT = 8
OPS_PER_ROUND = 48  # bulk clients keep NUM_BULK_CLIENTS * OPS_PER_ROUND ~ 2300 ops in flight
KEYS_PER_CLIENT = 512


def _seeds() -> list:
    seeds = [PINNED_SEED]
    raw = os.environ.get("SERVICE_STRESS_SEED")
    if raw:
        try:
            seeds.append(int(raw.strip()) % 2**31)
        except ValueError:
            pass
    return seeds


def _expected(model: dict, op: int, key: int, value: int) -> int:
    """SlabHash result conventions for one op against the dict model."""
    if op == C.OP_INSERT:
        model[key] = value
        return 0
    if op == C.OP_DELETE:
        return 1 if model.pop(key, None) is not None else 0
    return model.get(key, C.SEARCH_NOT_FOUND)


class _BulkClient:
    """Submits bulk rounds over its own key range; round-unique keys keep
    per-op expected results exact (no same-key conflicts within a batch)."""

    def __init__(self, index: int, rng: np.random.Generator) -> None:
        base = 1 + index * KEYS_PER_CLIENT
        self.keys = np.arange(base, base + KEYS_PER_CLIENT, dtype=np.uint64)
        self.rng = rng
        self.model: dict = {}
        self.ops_submitted = 0

    async def run(self, service: SlabHashService) -> None:
        for _round in range(ROUNDS_PER_CLIENT):
            count = int(self.rng.integers(OPS_PER_ROUND // 2, OPS_PER_ROUND + 1))
            keys = self.rng.choice(self.keys, size=count, replace=False)
            op_codes = self.rng.choice(
                np.array([C.OP_INSERT, C.OP_INSERT, C.OP_SEARCH, C.OP_DELETE]),
                size=count,
            )
            values = self.rng.integers(0, 2**30, size=count, dtype=np.uint32)
            expected = np.array(
                [
                    _expected(self.model, int(op), int(key), int(value))
                    for op, key, value in zip(op_codes, keys, values)
                ],
                dtype=np.uint32,
            )
            results = await service.submit_many(op_codes, keys, values)
            assert len(results) == count  # one future, full coverage, once
            np.testing.assert_array_equal(
                results, expected,
                err_msg="bulk admission results diverged from the dict model",
            )
            self.ops_submitted += count


class _OrderingClient:
    """Awaited per-key chains through ``submit``: every step's result is
    only correct if the previous step on that key was applied first, so a
    reordering inside a shard's log or across batches fails loudly."""

    def __init__(self, index: int, rng: np.random.Generator) -> None:
        base = 1 + (NUM_BULK_CLIENTS + index) * KEYS_PER_CLIENT
        self.keys = [base + offset for offset in range(ROUNDS_PER_CLIENT)]
        self.rng = rng
        self.model: dict = {}
        self.ops_submitted = 0

    async def run(self, service: SlabHashService) -> None:
        for key in self.keys:
            first, second = (int(v) for v in self.rng.integers(0, 2**30, size=2))
            await service.insert(key, first)
            assert await service.search(key) == first
            await service.insert(key, second)  # REPLACE semantics
            assert await service.search(key) == second
            assert await service.delete(key) is True
            assert await service.search(key) is None
            assert await service.delete(key) is False
            self.ops_submitted += 7


@pytest.mark.parametrize("seed", _seeds())
def test_soak_mixed_submissions_match_models_and_nothing_is_lost(seed):
    async def main() -> None:
        engine = ShardedSlabHash.for_utilization(
            3, NUM_BULK_CLIENTS * KEYS_PER_CLIENT // 2, 0.6, seed=11
        )
        root = np.random.default_rng(seed)
        bulk = [
            _BulkClient(index, np.random.default_rng(root.integers(2**63)))
            for index in range(NUM_BULK_CLIENTS)
        ]
        ordering = [
            _OrderingClient(index, np.random.default_rng(root.integers(2**63)))
            for index in range(NUM_ORDERING_CLIENTS)
        ]
        clients = bulk + ordering
        config = ServiceConfig(max_batch_size=1024, max_delay=0.002)
        service = SlabHashService(engine, config=config)
        async with service:
            await asyncio.gather(*[client.run(service) for client in clients])
            stats = service.stats()

        total_ops = sum(client.ops_submitted for client in clients)
        assert total_ops > 0
        # No lost or duplicated futures: every admitted op completed exactly
        # once, none failed, and nothing is stranded in a shard's log.
        assert stats.ops_enqueued == total_ops
        assert stats.ops_completed == total_ops
        assert stats.ops_failed == 0
        assert service.pending == 0
        assert stats.latency.count == total_ops

        # The engine's final contents are exactly the union of the disjoint
        # client models (ordering clients delete everything they insert).
        combined: dict = {}
        for client in clients:
            combined.update(client.model)
        assert sorted(combined.items()) == sorted(
            (int(k), int(v)) for k, v in engine.items()
        )

    asyncio.run(main())


def test_soak_under_scheduler_seed_still_matches_the_model():
    """A smaller soak on a two-shard engine: per-shard drains must agree
    with the model."""

    async def main() -> None:
        engine = ShardedSlabHash.for_utilization(2, 4_096, 0.6, seed=13)
        root = np.random.default_rng(PINNED_SEED + 1)
        clients = [
            _BulkClient(index, np.random.default_rng(root.integers(2**63)))
            for index in range(6)
        ]
        config = ServiceConfig(max_batch_size=256, max_delay=0.001)
        service = SlabHashService(engine, config=config)
        async with service:
            await asyncio.gather(*[client.run(service) for client in clients])
            stats = service.stats()
        assert stats.ops_failed == 0
        assert stats.ops_completed == sum(c.ops_submitted for c in clients)
        combined: dict = {}
        for client in clients:
            combined.update(client.model)
        assert sorted(combined.items()) == sorted(
            (int(k), int(v)) for k, v in engine.items()
        )

    asyncio.run(main())


class TestPerShardAggregation:
    """Regression for the ServiceStats aggregation arithmetic: every
    aggregate must be an exact sum over the per-shard lanes (and
    ``modelled_seconds`` the busiest lane), so a change to lane accounting
    cannot silently skew the benchmark's headline fractions."""

    def test_aggregates_are_sums_over_lanes(self):
        async def main() -> None:
            engine = ShardedSlabHash.for_utilization(3, 4_096, 0.6, seed=17)
            root = np.random.default_rng(PINNED_SEED + 2)
            clients = [
                _BulkClient(index, np.random.default_rng(root.integers(2**63)))
                for index in range(8)
            ]
            service = SlabHashService(
                engine, config=ServiceConfig(max_batch_size=256, max_delay=0.001)
            )
            async with service:
                await asyncio.gather(*[client.run(service) for client in clients])
                stats = service.stats()

            lanes = stats.per_shard
            assert len(lanes) == service.num_lanes == 3
            assert [lane.shard for lane in lanes] == [0, 1, 2]
            assert stats.ops_enqueued == sum(l.ops_enqueued for l in lanes)
            assert stats.batches_executed == sum(l.batches_cut for l in lanes)
            assert stats.deadline_forced_batches == sum(l.forced_batches for l in lanes)
            # Size view: aligned-by-size = natural cuts + forced warp-sized
            # tails, per lane and in the total.
            for lane in lanes:
                assert lane.warp_aligned_batches == (
                    lane.aligned_batches + lane.forced_aligned_batches
                )
                assert 0 <= lane.forced_aligned_batches <= lane.forced_batches
                assert lane.modelled_seconds >= 0.0
            assert stats.warp_aligned_batches == sum(
                l.warp_aligned_batches for l in lanes
            )
            # Parallel device-time view: the busiest lane, not the sum.
            assert stats.modelled_seconds == max(l.modelled_seconds for l in lanes)
            assert stats.modelled_seconds <= sum(l.modelled_seconds for l in lanes)
            # Round-trip: the dict view carries the lane breakdown.
            as_dict = stats.as_dict()
            assert [entry["shard"] for entry in as_dict["per_shard"]] == [0, 1, 2]
            assert as_dict["per_shard"][0]["warp_aligned_batches"] == (
                lanes[0].warp_aligned_batches
            )

        asyncio.run(main())

    def test_single_table_service_has_one_lane(self):
        from repro.core.config import SlabAllocConfig
        from repro.core.slab_hash import SlabHash

        async def main() -> None:
            table = SlabHash(
                16,
                alloc_config=SlabAllocConfig(
                    num_super_blocks=2, num_memory_blocks=8, units_per_block=64
                ),
                seed=5,
            )
            service = SlabHashService(
                table, config=ServiceConfig(max_batch_size=128, max_delay=0.0005)
            )
            async with service:
                await service.insert(1, 10)
                stats = service.stats()
            assert service.num_lanes == 1
            assert len(stats.per_shard) == 1
            assert stats.per_shard[0].shard == 0
            assert stats.ops_enqueued == stats.per_shard[0].ops_enqueued == 1

        asyncio.run(main())
