"""Degradation and fault-injection behavior of the hardened service layer.

Covers the overload/backpressure path, per-op deadlines, the per-shard
circuit breaker + quarantine-restore cycle, WAL commit-failure atomicity,
the deterministic stop() contract, the retry helper, and the stats
round-trips for all the new counters.  Every fault here is injected
deterministically through a :class:`repro.faults.FaultPlan` — no sleeps on
wall-clock randomness.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import random
import time

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.engine.sharded import ShardedSlabHash
from repro.faults import FaultAction, FaultPlan, InjectedBatchFailure
from repro.perf.latency import LatencyReport
from repro.persist.recovery import recover
from repro.persist.wal import WriteAheadLog
from repro.service import (
    LANE_CLOSED,
    LANE_HALF_OPEN,
    LANE_OPEN,
    OpDeadlineExceeded,
    ServiceConfig,
    ServiceOverloaded,
    ServiceStopped,
    ShardQuarantined,
    SlabHashService,
    WalCommitFailed,
    retry_with_backoff,
)
from repro.service.service import ServiceStats, ShardLaneStats

SMALL_ALLOC = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=8, units_per_block=64)
FAST = ServiceConfig(max_batch_size=128, max_delay=0.0005)


def make_engine(**kwargs) -> ShardedSlabHash:
    return ShardedSlabHash(3, 16, alloc_config=SMALL_ALLOC, seed=5, **kwargs)


async def settle(service: SlabHashService) -> None:
    """Wait until nothing is pending and no lane is quarantined."""
    while service.pending or LANE_OPEN in service.lane_states:
        await asyncio.sleep(0.001)


class TestStopContract:
    def test_stop_fails_uncut_ops_instead_of_hanging(self):
        """Regression: a drain lane that exits with ops still logged must
        fail their futures with ServiceStopped, not leave them pending."""

        async def main():
            # A long co-batching budget keeps sub-warp tails parked in the
            # logs; killing the drains then models a lane that dies with
            # admitted-but-uncut operations behind it.
            config = ServiceConfig(max_batch_size=128, max_delay=30.0)
            service = SlabHashService(make_engine(), config=config)
            await service.start()
            futures = [
                asyncio.ensure_future(service.insert(key, key)) for key in range(1, 6)
            ]
            await asyncio.sleep(0.01)  # admitted; tails wait on the deadline
            assert service.pending == 5
            for task in service._drain_tasks:
                task.cancel()
            await service.stop()
            for future in futures:
                with pytest.raises(ServiceStopped):
                    await future
            assert service.stats().ops_failed >= 5

        asyncio.run(asyncio.wait_for(main(), timeout=10))

    def test_admission_after_stop_begins_is_rejected(self):
        async def main():
            async with SlabHashService(make_engine(), config=FAST) as service:
                await service.insert(1, 10)
                service._closing = True
                with pytest.raises(ServiceStopped):
                    await service.insert(2, 20)
                service._closing = False  # let stop() run normally

        asyncio.run(asyncio.wait_for(main(), timeout=10))

    def test_stop_with_in_flight_submit_many_resolves_every_future(self):
        async def main():
            service = SlabHashService(make_engine(), config=FAST)
            await service.start()
            keys = np.arange(1, 500, dtype=np.uint64)
            ops = np.full(len(keys), C.OP_INSERT, dtype=np.int64)
            pending = asyncio.ensure_future(
                service.submit_many(ops, keys, keys.astype(np.uint32))
            )
            await asyncio.sleep(0)
            await service.stop()
            # Either the drains flushed it (normal) or stop failed it — but
            # the future must be resolved either way.
            assert pending.done()
            try:
                await pending
            except ServiceStopped:
                pass

        asyncio.run(asyncio.wait_for(main(), timeout=10))


class TestOverload:
    def test_overloaded_admission_fails_fast_and_is_retryable(self):
        async def main():
            config = ServiceConfig(
                max_batch_size=128, max_delay=0.0005, max_pending_per_shard=64
            )
            async with SlabHashService(make_engine(), config=config) as service:
                keys = np.arange(1, 1000, dtype=np.uint64)
                ops = np.full(len(keys), C.OP_INSERT, dtype=np.int64)
                with pytest.raises(ServiceOverloaded) as info:
                    await service.submit_many(ops, keys, keys.astype(np.uint32))
                assert info.value.retryable is True
                # All-or-nothing: nothing was admitted.
                assert service.pending == 0
                stats = service.stats()
                assert stats.ops_rejected > 0
                assert sum(l.rejected_overloaded for l in stats.per_shard) > 0
                # Small admissions still go through.
                await service.insert(5, 50)
                assert await service.search(5) == 50

        asyncio.run(asyncio.wait_for(main(), timeout=10))

    def test_retry_with_backoff_rides_out_the_backpressure(self):
        async def main():
            config = ServiceConfig(
                max_batch_size=128, max_delay=0.0005, max_pending_per_shard=96
            )
            async with SlabHashService(make_engine(), config=config) as service:
                keys = np.arange(1, 400, dtype=np.uint64)
                ops = np.full(len(keys), C.OP_INSERT, dtype=np.int64)
                values = keys.astype(np.uint32)
                waves = [
                    retry_with_backoff(
                        lambda lo=lo: service.submit_many(
                            ops[lo : lo + 80], keys[lo : lo + 80], values[lo : lo + 80]
                        ),
                        rng=random.Random(lo),
                        retries=50,
                    )
                    for lo in range(0, len(keys), 80)
                ]
                await asyncio.gather(*waves)
                # The verification query retries too — it is subject to the
                # same admission budget as the writes.
                found = []
                for lo in range(0, len(keys), 80):
                    chunk = keys[lo : lo + 80]
                    found.append(
                        await retry_with_backoff(
                            lambda chunk=chunk: service.submit_many(
                                np.full(len(chunk), C.OP_SEARCH, dtype=np.int64),
                                chunk,
                            ),
                            rng=random.Random(1000 + lo),
                            retries=50,
                        )
                    )
                assert np.array_equal(np.concatenate(found), values)

        asyncio.run(asyncio.wait_for(main(), timeout=30))


class TestDeadlines:
    def test_expired_ops_are_rejected_at_cut_time(self):
        async def main():
            async with SlabHashService(make_engine(), config=FAST) as service:
                # A deadline already in the past: rejected before execution.
                with pytest.raises(OpDeadlineExceeded) as info:
                    await service.submit(
                        C.OP_INSERT, 7, 70, deadline=time.perf_counter() - 1.0
                    )
                assert info.value.retryable is False
                assert await service.search(7) is None  # never applied
                stats = service.stats()
                assert stats.ops_expired >= 1
                assert sum(l.ops_expired for l in stats.per_shard) >= 1

        asyncio.run(asyncio.wait_for(main(), timeout=10))

    def test_expired_ops_do_not_inflate_mean_batch_size(self):
        """Regression: ops that expired uncut are failed but never batched,
        so they must not count toward the mean size of the cut batches."""

        async def main():
            config = ServiceConfig(max_batch_size=64)
            async with SlabHashService(SlabHash(16, seed=5), config=config) as service:
                keys = np.arange(1, 165, dtype=np.uint64)
                ops = np.full(len(keys), C.OP_INSERT, dtype=np.int64)
                with pytest.raises(OpDeadlineExceeded):
                    await service.submit_many(
                        ops[:100], keys[:100], deadline=time.perf_counter() - 1.0
                    )
                await service.submit_many(ops[100:], keys[100:])
                stats = service.stats()
                assert stats.ops_expired == 100
                assert stats.batches_executed == 1
                assert stats.mean_batch_size == 64.0

        asyncio.run(asyncio.wait_for(main(), timeout=10))

    def test_generous_deadline_executes_normally(self):
        async def main():
            async with SlabHashService(make_engine(), config=FAST) as service:
                await service.submit(
                    C.OP_INSERT, 8, 80, deadline=time.perf_counter() + 30.0
                )
                assert await service.search(8) == 80
                assert service.stats().ops_expired == 0

        asyncio.run(asyncio.wait_for(main(), timeout=10))


class TestCircuitBreaker:
    def test_injected_dirty_failure_trips_and_soft_restores(self):
        async def main():
            # Alloc fault mid-execution: dirty + injected -> immediate trip.
            plan = FaultPlan(
                {("shard:0.alloc.warp_allocate", 0): FaultAction(exc="alloc")}
            )
            engine = make_engine()
            service = SlabHashService(engine, config=FAST, faults=plan)
            async with service:
                # Enough keys that shard 0's chains outgrow their base slabs
                # and the first warp_allocate (occurrence 0) is reached.
                keys = np.arange(1, 1500, dtype=np.uint64)
                ops = np.full(len(keys), C.OP_INSERT, dtype=np.int64)
                try:
                    await service.submit_many(ops, keys, keys.astype(np.uint32))
                except Exception:
                    pass  # some slice failed; the trip is what we assert on
                await settle(service)
                stats = service.stats()
                assert stats.breaker_trips >= 1
                assert stats.shard_restores >= 1
                assert stats.batches_aborted >= 1  # injected -> abort-marked
                # No checkpoint: soft restore half-opens synchronously; no
                # lane is ever left open, and the service keeps serving.
                assert all(state != LANE_OPEN for state in service.lane_states)
                await service.insert(500_000, 1)
                assert await service.search(500_000) == 1

        asyncio.run(asyncio.wait_for(main(), timeout=30))

    def test_execute_site_failure_counts_toward_threshold(self):
        async def main():
            # Three consecutive injected execute failures on shard 0.
            plan = FaultPlan(
                {
                    ("shard:0.execute", i): FaultAction(exc="batch")
                    for i in range(3)
                }
            )
            config = ServiceConfig(
                max_batch_size=128, max_delay=0.0005, breaker_threshold=3
            )
            service = SlabHashService(make_engine(), config=config, faults=plan)
            async with service:
                failures = 0
                for key in range(1, 400):
                    try:
                        await service.insert(key, key)
                    except (InjectedBatchFailure, ShardQuarantined):
                        failures += 1
                await settle(service)
                stats = service.stats()
                assert failures >= 3
                assert stats.breaker_trips >= 1
                assert stats.per_shard[0].trips >= 1
                # Recovered without manual intervention.
                assert all(state == LANE_CLOSED for state in service.lane_states)
                await service.insert(9000, 9)
                assert await service.search(9000) == 9

        asyncio.run(asyncio.wait_for(main(), timeout=30))

    @pytest.mark.parametrize(
        "make_table, site",
        [
            (make_engine, "shard:1.execute"),
            (lambda: SlabHash(16, alloc_config=SMALL_ALLOC, seed=5), "shard:0.execute"),
        ],
        ids=["engine", "table"],
    )
    def test_quarantine_restore_rebuilds_from_checkpoint(self, tmp_path, make_table, site):
        async def main():
            # Occurrence 10 of the shard's execute site: the single bulk
            # admission before the checkpoint cuts at most a few batches per
            # shard, so occurrence 10 is guaranteed to land in the
            # post-checkpoint single-op traffic.
            plan = FaultPlan({(site, 10): FaultAction(exc="batch")})
            wal = WriteAheadLog(str(tmp_path / "svc.wal"))
            config = ServiceConfig(
                max_batch_size=128, max_delay=0.0005, breaker_threshold=1
            )
            engine = make_table()
            service = SlabHashService(engine, config=config, wal=wal, faults=plan)
            model = {}
            async with service:
                # Committed state before the checkpoint (one admission).
                pre = np.arange(1, 60, dtype=np.uint64)
                await service.submit_many(
                    np.full(len(pre), C.OP_INSERT, dtype=np.int64),
                    pre,
                    (pre * 2).astype(np.uint32),
                )
                for key in pre:
                    model[int(key)] = int(key) * 2
                service.checkpoint(str(tmp_path / "svc.snap"))
                # Traffic after the checkpoint; one shard-1 batch will be
                # injected to fail, trip (threshold 1), quarantine, and
                # restore from checkpoint + WAL tail.
                for key in range(60, 240):
                    try:
                        await service.insert(key, key * 2)
                        model[key] = key * 2
                    except (InjectedBatchFailure, ShardQuarantined):
                        pass
                await settle(service)
                stats = service.stats()
                assert stats.breaker_trips >= 1
                assert stats.shard_restores >= 1
                assert stats.batches_aborted >= 1
                assert all(state != LANE_OPEN for state in service.lane_states)
                # Exactly-once across the restore: every acked op present,
                # every rejected op absent.
                for key, value in model.items():
                    assert await service.search(key) == value, key
            wal.close()

        asyncio.run(asyncio.wait_for(main(), timeout=30))

    def test_quarantined_admission_is_rejected_retryably(self):
        async def main():
            service = SlabHashService(make_engine(), config=FAST)
            async with service:
                service._lanes[0].state = LANE_OPEN
                keys = np.arange(1, 100, dtype=np.uint64)
                shard0 = [
                    int(k) for k in keys if service.engine.router.shard_of(int(k)) == 0
                ]
                with pytest.raises(ShardQuarantined) as info:
                    await service.insert(shard0[0], 1)
                assert info.value.retryable is True
                assert service.stats().per_shard[0].rejected_quarantined >= 1
                service._lanes[0].state = LANE_CLOSED

        asyncio.run(asyncio.wait_for(main(), timeout=10))


class TestWalCommitFailure:
    def test_failed_group_commit_fails_only_that_round(self, tmp_path):
        async def main():
            plan = FaultPlan({("wal.write", 1): FaultAction(exc="os")})
            wal = WriteAheadLog(str(tmp_path / "svc.wal"), faults=plan)
            service = SlabHashService(make_engine(), config=FAST)
            service.wal = wal
            async with service:
                await service.insert(1, 10)  # round 1 commits cleanly
                with pytest.raises(WalCommitFailed) as info:
                    await service.insert(2, 20)  # round 2's append fails
                assert info.value.retryable is True
                # Not logged means not run: key 2 absent, table serviceable.
                assert await service.search(2) is None
                await service.insert(3, 30)
                assert await service.search(3) == 30
                stats = service.stats()
                assert stats.wal_rollbacks == 1
                assert wal.rollbacks == 1
                # The resubmission contract holds.
                await service.insert(2, 20)
                assert await service.search(2) == 20
            wal.close()

        asyncio.run(asyncio.wait_for(main(), timeout=10))

    def test_wal_failure_does_not_trip_the_breaker(self, tmp_path):
        async def main():
            plan = FaultPlan(
                {("wal.write", i): FaultAction(exc="os") for i in range(1, 6)}
            )
            wal = WriteAheadLog(str(tmp_path / "svc.wal"), faults=plan)
            config = ServiceConfig(
                max_batch_size=128, max_delay=0.0005, breaker_threshold=2
            )
            service = SlabHashService(make_engine(), config=config)
            service.wal = wal
            async with service:
                await service.insert(1, 10)
                for key in range(2, 7):
                    with pytest.raises(WalCommitFailed):
                        await service.insert(key, key)
                stats = service.stats()
                assert stats.wal_rollbacks == 5
                assert stats.breaker_trips == 0  # the table was never touched
                await service.insert(99, 990)
                assert await service.search(99) == 990
            wal.close()

        asyncio.run(asyncio.wait_for(main(), timeout=10))


class TestAbortBookkeeping:
    def test_checkpoint_drops_the_aborts_it_covers(self, tmp_path):
        """Aborted-batch sets empty at a checkpoint; the counter and recovery hold."""

        async def main():
            # One op per batch on one table: batch i commits as wal.append
            # occurrence i plus the abort markers before it.  Batches 3, 7
            # and 11 are rejected before they run; batch 7's marker append
            # (occurrence 9) fails too, so that abort stays unlogged.
            plan = FaultPlan(
                {
                    **{("shard:0.execute", i): FaultAction(exc="batch") for i in (3, 7, 11)},
                    ("wal.append", 9): FaultAction(exc="os"),
                }
            )
            wal = WriteAheadLog(str(tmp_path / "svc.wal"))
            config = ServiceConfig(max_batch_size=128, max_delay=0.0005, breaker_threshold=10)
            engine = SlabHash(16, alloc_config=SMALL_ALLOC, seed=5)
            service = SlabHashService(engine, config=config, wal=wal, faults=plan)
            snap = str(tmp_path / "svc.snap")
            async with service:
                for key in range(1, 16):
                    try:
                        await service.insert(key, key * 3)
                    except InjectedBatchFailure:
                        pass
                assert service._aborted_indices == {3, 7, 11}
                assert service._unlogged_aborts == {7}
                service.checkpoint(snap)
                assert not service._aborted_indices and not service._unlogged_aborts
                assert service.stats().batches_aborted == 3
                for key in range(16, 24):
                    await service.insert(key, key * 3)
                live = service.engine
                assert service.stats().batches_aborted == 3
            wal.close()
            recovered, _report = recover(snap, wal.path)
            assert sorted(recovered.items()) == sorted(live.items())
            assert (
                recovered.shards[0].device.counters.as_dict()
                == live.shards[0].device.counters.as_dict()
            )
            assert {key for key, _ in live.items()} == set(range(1, 24)) - {4, 8, 12}

        asyncio.run(asyncio.wait_for(main(), timeout=10))


class TestRetryHelper:
    def test_retries_then_succeeds(self):
        async def main():
            attempts = {"n": 0}

            async def flaky():
                attempts["n"] += 1
                if attempts["n"] < 4:
                    raise ServiceOverloaded("busy")
                return "done"

            result = await retry_with_backoff(
                flaky, base_delay=0.0001, rng=random.Random(1)
            )
            assert result == "done"
            assert attempts["n"] == 4

        asyncio.run(asyncio.wait_for(main(), timeout=10))

    def test_exhausted_retries_reraise(self):
        async def main():
            async def always_busy():
                raise ServiceOverloaded("busy")

            with pytest.raises(ServiceOverloaded):
                await retry_with_backoff(
                    always_busy, retries=3, base_delay=0.0001, rng=random.Random(1)
                )

        asyncio.run(asyncio.wait_for(main(), timeout=10))

    def test_non_retryable_errors_propagate_immediately(self):
        async def main():
            attempts = {"n": 0}

            async def stopped():
                attempts["n"] += 1
                raise ServiceStopped("gone")

            with pytest.raises(ServiceStopped):
                await retry_with_backoff(stopped, base_delay=0.0001)
            assert attempts["n"] == 1

        asyncio.run(asyncio.wait_for(main(), timeout=10))

    def test_deadline_bounds_the_retrying(self):
        async def main():
            async def always_busy():
                raise ServiceOverloaded("busy")

            start = time.perf_counter()
            with pytest.raises(ServiceOverloaded):
                await retry_with_backoff(
                    always_busy,
                    retries=10_000,
                    base_delay=0.05,
                    deadline=time.perf_counter() + 0.1,
                    rng=random.Random(2),
                )
            assert time.perf_counter() - start < 5.0

        asyncio.run(asyncio.wait_for(main(), timeout=10))


class TestStatsRoundTrips:
    def test_resize_failures_round_trip_through_as_dict(self):
        async def main():
            async with SlabHashService(make_engine(), config=FAST) as service:
                service._resize_failure_log.append("after batch 3: BoomError: boom")
                stats = service.stats()
                assert stats.resize_failures == ("after batch 3: BoomError: boom",)
                document = stats.as_dict()
                assert document["resize_failures"] == [
                    "after batch 3: BoomError: boom"
                ]

        asyncio.run(asyncio.wait_for(main(), timeout=10))

    def test_fault_counters_round_trip_through_as_dict(self):
        async def main():
            config = ServiceConfig(
                max_batch_size=128,
                max_delay=0.0005,
                max_pending_per_shard=32,
                breaker_threshold=1,
            )
            plan = FaultPlan(
                {("shard:0.execute", 0): FaultAction(exc="batch")}
            )
            service = SlabHashService(make_engine(), config=config, faults=plan)
            async with service:
                keys = np.arange(1, 200, dtype=np.uint64)
                ops = np.full(len(keys), C.OP_INSERT, dtype=np.int64)
                with pytest.raises(ServiceOverloaded):
                    await service.submit_many(ops, keys, keys.astype(np.uint32))
                with pytest.raises(OpDeadlineExceeded):
                    await service.submit(
                        C.OP_INSERT, 3, 30, deadline=time.perf_counter() - 1.0
                    )
                for key in range(10, 80):
                    try:
                        await service.insert(key, key)
                    except (InjectedBatchFailure, ShardQuarantined):
                        pass
                await settle(service)
                document = service.stats().as_dict()
                # The overloaded bulk admission was rejected whole; the
                # counter attributes the rejection to the lane that refused.
                assert document["ops_rejected"] > 0
                assert document["ops_expired"] >= 1
                assert document["breaker_trips"] >= 1
                assert document["shard_restores"] >= 1
                assert isinstance(document["wal_rollbacks"], int)
                assert isinstance(document["batches_aborted"], int)
                assert document["restore_failures"] == []
                lane = document["per_shard"][0]
                for field in (
                    "rejected_overloaded",
                    "rejected_quarantined",
                    "ops_expired",
                    "trips",
                    "restores",
                    "state",
                ):
                    assert field in lane
                assert lane["state"] in (LANE_CLOSED, LANE_OPEN, LANE_HALF_OPEN)

        asyncio.run(asyncio.wait_for(main(), timeout=30))

    def test_restore_failures_are_append_only_and_surfaced(self, tmp_path):
        async def main():
            # Injected restore failures: the restore retries, logs each
            # attempt, then half-opens anyway (degraded but live).
            plan = FaultPlan(
                {
                    ("shard:0.execute", 0): FaultAction(exc="batch"),
                    ("service.restore", 0): FaultAction(exc="fault"),
                    ("service.restore", 1): FaultAction(exc="fault"),
                }
            )
            wal = WriteAheadLog(str(tmp_path / "svc.wal"))
            config = ServiceConfig(
                max_batch_size=128, max_delay=0.0005, breaker_threshold=1
            )
            service = SlabHashService(
                make_engine(), config=config, wal=wal, faults=plan
            )
            async with service:
                await service.insert(1, 10)
                service.checkpoint(str(tmp_path / "svc.snap"))
                for key in range(2, 150):
                    try:
                        await service.insert(key, key)
                    except (InjectedBatchFailure, ShardQuarantined):
                        pass
                await settle(service)
                stats = service.stats()
                assert len(stats.restore_failures) == 2
                assert all("restore attempt" in entry for entry in stats.restore_failures)
                assert stats.shard_restores >= 1
                assert all(state != LANE_OPEN for state in service.lane_states)
            wal.close()

        asyncio.run(asyncio.wait_for(main(), timeout=30))


class TestStatsFractionClamps:
    def test_zero_batch_lane_stats_are_finite(self):
        lane = ShardLaneStats(
            shard=0, ops_enqueued=0, batches_cut=0, aligned_batches=0,
            forced_batches=0, forced_aligned_batches=0, modelled_seconds=0.0,
        )
        assert lane.deadline_forced_fraction == 0.0
        assert lane.warp_aligned_fraction == 0.0
        document = lane.as_dict()
        assert math.isfinite(document["deadline_forced_fraction"])
        assert math.isfinite(document["warp_aligned_fraction"])

    def test_all_quarantined_service_stats_are_finite(self):
        """Every lane open from the start: zero batches cut anywhere, and
        every fraction in stats()/as_dict() must still be finite."""

        async def main():
            async with SlabHashService(
                make_engine(backend="vectorized"),
                config=ServiceConfig(max_batch_size=64, max_delay=0.0005),
            ) as service:
                for shard in range(service.engine.num_shards):
                    service._lanes[shard].state = LANE_OPEN
                stats = service.stats()
                assert stats.batches_executed == 0
                assert stats.deadline_forced_fraction == 0.0
                assert stats.warp_aligned_fraction == 0.0
                document = stats.as_dict()
                assert math.isfinite(document["deadline_forced_fraction"])
                assert math.isfinite(document["warp_aligned_fraction"])
                for lane in stats.per_shard:
                    assert lane.deadline_forced_fraction == 0.0
                    assert lane.warp_aligned_fraction == 0.0
                for shard in range(service.engine.num_shards):
                    service._lanes[shard].state = LANE_CLOSED

        asyncio.run(asyncio.wait_for(main(), timeout=30))

    def test_service_stats_fractions_clamp_directly(self):
        stats = ServiceStats(
            ops_enqueued=0, ops_completed=0, ops_failed=0, batches_executed=0,
            warp_aligned_batches=0, deadline_forced_batches=0,
            mean_batch_size=0.0, latency=LatencyReport.from_samples([]),
            wall_seconds=0.0, ops_per_second=0.0, modelled_seconds=0.0,
            modelled_ops_per_second=0.0,
        )
        assert stats.deadline_forced_fraction == 0.0
        assert stats.warp_aligned_fraction == 0.0
        assert math.isfinite(stats.as_dict()["deadline_forced_fraction"])


def engine_state(engine: ShardedSlabHash):
    return (
        sorted(engine.items()),
        [shard.num_buckets for shard in engine.shards],
        [device.counters.as_dict() for device in engine.devices],
    )


#: Incremental + deferred: the drain loop pumps bounded migration steps
#: between a shard's batches, starting from a tiny array so it must grow.
PUMP_POLICY = LoadFactorPolicy(
    min_buckets=2, incremental=True, migration_step_buckets=2
).deferred()


class TestSerialExecution:
    """The service runs every staged batch on the engine's in-process shards."""

    def test_identical_runs_are_bit_identical(self, tmp_path):
        """Same traffic and config twice: same replies, stats and shard state."""

        async def run(wal_path):
            engine = ShardedSlabHash(
                4, 64, seed=5, backend="vectorized",
                load_factor_policy=LoadFactorPolicy(min_buckets=2),
            )
            # max_delay=0: batch cuts depend only on the op stream.
            config = ServiceConfig(max_delay=0.0)
            wal = WriteAheadLog(str(wal_path))
            try:
                async with SlabHashService(engine, config=config, wal=wal) as service:
                    rng = np.random.default_rng(3)
                    keys = rng.choice(2**31, size=2000, replace=False)
                    await service.submit_many(
                        np.full(1000, C.OP_INSERT, dtype=np.int64),
                        keys[:1000],
                        (keys[:1000] % 1000 + 1).astype(np.uint32),
                    )
                    found = await service.submit_many(
                        np.full(400, C.OP_SEARCH, dtype=np.int64), keys[:400]
                    )
                    await service.submit_many(
                        np.full(150, C.OP_DELETE, dtype=np.int64), keys[:150]
                    )
                    stats = service.stats()
                    return {
                        "found": found.tolist(),
                        "expected": (keys[:400] % 1000 + 1).tolist(),
                        "ops": (stats.ops_completed, stats.ops_failed),
                        "batches": stats.batches_executed,
                        "modelled_seconds": stats.modelled_seconds,
                        "migration": (
                            stats.migration_steps,
                            stats.migration_buckets_moved,
                            stats.migration_items_moved,
                        ),
                        "state": engine_state(engine),
                    }
            finally:
                wal.close()

        async def main():
            first = await run(tmp_path / "first.wal")
            second = await run(tmp_path / "second.wal")
            assert first == second
            assert first["found"] == first["expected"]
            assert first["ops"] == (1550, 0)
            assert len(first["state"][0]) == 850

        asyncio.run(asyncio.wait_for(main(), timeout=60))

    def test_restore_swaps_the_engine_shard_in_place(self, tmp_path):
        """A checkpoint restore rebuilds shard 1 and writes it straight into
        ``engine.shards``; the other shards keep their table objects."""

        async def main():
            plan = FaultPlan({("shard:1.execute", 10): FaultAction(exc="batch")})
            wal = WriteAheadLog(str(tmp_path / "svc.wal"))
            config = ServiceConfig(max_batch_size=128, max_delay=0.0005, breaker_threshold=1)
            engine = make_engine()
            service = SlabHashService(engine, config=config, wal=wal, faults=plan)
            before = list(engine.shards)
            model = {}
            async with service:
                pre = np.arange(1, 60, dtype=np.uint64)
                await service.submit_many(
                    np.full(len(pre), C.OP_INSERT, dtype=np.int64),
                    pre,
                    (pre * 2).astype(np.uint32),
                )
                model.update((int(key), int(key) * 2) for key in pre)
                service.checkpoint(str(tmp_path / "svc.snap"))
                for key in range(60, 240):
                    try:
                        await service.insert(key, key * 2)
                        model[key] = key * 2
                    except (InjectedBatchFailure, ShardQuarantined):
                        pass
                await settle(service)
                assert service.stats().shard_restores >= 1
                assert engine.shards[1] is not before[1]
                assert engine.shards[0] is before[0]
                assert engine.shards[2] is before[2]
                assert engine.devices[1] is engine.shards[1].device
                # The rebuilt shard answers to the same fault plan.
                assert engine.shards[1].alloc.faults is not None
                assert sorted(engine.items()) == sorted(model.items())
                for key, value in model.items():
                    assert await service.search(key) == value, key
            wal.close()

        asyncio.run(asyncio.wait_for(main(), timeout=30))

    def test_soft_restore_keeps_the_shard_object(self):
        """Without a checkpoint a trip only cools the lane down: the shard
        table is left in place and the lane serves again."""

        async def main():
            plan = FaultPlan({("shard:0.execute", 2): FaultAction(exc="batch")})
            config = ServiceConfig(max_batch_size=32, max_delay=0.0005, breaker_threshold=1)
            engine = make_engine()
            before = list(engine.shards)
            service = SlabHashService(engine, config=config, faults=plan)
            async with service:
                for key in range(1, 120):
                    try:
                        await service.insert(key, key + 1)
                    except (InjectedBatchFailure, ShardQuarantined):
                        pass
                await settle(service)
                stats = service.stats()
                assert stats.breaker_trips >= 1
                assert stats.shard_restores >= 1
                assert engine.shards == before
                await service.insert(500, 501)
                assert await service.search(500) == 501

        asyncio.run(asyncio.wait_for(main(), timeout=30))

    def test_failed_pump_step_is_logged_not_tripped(self):
        """A migration step that fails between batches leaves the table
        intact: it lands in ``resize_failures``, the breaker stays closed,
        and every acked op is still there."""

        async def main():
            plan = FaultPlan(
                {("shard:0.migration.step", 0): FaultAction(exc="migration")}
            )
            config = ServiceConfig(max_batch_size=64, max_delay=0.0005, breaker_threshold=1)
            engine = make_engine(load_factor_policy=PUMP_POLICY)
            service = SlabHashService(engine, config=config, faults=plan)
            model = {}
            async with service:
                for start in range(1, 900, 60):
                    keys = np.arange(start, start + 60, dtype=np.uint64)
                    await service.submit_many(
                        np.full(len(keys), C.OP_INSERT, dtype=np.int64),
                        keys,
                        (keys + 3).astype(np.uint32),
                    )
                    model.update((int(key), int(key) + 3) for key in keys)
                await settle(service)
                stats = service.stats()
                assert ("shard:0.migration.step", 0) in plan.fired_sites()
                assert any(
                    "InjectedMigrationFailure" in entry for entry in stats.resize_failures
                )
                assert stats.breaker_trips == 0
                assert stats.ops_failed == 0
                assert all(state == LANE_CLOSED for state in service.lane_states)
                assert stats.migration_steps > 0
                assert sorted(engine.items()) == sorted(model.items())

        asyncio.run(asyncio.wait_for(main(), timeout=30))

    def test_later_pumps_finish_a_migration_after_a_failed_step(self):
        """The failed step is a no-op, so the next batches' pumps resume the
        same migration and drive it to completion."""

        async def main():
            plan = FaultPlan(
                {("shard:2.migration.step", 1): FaultAction(exc="migration")}
            )
            config = ServiceConfig(max_batch_size=64, max_delay=0.0005)
            engine = ShardedSlabHash(
                3, 2, alloc_config=SMALL_ALLOC, seed=5, load_factor_policy=PUMP_POLICY
            )
            service = SlabHashService(engine, config=config, faults=plan)
            async with service:
                keys = np.arange(1, 601, dtype=np.uint64)
                for chunk in np.array_split(keys, 10):
                    await service.submit_many(
                        np.full(len(chunk), C.OP_INSERT, dtype=np.int64), chunk, chunk
                    )
                assert ("shard:2.migration.step", 1) in plan.fired_sites()
                # Keep searching until every shard's pumps have settled.
                for _ in range(200):
                    if all(shard.migration is None for shard in engine.shards):
                        break
                    await service.submit_many(
                        np.full(len(keys), C.OP_SEARCH, dtype=np.int64), keys
                    )
                assert all(shard.migration is None for shard in engine.shards)
                assert engine.shards[2].num_buckets > 2
                assert engine.shards[2].resize_stats.grows >= 1
                found = await service.submit_many(
                    np.full(len(keys), C.OP_SEARCH, dtype=np.int64), keys
                )
                assert np.array_equal(found.astype(np.uint64), keys)

        asyncio.run(asyncio.wait_for(main(), timeout=60))

    def test_service_config_has_no_executor_knobs(self):
        names = {f.name for f in dataclasses.fields(ServiceConfig)}
        assert not names & {"executor", "executor_workers"}
        with pytest.raises(TypeError):
            ServiceConfig(executor="process")  # type: ignore[call-arg]

    def test_batches_reach_shards_through_the_engine_hooks(self, monkeypatch):
        """Admission goes through ``engine.admit_partition``, every executed
        batch through the module-level ``measure_phase`` and then its own
        shard's ``engine.maybe_resize_shard`` pump — the public hooks a
        caller can wrap to observe the service."""
        import repro.service.service as service_mod

        calls = {"admit": 0, "measure": 0, "pump": []}
        admit = ShardedSlabHash.admit_partition
        pump = ShardedSlabHash.maybe_resize_shard
        measure = service_mod.measure_phase

        def counted_admit(self, keys):
            calls["admit"] += 1
            return admit(self, keys)

        def counted_pump(self, shard):
            calls["pump"].append(shard)
            return pump(self, shard)

        def counted_measure(*args, **kwargs):
            calls["measure"] += 1
            return measure(*args, **kwargs)

        monkeypatch.setattr(ShardedSlabHash, "admit_partition", counted_admit)
        monkeypatch.setattr(ShardedSlabHash, "maybe_resize_shard", counted_pump)
        monkeypatch.setattr(service_mod, "measure_phase", counted_measure)

        async def main():
            engine = make_engine(load_factor_policy=PUMP_POLICY)
            config = ServiceConfig(max_batch_size=64, max_delay=0.0)
            async with SlabHashService(engine, config=config) as service:
                keys = np.arange(1, 401, dtype=np.uint64)
                for chunk in np.array_split(keys, 4):
                    await service.submit_many(
                        np.full(len(chunk), C.OP_INSERT, dtype=np.int64), chunk, chunk
                    )
                stats = service.stats()
            assert calls["admit"] == 4
            assert calls["measure"] == stats.batches_executed > 0
            assert len(calls["pump"]) == stats.batches_executed
            assert set(calls["pump"]) == {0, 1, 2}
            assert stats.migration_steps > 0

        asyncio.run(asyncio.wait_for(main(), timeout=30))
