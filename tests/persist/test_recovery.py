"""End-to-end crash recovery: snapshot + WAL replay reproduce the lost state.

The contract under test: a service wired with a WAL can die at any moment,
and ``recover(snapshot, wal)`` — or ``SlabHashService.recovered`` — rebuilds
an engine whose items, structure and device counters match the crashed one
exactly, because the WAL records the executed batches verbatim and every
execution path is deterministic given state.  (The byte-level crash-point
sweep lives in ``tests/proptest/test_crash_recovery.py``; these tests cover
the service wiring: write-ahead ordering, checkpointing, restart.)
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.engine import ShardedSlabHash
from repro.persist import WriteAheadLog, load, read_records, recover, save
from repro.service import ServiceConfig, SlabHashService

from tests.conftest import make_keys

SMALL_ALLOC = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=8, units_per_block=64)
FAST = ServiceConfig(max_batch_size=128, max_delay=0.0005)


def stream(n: int, seed: int):
    keys = make_keys(n, seed=seed)
    doomed = keys[: n // 3]
    op_codes = np.concatenate(
        [np.full(len(keys), C.OP_INSERT), np.full(len(doomed), C.OP_DELETE)]
    )
    stream_keys = np.concatenate([keys, doomed])
    values = (stream_keys * np.uint32(3)) & np.uint32(0xFFFF)
    return op_codes, stream_keys, values


def engine_state(engine):
    tables = engine.shards if isinstance(engine, ShardedSlabHash) else [engine]
    return (
        sorted(engine.items()),
        [table.num_buckets for table in tables],
        [table.device.counters.as_dict() for table in tables],
        [table.alloc.allocated_units for table in tables],
    )


def run_service(engine, wal, ops, *, config=FAST):
    async def main():
        async with SlabHashService(engine, config=config, wal=wal) as service:
            await service.submit_many(*ops)
    asyncio.run(main())


class TestServiceRecovery:
    @pytest.mark.parametrize("kind", ["table", "engine"])
    def test_snapshot_plus_wal_reproduces_the_crashed_state(self, kind, tmp_path):
        if kind == "table":
            engine = SlabHash(16, alloc_config=SMALL_ALLOC, seed=3)
        else:
            engine = ShardedSlabHash(2, 8, alloc_config=SMALL_ALLOC, seed=3)
        snap = str(tmp_path / "snap")
        save(engine, snap)  # checkpoint at service birth
        wal = WriteAheadLog(str(tmp_path / "ops.wal"))
        run_service(engine, wal, stream(500, seed=3))
        wal.close()  # the "crash": the process is gone, only the files remain

        recovered, report = recover(snap, str(tmp_path / "ops.wal"))
        assert report.records_replayed >= 1
        assert not report.torn_tail
        assert engine_state(recovered) == engine_state(engine)

    def test_mid_stream_checkpoint_truncates_and_recovers(self, tmp_path):
        engine = SlabHash(16, alloc_config=SMALL_ALLOC, seed=7)
        snap = str(tmp_path / "snap.npz")
        wal = WriteAheadLog(str(tmp_path / "ops.wal"))
        op_codes, keys, values = stream(400, seed=7)
        half = len(keys) // 2

        async def main():
            async with SlabHashService(engine, config=FAST, wal=wal) as service:
                await service.submit_many(op_codes[:half], keys[:half], values[:half])
                service.checkpoint(snap)  # between batches: nothing in flight
                await service.submit_many(op_codes[half:], keys[half:], values[half:])
        asyncio.run(main())
        wal.close()

        # Only the post-checkpoint batches remain in the log ...
        records, torn = read_records(str(tmp_path / "ops.wal"))
        assert not torn
        assert sum(len(record) for record in records) == len(keys) - half
        # ... and they are exactly what recovery needs on top of the snapshot.
        recovered, report = recover(snap, str(tmp_path / "ops.wal"))
        assert report.records_replayed == len(records)
        assert engine_state(recovered) == engine_state(engine)

    def test_recovery_without_wal_is_the_snapshot(self, tmp_path):
        engine = SlabHash(8, alloc_config=SMALL_ALLOC, seed=9)
        keys = make_keys(200, seed=9)
        engine.bulk_build(keys, keys)
        snap = str(tmp_path / "snap.npz")
        save(engine, snap)
        recovered, report = recover(snap)
        assert report.records_replayed == 0
        assert report.next_batch_index == 0
        assert engine_state(recovered) == engine_state(engine)

    def test_torn_final_record_is_dropped_not_half_applied(self, tmp_path):
        engine = SlabHash(16, alloc_config=SMALL_ALLOC, seed=11)
        snap = str(tmp_path / "snap")
        save(engine, snap)
        wal_path = str(tmp_path / "ops.wal")
        wal = WriteAheadLog(wal_path)
        run_service(engine, wal, stream(400, seed=11))
        wal.close()

        records, _ = read_records(wal_path)
        assert len(records) >= 2
        with open(wal_path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 5)  # crash mid-append of the tail

        recovered, report = recover(snap, wal_path)
        assert report.torn_tail
        assert report.records_replayed == len(records) - 1
        # The recovered state is exactly the snapshot plus the whole prefix.
        oracle, _ = recover(snap)
        for record in records[:-1]:
            from repro.persist.recovery import replay_record
            replay_record(oracle, record)
        assert engine_state(recovered) == engine_state(oracle)

    def test_recovered_service_resumes_on_the_same_wal(self, tmp_path):
        engine = ShardedSlabHash(2, 8, alloc_config=SMALL_ALLOC, seed=13)
        snap = str(tmp_path / "snap")
        save(engine, snap)
        wal_path = str(tmp_path / "ops.wal")
        wal = WriteAheadLog(wal_path)
        op_codes, keys, values = stream(300, seed=13)
        run_service(engine, wal, (op_codes, keys, values))
        wal.close()
        before_crash = engine_state(engine)

        async def resume():
            service = SlabHashService.recovered(
                snap, WriteAheadLog(wal_path), config=FAST
            )
            assert engine_state(service.engine) == before_crash
            assert service._batch_index >= 1  # numbering continues, not restarts
            async with service:
                # The recovered service keeps serving — and keeps logging.
                await service.insert(77, 770)
                assert await service.search(77) == 770
            service.wal.close()
        asyncio.run(resume())

        # The resumed batches landed in the same WAL after the replayed ones.
        records, torn = read_records(wal_path)
        assert not torn
        total_ops = sum(len(record) for record in records)
        assert total_ops >= len(keys) + 2  # original stream + the two new ops

    def test_recovery_tolerates_failed_batches_like_the_live_loop(self, tmp_path):
        """The drain loop fails a batch's futures but keeps serving (and keeps
        the batch's deterministic partial state); recovery must reproduce
        that — not die on the same deterministic error."""
        from repro.core.slab_hash import SlabHash as _SlabHash

        tight = SlabAllocConfig(
            num_super_blocks=1, num_memory_blocks=1, units_per_block=32,
            growth_threshold=10_000, max_super_blocks=1,
        )
        table = _SlabHash(2, alloc_config=tight, seed=5)
        snap = str(tmp_path / "snap.npz")
        save(table, snap)
        wal = WriteAheadLog(str(tmp_path / "ops.wal"))
        # ~1000 inserts into 2 buckets exhaust the 32-unit pool mid-stream:
        # later batches raise, their futures fail, the service keeps going.
        keys = make_keys(1000, seed=5)
        op_codes = np.full(len(keys), C.OP_INSERT)
        values = keys

        async def main():
            async with SlabHashService(table, config=FAST, wal=wal) as service:
                results = await asyncio.gather(
                    *[service.submit(int(op), int(key), int(value))
                      for op, key, value in zip(op_codes, keys, values)],
                    return_exceptions=True,
                )
                return sum(1 for r in results if isinstance(r, Exception))
        failed_ops = asyncio.run(main())
        wal.close()
        assert failed_ops > 0  # the scenario really exercised failing batches

        recovered, report = recover(snap, str(tmp_path / "ops.wal"))
        assert report.records_failed >= 1
        assert engine_state(recovered) == engine_state(table)

    def test_crash_inside_the_checkpoint_window_does_not_double_replay(self, tmp_path):
        """Snapshot written, process dies before the WAL truncate: the WAL
        still holds records the snapshot already covers.  Recovery must skip
        them via the snapshot's WAL floor instead of applying them twice."""
        engine = SlabHash(16, alloc_config=SMALL_ALLOC, seed=19)
        wal = WriteAheadLog(str(tmp_path / "ops.wal"))
        op_codes, keys, values = stream(300, seed=19)

        async def main():
            async with SlabHashService(engine, config=FAST, wal=wal) as service:
                await service.submit_many(op_codes, keys, values)
                # The crash: snapshot lands, the truncate never happens.
                save(engine, str(tmp_path / "snap.npz"),
                     wal_min_batch_index=service._batch_index)
        asyncio.run(main())
        wal.close()

        records, _ = read_records(str(tmp_path / "ops.wal"))
        assert records  # the supposedly-truncated history is still there
        recovered, report = recover(str(tmp_path / "snap.npz"), str(tmp_path / "ops.wal"))
        assert report.records_skipped == len(records)
        assert report.records_replayed == 0
        assert report.next_batch_index == len(records)
        assert engine_state(recovered) == engine_state(engine)

    def test_recovered_service_numbering_survives_an_empty_wal(self, tmp_path):
        """After a clean checkpoint the WAL is empty, but batch numbering
        must continue from the checkpoint, not restart at zero (scheduler
        seeds are derived from it)."""
        engine = SlabHash(16, alloc_config=SMALL_ALLOC, seed=23)
        wal = WriteAheadLog(str(tmp_path / "ops.wal"))
        snap = str(tmp_path / "snap.npz")

        async def main():
            async with SlabHashService(engine, config=FAST, wal=wal) as service:
                await service.submit_many(*stream(200, seed=23))
                service.checkpoint(snap)
                return service._batch_index
        batches_before = asyncio.run(main())
        wal.close()
        assert batches_before >= 1

        service = SlabHashService.recovered(snap, WriteAheadLog(str(tmp_path / "ops.wal")))
        assert service._batch_index == batches_before

    def test_deferred_policy_resizes_replay_identically(self, tmp_path):
        """Between-batch migrations are part of the drain loop; recovery must
        reproduce them (replay calls maybe_resize after every record)."""
        policy = LoadFactorPolicy(min_buckets=2).deferred()
        engine = SlabHash(2, alloc_config=SMALL_ALLOC, seed=17, policy=policy)
        snap = str(tmp_path / "snap.npz")
        save(engine, snap)
        wal = WriteAheadLog(str(tmp_path / "ops.wal"))
        run_service(engine, wal, stream(600, seed=17))
        wal.close()
        assert engine.resize_stats.resizes >= 1  # the drain loop really resized

        recovered, _ = recover(snap, str(tmp_path / "ops.wal"))
        assert engine_state(recovered) == engine_state(engine)
        assert recovered.shards[0].resize_stats.resizes == engine.resize_stats.resizes


def snapshot_arrays(table, path):
    """Every array (the JSON header included) of ``table``'s table-file snapshot."""
    save(table, path)
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


class TestSingleTableIsAOneShardEngine:
    """A bare table enters the service and recovery as a one-shard engine."""

    def test_from_shards_adopts_the_table_and_routes_every_key_to_it(self):
        table = SlabHash(16, alloc_config=SMALL_ALLOC, seed=3)
        engine = ShardedSlabHash.from_shards([table])
        assert engine.num_shards == 1 and engine.shards[0] is table
        keys = make_keys(300, seed=3)
        assert not engine.router.route(keys).any()
        engine.bulk_insert(keys, keys)
        assert len(table) == len(keys)
        assert engine.shard_sizes().tolist() == [len(keys)]

    def test_from_shards_adopts_several_tables_in_order(self):
        tables = [SlabHash(8, alloc_config=SMALL_ALLOC, seed=seed) for seed in (4, 5)]
        engine = ShardedSlabHash.from_shards(tables)
        assert engine.num_shards == 2
        assert all(shard is table for shard, table in zip(engine.shards, tables))
        assert engine._ops_routed.tolist() == [0, 0]
        keys = make_keys(300, seed=4)
        engine.bulk_insert(keys, keys)
        routes = engine.router.route(keys)
        assert [len(table) for table in tables] == np.bincount(routes, minlength=2).tolist()
        assert engine._ops_routed.tolist() == [len(table) for table in tables]

    def test_from_shards_needs_a_table(self):
        with pytest.raises(ValueError):
            ShardedSlabHash.from_shards([])

    def test_single_table_checkpoint_is_a_one_table_manifest(self, tmp_path):
        table = SlabHash(16, alloc_config=SMALL_ALLOC, seed=21)
        checkpoint = str(tmp_path / "checkpoint")

        async def main():
            async with SlabHashService(table, config=FAST) as service:
                await service.submit_many(*stream(200, seed=21))
                assert service.checkpoint(checkpoint) == checkpoint

        asyncio.run(main())
        assert sorted(os.listdir(checkpoint)) == ["manifest.json", "shard-000.npz"]
        restored = load(checkpoint)
        assert isinstance(restored, ShardedSlabHash) and restored.num_shards == 1
        assert engine_state(restored) == engine_state(ShardedSlabHash.from_shards([table]))

    def test_recovered_service_resumes_from_a_table_file(self, tmp_path):
        table = SlabHash(16, alloc_config=SMALL_ALLOC, seed=23)
        table_file = str(tmp_path / "table.npz")
        table.save(table_file)
        wal_path = str(tmp_path / "ops.wal")
        wal = WriteAheadLog(wal_path)
        run_service(table, wal, stream(300, seed=23))
        wal.close()

        async def resume():
            service = SlabHashService.recovered(
                table_file, WriteAheadLog(wal_path), config=FAST
            )
            assert service.num_lanes == service.engine.num_shards == 1
            assert engine_state(service.engine) == engine_state(table)
            async with service:
                await service.insert(77, 770)
                assert await service.search(77) == 770
                # Its checkpoint goes back over the table file it came from.
                assert service.checkpoint(table_file) == table_file
                await service.submit_many(*stream(200, seed=24))
            service.wal.close()
            return service.engine

        resumed = asyncio.run(resume())
        assert os.path.isfile(table_file)
        # A second recovery sees the checkpoint plus the batches logged after it.
        recovered, report = recover(table_file, wal_path)
        assert report.records_replayed >= 1
        assert engine_state(recovered) == engine_state(resumed)
        (shard,) = recovered.shards
        live_arrays = snapshot_arrays(resumed.shards[0], str(tmp_path / "live.npz"))
        arrays = snapshot_arrays(shard, str(tmp_path / "recovered.npz"))
        assert arrays.keys() == live_arrays.keys()
        for name, array in live_arrays.items():
            assert np.array_equal(arrays[name], array), name

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("policy_kind", ["none", "stop-the-world", "incremental"])
    def test_single_table_service_recovers_as_its_one_shard(
        self, policy_kind, backend, tmp_path
    ):
        """Checkpoint and table-file recoveries both equal the live table."""
        policy = {
            "none": None,
            "stop-the-world": LoadFactorPolicy(min_buckets=2).deferred(),
            "incremental": LoadFactorPolicy(
                min_buckets=2, incremental=True, migration_step_buckets=1
            ).deferred(),
        }[policy_kind]
        table = SlabHash(2, alloc_config=SMALL_ALLOC, seed=31, backend=backend, policy=policy)
        checkpoint = str(tmp_path / "checkpoint")
        table_file = str(tmp_path / "table.npz")
        wal = WriteAheadLog(str(tmp_path / "ops.wal"))
        before, after = stream(400, seed=31), stream(300, seed=32)

        async def main():
            async with SlabHashService(table, config=FAST, wal=wal) as service:
                assert service.engine.shards == [table]
                await service.submit_many(*before)
                service.checkpoint(checkpoint)
                table.save(table_file)  # the same state, as a table file
                await service.submit_many(*after)

        asyncio.run(main())
        wal.close()
        if policy_kind == "stop-the-world":
            assert table.resize_stats.resizes >= 1
        elif policy_kind == "incremental":
            assert table.resize_stats.migration_steps >= 1
        live_arrays = snapshot_arrays(table, str(tmp_path / "live.npz"))
        for source in (checkpoint, table_file):
            engine, report = recover(source, wal.path)
            assert report.records_replayed >= 1
            assert isinstance(engine, ShardedSlabHash) and engine.num_shards == 1
            (shard,) = engine.shards
            assert shard.items() == table.items()
            assert shard.device.counters.as_dict() == table.device.counters.as_dict()
            arrays = snapshot_arrays(shard, str(tmp_path / "recovered.npz"))
            assert arrays.keys() == live_arrays.keys()
            for name, array in live_arrays.items():
                assert np.array_equal(arrays[name], array), (source, name)


class TestCheckpointFailure:
    """A checkpoint that fails part way leaves the previous snapshot whole:
    the WAL still holds every batch since it, so recovery lands on the live
    state."""

    @staticmethod
    def tear_write(monkeypatch, call):
        # The ``call``-th snapshot file write puts down a few bytes and dies.
        real, calls = np.savez_compressed, []

        def torn(handle, **arrays):
            calls.append(handle)
            if len(calls) == call:
                handle.write(b"PK\x03\x04 torn")
                raise OSError("disk full")
            return real(handle, **arrays)

        monkeypatch.setattr(np, "savez_compressed", torn)

    def crash_mid_checkpoint(self, monkeypatch, tmp_path, engine, snapshot, call):
        wal_path = str(tmp_path / "ops.wal")

        async def main():
            async with SlabHashService(
                engine, config=FAST, wal=WriteAheadLog(wal_path)
            ) as service:
                await service.submit_many(*stream(300, seed=41))
                service.checkpoint(snapshot)
                await service.submit_many(*stream(200, seed=42))
                with monkeypatch.context() as patch:
                    self.tear_write(patch, call)
                    with pytest.raises(OSError, match="disk full"):
                        service.checkpoint(snapshot)
                await service.submit_many(*stream(100, seed=43))
                return service

        service = asyncio.run(main())
        recovered, report = recover(snapshot, wal_path)
        assert report.records_replayed >= 2
        assert engine_state(recovered) == engine_state(service.engine)
        # The next checkpoint goes through and recovers as well.
        service.checkpoint(snapshot)
        assert engine_state(recover(snapshot, wal_path)[0]) == engine_state(service.engine)
        service.wal.close()

    def test_engine_checkpoint_torn_at_its_second_shard(self, monkeypatch, tmp_path):
        engine = ShardedSlabHash(2, 8, alloc_config=SMALL_ALLOC, seed=41)
        snapshot = str(tmp_path / "checkpoint")
        self.crash_mid_checkpoint(monkeypatch, tmp_path, engine, snapshot, call=2)
        assert sorted(os.listdir(snapshot)) == [
            "manifest.json", "shard-000.1.npz", "shard-001.1.npz"
        ]

    def test_table_file_checkpoint_torn_mid_write(self, monkeypatch, tmp_path):
        table = SlabHash(16, alloc_config=SMALL_ALLOC, seed=41)
        snapshot = str(tmp_path / "table.npz")
        table.save(snapshot)
        self.crash_mid_checkpoint(monkeypatch, tmp_path, table, snapshot, call=1)
        assert sorted(os.listdir(tmp_path)) == ["ops.wal", "table.npz"]

    def test_checkpoints_alternate_shard_file_names(self, tmp_path):
        engine = ShardedSlabHash(2, 8, alloc_config=SMALL_ALLOC, seed=43)
        snapshot = str(tmp_path / "checkpoint")
        fresh = ["manifest.json", "shard-000.npz", "shard-001.npz"]
        for names in (fresh, ["manifest.json", "shard-000.1.npz", "shard-001.1.npz"], fresh):
            keys = make_keys(50, seed=len(engine) + 1)
            engine.bulk_insert(keys, keys)
            save(engine, snapshot)
            assert sorted(os.listdir(snapshot)) == names
            assert engine_state(load(snapshot)) == engine_state(engine)


class TestWalFloorBoundary:
    """The floor boundary is exact and skipping is prefix-only (PR 9 fixes).

    The floor is the *next* batch index at checkpoint time: a record
    numbered exactly at the floor is not covered by the snapshot and must
    replay; strictly-below records skip — but only as a prefix.  A
    batch_index that regresses below the floor after an at-or-above-floor
    record means the log cannot belong to this snapshot, and recover()
    must refuse rather than silently skip or replay it.
    """

    @staticmethod
    def _batch(keys):
        keys = np.asarray(keys, dtype=np.uint64)
        return (
            np.full(len(keys), C.OP_INSERT, dtype=np.int64),
            keys,
            (keys * np.uint64(2)).astype(np.uint32),
        )

    def test_record_exactly_at_floor_replays(self, tmp_path):
        """floor == batch_index is NOT covered by the snapshot: it replays."""
        table = SlabHash(16, alloc_config=SMALL_ALLOC, seed=7)
        covered = make_keys(40, seed=7)
        ops, keys, values = self._batch(covered)
        table.concurrent_batch(ops, keys, values)
        # Batches 0 and 1 are in the snapshot; the floor says "2 is next".
        snap = save(table, str(tmp_path / "snap.npz"), wal_min_batch_index=2)

        wal = WriteAheadLog(str(tmp_path / "ops.wal"))
        half = len(covered) // 2
        fresh = make_keys(20, seed=8)[~np.isin(make_keys(20, seed=8), covered)]
        wal.append(*self._batch(covered[:half]), batch_index=0)
        wal.append(*self._batch(covered[half:]), batch_index=1)
        wal.append(*self._batch(fresh), batch_index=2)
        wal.close()

        recovered, report = recover(snap, str(tmp_path / "ops.wal"))
        assert report.records_skipped == 2
        assert report.records_replayed == 1
        assert report.next_batch_index == 3
        expected = {int(k): int(k) * 2 % 2**32 for k in covered}
        expected.update({int(k): int(k) * 2 % 2**32 for k in fresh})
        assert dict(recovered.items()) == {
            k: v & 0xFFFFFFFF for k, v in expected.items()
        }

    def test_regression_below_floor_after_replay_refuses(self, tmp_path):
        from repro.persist import WalFloorRegressionError

        table = SlabHash(16, alloc_config=SMALL_ALLOC, seed=7)
        snap = save(table, str(tmp_path / "snap.npz"), wal_min_batch_index=2)

        wal = WriteAheadLog(str(tmp_path / "ops.wal"))
        wal.append(*self._batch(make_keys(8, seed=1)), batch_index=1)  # prefix: OK
        wal.append(*self._batch(make_keys(8, seed=2)), batch_index=2)  # at floor
        wal.append(*self._batch(make_keys(8, seed=3)), batch_index=0)  # regression
        wal.close()

        with pytest.raises(WalFloorRegressionError, match="regresses below"):
            recover(snap, str(tmp_path / "ops.wal"))

    def test_low_abort_marker_after_floor_does_not_refuse(self, tmp_path):
        """Abort markers carry no operations; a late marker for an old
        (pre-floor) batch is legal and must not trigger the refusal."""
        table = SlabHash(16, alloc_config=SMALL_ALLOC, seed=7)
        snap = save(table, str(tmp_path / "snap.npz"), wal_min_batch_index=2)

        wal = WriteAheadLog(str(tmp_path / "ops.wal"))
        wal.append(*self._batch(make_keys(8, seed=2)), batch_index=2)
        wal.append_abort(0)
        wal.append(*self._batch(make_keys(8, seed=3)), batch_index=3)
        wal.close()

        _, report = recover(snap, str(tmp_path / "ops.wal"))
        assert report.records_replayed == 2
        assert report.records_skipped == 0

    def test_prefix_skip_still_legal_without_any_replayed_record(self, tmp_path):
        """An all-below-floor WAL (checkpoint-window crash) stays valid."""
        table = SlabHash(16, alloc_config=SMALL_ALLOC, seed=7)
        snap = save(table, str(tmp_path / "snap.npz"), wal_min_batch_index=5)

        wal = WriteAheadLog(str(tmp_path / "ops.wal"))
        for index in (0, 1, 4):  # gaps are fine; all strictly below 5
            wal.append(*self._batch(make_keys(4, seed=index + 1)), batch_index=index)
        wal.close()

        _, report = recover(snap, str(tmp_path / "ops.wal"))
        assert report.records_skipped == 3
        assert report.records_replayed == 0
        assert report.next_batch_index == 5
