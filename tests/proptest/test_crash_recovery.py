"""Crash-point property tests: kill the WAL at arbitrary offsets, recover, diff.

Each pinned seed generates a random program of mixed micro-batches
(batch-unique keys, insert-heavy head, delete-heavy tail — the same churn
shape as the differential harness) and runs it the way the service drain
loop would: append the batch to the WAL, execute it, apply the deferred
load-factor policy.  A checkpoint (snapshot + WAL truncate) lands at a
random batch boundary.  Then the WAL file is chopped at crash points —
including every-byte edge cases: just after the header, mid-record, and the
clean end — and ``recover`` is checked differentially against

* a plain-dict model replaying the surviving whole batches, and
* a live *oracle* run executing exactly those batches on a fresh engine,
  which must match the recovered one bit-for-bit: items, bucket counts,
  chain structure, allocator occupancy and device counters.

CI runs the pinned seeds plus one derived from ``PROPTEST_SEED`` (set from
the workflow's run id), mirroring the differential-harness job.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import shutil

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.engine import ShardedSlabHash
from repro.faults import FaultAction, FaultPlan, InjectedBatchFailure
from repro.persist import WalRecord, WriteAheadLog, recover, save
from repro.persist.recovery import replay_record
from repro.persist.wal import HEADER_SIZE
from repro.service import LANE_OPEN, ServiceConfig, SlabHashService

PINNED_SEEDS = [711, 722, 733]
KEY_SPACE = 50_000
ALLOC = SlabAllocConfig(num_super_blocks=4, num_memory_blocks=32, units_per_block=128)
#: Deferred, exactly as the service layer runs it (resize between batches).
POLICY = LoadFactorPolicy(min_buckets=2).deferred()


def _seeds() -> list:
    seeds = list(PINNED_SEEDS)
    raw = os.environ.get("PROPTEST_SEED")
    if raw:
        try:
            seeds.append(int(raw.strip()) % 2**31)
        except ValueError:
            pass
    return seeds


def fresh_impl(kind: str):
    if kind == "engine":
        return ShardedSlabHash(
            2, POLICY.min_buckets, alloc_config=ALLOC, seed=41, load_factor_policy=POLICY
        )
    return SlabHash(POLICY.min_buckets, alloc_config=ALLOC, seed=41, policy=POLICY)


def generate_batches(seed: int, num_batches: int = 10) -> list:
    """Random mixed micro-batches with batch-unique keys (schedule-independent)."""
    rng = random.Random(seed)
    shadow: set = set()
    batches = []
    for index in range(num_batches):
        count = rng.randrange(30, 130)
        delete_phase = index >= (2 * num_batches) // 3
        existing = sorted(shadow)
        rng.shuffle(existing)
        keys = existing[: count // 2 if delete_phase else count // 4]
        seen = set(keys)
        while len(keys) < count:
            key = rng.randrange(1, KEY_SPACE)
            if key not in seen:
                keys.append(key)
                seen.add(key)
        rng.shuffle(keys)
        op_codes, values = [], []
        weights = (
            [C.OP_DELETE, C.OP_DELETE, C.OP_SEARCH, C.OP_INSERT]
            if delete_phase
            else [C.OP_INSERT, C.OP_INSERT, C.OP_INSERT, C.OP_SEARCH, C.OP_DELETE]
        )
        for key in keys:
            code = rng.choice(weights)
            if code == C.OP_INSERT:
                shadow.add(key)
            elif code == C.OP_DELETE:
                shadow.discard(key)
            op_codes.append(int(code))
            values.append(rng.randrange(0, 2**16))
        batches.append(
            WalRecord(
                batch_index=index,
                op_codes=np.array(op_codes, dtype=np.int64),
                keys=np.array(keys, dtype=np.uint32),
                values=np.array(values, dtype=np.uint32),
            )
        )
    return batches


def apply_to_model(model: dict, record: WalRecord) -> None:
    for code, key, value in zip(record.op_codes, record.keys, record.values):
        if code == C.OP_INSERT:
            model[int(key)] = int(value)
        elif code == C.OP_DELETE:
            model.pop(int(key), None)


def _migration_view(table):
    """Bit-level view of a table's in-flight migration (None when quiescent).

    The new array's bucket heads are digested rather than listed — equality
    of the digest plus the shared-allocator occupancy (checked separately)
    pins both live tables exactly.
    """
    state = table.migration
    if state is None:
        return None
    return {
        "watermark": state.watermark,
        "target_buckets": state.target_buckets,
        "step_buckets": state.step_buckets,
        "trigger": state.trigger,
        "steps": state.steps,
        "items_moved": state.items_moved,
        "released_slabs": state.released_slabs,
        "counters": state.counters.as_dict(),
        "new_base_digest": hashlib.sha256(
            state.new_lists.base_slabs.tobytes()
        ).hexdigest(),
        "old_base_digest": hashlib.sha256(
            table.lists.base_slabs.tobytes()
        ).hexdigest(),
    }


def full_state(impl):
    tables = impl.shards if isinstance(impl, ShardedSlabHash) else [impl]
    return {
        "items": sorted(impl.items()),
        "buckets": [table.num_buckets for table in tables],
        "chains": [table.bucket_slab_counts().tolist() for table in tables],
        "alloc_units": [table.alloc.allocated_units for table in tables],
        "counters": [table.device.counters.as_dict() for table in tables],
        "warp_counters": [table._warp_counter for table in tables],
        "migration": [_migration_view(table) for table in tables],
    }


def run_crash_scenario(seed: int, kind: str, tmp_path) -> None:
    rng = random.Random(seed * 31 + (0 if kind == "table" else 1))
    batches = generate_batches(seed)
    checkpoint_after = rng.randrange(0, len(batches))

    workdir = tmp_path / f"{kind}-{seed}"
    workdir.mkdir()
    snap = str(workdir / "snap")
    wal_path = str(workdir / "ops.wal")

    impl = fresh_impl(kind)
    wal = WriteAheadLog(wal_path)
    record_offsets = []
    for index, record in enumerate(batches):
        if index == checkpoint_after:
            save(impl, snap)
            wal.truncate()
            record_offsets = []
        record_offsets.append(
            wal.append(record.op_codes, record.keys, record.values,
                       batch_index=record.batch_index)
        )
        replay_record(impl, record)  # the drain loop: execute + maybe_resize
    if checkpoint_after == len(batches):  # pragma: no cover - randrange excludes
        save(impl, snap)
        wal.truncate()
    wal_end = wal.size()
    wal.close()
    live_end_state = full_state(impl)

    # Crash points: mid-header (the WAL creation itself was interrupted),
    # just the header, a random mid-file tear, and a clean shutdown — every
    # recovery must be a whole-batch (possibly empty) prefix.
    crash_points = sorted(
        {0, HEADER_SIZE - 5, HEADER_SIZE, rng.randrange(0, wal_end + 1), wal_end}
    )
    for crash_at in crash_points:
        chopped = str(workdir / f"crash-{crash_at}.wal")
        shutil.copyfile(wal_path, chopped)
        with open(chopped, "r+b") as handle:
            handle.truncate(crash_at)

        recovered, report = recover(snap, chopped)
        boundaries = record_offsets + [wal_end]
        survived = max(
            (i for i, off in enumerate(boundaries) if off <= crash_at), default=0
        )
        assert report.records_replayed == survived, (
            f"seed {seed} {kind}: crash at byte {crash_at} replayed "
            f"{report.records_replayed} records, expected {survived}"
        )

        prefix = batches[: checkpoint_after + survived]
        model: dict = {}
        for record in prefix:
            apply_to_model(model, record)
        assert sorted(model.items()) == sorted(
            (int(k), int(v)) for k, v in recovered.items()
        ), f"seed {seed} {kind}: crash at {crash_at} diverged from the dict model"

        oracle = fresh_impl(kind)
        for record in prefix:
            replay_record(oracle, record)
        assert full_state(recovered) == full_state(oracle), (
            f"seed {seed} {kind}: crash at {crash_at} is not bit-identical "
            "to a live run of the surviving prefix"
        )
        if crash_at == wal_end:
            assert full_state(recovered) == live_end_state, (
                f"seed {seed} {kind}: clean-shutdown recovery diverged from "
                "the crashed process's final state"
            )


@pytest.mark.parametrize("kind", ["table", "engine"])
@pytest.mark.parametrize("seed", _seeds())
def test_recovery_from_arbitrary_crash_points_matches_the_model(seed, kind, tmp_path):
    run_crash_scenario(seed, kind, tmp_path)


def run_group_commit_crash_scenario(seed: int, kind: str, tmp_path) -> None:
    """Crash-point sweep over a *group-committed* WAL.

    Batches are appended the way the per-shard service drains do: several
    batches at a time via ``append_group`` (one write + flush per round),
    interleaved across an engine's shards, then executed.  A checkpoint
    lands at a random *round* boundary.  Every byte of the surviving WAL is
    a candidate crash point for the read-back prefix property; recovery
    itself is diffed at every record boundary plus a random mid-record tear,
    against both the dict model and a live oracle replay of the prefix —
    a torn group must replay its leading whole records and drop the rest.
    """
    rng = random.Random(seed * 57 + (0 if kind == "table" else 1))
    batches = generate_batches(seed, num_batches=9)
    # Chunk the stream into commit rounds of 1-3 batches (a drain round).
    rounds, cursor = [], 0
    while cursor < len(batches):
        size = rng.randrange(1, 4)
        rounds.append(batches[cursor : cursor + size])
        cursor += size
    checkpoint_after_round = rng.randrange(0, len(rounds))

    workdir = tmp_path / f"group-{kind}-{seed}"
    workdir.mkdir()
    snap = str(workdir / "snap")
    wal_path = str(workdir / "ops.wal")

    impl = fresh_impl(kind)
    wal = WriteAheadLog(wal_path)
    record_offsets = []
    replayed_after_checkpoint = 0
    for round_index, round_batches in enumerate(rounds):
        if round_index == checkpoint_after_round:
            save(impl, snap)
            wal.truncate()
            record_offsets = []
            replayed_after_checkpoint = 0
        # Write-ahead for the whole round, then execute its batches in order.
        record_offsets.extend(
            wal.append_group(
                [
                    (record.op_codes, record.keys, record.values, record.batch_index)
                    for record in round_batches
                ]
            )
        )
        for record in round_batches:
            replay_record(impl, record)
            replayed_after_checkpoint += 1
    wal_end = wal.size()
    wal.close()
    live_end_state = full_state(impl)
    checkpoint_batches = sum(len(r) for r in rounds[:checkpoint_after_round])

    # Property 1 — every byte offset reads back as a whole-record prefix.
    with open(wal_path, "rb") as handle:
        data = handle.read()
    boundaries = record_offsets + [wal_end]
    for cut in range(0, wal_end):
        records, _torn = read_records_bytes(data[:cut], workdir)
        survived = max(
            (i for i, off in enumerate(boundaries) if off <= cut), default=0
        )
        assert len(records) == survived, (
            f"seed {seed} {kind}: group-committed WAL cut at byte {cut} "
            f"read {len(records)} records, expected {survived}"
        )

    # Property 2 — full recovery diff at each record boundary and one tear.
    crash_points = sorted({*boundaries, rng.randrange(HEADER_SIZE, wal_end + 1)})
    for crash_at in crash_points:
        chopped = str(workdir / f"crash-{crash_at}.wal")
        shutil.copyfile(wal_path, chopped)
        with open(chopped, "r+b") as handle:
            handle.truncate(crash_at)
        recovered, report = recover(snap, chopped)
        survived = max(
            (i for i, off in enumerate(boundaries) if off <= crash_at), default=0
        )
        assert report.records_replayed == survived

        prefix = batches[: checkpoint_batches + survived]
        model: dict = {}
        for record in prefix:
            apply_to_model(model, record)
        assert sorted(model.items()) == sorted(
            (int(k), int(v)) for k, v in recovered.items()
        ), f"seed {seed} {kind}: group crash at {crash_at} diverged from the model"

        oracle = fresh_impl(kind)
        for record in prefix:
            replay_record(oracle, record)
        assert full_state(recovered) == full_state(oracle), (
            f"seed {seed} {kind}: group crash at {crash_at} is not "
            "bit-identical to a live run of the surviving prefix"
        )
        if crash_at == wal_end:
            assert full_state(recovered) == live_end_state


def read_records_bytes(data: bytes, workdir) -> tuple:
    """read_records over an in-memory byte prefix (via a scratch file)."""
    scratch = str(workdir / "scratch.wal")
    with open(scratch, "wb") as handle:
        handle.write(data)
    from repro.persist import read_records

    return read_records(scratch)


@pytest.mark.parametrize("kind", ["table", "engine"])
@pytest.mark.parametrize("seed", _seeds())
def test_group_committed_wal_recovers_like_sequential_appends(seed, kind, tmp_path):
    run_group_commit_crash_scenario(seed, kind, tmp_path)


#: Incremental deferred policy for the mid-migration family: one bucket per
#: step keeps migrations in flight across many records, so checkpoints and
#: crash points land with both tables live.
POLICY_INCR = LoadFactorPolicy(
    min_buckets=2, incremental=True, migration_step_buckets=1
).deferred()


def fresh_incremental_impl(kind: str):
    if kind == "engine":
        return ShardedSlabHash(
            2, POLICY_INCR.min_buckets, alloc_config=ALLOC, seed=41,
            load_factor_policy=POLICY_INCR,
        )
    return SlabHash(
        POLICY_INCR.min_buckets, alloc_config=ALLOC, seed=41, policy=POLICY_INCR
    )


def _any_migrating(impl) -> bool:
    tables = impl.shards if isinstance(impl, ShardedSlabHash) else [impl]
    return any(table.migration is not None for table in tables)


def generate_migration_batches(seed: int) -> list:
    """The mid-migration churn shape: big insert waves, then random mix.

    The waves push the table to dozens of buckets *in stages*, so the later
    policy grows begin migrations whose old arrays take many bounded pumps
    to drain — an in-flight migration is guaranteed to straddle several
    batch boundaries (``replay_record`` advances at most 8 one-bucket steps
    per record under :data:`POLICY_INCR`).
    """
    rng = random.Random(seed * 7 + 5)
    fresh = rng.sample(range(1, KEY_SPACE), 1500)
    waves = [fresh[:500], fresh[500:1000], fresh[1000:1500]]
    records = []
    for index, wave in enumerate(waves):
        records.append(
            WalRecord(
                batch_index=index,
                op_codes=np.full(len(wave), C.OP_INSERT, dtype=np.int64),
                keys=np.array(wave, dtype=np.uint32),
                values=np.array(
                    [rng.randrange(0, 2**16) for _ in wave], dtype=np.uint32
                ),
            )
        )
    for record in generate_batches(seed):
        records.append(
            WalRecord(
                batch_index=record.batch_index + len(waves),
                op_codes=record.op_codes,
                keys=record.keys,
                values=record.values,
            )
        )
    return records


def run_mid_migration_crash_scenario(seed: int, kind: str, tmp_path) -> None:
    """Checkpoint and crash with an incremental migration in flight.

    The incremental deferred policy begins migrations naturally as the
    insert-heavy head breaches the band; a dry run finds the first batch
    boundary where a migration is in flight, and the real run checkpoints
    exactly there — so the snapshot serializes **both live tables** and
    every crash point recovers through a mid-migration snapshot.  Recovery
    is diffed against the dict model and a live oracle, with
    :func:`full_state` pinning the migration itself (watermark, step
    accounting, both arrays' digests) bit-for-bit.
    """
    rng = random.Random(seed * 131 + (0 if kind == "table" else 1))
    batches = generate_migration_batches(seed)

    # Dry run: find a batch boundary where a migration is mid-flight.
    scout = fresh_incremental_impl(kind)
    checkpoint_after = None
    for index, record in enumerate(batches):
        replay_record(scout, record)
        if checkpoint_after is None and _any_migrating(scout):
            checkpoint_after = index + 1
    assert checkpoint_after is not None and checkpoint_after < len(batches), (
        f"seed {seed} {kind}: the generator never left a migration in flight "
        "at a batch boundary; widen the stream or shrink the step size"
    )

    workdir = tmp_path / f"midmig-{kind}-{seed}"
    workdir.mkdir()
    snap = str(workdir / "snap")
    wal_path = str(workdir / "ops.wal")

    impl = fresh_incremental_impl(kind)
    wal = WriteAheadLog(wal_path)
    record_offsets = []
    for index, record in enumerate(batches):
        if index == checkpoint_after:
            assert _any_migrating(impl)
            save(impl, snap)
            wal.truncate()
            record_offsets = []
        record_offsets.append(
            wal.append(record.op_codes, record.keys, record.values,
                       batch_index=record.batch_index)
        )
        replay_record(impl, record)
    wal_end = wal.size()
    wal.close()
    live_end_state = full_state(impl)

    crash_points = sorted(
        {0, HEADER_SIZE, rng.randrange(0, wal_end + 1), wal_end}
    )
    for crash_at in crash_points:
        chopped = str(workdir / f"crash-{crash_at}.wal")
        shutil.copyfile(wal_path, chopped)
        with open(chopped, "r+b") as handle:
            handle.truncate(crash_at)

        recovered, report = recover(snap, chopped)
        boundaries = record_offsets + [wal_end]
        survived = max(
            (i for i, off in enumerate(boundaries) if off <= crash_at), default=0
        )
        assert report.records_replayed == survived
        if survived == 0:
            # Snapshot-only recovery: the restored table must still be
            # mid-migration — the crash landed with both tables live.
            assert _any_migrating(recovered), (
                f"seed {seed} {kind}: mid-migration snapshot recovered "
                "to a quiescent table"
            )

        prefix = batches[: checkpoint_after + survived]
        model: dict = {}
        for record in prefix:
            apply_to_model(model, record)
        assert sorted(model.items()) == sorted(
            (int(k), int(v)) for k, v in recovered.items()
        ), f"seed {seed} {kind}: mid-migration crash at {crash_at} diverged from the model"

        oracle = fresh_incremental_impl(kind)
        for record in prefix:
            replay_record(oracle, record)
        assert full_state(recovered) == full_state(oracle), (
            f"seed {seed} {kind}: mid-migration crash at {crash_at} is not "
            "bit-identical to a live run of the surviving prefix"
        )
        if crash_at == wal_end:
            assert full_state(recovered) == live_end_state


@pytest.mark.parametrize("kind", ["table", "engine"])
@pytest.mark.parametrize("seed", _seeds())
def test_recovery_mid_migration_matches_model_and_live_oracle(seed, kind, tmp_path):
    run_mid_migration_crash_scenario(seed, kind, tmp_path)


def test_mid_migration_snapshot_round_trips_bit_identically(tmp_path):
    """A snapshot taken mid-migration restores both live tables exactly.

    Beyond state equality, the restored table must *behave* identically:
    stepping both migrations to completion and searching produces the same
    results and the same device-counter deltas.
    """
    for backend in ("reference", "vectorized"):
        table = SlabHash(8, key_value=True, backend=backend, seed=3)
        keys = np.arange(1, 600, dtype=np.uint64)
        table.bulk_insert(keys, keys * np.uint64(13))
        table.begin_resize(32, step_buckets=3)
        table.migrate_step()
        table.migrate_step()

        snap = str(tmp_path / f"midmig-{backend}.npz")
        save(table, snap)
        restored, report = recover(snap)
        assert report.records_replayed == 0
        assert full_state(restored) == full_state(table)

        while table.migration is not None:
            table.migrate_step()
        while restored.migration is not None:
            restored.migrate_step()
        queries = np.arange(1, 700, dtype=np.uint64)
        assert np.array_equal(table.bulk_search(queries), restored.bulk_search(queries))
        assert full_state(restored) == full_state(table)


def run_quarantine_crash_scenario(seed: int, tmp_path) -> None:
    """Crash the process while a shard is quarantined mid-restore.

    A live service takes a checkpoint, serves acked traffic, then an
    injected batch failure trips shard 0's breaker (threshold 1).  Injected
    ``service.restore`` failures hold the background restore in its retry
    loop, and the process "crashes" — drain and restore tasks cancelled,
    ``stop()`` never runs — while the lane is still OPEN.  Recovery from the
    on-disk snapshot + WAL alone (no in-memory abort knowledge: the poison
    batch's abort marker is durable) must land on exactly the acked model,
    and a service rebuilt over it must serve reads and writes immediately.
    """
    rng = random.Random(seed * 97 + 3)
    workdir = tmp_path / f"quarantine-{seed}"
    workdir.mkdir()
    snap = str(workdir / "snap")
    wal_path = str(workdir / "ops.wal")

    engine = ShardedSlabHash(2, 64, alloc_config=ALLOC, seed=43)
    config = ServiceConfig(max_batch_size=512, max_delay=0.05, breaker_threshold=1)
    # Shard-0 execute occurrence 4: the first shard-0 batch after two
    # pre-checkpoint and two post-checkpoint admissions (warp-aligned
    # slices, sequentially awaited — exactly one execute per shard each).
    plan = FaultPlan(
        {
            ("shard:0.execute", 4): FaultAction(exc="batch", note="quarantine crash"),
            ("service.restore", 0): FaultAction(exc="fault"),
            ("service.restore", 1): FaultAction(exc="fault"),
            ("service.restore", 2): FaultAction(exc="fault"),
        }
    )
    wal = WriteAheadLog(wal_path)
    service = SlabHashService(engine, config=config, wal=wal, faults=plan)

    used: set = set()
    per_shard_keys: list = [[], []]

    def fresh_shard_keys(shard: int, count: int) -> list:
        keys = []
        while len(keys) < count:
            key = rng.randrange(1, KEY_SPACE)
            if key not in used and engine.admit_one(key) == shard:
                keys.append(key)
                used.add(key)
        per_shard_keys[shard].extend(keys)
        return keys

    model: dict = {}

    async def admit_wave(deletes: bool) -> None:
        """One warp-aligned admission per call: 32 ops for each shard."""
        op_codes, keys, values = [], [], []
        for shard in (0, 1):
            if deletes:
                victims = per_shard_keys[shard][:16]
                fresh = fresh_shard_keys(shard, 16)
                for key in victims:
                    op_codes.append(C.OP_DELETE)
                    keys.append(key)
                    values.append(0)
                for key in fresh:
                    op_codes.append(C.OP_INSERT)
                    keys.append(key)
                    values.append(rng.randrange(1, 2**16))
            else:
                for key in fresh_shard_keys(shard, 32):
                    op_codes.append(C.OP_INSERT)
                    keys.append(key)
                    values.append(rng.randrange(1, 2**16))
        await service.submit_many(
            np.array(op_codes, dtype=np.int64),
            np.array(keys, dtype=np.uint64),
            np.array(values, dtype=np.uint32),
        )
        for code, key, value in zip(op_codes, keys, values):
            if code == C.OP_INSERT:
                model[key] = value
            else:
                model.pop(key, None)

    poison_keys: list = []

    async def main() -> None:
        await service.start()
        await admit_wave(deletes=False)
        await admit_wave(deletes=False)
        service.checkpoint(snap)
        await admit_wave(deletes=False)
        await admit_wave(deletes=True)
        # The poisoned admission: 32 shard-0-only inserts, never acked.
        poison_keys.extend(fresh_shard_keys(0, 32))
        with pytest.raises(InjectedBatchFailure):
            await service.submit_many(
                np.full(32, C.OP_INSERT, dtype=np.int64),
                np.array(poison_keys, dtype=np.uint64),
                np.full(32, 7, dtype=np.uint32),
            )
        # Let the restore task run its first attempt into the injected
        # service.restore failure, parking it in the retry sleep.
        for _ in range(5):
            await asyncio.sleep(0)
        assert service.lane_states[0] == LANE_OPEN
        assert service._lanes[0].restore_task is not None
        assert service.stats().breaker_trips == 1
        # Crash: every task dies mid-flight; stop() never runs.
        tasks = [lane.restore_task for lane in service._lanes if lane.restore_task]
        tasks += service._drain_tasks
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    asyncio.run(asyncio.wait_for(main(), timeout=60))
    wal.close()

    # Recovery uses only what is durable on disk — the poison batch's WAL
    # record is neutralised by its abort marker, not by in-memory state.
    recovered, report = recover(snap, wal_path)
    assert report.records_aborted >= 1
    assert sorted(model.items()) == sorted(
        (int(k), int(v)) for k, v in recovered.items()
    ), f"seed {seed}: quarantine-crash recovery diverged from the acked model"
    for key in poison_keys:
        assert recovered.search(key) in (None, C.SEARCH_NOT_FOUND)

    # A service rebuilt from the same artifacts serves immediately: reads
    # agree with the model and a fresh write round-trips.
    service2 = SlabHashService.recovered(
        snap, WriteAheadLog(wal_path), config=config
    )

    async def verify() -> None:
        async with service2:
            probe_keys = sorted(model)[:64] + poison_keys
            results = await service2.submit_many(
                np.full(len(probe_keys), C.OP_SEARCH, dtype=np.int64),
                np.array(probe_keys, dtype=np.uint64),
                np.zeros(len(probe_keys), dtype=np.uint32),
            )
            for key, result in zip(probe_keys, results):
                expected = model.get(key, C.SEARCH_NOT_FOUND)
                assert int(result) == expected, (
                    f"seed {seed}: recovered service read {key} -> "
                    f"{int(result)}, model says {expected}"
                )
            await service2.insert(KEY_SPACE + 1, 99)
            assert await service2.search(KEY_SPACE + 1) == 99

    asyncio.run(asyncio.wait_for(verify(), timeout=60))


@pytest.mark.parametrize("seed", _seeds())
def test_crash_while_shard_quarantined_mid_restore_recovers_acked_state(
    seed, tmp_path
):
    run_quarantine_crash_scenario(seed, tmp_path)


def test_generated_batches_are_deterministic_and_churny():
    assert [
        (record.batch_index, record.op_codes.tolist(), record.keys.tolist())
        for record in generate_batches(5)
    ] == [
        (record.batch_index, record.op_codes.tolist(), record.keys.tolist())
        for record in generate_batches(5)
    ]
    codes = np.concatenate([record.op_codes for record in generate_batches(5)])
    assert (codes == C.OP_INSERT).sum() > 0
    assert (codes == C.OP_DELETE).sum() > 0
    assert (codes == C.OP_SEARCH).sum() > 0
