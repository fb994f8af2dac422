"""Chaos property tests: random programs against a live service under a
random :class:`~repro.faults.FaultPlan`, diffed against a dict model.

Each pinned seed derives both a *program* (sequential waves of concurrent
``submit_many`` admissions plus awaited singles, one op per key per wave)
and a *fault plan* (injected batch failures, allocator exhaustion,
migration-step failures, WAL I/O errors and torn writes, restore
failures) — fully deterministic, no wall-clock or global randomness
anywhere.  Clients ride out retryable rejections with
:func:`~repro.service.retry.retry_with_backoff`.

The engine runs an *incremental* deferred load-factor policy starting from
a deliberately tiny bucket array, so the drain loop interleaves bounded
migration steps between batches all run long — the
``shard:<i>.migration.step`` fault site (and allocator exhaustion landing
*inside* a step) is therefore exercised by the same random plans.  A failed
step must leave the watermark unchanged and both tables consistent, which
the end-of-run model/live/recovery diffs verify; the focused tests at the
bottom of this file pin the step-failure semantics down deterministically.
The same programs also run under a stop-the-world policy, whose every
rebuild is a one-band migration step behind the same fault site, plus a
fixed fault that fails shard 0's first rebuild: a failed rebuild must leave
the shard exactly as it was, and a later one must still complete.

The invariants (docs/FAULTS.md):

* **acked exactly once** — every operation whose future resolved is applied
  (inserts present with their value, deletes absent) in the live engine;
* **rejected absent** — an operation whose admission was ultimately
  rejected never left partial state behind (its keys are excluded from the
  strict diff only when the rejection left them formally indeterminate —
  a give-up after retries — and such keys must still never *resurrect*
  values never written);
* **durable** — closing the WAL and running crash-recovery from the last
  checkpoint lands on exactly the live engine's contents;
* **self-healing** — every tripped lane returns to half-open and then
  closed without manual intervention.

``ops_failed == 0`` is deliberately NOT asserted — failures are the point.

CI runs the pinned seeds plus one derived from ``PROPTEST_SEED``.
"""

from __future__ import annotations

import asyncio
import os
import random

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.engine import ShardedSlabHash
from repro.faults import (
    FaultAction,
    FaultPlan,
    InjectedAllocExhausted,
    InjectedFault,
    InjectedMigrationFailure,
)
from repro.persist import WriteAheadLog
from repro.persist.recovery import recover
from repro.service import (
    LANE_CLOSED,
    LANE_OPEN,
    ServiceConfig,
    ServiceError,
    SlabHashService,
    retry_with_backoff,
)

PINNED_SEEDS = [911, 922, 933]
KEY_SPACE = 30_000
NUM_SHARDS = 2
#: Generous sizing: natural allocator exhaustion never fires, so every
#: failure in a run is one the fault plan injected (and therefore seeded).
ALLOC = SlabAllocConfig(num_super_blocks=8, num_memory_blocks=32, units_per_block=128)
#: Incremental + deferred: the drain loop pumps bounded migration steps
#: between batches.  The tiny starting array guarantees the waves push the
#: shards through several grow migrations, so the migration fault sites are
#: genuinely reachable under every plan.
POLICY = LoadFactorPolicy(
    min_buckets=4, incremental=True, migration_step_buckets=2
).deferred()
#: Stop-the-world + deferred: each resize the drain loop triggers rebuilds a
#: shard in one migration step.
STOP_THE_WORLD = LoadFactorPolicy(min_buckets=4).deferred()


def _seeds() -> list:
    seeds = list(PINNED_SEEDS)
    raw = os.environ.get("PROPTEST_SEED")
    if raw:
        try:
            seeds.append(int(raw.strip()) % 2**31)
        except ValueError:
            pass
    return seeds


def chaos_sites() -> list:
    """Every injection site the plan may fire, with its template action."""
    sites = []
    for shard in range(NUM_SHARDS):
        sites.append(
            (f"shard:{shard}.execute", FaultAction(exc="batch", note="chaos"))
        )
        sites.append(
            (
                f"shard:{shard}.alloc.warp_allocate",
                FaultAction(exc="alloc", note="chaos"),
            )
        )
        sites.append(
            (
                f"shard:{shard}.migration.step",
                FaultAction(exc="migration", note="chaos"),
            )
        )
    sites.append(("wal.append", FaultAction(exc="os", note="chaos")))
    sites.append(
        ("wal.write", FaultAction(kind="torn_write", exc="os", bytes_written=13))
    )
    sites.append(("wal.fsync", FaultAction(exc="os", note="chaos")))
    sites.append(("service.restore", FaultAction(exc="fault", note="chaos")))
    return sites


def generate_waves(seed: int, num_waves: int = 6) -> list:
    """Waves of admissions; **each key appears in at most one op per wave**,
    which makes every op idempotent under at-least-once retry delivery."""
    rng = random.Random(seed * 13 + 7)
    touched: set = set()
    waves = []

    def pick_keys(count: int) -> list:
        revisit = [k for k in sorted(touched) if rng.random() < 0.5]
        rng.shuffle(revisit)
        keys = revisit[: count // 2]
        seen = set(keys)
        while len(keys) < count:
            key = rng.randrange(1, KEY_SPACE)
            if key not in seen:
                keys.append(key)
                seen.add(key)
        rng.shuffle(keys)
        touched.update(keys)
        return keys

    for _wave in range(num_waves):
        admissions = []
        wave_keys = pick_keys(rng.randrange(60, 160))
        cursor = 0
        while cursor < len(wave_keys):
            size = rng.randrange(15, 50)
            chunk = wave_keys[cursor : cursor + size]
            cursor += size
            admissions.append(
                (
                    np.array(
                        [
                            rng.choice(
                                [C.OP_INSERT, C.OP_INSERT, C.OP_SEARCH, C.OP_DELETE]
                            )
                            for _ in chunk
                        ],
                        dtype=np.int64,
                    ),
                    np.array(chunk, dtype=np.uint64),
                    np.array(
                        [rng.randrange(1, 2**16) for _ in chunk], dtype=np.uint32
                    ),
                )
            )
        waves.append(admissions)
    return waves


def expected_result(model: dict, op: int, key: int, value: int) -> int:
    if op == C.OP_INSERT:
        return 0
    if op == C.OP_DELETE:
        return 1 if key in model else 0
    return model.get(key, C.SEARCH_NOT_FOUND)


def apply_op(model: dict, op: int, key: int, value: int) -> None:
    if op == C.OP_INSERT:
        model[key] = value
    elif op == C.OP_DELETE:
        model.pop(key, None)


def run_chaos_program(
    seed: int, tmp_path, policy: LoadFactorPolicy = POLICY, faults=None
) -> tuple:
    """Run one seeded program; returns ``(service, plan)`` once it checks out.

    ``faults`` adds fixed ``(site, occurrence) -> action`` entries to the
    seeded plan.
    """
    workdir = tmp_path / f"chaos-{seed}"
    workdir.mkdir()
    snap = str(workdir / "snap")
    wal_path = str(workdir / "ops.wal")

    waves = generate_waves(seed)
    plan = FaultPlan.random(seed, chaos_sites(), rate=0.05, horizon=48)
    plan.schedule.update(faults or {})
    engine = ShardedSlabHash(
        NUM_SHARDS, policy.min_buckets, alloc_config=ALLOC, seed=47,
        load_factor_policy=policy,
    )
    config = ServiceConfig(
        max_batch_size=128,
        max_delay=0.0005,
        max_pending_per_shard=2048,
        breaker_threshold=2,
    )
    wal = WriteAheadLog(wal_path)
    service = SlabHashService(engine, config=config, wal=wal, faults=plan)

    model: dict = {}
    #: Keys of admissions that were ultimately rejected (retries exhausted or
    #: a non-retryable error): their final state is formally indeterminate —
    #: excluded from the strict diff, but still forbidden from resurrecting
    #: values that were never acked.
    indeterminate: set = set()

    async def settle() -> None:
        while service.pending or LANE_OPEN in service.lane_states:
            await asyncio.sleep(0.001)

    async def main() -> None:
        async with service:
            # An initial checkpoint so quarantine restores always have a
            # snapshot to rebuild from.
            service.checkpoint(snap)
            for wave_index, admissions in enumerate(waves):
                expectations = [
                    [
                        expected_result(model, int(op), int(key), int(value))
                        for op, key, value in zip(op_codes, keys, values)
                    ]
                    for op_codes, keys, values in admissions
                ]
                # Keys indeterminate when this wave's expectations were
                # computed: the model's view of them is unreliable, so
                # per-op result checks skip them.
                frozen_indeterminate = set(indeterminate)
                attempt_counts = [0] * len(admissions)

                def submit(index: int):
                    op_codes, keys, values = waves[wave_index][index]

                    async def attempt():
                        attempt_counts[index] += 1
                        return await service.submit_many(op_codes, keys, values)

                    return retry_with_backoff(
                        attempt,
                        retries=80,
                        base_delay=0.0005,
                        max_delay=0.01,
                        rng=random.Random(seed * 1000 + wave_index * 37 + index),
                    )

                outcomes = await asyncio.gather(
                    *[submit(index) for index in range(len(admissions))],
                    return_exceptions=True,
                )
                for index, outcome in enumerate(outcomes):
                    op_codes, keys, values = admissions[index]
                    if isinstance(outcome, BaseException):
                        if not isinstance(outcome, ServiceError) and not isinstance(
                            outcome, Exception
                        ):
                            raise outcome  # CancelledError etc: a harness bug
                        indeterminate.update(int(k) for k in keys)
                        continue
                    # Acked: fold into the model.  Only a WRITE re-determines
                    # an indeterminate key — a failed earlier admission may
                    # have left a stray value behind (e.g. its slice on one
                    # shard applied before another shard rejected), and an
                    # acked search reads that stray value without fixing it.
                    for op, key, value in zip(op_codes, keys, values):
                        apply_op(model, int(op), int(key), int(value))
                        if int(op) in (C.OP_INSERT, C.OP_DELETE):
                            indeterminate.discard(int(key))
                    if attempt_counts[index] == 1:
                        # First-attempt acks have reliable per-op results
                        # (retried deletes may legitimately observe their
                        # own earlier application), except on keys whose
                        # model value was already unreliable.
                        got = [int(x) for x in outcome]
                        for position, (op, key) in enumerate(zip(op_codes, keys)):
                            if int(key) in frozen_indeterminate:
                                continue
                            assert got[position] == expectations[index][position], (
                                f"seed {seed}: wave {wave_index} admission "
                                f"{index} op {position} (op={int(op)}, "
                                f"key={int(key)}) diverged from the dict model"
                            )
                await settle()
                # Mid-program checkpoint at a deterministic boundary.
                if wave_index == len(waves) // 2:
                    await retry_with_backoff(
                        _checkpoint_async,
                        retries=40,
                        base_delay=0.001,
                        rng=random.Random(seed + 5),
                    )
            await settle()
            # Self-healing: a probe per lane must close every breaker —
            # half-open lanes admit, and one clean batch closes them.
            for shard in range(NUM_SHARDS):
                key = next(
                    k
                    for k in range(KEY_SPACE, KEY_SPACE + 1000)
                    if engine.admit_one(k) == shard
                )
                for probe in range(50):
                    try:
                        await retry_with_backoff(
                            lambda key=key: service.insert(key, 1),
                            retries=80,
                            base_delay=0.0005,
                            rng=random.Random(seed * 100 + shard * 10 + probe),
                        )
                        break
                    except InjectedFault:
                        # The plan may still have faults scheduled; eat them
                        # (each consumes an occurrence) and probe again.
                        await settle()
                else:
                    raise AssertionError(f"seed {seed}: shard {shard} probe starved")
                model[key] = 1
            assert all(state == LANE_CLOSED for state in service.lane_states), (
                f"seed {seed}: lanes did not self-heal: {service.lane_states}"
            )

    async def _checkpoint_async():
        service.checkpoint(snap)

    asyncio.run(asyncio.wait_for(main(), timeout=120))

    stats = service.stats()
    assert service.pending == 0
    assert stats.ops_completed + stats.ops_failed + stats.ops_expired >= 0

    # The tiny starting array guarantees growth: the drain loop must have
    # pumped migration steps (bounded bands, or whole one-step rebuilds),
    # and every injected step failure must have been absorbed into the
    # resize-failure log (the drain never dies; a failed step leaves the
    # watermark unchanged, a failed rebuild leaves the shard as it was).
    assert stats.migration_steps > 0, (
        f"seed {seed}: the chaos run never pumped a migration step"
    )
    migration_faults_fired = [
        site for site, _ in plan.fired_sites() if site.endswith("migration.step")
    ]
    logged = [f for f in stats.resize_failures if "InjectedMigrationFailure" in f]
    assert len(logged) == len(migration_faults_fired), (
        f"seed {seed}: {len(migration_faults_fired)} injected step failures "
        f"but {len(logged)} were logged: {stats.resize_failures}"
    )

    # Acked exactly once / rejected absent, against the live engine.
    live = {int(k): int(v) for k, v in service.engine.items()}
    for key, value in model.items():
        if key in indeterminate:
            continue
        assert live.get(key) == value, (
            f"seed {seed}: acked key {key} -> {value} missing or wrong in the "
            f"live engine (got {live.get(key)})"
        )
    for key, value in live.items():
        if key in indeterminate:
            continue
        assert model.get(key) == value, (
            f"seed {seed}: key {key} -> {value} present in the live engine "
            "but never acked (a rejected op was applied)"
        )

    # Durable across crash-recovery: the WAL tail (minus aborted batches)
    # on the last checkpoint must land on exactly the live contents.
    wal.close()
    recovered_engine, report = recover(
        snap, wal_path, extra_aborted=service._aborted_indices
    )
    recovered_items = sorted((int(k), int(v)) for k, v in recovered_engine.items())
    assert recovered_items == sorted(live.items()), (
        f"seed {seed}: crash-recovery diverged from the live engine "
        f"(replayed {report.records_replayed}, aborted {report.records_aborted})"
    )
    return service, plan


@pytest.mark.parametrize("seed", _seeds())
def test_chaos_programs_hold_the_exactly_once_invariants(seed, tmp_path):
    run_chaos_program(seed, tmp_path)


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_chaos_programs_hold_under_stop_the_world_resizes(seed, tmp_path):
    # Each shard rebuilds about once per program, and the seeded plans fail
    # ``migration.step`` only at later occurrences, so a fixed fault fails
    # shard 0's first rebuild.
    first_rebuild = ("shard:0.migration.step", 0)
    service, plan = run_chaos_program(
        seed, tmp_path, STOP_THE_WORLD,
        faults={first_rebuild: FaultAction(exc="migration", note="first rebuild")},
    )
    assert first_rebuild in plan.fired_sites()
    assert any("InjectedMigrationFailure" in f for f in service.stats().resize_failures)
    # The failed rebuild left shard 0 as it was; a later one grew it.
    assert plan.clock.count("shard:0.migration.step") >= 2
    assert service.engine.shards[0].num_buckets > STOP_THE_WORLD.min_buckets


def test_chaos_plans_and_programs_are_deterministic():
    plan_a = FaultPlan.random(PINNED_SEEDS[0], chaos_sites(), rate=0.05, horizon=48)
    plan_b = FaultPlan.random(PINNED_SEEDS[0], chaos_sites(), rate=0.05, horizon=48)
    assert plan_a.schedule == plan_b.schedule
    assert len(plan_a) > 0  # the pinned seeds actually inject something
    waves_a, waves_b = generate_waves(3), generate_waves(3)
    assert len(waves_a) == len(waves_b)
    for wave_a, wave_b in zip(waves_a, waves_b):
        for (ops_a, keys_a, vals_a), (ops_b, keys_b, vals_b) in zip(wave_a, wave_b):
            assert np.array_equal(ops_a, ops_b)
            assert np.array_equal(keys_a, keys_b)
            assert np.array_equal(vals_a, vals_b)


def test_chaos_waves_use_each_key_at_most_once_per_wave():
    for wave in generate_waves(17):
        seen: set = set()
        for _ops, keys, _values in wave:
            for key in keys:
                assert int(key) not in seen  # the idempotence precondition
                seen.add(int(key))


# --------------------------------------------------------------------------- #
# Focused migration fault-site semantics (deterministic, table-level)
# --------------------------------------------------------------------------- #


def _table_state(table) -> tuple:
    """Everything a failed step must not disturb: contents + both arrays."""
    state = table.migration
    return (
        sorted((int(k), int(v)) for k, v in table.items()),
        table.lists.base_slabs.tobytes(),
        None if state is None else state.watermark,
        None if state is None else state.steps,
        None if state is None else state.new_lists.base_slabs.tobytes(),
    )


def _mid_migration_table(backend: str) -> tuple:
    """A table shrinking 32 -> 8 buckets with plenty of band items per step.

    The shrink direction concentrates each migrated band into few new
    buckets, so a step's re-insert is guaranteed to chain past the base
    slab and hit ``alloc.warp_allocate`` — the natural in-step site for
    injected allocator exhaustion.
    """
    table = SlabHash(32, key_value=True, backend=backend, seed=5, alloc_config=ALLOC)
    keys = np.arange(1, 601, dtype=np.uint64)
    table.bulk_insert(keys, keys * np.uint64(7))
    model = {int(k): int(k) * 7 for k in keys}
    table.begin_resize(8, step_buckets=8)
    return table, model


def _drain_and_check(table, model: dict) -> None:
    while table.migration is not None:
        table.migrate_step()
    assert sorted((int(k), int(v)) for k, v in table.items()) == sorted(model.items())
    lookup = table.bulk_search(np.array(sorted(model), dtype=np.uint64))
    assert [int(x) for x in lookup] == [model[k] for k in sorted(model)]


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_injected_step_failure_is_atomic_and_resumable(backend):
    """``migration.step`` fires before any bucket moves: the failed step is
    a pure no-op and the very next pump resumes the same band."""
    table, model = _mid_migration_table(backend)
    table.migrate_step()  # one clean step first: fail from a nonzero watermark
    before = _table_state(table)
    assert before[2] == 8  # the clean step advanced the watermark

    table.alloc.faults = FaultPlan(
        {("migration.step", 0): FaultAction(exc="migration", note="focused")}
    )
    with pytest.raises(InjectedMigrationFailure):
        table.migrate_step()
    assert _table_state(table) == before  # nothing moved, nothing charged to state

    _drain_and_check(table, model)  # occurrence 1+ is clean: resumable in place


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_alloc_exhaustion_mid_step_rolls_the_band_back(backend):
    """Exhaustion *inside* a step's re-insert rolls the partial band out of
    the new array: watermark unchanged, both tables consistent, resumable."""
    table, model = _mid_migration_table(backend)
    before = _table_state(table)

    table.alloc.faults = FaultPlan(
        {("alloc.warp_allocate", 0): FaultAction(exc="alloc", note="focused")}
    )
    with pytest.raises(InjectedAllocExhausted):
        table.migrate_step()

    state = table.migration
    assert state is not None and state.watermark == before[2] == 0
    assert state.steps == 0 and state.items_moved == 0
    # The band rollback deleted every key that reached the new array.
    live_in_new = [
        item
        for bucket in range(state.target_buckets)
        for item in state.new_lists.live_items(bucket)
    ]
    assert live_in_new == []
    # The old array is untouched and every key still resolves through it.
    assert table.lists.base_slabs.tobytes() == before[1]
    assert sorted((int(k), int(v)) for k, v in table.items()) == sorted(model.items())

    table.alloc.faults = None
    _drain_and_check(table, model)
