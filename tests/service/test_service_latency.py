"""Latency regression: incremental migration bounds the between-batch pause.

Under churn a deferred stop-the-world policy makes some batch wait out a
*full rebuild* — a pause that grows with the table.  The incremental policy
advances one band of ``migration_step_buckets`` buckets per pause (a
``maybe_resize`` call makes one migration step), so no operation's latency
ever includes a rebuild.  Both runs are measured
in modelled device seconds (deterministic — no wall clock), by timing each
``maybe_resize`` pump exactly the way the engine times its own kernels: a
device-counter snapshot around the call priced through
:class:`~repro.gpusim.costmodel.CostModel`.

The headline comparison runs at scale on a *right-sized* table (steady
bucket density), because modelled kernel-launch overhead floors every pump
at a few microseconds — a tiny table's rebuild hides under that floor and
proves nothing.  The acceptance bound from the PR: the worst per-op pause
under the incremental policy sits an order of magnitude below the
stop-the-world worst case, and the p99 pause holds the same bound (the
tail includes no rebuild either).
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.gpusim.costmodel import CostModel
from repro.service import ServiceConfig, SlabHashService
from repro.workloads.generators import unique_random_keys

ALLOC = SlabAllocConfig(num_super_blocks=8, num_memory_blocks=32, units_per_block=128)
FAST = ServiceConfig(max_batch_size=4096, max_delay=0.0005)

STOP_THE_WORLD = LoadFactorPolicy(min_buckets=4).deferred()
INCREMENTAL = LoadFactorPolicy(
    min_buckets=4, incremental=True, migration_step_buckets=1
).deferred()

#: The headline run: N resident keys on a right-sized table, then a fresh-N
#: insert burst (pushes beta through the grow trigger at scale) and a delete
#: tail (drops it through the shrink trigger) — classic churn.
N = 200_000
BUCKETS = 20_480  # resident beta = 200k / (15 * 20480) ~ 0.65: in band


def _time_resize_pumps(table) -> list:
    """Record each between-batch ``maybe_resize`` pump's modelled seconds."""
    pauses: list = []
    cost = CostModel(table.device.spec)
    inner_maybe_resize = table.maybe_resize

    def timed_maybe_resize(**kwargs):
        before = table.device.snapshot()
        results = inner_maybe_resize(**kwargs)
        delta = table.device.counters.diff(before)
        pauses.append(cost.elapsed(delta).total_time)
        return results

    table.maybe_resize = timed_maybe_resize
    return pauses


def churn_at_scale(policy: LoadFactorPolicy, seed: int = 17):
    """Pre-populate (untimed), then drive the churn stream through a service."""
    base = unique_random_keys(2 * N, seed=seed)
    resident, fresh = base[:N], base[N:]
    doomed = np.concatenate([resident, fresh])[: int(1.8 * N)]
    op_codes = np.concatenate(
        [np.full(N, C.OP_INSERT), np.full(len(doomed), C.OP_DELETE)]
    )
    keys = np.concatenate([fresh, doomed])
    values = (keys * np.uint32(5)) & np.uint32(0xFFFF)

    table = SlabHash(
        BUCKETS, alloc_config=ALLOC, seed=seed, policy=policy, backend="vectorized"
    )
    table.bulk_insert(resident, (resident * np.uint32(5)) & np.uint32(0xFFFF))
    pauses = _time_resize_pumps(table)

    async def main():
        async with SlabHashService(table, config=FAST) as service:
            await service.submit_many(op_codes, keys, values)
            return service.stats()

    stats = asyncio.run(main())
    return pauses, stats, table


def churn_from_tiny(policy: LoadFactorPolicy, n: int, seed: int):
    """Grow-from-minimum churn (small, reference backend): insert a burst,
    then delete most of it — forces real grow *and* shrink decisions."""
    keys = unique_random_keys(n, seed=seed)
    doomed = keys[: int(n * 0.9)]
    op_codes = np.concatenate(
        [np.full(len(keys), C.OP_INSERT), np.full(len(doomed), C.OP_DELETE)]
    )
    stream_keys = np.concatenate([keys, doomed])
    values = (stream_keys * np.uint32(5)) & np.uint32(0xFFFF)
    table = SlabHash(policy.min_buckets, alloc_config=ALLOC, seed=seed, policy=policy)

    async def main():
        async with SlabHashService(table, config=ServiceConfig(
            max_batch_size=128, max_delay=0.0005
        )) as service:
            await service.submit_many(op_codes, stream_keys, values)
            return service.stats()

    stats = asyncio.run(main())
    return stats, table


def p99(samples: list) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * (len(ordered) - 1)))]


def test_incremental_policy_keeps_the_per_op_pause_an_order_of_magnitude_down():
    stw_pauses, stw_stats, _ = churn_at_scale(STOP_THE_WORLD)
    incr_pauses, incr_stats, _ = churn_at_scale(INCREMENTAL)

    # Same workload, one pause per drain iteration in both runs.
    assert len(stw_pauses) == len(incr_pauses) > 10

    # Both runs really did pay for the same grow trigger: a full rebuild in
    # one (a single one-band step per resize), bounded migration steps in
    # the other (several steps per resize).
    assert stw_stats.resizes_performed >= 1
    assert stw_stats.migration_steps == stw_stats.resizes_performed
    assert incr_stats.migration_steps > incr_stats.resizes_performed

    # The regression bound itself: the worst pause any operation can land
    # behind is an order of magnitude smaller under incremental migration,
    # and the p99 pause holds the same bound (no op waits out a rebuild,
    # not even in the tail).
    worst_stw = max(stw_pauses)
    worst_incr = max(incr_pauses)
    assert worst_stw > 0
    assert worst_incr * 10 <= worst_stw, (
        f"incremental worst pause {worst_incr:.3e}s not 10x below "
        f"stop-the-world worst pause {worst_stw:.3e}s"
    )
    assert p99(incr_pauses) * 10 <= worst_stw


def test_service_stats_expose_migration_step_counters():
    stats, table = churn_from_tiny(INCREMENTAL, n=1500, seed=23)
    assert stats.migration_steps > 0
    assert stats.migration_buckets_moved > 0
    assert stats.migration_items_moved > 0
    # The counters aggregate the engine's own step accounting, and survive
    # the dict serialization the CLI and benchmarks consume.
    assert stats.migration_steps == table.resize_stats.migration_steps
    assert stats.migration_buckets_moved == table.resize_stats.migration_buckets
    assert stats.migration_items_moved == table.resize_stats.migration_items
    as_dict = stats.as_dict()
    assert as_dict["migration_steps"] == stats.migration_steps
    assert as_dict["migration_buckets_moved"] == stats.migration_buckets_moved
    assert as_dict["migration_items_moved"] == stats.migration_items_moved


def test_churn_end_state_is_identical_under_both_policies():
    """The payment schedule must not change the answer: after the same
    churn stream, both policies land on identical live contents."""
    _, stw_table = churn_from_tiny(STOP_THE_WORLD, n=1200, seed=29)
    _, incr_table = churn_from_tiny(INCREMENTAL, n=1200, seed=29)
    while incr_table.migration is not None:  # drain any in-flight tail
        incr_table.migrate_step()
    assert sorted(incr_table.items()) == sorted(stw_table.items())
