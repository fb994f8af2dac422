"""Micro-benchmarks of the simulator itself (wall-clock, pytest-benchmark style).

Unlike the figure benchmarks (whose interesting output is the *modelled*
device throughput), these measure the wall-clock speed of the pure-Python warp
simulator on the core operations.  They are useful for tracking regressions in
the simulator's own performance and for sizing the figure benchmarks.

The ``test_micro_batch_call`` cases time *one* batch call on a 20k-key
key-value table (60 % utilization, rebuilt before every round so each call
sees the same state): single-type search, insert and delete batches at 64
and 1,000 operations, plus one Gamma_1 mixed batch.  They are the per-call
cost of the vectorized batch kernel, the host-side work every service batch
pays; compare two checkouts by their medians::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_core_micro.py -k batch_call
"""

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.gpusim.device import Device
from repro.gpusim.warp import Warp
from repro.workloads.distributions import GAMMA_40_UPDATES, build_concurrent_workload
from repro.workloads.generators import unique_random_keys, values_for_keys

CFG = SlabAllocConfig(num_super_blocks=4, num_memory_blocks=32, units_per_block=256)
N = 2**11


def _fresh_table(seed=0):
    table = SlabHash(SlabHash.buckets_for_utilization(N, 0.6), alloc_config=CFG, seed=seed)
    keys = unique_random_keys(N, seed=seed)
    values = values_for_keys(keys)
    return table, keys, values


def test_micro_bulk_build(benchmark):
    def build():
        table, keys, values = _fresh_table(seed=1)
        table.bulk_build(keys, values)
        return table

    table = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(table) == N


def test_micro_bulk_search(benchmark):
    table, keys, values = _fresh_table(seed=2)
    table.bulk_build(keys, values)
    result = benchmark.pedantic(lambda: table.bulk_search(keys), rounds=3, iterations=1)
    assert np.array_equal(result, values)


def test_micro_bulk_delete(benchmark):
    def build_and_delete():
        table, keys, _ = _fresh_table(seed=3)
        table.bulk_build(keys, values_for_keys(keys))
        return table.bulk_delete(keys)

    removed = benchmark.pedantic(build_and_delete, rounds=2, iterations=1)
    assert removed.sum() == N


def test_micro_slaballoc_allocate(benchmark):
    def allocate_many():
        device = Device()
        alloc = SlabAlloc(device, CFG, seed=4)
        warps = [Warp(i, device.counters) for i in range(16)]
        return [alloc.warp_allocate(warps[i % 16]) for i in range(4096)]

    addresses = benchmark.pedantic(allocate_many, rounds=3, iterations=1)
    assert len(set(addresses)) == 4096


def test_micro_flush(benchmark):
    table, keys, values = _fresh_table(seed=5)
    table.bulk_build(keys, values)
    table.bulk_delete(keys[::2])

    results = benchmark.pedantic(table.flush, rounds=1, iterations=1)
    assert sum(r.slabs_released for r in results) >= 0


TABLE_KEYS = 20_000


def _batch(kind, size, present, absent):
    """(op codes, keys, values) of one batch call against the 20k-key table."""
    rng = np.random.default_rng(size)
    if kind == "gamma1":
        workload = build_concurrent_workload(GAMMA_40_UPDATES, size, present, seed=size)
        return workload.op_codes, workload.keys, workload.values
    if kind == "search":  # half hits, half misses
        keys = np.concatenate([rng.choice(present, size // 2), absent[: size - size // 2]])
        keys = rng.permutation(keys).astype(np.uint32)
        op = C.OP_SEARCH
    elif kind == "insert":
        keys, op = absent[:size], C.OP_INSERT
    else:
        keys, op = rng.choice(present, size, replace=False).astype(np.uint32), C.OP_DELETE
    return np.full(size, op, dtype=np.int64), keys, values_for_keys(keys)


@pytest.mark.parametrize(
    "kind, size",
    [(kind, size) for kind in ("search", "insert", "delete") for size in (64, 1000)]
    + [("gamma1", 1000)],
)
def test_micro_batch_call(benchmark, kind, size):
    keys = unique_random_keys(TABLE_KEYS + size, seed=6)
    present, absent = keys[:TABLE_KEYS], keys[TABLE_KEYS:]
    op_codes, batch_keys, batch_values = _batch(kind, size, present, absent)

    def fresh_table():
        table = SlabHash(SlabHash.buckets_for_utilization(TABLE_KEYS, 0.6), seed=6)
        table.bulk_build(present, values_for_keys(present))
        return (table,), {}

    def call(table):
        return table.concurrent_batch(op_codes, batch_keys, batch_values)

    results = benchmark.pedantic(call, setup=fresh_table, rounds=40, iterations=1)
    assert len(results) == size
