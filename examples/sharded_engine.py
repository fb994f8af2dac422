#!/usr/bin/env python3
"""Sharded engine demo: scale the slab hash across independent devices.

Builds the same workload through one unsharded :class:`repro.SlabHash` and
through a 4-shard :class:`repro.ShardedSlabHash` (each shard an independent
table on its own simulated device), verifies the results are identical, and
prints the modelled throughput of both — the sharded engine's time is the
slowest shard's time, because the shards model hardware running in parallel.

Run:  python examples/sharded_engine.py
"""

import numpy as np

from repro import Device, ShardedSlabHash, SlabHash
from repro.perf.metrics import measure_phase
from repro.workloads.distributions import GAMMA_40_UPDATES, build_concurrent_workload
from repro.workloads.generators import unique_random_keys, values_for_keys

NUM_ELEMENTS = 4_000
NUM_SHARDS = 4
UTILIZATION = 0.6
PAPER_OPS = 2**22  # report at the paper's workload size


def main() -> None:
    keys = unique_random_keys(NUM_ELEMENTS, seed=1)
    values = values_for_keys(keys)

    # --- One unsharded table: the paper's single-GPU setting. -----------
    device = Device()
    single = SlabHash(
        SlabHash.buckets_for_utilization(NUM_ELEMENTS, UTILIZATION), device=device, seed=42
    )
    single_build = measure_phase(
        device, lambda: single.bulk_build(keys, values),
        num_ops=NUM_ELEMENTS, scale_to_ops=PAPER_OPS,
    )
    print(f"1 shard : build {single_build.mops:7.1f} M ops/s (modelled)")

    # --- The sharded engine: hash-partitioned across 4 devices. ---------
    engine = ShardedSlabHash.for_utilization(
        NUM_SHARDS, NUM_ELEMENTS, UTILIZATION, seed=42
    )
    build = engine.measure(
        lambda: engine.bulk_build(keys, values), scale_to_ops=PAPER_OPS, label="build"
    )
    print(f"{NUM_SHARDS} shards: build {build.mops:7.1f} M ops/s "
          f"(speedup {build.mops / single_build.mops:.2f}x, "
          f"load imbalance {build.load_imbalance:.3f})")

    # --- Same answers, shard count notwithstanding. ----------------------
    queries = np.concatenate([keys[: NUM_ELEMENTS // 2], keys[: 16] + 1])
    assert np.array_equal(engine.bulk_search(queries), single.bulk_search(queries))
    print(f"bulk_search results identical to the unsharded table "
          f"({len(queries)} queries); {len(engine)} elements across "
          f"{engine.num_shards} shards {engine.shard_sizes().tolist()}")

    # --- A mixed concurrent batch, Figure-7 style. -----------------------
    workload = build_concurrent_workload(GAMMA_40_UPDATES, NUM_ELEMENTS, keys, seed=7)
    mixed = engine.measure(
        lambda: engine.concurrent_batch(
            workload.op_codes, workload.keys, workload.values, scheduler_seed=11
        ),
        scale_to_ops=PAPER_OPS,
        label="mixed",
    )
    print(f"{NUM_SHARDS} shards: mixed {mixed.mops:7.1f} M ops/s "
          f"({workload.distribution.describe()}; "
          f"parallel speedup {mixed.parallel_speedup:.2f}x over serial shards)")

    # --- The aggregate counters are the sum of the shard counters. -------
    agg = mixed.aggregate
    print(f"aggregate events: {agg.coalesced_read_transactions} coalesced reads, "
          f"{agg.total_atomics} atomics, {agg.kernel_launches} kernel launches")


if __name__ == "__main__":
    main()
