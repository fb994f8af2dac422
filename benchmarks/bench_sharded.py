"""Sharded multi-table engine: throughput scaling over the shard count.

Goes beyond the paper: partitions the key space across N independent slab
hashes (each on its own simulated device, modeling multi-SM groups or
multiple GPUs) and sweeps N from 1 to 16 on three workloads — bulk build,
bulk search, and a Figure-7-style mixed concurrent batch (40 % updates).

Expected behaviour: throughput scales nearly linearly with the shard count;
hash routing costs a few percent to multinomial load imbalance.
"""

from _bench_utils import emit

from repro.core.config import SlabAllocConfig
from repro.engine import ShardedSlabHash
from repro.perf import figures
from repro.workloads.generators import unique_random_keys, values_for_keys

ALLOC = SlabAllocConfig(num_super_blocks=8, num_memory_blocks=64, units_per_block=256)


def test_shard_sweep_scaling(benchmark):
    result = benchmark.pedantic(
        lambda: figures.shard_sweep(sim_elements=2**13), rounds=1, iterations=1
    )
    emit(result, benchmark)
    # Near-linear scaling on every workload: more shards never hurt.
    for label in ("build", "search", "mixed 40% updates"):
        rates = result.series_by_label(label).y
        assert rates == sorted(rates)
    assert result.extra["build_speedup_4_shards"] >= 1.5
    assert result.extra["build_speedup_max_shards"] >= 8.0


def test_hash_routing_build_is_nearly_balanced(benchmark):
    """Hash routing pays only a small imbalance tax versus perfect dealing.

    Perfect dealing would give every shard ``n / 8`` keys (imbalance 1.0,
    speedup 8); the hash build must stay within 70 % of that on both counts.
    """
    n = 2**13
    keys = unique_random_keys(n, seed=5)
    values = values_for_keys(keys)

    def build():
        engine = ShardedSlabHash.for_utilization(8, n, 0.6, alloc_config=ALLOC, seed=5)
        return engine.measure(
            lambda: engine.bulk_build(keys, values), scale_to_ops=2**22
        )

    stats = benchmark.pedantic(build, rounds=1, iterations=1)
    assert stats.load_imbalance <= 1 / 0.7
    assert stats.parallel_speedup >= 0.7 * 8
