"""Sharded multi-table engine: scale the slab hash beyond one device.

This package layers a concurrent-workload engine on top of
:mod:`repro.core`:

* :class:`~repro.engine.router.ShardRouter` — key-space routing by a
  universal-hash draw, so every occurrence of a key lands on one shard;
* :class:`~repro.engine.sharded.ShardedSlabHash` — N independent
  :class:`~repro.core.slab_hash.SlabHash` shards, each with its own simulated
  device and allocator, behind SlabHash's bulk/concurrent API.  Shards run
  one after another in this process; their concurrency is modelled, not
  executed;
* :class:`~repro.engine.stats.EngineStats` — merged per-shard counters plus
  the parallel (max-over-shards) and serial (sum-over-shards) time views.

The ``reproduce shard-sweep`` experiment and ``benchmarks/bench_sharded.py``
are driven by this package; ``docs/ARCHITECTURE.md`` shows where it sits in
the layer diagram.
"""

from repro.engine.router import ShardRouter
from repro.engine.sharded import MigrationInFlightError, ShardedSlabHash
from repro.engine.stats import EngineStats, ShardPhase, merge_counters

__all__ = [
    "MigrationInFlightError",
    "ShardRouter",
    "ShardedSlabHash",
    "EngineStats",
    "ShardPhase",
    "merge_counters",
]
