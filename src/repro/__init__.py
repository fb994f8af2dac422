"""Python reproduction of "A Dynamic Hash Table for the GPU" (SlabHash, IPDPS 2018).

Packages
--------
* :mod:`repro.gpusim` — warp-level GPU SIMT simulator substrate (device model,
  global memory with atomics and accounting, warp intrinsics, interleaving
  scheduler, analytical cost model).
* :mod:`repro.core` — the paper's contribution: slab list, slab hash,
  SlabAlloc (``light=True`` for SlabAlloc-light) — plus online resizing with
  adaptive load-factor management (:mod:`repro.core.resize`).
* :mod:`repro.baselines` — hash-table baselines used by the evaluation
  (CUDPP-style cuckoo hashing, Misra & Chaudhuri's lock-free chaining table,
  the GFSL analytic model).
* :mod:`repro.allocators` — allocator baselines (CUDA-malloc-like, Halloc-like).
* :mod:`repro.workloads` — key/query generators and operation distributions.
* :mod:`repro.perf` — experiment harness, per-figure drivers and reporting.
* :mod:`repro.engine` — sharded multi-table engine: key-space routing across
  N independent slab-hash shards, each on its own simulated device.
* :mod:`repro.service` — async request-service layer: an operation-log
  micro-batcher that coalesces awaited single operations into warp-aligned
  concurrent batches and reports latency/throughput percentiles.
* :mod:`repro.persist` — durability: versioned snapshots that restore a
  live table bit-identically, the write-ahead log behind the service
  layer, and ``recover(snapshot, wal)`` crash recovery.

Quick start
-----------
>>> from repro import SlabHash
>>> table = SlabHash(num_buckets=128)
>>> table.insert(42, 1000)
>>> table.search(42)
1000
>>> table.delete(42)
True
"""

from repro.core.resize import LoadFactorPolicy, ResizeResult, ResizeStats
from repro.core.slab_hash import SlabHash
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_list import SlabListCollection
from repro.core.slab_list_single import SlabList
from repro.core.slab_set import SlabSet
from repro.core.config import SlabAllocConfig, SlabConfig
from repro.engine import EngineStats, ShardedSlabHash, ShardRouter
from repro.gpusim.device import Device, DeviceSpec, TESLA_K40C
from repro.persist import WriteAheadLog
from repro.service import ServiceConfig, ServiceStats, SlabHashService

__version__ = "1.3.0"

__all__ = [
    "SlabHash",
    "LoadFactorPolicy",
    "ResizeResult",
    "ResizeStats",
    "ShardedSlabHash",
    "ShardRouter",
    "EngineStats",
    "SlabHashService",
    "ServiceConfig",
    "ServiceStats",
    "WriteAheadLog",
    "SlabList",
    "SlabSet",
    "SlabAlloc",
    "SlabListCollection",
    "SlabAllocConfig",
    "SlabConfig",
    "Device",
    "DeviceSpec",
    "TESLA_K40C",
    "__version__",
]
