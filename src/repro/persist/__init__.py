"""Durability layer: versioned snapshots, a write-ahead log, and crash recovery.

The paper's table is an in-memory GPU structure; this package gives the
reproduction a restart story:

* :mod:`repro.persist.snapshot` — :func:`save` / :func:`load` serialize a
  live :class:`~repro.core.slab_hash.SlabHash` (one ``.npz`` file) or
  :class:`~repro.engine.sharded.ShardedSlabHash` (a manifest directory of
  per-shard files) and restore it *bit-identically*: items, chain structure,
  allocator occupancy and device counters all match the original, on either
  execution backend.
* :mod:`repro.persist.wal` — :class:`WriteAheadLog`, the CRC-framed
  operation log :class:`~repro.service.service.SlabHashService` appends each
  micro-batch to before executing it; ``snapshot() + truncate()`` is the
  checkpoint primitive.
* :mod:`repro.persist.recovery` — :func:`recover` restores a snapshot and
  deterministically replays the WAL tail (discarding a torn final record),
  reproducing the exact pre-crash state; the crash-point property harness in
  ``tests/proptest/test_crash_recovery.py`` checks this differentially
  against both a live oracle run and the dict model.

See ``docs/PERSISTENCE.md`` for the file formats and recovery semantics.
"""

from repro.persist.recovery import RecoveryReport, WalFloorRegressionError, recover
from repro.persist.snapshot import (
    SNAPSHOT_VERSION,
    load,
    save,
    wal_floor,
)
from repro.persist.wal import WAL_VERSION, WalRecord, WriteAheadLog, read_records

__all__ = [
    "SNAPSHOT_VERSION",
    "WAL_VERSION",
    "RecoveryReport",
    "WalFloorRegressionError",
    "WalRecord",
    "WriteAheadLog",
    "load",
    "read_records",
    "recover",
    "save",
    "wal_floor",
]
