"""Versioned snapshots of a live slab hash (single table or sharded engine).

A table snapshot is one compressed ``.npz`` file holding a JSON header (the
scalar state: layout config, hash-function draw, allocator sizing, device
spec, counters, policy, warp counter, in-flight migration) plus three
arrays — the bucket heads (``base_slabs``), the addresses of every
allocated slab, and those slabs' words — and, for a table snapshotted
mid-migration, a fourth array with the new table's bucket heads
(``migration_base_slabs``; the shared allocator dump already covers both
tables' chained slabs).  Together these determine the table *exactly*:
restoring yields the
same items in the same scan order, the same chain structure, the same
allocator bitmap occupancy, and the same device counters, so every future
operation behaves (and is counted) identically to the original table.  The
interesting consequence is what can be *left out*: per-warp resident-block
caches never outlive a batch (warp ids are never reused), so allocator
behavior is fully determined by the warp counter and the bitmaps.

An engine snapshot is a directory: ``manifest.json`` (the router's hash
draw, per-shard ops accounting, shard file names) plus one table snapshot
per shard.

:func:`save` / :func:`load` dispatch on the object/path kind; the format is
versioned (:data:`SNAPSHOT_VERSION`) and loaders reject unknown versions
rather than guessing.  See ``docs/PERSISTENCE.md`` for the layout.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, Union

import numpy as np

from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy, MigrationState
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.core.slab_list import SlabListCollection
from repro.engine.router import ShardRouter
from repro.engine.sharded import ShardedSlabHash
from repro.gpusim.costmodel import CostModel
from repro.gpusim.counters import Counters
from repro.gpusim.device import Device, DeviceSpec

__all__ = [
    "SNAPSHOT_VERSION",
    "load",
    "save",
    "wal_floor",
]

#: Format version written into every snapshot header/manifest.
#: Version 2 added the ``migration`` header field and the
#: ``migration_base_slabs`` array so a table can be snapshotted (and
#: restored bit-identically) while an incremental resize is in flight.
#: Version 3 reduced the manifest's ``router`` block to the hash draw
#: ``{a, b}``, since routing is hash-only.
SNAPSHOT_VERSION = 3

_FORMAT = "slabhash-snapshot"
_MANIFEST = "manifest.json"

_ALLOC_CONFIG_FIELDS = (
    "num_super_blocks",
    "num_memory_blocks",
    "units_per_block",
    "growth_threshold",
    "max_super_blocks",
)


def _table_header(table: SlabHash, wal_min_batch_index: int) -> Dict[str, object]:
    alloc = table.alloc
    stats = table.resize_stats
    return {
        "format": _FORMAT,
        "version": SNAPSHOT_VERSION,
        "kind": "slab_hash",
        "wal_min_batch_index": int(wal_min_batch_index),
        "key_value": table.config.key_value,
        "unique_keys": table.config.unique_keys,
        "backend": table.backend,
        "warp_counter": table._warp_counter,
        "hash": {"a": table.hash_fn.a, "b": table.hash_fn.b,
                 "num_buckets": table.hash_fn.num_buckets},
        "alloc": {
            "light": alloc.light,
            "seed": alloc.seed,
            "slab_words": alloc.slab_words,
            "num_super_blocks": alloc.num_super_blocks,
            "config": {name: getattr(alloc.config, name) for name in _ALLOC_CONFIG_FIELDS},
        },
        "device": {
            "spec": dataclasses.asdict(table.device.spec),
            "counters": table.device.counters.as_dict(),
        },
        "policy": None if table.policy is None else dataclasses.asdict(table.policy),
        "resize_stats": stats.as_dict(),
        "migration": None if table.migration is None else {
            "target_buckets": table.migration.target_buckets,
            "watermark": table.migration.watermark,
            "step_buckets": table.migration.step_buckets,
            "trigger": table.migration.trigger,
            "beta_before": table.migration.beta_before,
            "steps": table.migration.steps,
            "items_moved": table.migration.items_moved,
            "released_slabs": table.migration.released_slabs,
            "seconds": table.migration.seconds,
            "counters": table.migration.counters.as_dict(),
        },
    }


def _save_table(table: SlabHash, path: str, wal_min_batch_index: int = 0) -> None:
    addresses, words = table.alloc.export_units()
    arrays = {
        "header": np.array(json.dumps(_table_header(table, wal_min_batch_index)), dtype=np.str_),
        "base_slabs": table.lists.base_slabs,
        "alloc_addresses": addresses,
        "alloc_words": words,
    }
    if table.migration is not None:
        # Both tables are live mid-migration; the shared allocator already
        # covers the new array's chained slabs, so only its bucket heads
        # need their own array.
        arrays["migration_base_slabs"] = table.migration.new_lists.base_slabs
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def _check_header(header: Dict[str, object], kind: str, where: str) -> None:
    if header.get("format") != _FORMAT:
        raise ValueError(f"{where} is not a {_FORMAT} file")
    if header.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"{where} has snapshot version {header.get('version')!r}; "
            f"this build reads version {SNAPSHOT_VERSION}"
        )
    if header.get("kind") != kind:
        raise ValueError(f"{where} holds a {header.get('kind')!r}, expected {kind!r}")


def _load_table(path: str) -> SlabHash:
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(str(archive["header"][()]))
        _check_header(header, "slab_hash", path)
        base_slabs = archive["base_slabs"].astype(np.uint32)
        addresses = archive["alloc_addresses"]
        words = archive["alloc_words"]
        migration_base_slabs = (
            archive["migration_base_slabs"].astype(np.uint32)
            if header.get("migration") is not None
            else None
        )

    spec = DeviceSpec(**header["device"]["spec"])
    device = Device(spec)
    alloc_info = header["alloc"]
    alloc_config = SlabAllocConfig(**alloc_info["config"])
    alloc = SlabAlloc(
        device,
        alloc_config,
        slab_words=alloc_info["slab_words"],
        seed=alloc_info["seed"],
        light=alloc_info["light"],
    )
    alloc.restore_units(addresses, words, num_super_blocks=alloc_info["num_super_blocks"])

    policy = None if header["policy"] is None else LoadFactorPolicy(**header["policy"])
    table = SlabHash(
        header["hash"]["num_buckets"],
        device=device,
        key_value=header["key_value"],
        unique_keys=header["unique_keys"],
        alloc=alloc,
        backend=header["backend"],
        policy=policy,
    )
    table.lists.base_slabs[:] = base_slabs
    table.hash_fn.a = header["hash"]["a"]
    table.hash_fn.b = header["hash"]["b"]
    table._warp_counter = header["warp_counter"]
    stats = header["resize_stats"]
    for name, value in stats.items():
        setattr(table.resize_stats, name, value)
    if header["migration"] is not None:
        mig = header["migration"]
        new_lists = SlabListCollection(
            device, alloc, mig["target_buckets"], table.config
        )
        new_lists.base_slabs[:] = migration_base_slabs
        mig_counters = Counters()
        for name, value in mig["counters"].items():
            setattr(mig_counters, name, value)
        table.migration = MigrationState(
            new_lists=new_lists,
            # rebucket() preserves the restored (a, b) draw, so routing by
            # the new table's hash is bit-identical to the original's.
            new_hash=table.hash_fn.rebucket(mig["target_buckets"]),
            old_buckets=table.hash_fn.num_buckets,
            target_buckets=mig["target_buckets"],
            trigger=mig["trigger"],
            step_buckets=mig["step_buckets"],
            beta_before=mig["beta_before"],
            watermark=mig["watermark"],
            steps=mig["steps"],
            items_moved=mig["items_moved"],
            released_slabs=mig["released_slabs"],
            counters=mig_counters,
            seconds=mig["seconds"],
        )
    # Restore the counters last: nothing above charges device events, but a
    # direct overwrite keeps that true by construction.
    for name, value in header["device"]["counters"].items():
        setattr(device.counters, name, value)
    return table


def _save_engine(engine: ShardedSlabHash, path: str, wal_min_batch_index: int = 0) -> None:
    os.makedirs(path, exist_ok=True)
    shard_files = [f"shard-{index:03d}.npz" for index in range(engine.num_shards)]
    for shard, name in zip(engine.shards, shard_files):
        _save_table(shard, os.path.join(path, name))
    manifest = {
        "format": _FORMAT,
        "version": SNAPSHOT_VERSION,
        "kind": "sharded_slab_hash",
        "wal_min_batch_index": int(wal_min_batch_index),
        "num_shards": engine.num_shards,
        "router": {"a": engine.router._hash.a, "b": engine.router._hash.b},
        "ops_routed": [int(count) for count in engine._ops_routed],
        "shards": shard_files,
    }
    with open(os.path.join(path, _MANIFEST), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


def _load_engine(path: str) -> ShardedSlabHash:
    manifest_path = os.path.join(path, _MANIFEST)
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    _check_header(manifest, "sharded_slab_hash", manifest_path)
    shards = [_load_table(os.path.join(path, name)) for name in manifest["shards"]]

    engine = ShardedSlabHash.__new__(ShardedSlabHash)
    router = ShardRouter(manifest["num_shards"])
    router._hash.a = manifest["router"]["a"]
    router._hash.b = manifest["router"]["b"]
    engine.router = router
    engine.shards = shards
    engine.cost_model = CostModel(shards[0].device.spec)
    engine._ops_routed = np.array(manifest["ops_routed"], dtype=np.int64)
    return engine


def save(
    obj: Union[SlabHash, ShardedSlabHash], path: str, *, wal_min_batch_index: int = 0
) -> str:
    """Write a snapshot of ``obj`` to ``path`` and return the path.

    A :class:`SlabHash` becomes a single compressed file; a
    :class:`ShardedSlabHash` becomes a directory with a ``manifest.json``
    and one file per shard.  The snapshot is host-side work: taking it
    charges no device events and leaves ``obj`` untouched.

    ``wal_min_batch_index`` records the first WAL batch index *not* covered
    by this snapshot (the service's checkpoint passes its next batch
    number).  Recovery skips logged records below it, so a crash between
    "snapshot written" and "WAL truncated" cannot double-replay batches the
    snapshot already contains, and a resumed service continues numbering
    from it even when the WAL is empty.
    """
    if isinstance(obj, ShardedSlabHash):
        _save_engine(obj, path, wal_min_batch_index)
    elif isinstance(obj, SlabHash):
        _save_table(obj, path, wal_min_batch_index)
    else:
        raise TypeError(f"cannot snapshot {type(obj).__name__}; "
                        "expected SlabHash or ShardedSlabHash")
    return path


def wal_floor(path: str) -> int:
    """The snapshot's ``wal_min_batch_index`` (0 for snapshots saved without one).

    Reads only the header/manifest, not the arrays.
    """
    if os.path.isdir(path):
        with open(os.path.join(path, _MANIFEST), encoding="utf-8") as handle:
            return int(json.load(handle).get("wal_min_batch_index", 0))
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(str(archive["header"][()]))
    return int(header.get("wal_min_batch_index", 0))


def load(path: str) -> Union[SlabHash, ShardedSlabHash]:
    """Restore the table or engine stored at ``path`` (see :func:`save`).

    The restored object is bit-identical to the one that was saved: same
    items in the same bucket scan order, same slab chains, same allocator
    occupancy, same device counters — so subsequent operations produce the
    same results *and* the same counter deltas as they would have on the
    original.
    """
    if os.path.isdir(path):
        return _load_engine(path)
    return _load_table(path)
