"""Pinned ``as_dict()`` payloads of the five stats records.

Benchmark documents, the CLI and ``perfbench`` serialize these records, so
their JSON payloads are an interface: the key sets (including every
``per_shard`` lane and the nested ``latency`` report) and the values must
not drift when the records' declarations change.  Key order is free.
"""

from __future__ import annotations

import json

import pytest

from repro.core.resize import ResizeStats
from repro.gpusim.costmodel import CostBreakdown
from repro.perf.latency import LatencyReport
from repro.persist.recovery import RecoveryReport
from repro.service.service import ServiceStats, ShardLaneStats

LANE = ShardLaneStats(
    shard=1,
    ops_enqueued=100,
    batches_cut=4,
    aligned_batches=2,
    forced_batches=2,
    forced_aligned_batches=1,
    modelled_seconds=0.25,
    rejected_overloaded=3,
    rejected_quarantined=5,
    ops_expired=7,
    trips=1,
    restores=1,
    state="half_open",
)

LANE_PAYLOAD = {
    "shard": 1,
    "ops_enqueued": 100,
    "batches_cut": 4,
    "aligned_batches": 2,
    "forced_batches": 2,
    "forced_aligned_batches": 1,
    "warp_aligned_batches": 3,
    "deadline_forced_fraction": 0.5,
    "warp_aligned_fraction": 0.75,
    "modelled_seconds": 0.25,
    "rejected_overloaded": 3,
    "rejected_quarantined": 5,
    "ops_expired": 7,
    "trips": 1,
    "restores": 1,
    "state": "half_open",
}

SERVICE = ServiceStats(
    ops_enqueued=100,
    ops_completed=80,
    ops_failed=12,
    batches_executed=4,
    warp_aligned_batches=3,
    deadline_forced_batches=2,
    mean_batch_size=22.0,
    latency=LatencyReport(count=80, mean=0.5, p50=0.25, p90=0.75, p99=1.0, max=2.0),
    wall_seconds=4.0,
    ops_per_second=20.0,
    modelled_seconds=0.25,
    modelled_ops_per_second=320.0,
    per_shard=(LANE,),
    resizes_performed=2,
    resize_failures=("after batch 3: boom",),
    resize_modelled_seconds=0.125,
    migration_steps=6,
    migration_buckets_moved=12,
    migration_items_moved=48,
    ops_rejected=8,
    ops_expired=7,
    breaker_trips=1,
    shard_restores=1,
    wal_rollbacks=1,
    batches_aborted=2,
    restore_failures=("shard 1 restore attempt 1: boom",),
)

SERVICE_PAYLOAD = {
    "ops_enqueued": 100,
    "ops_completed": 80,
    "ops_failed": 12,
    "batches_executed": 4,
    "warp_aligned_batches": 3,
    "deadline_forced_batches": 2,
    "deadline_forced_fraction": 0.5,
    "warp_aligned_fraction": 0.75,
    "mean_batch_size": 22.0,
    "latency": {
        "count": 80,
        "mean_s": 0.5,
        "p50_s": 0.25,
        "p90_s": 0.75,
        "p99_s": 1.0,
        "max_s": 2.0,
    },
    "wall_seconds": 4.0,
    "ops_per_second": 20.0,
    "modelled_seconds": 0.25,
    "modelled_ops_per_second": 320.0,
    "per_shard": [LANE_PAYLOAD],
    "resizes_performed": 2,
    "resize_failures": ["after batch 3: boom"],
    "resize_modelled_seconds": 0.125,
    "migration_steps": 6,
    "migration_buckets_moved": 12,
    "migration_items_moved": 48,
    "ops_rejected": 8,
    "ops_expired": 7,
    "breaker_trips": 1,
    "shard_restores": 1,
    "wal_rollbacks": 1,
    "batches_aborted": 2,
    "restore_failures": ["shard 1 restore attempt 1: boom"],
}

RECOVERY = RecoveryReport(
    snapshot_path="table.snap",
    wal_path=None,
    records_replayed=5,
    ops_replayed=320,
    records_failed=1,
    records_skipped=2,
    torn_tail=True,
    next_batch_index=9,
    records_aborted=1,
)

RECOVERY_PAYLOAD = {
    "snapshot_path": "table.snap",
    "wal_path": None,
    "records_replayed": 5,
    "ops_replayed": 320,
    "records_failed": 1,
    "records_skipped": 2,
    "records_aborted": 1,
    "torn_tail": True,
    "next_batch_index": 9,
}

COST = CostBreakdown(
    memory_time=1.0,
    atomic_time=2.0,
    compute_time=0.5,
    launch_overhead=0.25,
    total_time=2.75,
    bottleneck="atomics",
)

COST_PAYLOAD = {
    "memory_time": 1.0,
    "atomic_time": 2.0,
    "compute_time": 0.5,
    "launch_overhead": 0.25,
    "total_time": 2.75,
    "bottleneck": "atomics",
}


def _resize_stats() -> ResizeStats:
    stats = ResizeStats(resizes=3, grows=2, shrinks=1, noops=4, migrated_items=50,
                        released_slabs=6, modelled_seconds=0.5)
    stats.note_step(buckets=8, items=20)
    return stats


RESIZE_PAYLOAD = {
    "resizes": 3,
    "grows": 2,
    "shrinks": 1,
    "noops": 4,
    "migrated_items": 50,
    "released_slabs": 6,
    "modelled_seconds": 0.5,
    "migration_steps": 1,
    "migration_buckets": 8,
    "migration_items": 20,
}

CASES = [
    ("ShardLaneStats", LANE, LANE_PAYLOAD),
    ("ServiceStats", SERVICE, SERVICE_PAYLOAD),
    ("RecoveryReport", RECOVERY, RECOVERY_PAYLOAD),
    ("CostBreakdown", COST, COST_PAYLOAD),
    ("ResizeStats", _resize_stats(), RESIZE_PAYLOAD),
]


@pytest.mark.parametrize("record,expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_payload_is_pinned_and_json_ready(record, expected):
    payload = record.as_dict()
    assert set(payload) == set(expected)
    if "per_shard" in expected:
        assert [set(lane) for lane in payload["per_shard"]] == [set(LANE_PAYLOAD)]
        assert set(payload["latency"]) == set(expected["latency"])
    assert payload == expected
    assert json.loads(json.dumps(payload)) == expected
