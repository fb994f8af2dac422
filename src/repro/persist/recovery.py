"""Crash recovery: restore a snapshot and deterministically replay the WAL tail.

The service's durability contract is *checkpoint + log*: a snapshot captures
the engine bit-identically at some batch boundary, the WAL holds every batch
executed since, and :func:`recover` reproduces the pre-crash state by
restoring the snapshot and re-executing the logged batches exactly as the
drain loop did — same batch boundaries, same between-batch
``maybe_resize()`` call.  Because every execution path in the simulator is
deterministic given state and inputs, the recovered table matches a
never-crashed run to the last device counter; the crash-point harness in
``tests/proptest`` asserts exactly that.

A torn final record (crash mid-append) is discarded by the WAL reader; its
batch never resolved any futures, so dropping it is the correct
at-most-once outcome for operations whose completion was never observed.

**Aborted batches** are the other exactly-once hole the WAL plugs: the
service logs batches *before* executing them, so a batch whose execution it
rejected *non-deterministically* — an injected fault from the fault plane,
which a deterministic replay would not reproduce — would otherwise replay
cleanly and resurrect operations the client saw fail.  The service writes an
abort marker (``WalRecord.aborted``) before failing such a batch's futures;
:func:`recover` collects the marked indices (plus any passed via
``extra_aborted``) and skips those batches, keeping "every rejected
operation is absent" true across crash-recovery.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.slab_hash import SlabHash
from repro.engine.sharded import ShardedSlabHash
from repro.gpusim.counters import StatsRecord
from repro.persist.snapshot import load, wal_floor
from repro.persist.wal import WalRecord, read_records

__all__ = ["RecoveryReport", "WalFloorRegressionError", "recover", "replay_record"]


class WalFloorRegressionError(ValueError):
    """The WAL's batch_index sequence regressed below the snapshot's floor.

    A checkpoint-window crash legitimately leaves already-covered records
    *as a prefix* of the log: snapshot written (floor recorded), WAL not yet
    truncated.  Those are skipped.  But once a record at or above the floor
    has been seen, a later record numbered *below* it cannot come from this
    snapshot's service — the log was mixed, reused, or corrupted — and
    silently skipping (or replaying) it would hide the mismatch and recover
    a state no live run ever held.  :func:`recover` refuses instead.
    """


@dataclass(frozen=True)
class RecoveryReport(StatsRecord):
    """What :func:`recover` found and did."""

    snapshot_path: str
    wal_path: Optional[str]
    records_replayed: int
    ops_replayed: int
    records_failed: int  #: replayed batches that raised (mirroring the live run)
    records_skipped: int  #: records already covered by the snapshot (checkpoint race)
    torn_tail: bool  #: the WAL ended in a partial record (discarded)
    next_batch_index: int  #: where a resuming service should continue numbering
    records_aborted: int = 0  #: logged batches skipped because they were aborted


def replay_record(engine: Union[SlabHash, ShardedSlabHash], record: WalRecord) -> bool:
    """Re-execute one logged batch exactly as the service drain loop did.

    Mirrors ``SlabHashService._execute`` *including its failure tolerance*:
    the batch runs unscheduled through ``concurrent_batch``; a batch
    that raises — e.g. deterministic allocator exhaustion that failed the
    same batch's futures in the live run, leaving its partial state — is
    tolerated and, like the live loop, skips the between-batch resize.
    Successful batches are followed by the same between-batch pump the live
    drain performed: ``maybe_resize()`` on exactly the shard(s) the record's
    keys route to (a logged batch is one shard's lane, and pumping is *not*
    idempotent once resizes are incremental — pumping an untouched shard
    would advance its migration further than the live run did).  Pump
    failures are swallowed like the live loop's
    (``_resize_between_batches``).

    Returns ``True`` when the batch executed cleanly, ``False`` when it
    raised (matching the live run's ``ops_failed`` outcome).
    """
    key_value = (
        engine.shards[0].config.key_value
        if isinstance(engine, ShardedSlabHash)
        else engine.config.key_value
    )
    values = record.values if key_value else None
    try:
        engine.concurrent_batch(record.op_codes, record.keys, values)
    except Exception:  # noqa: BLE001 - the live loop failed this batch and served on
        return False
    try:
        if isinstance(engine, ShardedSlabHash):
            # The live drain pumped only the shard whose batch just ran;
            # router.partition is the accounting-free routing view.
            keys = np.asarray(record.keys, dtype=np.uint64)
            for shard, idx in zip(engine.shards, engine.router.partition(keys)):
                if idx.size:
                    shard.maybe_resize()
        else:
            engine.maybe_resize()
    except Exception:  # noqa: BLE001 - the live loop swallowed this too
        pass
    return True


def recover(
    snapshot_path: str,
    wal_path: Optional[str] = None,
    *,
    extra_aborted: Optional[Iterable[int]] = None,
) -> Tuple[Union[SlabHash, ShardedSlabHash], RecoveryReport]:
    """Restore ``snapshot_path`` and replay the complete records of ``wal_path``.

    Returns the recovered table/engine and a :class:`RecoveryReport`; a
    missing or empty WAL means the snapshot alone is the recovered state.

    Records whose ``batch_index`` lies below the snapshot's WAL floor
    (:func:`~repro.persist.snapshot.wal_floor`) are skipped: a crash in the
    checkpoint window — snapshot written, WAL not yet truncated — leaves
    such already-covered records behind, and replaying them would apply
    their batches twice.  The boundary is exact: the floor is the *next*
    batch index at checkpoint time, so a record numbered exactly at the
    floor is **not** covered by the snapshot and replays (strictly-below
    skips — no off-by-one; pinned by ``tests/persist/test_recovery.py``).
    Skipping is only legal as a prefix, though — a ``batch_index`` that
    regresses below the floor *after* an at-or-above-floor record has been
    seen means the log cannot belong to this snapshot, and :func:`recover`
    refuses with :class:`WalFloorRegressionError` rather than silently
    replaying from a mismatched log.

    Batches named by an **abort marker** in the log are skipped too: the
    service rejected their execution non-deterministically (injected fault),
    so replaying them would apply operations their clients saw fail.
    ``extra_aborted`` adds in-memory aborted indices a live service knows
    about but whose markers did not reach the log (its marker append itself
    failed) — the quarantine-restore path passes its own set here.
    """
    engine = load(snapshot_path)
    floor = wal_floor(snapshot_path)
    records: List[WalRecord] = []
    torn = False
    if wal_path is not None and os.path.exists(wal_path):
        records, torn = read_records(wal_path)
    aborted_indices = {record.batch_index for record in records if record.aborted}
    if extra_aborted is not None:
        aborted_indices.update(int(index) for index in extra_aborted)
    replayed = failed = skipped = aborted = ops = 0
    next_batch_index = floor
    seen_at_or_above_floor = False
    for record in records:
        # Abort markers carry no operations; they only consume numbering.
        next_batch_index = max(next_batch_index, record.batch_index + 1)
        if record.aborted:
            continue
        if record.batch_index < floor:
            if seen_at_or_above_floor:
                raise WalFloorRegressionError(
                    f"WAL {wal_path!r} record batch_index {record.batch_index} "
                    f"regresses below the snapshot's WAL floor {floor} after a "
                    "record at or above it; the log does not belong to this "
                    "snapshot (mixed, reused, or corrupted WAL) — refusing to "
                    "replay"
                )
            skipped += 1
            continue
        seen_at_or_above_floor = True
        if record.batch_index in aborted_indices:
            aborted += 1
            continue
        clean = replay_record(engine, record)
        replayed += 1
        ops += len(record)
        if not clean:
            failed += 1
    report = RecoveryReport(
        snapshot_path=snapshot_path,
        wal_path=wal_path,
        records_replayed=replayed,
        ops_replayed=ops,
        records_failed=failed,
        records_skipped=skipped,
        torn_tail=torn,
        next_batch_index=next_batch_index,
        records_aborted=aborted,
    )
    return engine, report
