"""An async request-service layer over the (sharded) slab hash.

:class:`SlabHashService` is the front door a traffic-serving deployment
would put in front of the engine: callers ``await`` single operations
(``insert`` / ``search`` / ``delete``) or whole arrays (:meth:`submit_many`),
and the service keeps the engine saturated with warp-aligned mixed batches.

Three mechanisms close the gap between per-operation asyncio overhead and
the engine's bulk throughput (this is the point of the paper's batched
concurrent design):

* **Vectorized admission** — an admission (single op or a ``submit_many``
  array) becomes one :class:`~repro.service.batcher.OpSlice` with *one*
  future, routed to per-shard operation logs as NumPy array chunks.  No
  per-operation Python objects, futures, or clock reads exist anywhere on
  the bulk path.
* **Per-shard drain loops** — operations are routed to their shard at
  admission time (:meth:`~repro.engine.sharded.ShardedSlabHash.admit_partition`),
  and one independent drain task per shard cuts warp-aligned batches from
  its own log and executes them directly on the shard's bulk path.  Hash
  routing sends every occurrence of a key to the same shard and each
  shard's log is FIFO with serial batch execution, so the per-key ordering
  guarantee of the old single global loop is preserved.
* **WAL group-commit** — batches cut concurrently by different shard drains
  in one drain round are framed and appended to the write-ahead log with a
  single ``write`` + flush (:meth:`~repro.persist.wal.WriteAheadLog.append_group`)
  *before* any of them executes, so durability cost amortizes while the
  write-ahead contract and recovery replay semantics stay unchanged.

Batches run unscheduled on whatever bulk-execution backend the engine was
built with; with the default ``"vectorized"`` backend every batch runs
through :class:`~repro.core.bulk_exec.BulkExecutor`.

Measurement is built in: per-operation wall-clock latency percentiles
(:mod:`repro.perf.latency`, recorded as per-chunk runs, not per-op floats)
and both wall-clock and modelled-device throughput are available from
:meth:`SlabHashService.stats` at any time — including a per-shard breakdown
of the batching counters, so aggregation arithmetic is auditable.  The
numbers ``benchmarks/bench_service_saturation.py`` records.

Online resizing is coordinated *between* micro-batches: after a shard's
batch resolves its futures, the drain calls that shard's ``maybe_resize()``
so a :class:`~repro.core.resize.LoadFactorPolicy` in deferred mode migrates
the shard while none of its requests are in flight.  With
``LoadFactorPolicy.incremental`` the call advances a bounded number of
migration *steps* instead of a full rebuild, so no request ever waits out a
whole-table migration — the incremental rehash interleaves with the cut
batches.  Recovery replay reproduces the same schedule by pumping exactly
the shards each replayed record touched (see
:func:`repro.persist.recovery.replay_record`).

The batch execution itself is synchronous CPU work (the simulator), so the
event loop pauses while a batch runs; coalescing still works because the
logs fill *between* executions, exactly like a GPU serving pipeline that
admits requests while the previous kernel is in flight.

Durability (docs/PERSISTENCE.md): constructed with a
:class:`~repro.persist.wal.WriteAheadLog`, the service group-appends every
drain round's batches to the log *before* executing them,
:meth:`SlabHashService.checkpoint` snapshots the engine and truncates the
log, and :meth:`SlabHashService.recovered` rebuilds a service after a crash
by restoring the snapshot and replaying the log tail deterministically.
WAL batch indices are assigned at group-commit time, so a checkpoint can
never cover a batch that was cut but not yet logged.

Degradation (docs/FAULTS.md): the service fails *fast and typed* instead of
queueing without bound or hanging futures.  Admission is bounded per shard
(``max_pending_per_shard`` → retryable :class:`ServiceOverloaded`),
operations may carry deadlines (expired ops are rejected at cut time with
:class:`OpDeadlineExceeded`, never executed late), each lane has a circuit
breaker (``breaker_threshold`` consecutive batch failures trip it open;
pending slices fail with retryable :class:`ShardQuarantined` while a
background task restores the shard from the last checkpoint + WAL tail and
half-opens the lane), a failed WAL group-append rolls back and fails only
that round (retryable :class:`WalCommitFailed` — not logged means not run),
and :meth:`stop` deterministically fails anything still uncut with
:class:`ServiceStopped`.  A :class:`~repro.faults.FaultPlan` passed as
``faults`` arms deterministic injection sites across the allocator, the
WAL, and the per-shard execute path; injected batch failures get durable
WAL *abort markers* so crash-recovery never resurrects an operation its
client saw fail.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import List, Optional, Sequence, Set, Tuple, Type, Union

import numpy as np

from repro.core import constants as C
from repro.core.hashing import is_user_key
from repro.core.slab_hash import SlabHash
from repro.engine.sharded import ShardedSlabHash
from repro.faults import FaultPlan, InjectedFault
from repro.gpusim.counters import StatsRecord
from repro.perf.latency import LatencyRecorder, LatencyReport
from repro.perf.metrics import measure_phase
from repro.persist.wal import WriteAheadLog
from repro.service.batcher import CutBatch, MicroBatcher, OpChunk, OpSlice
from repro.service.errors import (
    OpDeadlineExceeded,
    ServiceOverloaded,
    ServiceStopped,
    ShardQuarantined,
    WalCommitFailed,
)

__all__ = [
    "LANE_CLOSED",
    "LANE_HALF_OPEN",
    "LANE_OPEN",
    "ServiceConfig",
    "ServiceStats",
    "ShardLaneStats",
    "SlabHashService",
]

#: Circuit-breaker lane states (per shard drain lane).
LANE_CLOSED = "closed"
LANE_OPEN = "open"
LANE_HALF_OPEN = "half_open"

_VALID_OPS = np.array([C.OP_INSERT, C.OP_DELETE, C.OP_SEARCH], dtype=np.int64)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the request-service layer.

    Parameters
    ----------
    max_batch_size:
        Most operations one shard batch may carry (rounded down to a warp
        multiple by the batcher).
    max_delay:
        Longest time (seconds) an operation may wait in its shard's log for
        co-batching before a ragged (non-warp-aligned) flush is forced.
    max_pending_per_shard:
        Admission budget: most operations one shard's log may hold.  An
        admission that would push a target shard past it fails fast with a
        retryable :class:`~repro.service.errors.ServiceOverloaded` before
        anything is enqueued.  ``None`` (default) admits without bound —
        the pre-hardening behavior.
    breaker_threshold:
        Consecutive batch failures on one lane before its circuit breaker
        trips open (quarantine + background restore).  A dirty *injected*
        failure — mid-execution, state suspect — trips immediately
        regardless.
    """

    max_batch_size: int = 1024
    max_delay: float = 0.002
    max_pending_per_shard: Optional[int] = None
    breaker_threshold: int = 3


@dataclass(frozen=True)
class ShardLaneStats(StatsRecord):
    """One shard lane's batching and device-time accounting.

    The aggregate views in :class:`ServiceStats` are pure sums over these
    lanes (``warp_aligned_batches`` sums ``aligned_batches +
    forced_aligned_batches``), which keeps the per-shard arithmetic pinned
    by regression tests — a forced warp-sized tail on one shard can never
    masquerade as a naturally aligned batch in the totals.
    """

    shard: int
    ops_enqueued: int
    batches_cut: int
    aligned_batches: int
    forced_batches: int
    forced_aligned_batches: int
    modelled_seconds: float
    rejected_overloaded: int = 0
    rejected_quarantined: int = 0
    ops_expired: int = 0
    trips: int = 0
    restores: int = 0
    state: str = LANE_CLOSED

    @property
    def warp_aligned_batches(self) -> int:
        """Batches whose *size* was a warp multiple (size view)."""
        return self.aligned_batches + self.forced_aligned_batches

    @property
    def deadline_forced_fraction(self) -> float:
        """Fraction of this lane's cuts forced by a deadline or drain.

        Clamped to ``0.0`` when the lane cut zero batches — a shard
        quarantined over the whole window must report a finite fraction,
        not ``NaN`` from ``0 / 0``.
        """
        return self.forced_batches / self.batches_cut if self.batches_cut else 0.0

    @property
    def warp_aligned_fraction(self) -> float:
        """Fraction of this lane's cuts that were warp-multiple sized.

        Clamped to ``0.0`` for a zero-batch lane, like
        :attr:`deadline_forced_fraction`.
        """
        return (
            self.warp_aligned_batches / self.batches_cut if self.batches_cut else 0.0
        )


@dataclass(frozen=True)
class ServiceStats(StatsRecord):
    """A point-in-time snapshot of the service's accounting.

    ``warp_aligned_batches`` counts batches whose *size* was a warp multiple
    (back-compatible with earlier releases); ``deadline_forced_batches``
    counts batches whose *cut* was forced by a deadline or drain, so a forced
    flush of an exactly-warp-sized tail is no longer indistinguishable from
    a naturally aligned cut.  Both are sums of the ``per_shard`` lanes.
    ``modelled_seconds`` is the *parallel* device-time view — the busiest
    shard's total, since shards are independent modelled devices draining
    concurrently.  ``resize_failures`` is the append-only log of failed
    between-batch migrations — later successes never erase it.
    ``migration_steps`` / ``migration_buckets_moved`` /
    ``migration_items_moved`` sum each live shard's incremental-resize
    step accounting (:class:`~repro.core.resize.ResizeStats`), so a churn
    run shows how much rehash work was interleaved between batches.

    The degradation counters follow the same per-lane arithmetic:
    ``ops_rejected`` (admissions refused by backpressure or quarantine) and
    ``ops_expired`` (deadline rejections at cut time) sum the lanes;
    ``breaker_trips`` / ``shard_restores`` count lane quarantine cycles;
    ``wal_rollbacks`` counts failed group commits the log rolled back; and
    ``batches_aborted`` counts logged batches the service rejected with a
    durable abort marker (injected failures recovery must not replay).
    ``restore_failures`` is append-only like ``resize_failures``.
    """

    ops_enqueued: int
    ops_completed: int
    ops_failed: int
    batches_executed: int
    warp_aligned_batches: int
    deadline_forced_batches: int
    mean_batch_size: float
    latency: LatencyReport
    wall_seconds: float
    ops_per_second: float
    modelled_seconds: float
    modelled_ops_per_second: float
    per_shard: Tuple[ShardLaneStats, ...] = field(default_factory=tuple)
    resizes_performed: int = 0
    resize_failures: Tuple[str, ...] = field(default_factory=tuple)
    resize_modelled_seconds: float = 0.0
    migration_steps: int = 0
    migration_buckets_moved: int = 0
    migration_items_moved: int = 0
    ops_rejected: int = 0
    ops_expired: int = 0
    breaker_trips: int = 0
    shard_restores: int = 0
    wal_rollbacks: int = 0
    batches_aborted: int = 0
    restore_failures: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def deadline_forced_fraction(self) -> float:
        """Forced cuts over all cuts, clamped to ``0.0`` at zero batches.

        A window in which every lane was quarantined (or simply idle) cuts
        zero batches; the fraction must come back finite, not ``NaN``, so
        dashboards and the benchmark JSON stay comparable across windows.
        """
        return (
            self.deadline_forced_batches / self.batches_executed
            if self.batches_executed
            else 0.0
        )

    @property
    def warp_aligned_fraction(self) -> float:
        """Warp-multiple-sized cuts over all cuts, clamped like
        :attr:`deadline_forced_fraction`."""
        return (
            self.warp_aligned_batches / self.batches_executed
            if self.batches_executed
            else 0.0
        )


class _StagedBatch:
    """A cut shard batch waiting for the next group commit."""

    __slots__ = ("shard", "batch", "batch_index")

    def __init__(self, shard: int, batch: CutBatch) -> None:
        self.shard = shard
        self.batch = batch
        self.batch_index = -1  # assigned at group-commit time


@dataclass
class Lane:
    """One shard's drain lane: its log, wake event, breaker and counters."""

    batcher: MicroBatcher
    wake: asyncio.Event = field(default_factory=asyncio.Event)
    state: str = LANE_CLOSED
    consecutive_failures: int = 0
    rejected_overloaded: int = 0
    rejected_quarantined: int = 0
    trips: int = 0
    restores: int = 0
    modelled_seconds: float = 0.0
    restore_task: Optional["asyncio.Task[None]"] = None


class SlabHashService:
    """Async micro-batching front door over a sharded (or single) slab hash.

    Parameters
    ----------
    engine:
        A :class:`~repro.engine.sharded.ShardedSlabHash` (operations are
        routed to per-shard logs at admission through its
        :class:`~repro.engine.router.ShardRouter`) or a single
        :class:`~repro.core.slab_hash.SlabHash` (one lane).
    config:
        Coalescing and execution knobs; defaults favour throughput with a
        2 ms co-batching budget.
    wal:
        Optional :class:`~repro.persist.wal.WriteAheadLog`.  When given,
        every drain round's batches are group-appended to the log *before*
        any of them executes, so a crash can be recovered by replaying the
        tail onto the last snapshot (:meth:`checkpoint` / :meth:`recovered`);
        see docs/PERSISTENCE.md.
    faults:
        Optional :class:`~repro.faults.FaultPlan`.  Arms the deterministic
        injection sites (docs/FAULTS.md): each shard's allocator gets a
        ``shard:<i>.``-scoped view, the WAL gets the plan for its
        ``wal.*`` sites, and the service itself consults
        ``shard:<i>.execute`` before each batch and ``service.restore``
        before a quarantine restore.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`::

        engine = ShardedSlabHash(4, 256)
        async with SlabHashService(engine) as service:
            await service.insert(42, 1000)
            assert await service.search(42) == 1000
    """

    def __init__(
        self,
        engine: Union[ShardedSlabHash, SlabHash],
        *,
        config: Optional[ServiceConfig] = None,
        wal: Optional[WriteAheadLog] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        self.wal = wal
        self.faults = faults
        self._sharded = isinstance(engine, ShardedSlabHash)
        self._shards: List[SlabHash] = list(engine.shards) if self._sharded else [engine]
        table_config = self._shards[0].config
        self._key_value = table_config.key_value
        self._lanes = [Lane(MicroBatcher(self.config.max_batch_size)) for _ in self._shards]
        self._latency = LatencyRecorder()
        self._drain_tasks: List["asyncio.Task[None]"] = []
        self._staged: List[_StagedBatch] = []
        self._closing = False
        self._batch_index = 0  # next WAL batch index (global across shards)
        self._ops_completed = 0
        self._ops_failed = 0
        self._resizes_performed = 0
        self._resize_failure_log: List[str] = []
        self._resize_modelled_seconds = 0.0
        self._first_enqueue: Optional[float] = None
        self._last_completion: Optional[float] = None
        self._restore_failure_log: List[str] = []
        self._checkpoint_path: Optional[str] = None
        # Exactly-once across recovery: indices of logged-then-rejected
        # batches (injected failures), and the subset whose durable abort
        # marker has not landed yet (the marker append itself failed).
        self._aborted_indices: Set[int] = set()
        self._unlogged_aborts: Set[int] = set()
        self._aborts_logged = 0
        self._wal_rollbacks = 0
        if faults is not None:
            for index, table in enumerate(self._shards):
                table.alloc.faults = faults.scoped(f"shard:{index}.")
            if wal is not None and wal.faults is None:
                wal.faults = faults

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def _running(self) -> bool:
        return bool(self._drain_tasks) and not all(t.done() for t in self._drain_tasks)

    async def start(self) -> "SlabHashService":
        """Spawn one drain loop per shard; idempotent."""
        if not self._running:
            loop = asyncio.get_running_loop()
            self._closing = False
            for lane in self._lanes:
                lane.wake = asyncio.Event()
            self._drain_tasks = [
                loop.create_task(self._drain_shard(shard))
                for shard in range(len(self._shards))
            ]
            # A lane left quarantined by a stop() mid-restore re-arms here.
            for shard, lane in enumerate(self._lanes):
                if lane.state == LANE_OPEN and lane.restore_task is None:
                    lane.restore_task = loop.create_task(self._restore_lane(shard))
        return self

    async def stop(self) -> None:
        """Flush every logged operation, then stop the drain loops.

        Deterministic shutdown contract: admissions after stop begins fail
        with :class:`~repro.service.errors.ServiceStopped`; operations the
        drains flush resolve normally; anything left uncut when the drains
        exit — a lane quarantined mid-shutdown, a drain task that died or
        was cancelled — is *failed* with ``ServiceStopped`` rather than
        left as a hanging future.  In-flight quarantine restores are
        cancelled (the lane restores on the next :meth:`start` trip), and
        any abort markers whose append had failed are retried so the
        on-disk log stays authoritative for recovery.
        """
        if not self._drain_tasks:
            return
        self._closing = True
        for lane in self._lanes:
            lane.wake.set()
        outcomes = await asyncio.gather(*self._drain_tasks, return_exceptions=True)
        self._drain_tasks = []
        restores = [lane.restore_task for lane in self._lanes if lane.restore_task]
        for lane in self._lanes:
            lane.restore_task = None
        for task in restores:
            task.cancel()
        for task in restores:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._flush_unlogged_aborts()
        stopped = ServiceStopped(
            "service stopped before these operations could be cut"
        )
        for lane in self._lanes:
            self._ops_failed += lane.batcher.clear(stopped)
        for entry in self._staged:
            self._ops_failed += len(entry.batch)
            entry.batch.fail(stopped)
        self._staged = []
        # Surface an unexpected drain-loop crash only after every future
        # has been resolved — a bug must not translate into a hang.
        for outcome in outcomes:
            if isinstance(outcome, BaseException) and not isinstance(
                outcome, asyncio.CancelledError
            ):
                raise outcome

    async def __aenter__(self) -> "SlabHashService":
        return await self.start()

    async def __aexit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------------ #

    def _require_running(self) -> None:
        if not self._running:
            raise RuntimeError("service is not running; use 'async with' or await start()")

    def _stamp_enqueue(self) -> float:
        now = time.perf_counter()
        if self._first_enqueue is None:
            self._first_enqueue = now
        return now

    def _admission_check(self, shard: int, count: int) -> None:
        """Fail fast — typed, retryable, *before* anything is enqueued."""
        if self._closing:
            raise ServiceStopped("service is stopping; operation not admitted")
        lane = self._lanes[shard]
        if lane.state == LANE_OPEN:
            lane.rejected_quarantined += count
            raise ShardQuarantined(
                f"shard {shard} is quarantined (restore in progress); retry later"
            )
        budget = self.config.max_pending_per_shard
        if budget is not None:
            pending = len(lane.batcher)
            if pending + count > budget:
                lane.rejected_overloaded += count
                raise ServiceOverloaded(
                    f"shard {shard} holds {pending} pending op(s); admitting "
                    f"{count} would exceed the budget of {budget} — retry later"
                )

    def _enqueue(
        self,
        op_code: int,
        key: int,
        value: int,
        deadline: Optional[float] = None,
    ) -> "asyncio.Future[np.ndarray]":
        self._require_running()
        if not is_user_key(key):
            raise ValueError(f"key 0x{int(key):08X} is outside the storable key domain")
        shard = self.engine.admit_one(key) if self._sharded else 0
        self._admission_check(shard, 1)
        future: "asyncio.Future[np.ndarray]" = asyncio.get_running_loop().create_future()
        now = self._stamp_enqueue()
        slice_ = OpSlice(future, 1)
        chunk = OpChunk(
            np.array([op_code], dtype=np.int64),
            np.array([key], dtype=np.uint64),
            np.array([value], dtype=np.uint32) if self._key_value else None,
            slice_,
            np.zeros(1, dtype=np.int64),
            now,
            deadline,
        )
        self._lanes[shard].batcher.add(chunk)
        self._lanes[shard].wake.set()
        return future

    async def submit(
        self,
        op_code: int,
        key: int,
        value: Optional[int] = None,
        *,
        deadline: Optional[float] = None,
    ) -> int:
        """Log one operation and await its raw result (SlabHash conventions).

        Searches resolve to the found value or ``SEARCH_NOT_FOUND``,
        deletions to 1/0 (removed or not), insertions to 0.  ``deadline``
        is an absolute ``time.perf_counter()`` bound: an operation still
        waiting in its shard's log past it is rejected with
        :class:`~repro.service.errors.OpDeadlineExceeded` at cut time
        instead of executed late.
        """
        if op_code not in (C.OP_INSERT, C.OP_DELETE, C.OP_SEARCH):
            raise ValueError(f"unknown operation code {op_code!r}")
        if op_code == C.OP_INSERT and self._key_value and value is None:
            raise ValueError("key-value mode requires a value for insertions")
        results = await self._enqueue(
            op_code, key, 0 if value is None else value, deadline
        )
        return int(results[0])

    async def insert(self, key: int, value: Optional[int] = None) -> None:
        """Insert one key (and value in key-value mode)."""
        await self.submit(C.OP_INSERT, key, value)

    async def search(self, key: int) -> Optional[int]:
        """Return the stored value (the key itself in key-only mode), or None."""
        result = await self.submit(C.OP_SEARCH, key)
        return None if result == C.SEARCH_NOT_FOUND else result

    async def delete(self, key: int) -> bool:
        """Delete ``key``; True when an element was removed."""
        return bool(await self.submit(C.OP_DELETE, key))

    async def submit_many(
        self,
        op_codes: Sequence[int],
        keys: Sequence[int],
        values: Optional[Sequence[int]] = None,
        *,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        """Log an array of operations as **one admission** and await all results.

        This is the vectorized admission path: the whole array is validated
        and routed to the per-shard logs with NumPy partitioning, one future
        covers the entire slice, and results come back in submission order.
        Per-operation cost on this path is a few array ops — no per-op
        futures, objects, or clock reads.

        Admission is **all-or-nothing**: every target shard's budget and
        lane state is checked before any chunk is enqueued, so a rejection
        (:class:`~repro.service.errors.ServiceOverloaded` /
        :class:`~repro.service.errors.ShardQuarantined`) means no part of
        the slice was admitted and the whole array is safe to resubmit.
        ``deadline`` (absolute ``perf_counter``) covers every operation of
        the admission.
        """
        self._require_running()
        op_codes = np.asarray(op_codes, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.uint64)
        if values is None:
            values = np.zeros(len(keys), dtype=np.uint32)
        values = np.asarray(values, dtype=np.uint32)
        if not (len(op_codes) == len(keys) == len(values)):
            raise ValueError("op_codes, keys and values must have the same length")
        if len(keys) == 0:
            return np.zeros(0, dtype=np.uint32)
        if not np.isin(op_codes, _VALID_OPS).all():
            bad = op_codes[~np.isin(op_codes, _VALID_OPS)][0]
            raise ValueError(f"unknown operation code {int(bad)!r}")
        if (keys >= np.uint64(C.MAX_USER_KEY)).any():
            bad = keys[keys >= np.uint64(C.MAX_USER_KEY)][0]
            raise ValueError(f"key 0x{int(bad):08X} is outside the storable key domain")

        if self._sharded:
            parts = self.engine.admit_partition(keys)
        else:
            parts = [np.arange(len(keys), dtype=np.int64)]
        # All-or-nothing admission: check every target lane before enqueueing
        # anything, so a rejected slice leaves no partial chunks behind.
        for shard, idx in enumerate(parts):
            if idx.size:
                self._admission_check(shard, int(idx.size))
        future: "asyncio.Future[np.ndarray]" = asyncio.get_running_loop().create_future()
        now = self._stamp_enqueue()
        slice_ = OpSlice(future, len(keys))
        for shard, idx in enumerate(parts):
            if not idx.size:
                continue
            chunk = OpChunk(
                op_codes[idx],
                keys[idx],
                values[idx] if self._key_value else None,
                slice_,
                idx,
                now,
                deadline,
            )
            self._lanes[shard].batcher.add(chunk)
            self._lanes[shard].wake.set()
        return await future

    # ------------------------------------------------------------------ #
    # Per-shard drain loops, group commit, and batch execution
    # ------------------------------------------------------------------ #

    async def _drain_shard(self, shard: int) -> None:
        """One shard's drain loop: greedy warp-aligned cuts, deadlined tails.

        Whenever at least a warp's worth of operations is pending, a
        warp-aligned batch is cut and executed immediately — coalescing
        happens *while the previous batch runs* (executions are synchronous,
        so the log fills during them), not by idling on a timer.  Only a
        sub-warp ragged tail waits, up to ``max_delay``, for enough traffic
        to fill a warp before a forced (deadline) cut flushes it.
        """
        lane = self._lanes[shard]
        batcher = lane.batcher
        wake = lane.wake
        while True:
            # Deadline rejections happen at cut time: expired operations are
            # failed here, before any batch is cut, never executed late.
            expired = batcher.expire(time.perf_counter())
            if expired:
                self._ops_failed += expired
            if lane.state == LANE_OPEN:
                # Quarantined: admission is refusing traffic and the restore
                # task owns the shard; park until it half-opens the lane.
                if self._closing:
                    return
                wake.clear()
                if lane.state != LANE_OPEN:  # raced with restore
                    continue
                await wake.wait()
                continue
            if len(batcher) == 0:
                if self._closing:
                    return
                wake.clear()
                if len(batcher):  # raced with an enqueue
                    continue
                await wake.wait()
                continue
            batch = batcher.take()
            if batch is not None:
                await self._commit_round(shard, batch)
                continue
            # Fewer than one warp pending: a ragged tail.
            if self._closing:
                await self._commit_round(shard, batcher.take(force=True))
                continue
            deadline = batcher.oldest_enqueued_at() + self.config.max_delay
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                await self._commit_round(shard, batcher.take(force=True))
                continue
            wake.clear()
            try:
                await asyncio.wait_for(wake.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                pass

    async def _commit_round(self, shard: int, batch: Optional[CutBatch]) -> None:
        """Stage a cut batch, give other ready drains one turn, then flush.

        The ``sleep(0)`` lets every other drain task whose batcher is also
        ready cut and stage *its* batch into the same round, so the flush
        group-appends them to the WAL with one write + flush and executes
        them back to back.  Whichever staging drain resumes first flushes the
        whole round; the rest find the staging area empty.  A shard never
        cuts its next batch before its staged batch has executed, so the
        per-shard FIFO (and with it per-key ordering) is preserved.
        """
        if batch is None:
            return
        self._staged.append(_StagedBatch(shard, batch))
        await asyncio.sleep(0)  # let other ready drains join this round
        if not self._staged:
            return  # another drain already flushed the round
        staged, self._staged = self._staged, []
        for entry in staged:
            # Indices are assigned at commit time, not cut time, so a
            # checkpoint taken while a batch sat staged can never record a
            # WAL floor that covers a batch the snapshot does not contain.
            entry.batch_index = self._batch_index
            self._batch_index += 1
        if self.wal is not None:
            # Write-ahead, amortized: the whole round is durable — one framed
            # write, one flush — before any of its batches executes, so a
            # crash mid-round replays every logged batch on recovery.
            try:
                self.wal.append_group(
                    [
                        (
                            entry.batch.op_codes,
                            entry.batch.keys.astype(np.uint32),
                            entry.batch.values,
                            entry.batch_index,
                        )
                        for entry in staged
                    ]
                )
            except Exception as exc:  # noqa: BLE001 - log rolled back; fail the round
                # Not logged means not run: the WAL rolled back to its last
                # committed offset, none of the round's batches executes, and
                # every affected operation fails retryably.  The table itself
                # was never touched, so the service keeps serving.
                self._wal_rollbacks += 1
                failure = WalCommitFailed(
                    f"WAL group commit failed and was rolled back: "
                    f"{type(exc).__name__}: {exc}"
                )
                failure.__cause__ = exc
                for entry in staged:
                    self._ops_failed += len(entry.batch)
                    entry.batch.fail(failure)
                return
        for entry in staged:
            self._execute(entry)

    def _execute(self, entry: _StagedBatch) -> None:
        batch = entry.batch
        table = self._shards[entry.shard]
        holder = {}

        if self.faults is not None:
            # Pre-execution injection site: the batch is logged but has not
            # touched the table yet, so the rejection is *clean* (state
            # intact) — it counts toward the breaker but never dirties state.
            try:
                self.faults.check(f"shard:{entry.shard}.execute")
            except Exception as exc:  # noqa: BLE001
                self._reject_batch(entry, exc, dirty=False)
                return

        def run() -> None:
            holder["results"] = table.concurrent_batch(batch.op_codes, batch.keys, batch.values)

        try:
            measurement = measure_phase(
                table.device,
                run,
                num_ops=len(batch),
                label=f"service batch {entry.batch_index} (shard {entry.shard})",
            )
            self._lanes[entry.shard].modelled_seconds += measurement.seconds
            results = holder["results"]
        except Exception as exc:  # noqa: BLE001 - a failed batch fails its slices
            self._reject_batch(entry, exc, dirty=True)
            return
        completed_at = time.perf_counter()
        self._last_completion = completed_at
        self._ops_completed += len(batch)
        self._lane_ok(entry.shard)
        for chunk, _start, _end in batch.spans():
            self._latency.record_many(completed_at - chunk.enqueued_at, len(chunk))
        batch.complete(results)
        self._resize_between_batches(entry.shard, entry.batch_index)

    # ------------------------------------------------------------------ #
    # Circuit breaker, quarantine, and restore
    # ------------------------------------------------------------------ #

    def _lane_ok(self, shard: int) -> None:
        """A batch executed cleanly: reset the breaker, close a half-open lane."""
        lane = self._lanes[shard]
        lane.consecutive_failures = 0
        if lane.state == LANE_HALF_OPEN:
            lane.state = LANE_CLOSED

    def _reject_batch(self, entry: _StagedBatch, exc: BaseException, *, dirty: bool) -> None:
        """Fail one committed batch's futures and advance the breaker.

        *Injected* failures (:class:`~repro.faults.InjectedFault`) are
        non-deterministic — a replay would not reproduce them — so the batch
        gets an abort marker, keeping "rejected means absent" true across
        crash-recovery.  Natural failures (e.g. real allocator exhaustion)
        replay identically, so the log needs no marker and the pre-hardening
        fail-futures-and-serve-on behavior is preserved.  A *dirty* injected
        failure (mid-execution, shard state suspect) trips the lane
        immediately; everything else trips only after ``breaker_threshold``
        consecutive failures.
        """
        lane = self._lanes[entry.shard]
        injected = isinstance(exc, InjectedFault)
        if injected:
            self._abort_batch_record(entry.batch_index)
        self._ops_failed += len(entry.batch)
        entry.batch.fail(exc)
        lane.consecutive_failures += 1
        if (dirty and injected) or (
            lane.consecutive_failures >= self.config.breaker_threshold
        ):
            self._trip(entry.shard, exc)

    def _abort_batch_record(self, batch_index: int) -> None:
        """Durably mark a logged batch as aborted so recovery skips it."""
        self._aborted_indices.add(batch_index)
        if self.wal is None:
            return
        try:
            self.wal.append_abort(batch_index)
            self._aborts_logged += 1
        except Exception:  # noqa: BLE001 - retried at restore/stop time
            self._unlogged_aborts.add(batch_index)

    def _flush_unlogged_aborts(self) -> None:
        """Retry abort markers whose append failed; best-effort, in order."""
        if self.wal is None or not self._unlogged_aborts:
            return
        for batch_index in sorted(self._unlogged_aborts):
            try:
                self.wal.append_abort(batch_index)
                self._aborts_logged += 1
                self._unlogged_aborts.discard(batch_index)
            except Exception:  # noqa: BLE001 - still unlogged; keep for later
                pass

    def _trip(self, shard: int, cause: BaseException) -> None:
        """Open the lane's breaker: quarantine the shard, start its restore.

        Without a checkpoint on record there is no state to rebuild, so the
        "restore" is soft and happens *synchronously*: pending slices still
        fail retryably and the trip is counted, but the lane lands in
        half-open immediately — no admission window ever rejects, matching
        the pre-hardening serve-on behavior for natural failures.
        """
        lane = self._lanes[shard]
        if lane.state == LANE_OPEN:
            return
        lane.trips += 1
        error = ShardQuarantined(
            f"shard {shard} quarantined after "
            f"{lane.consecutive_failures} consecutive batch failure(s): "
            f"{type(cause).__name__}: {cause}"
        )
        error.__cause__ = cause
        self._ops_failed += lane.batcher.clear(error)
        if self._checkpoint_path is None:
            self._flush_unlogged_aborts()
            lane.restores += 1
            lane.consecutive_failures = 0
            lane.state = LANE_HALF_OPEN
            return
        lane.state = LANE_OPEN
        lane.restore_task = asyncio.get_running_loop().create_task(
            self._restore_lane(shard)
        )

    async def _restore_lane(self, shard: int) -> None:
        """Background quarantine restore: rebuild the shard, half-open the lane.

        With a checkpoint on record the shard is rebuilt from snapshot + WAL
        tail (aborted batches skipped), which discards whatever partial state
        the dirty failure left; without one the restore is *soft* — the lane
        merely cools down and half-opens, matching the pre-hardening
        serve-on behavior.  Restore failures are injectable
        (``service.restore``) and retried; after the attempts the lane
        half-opens regardless (degraded but live — admission works and the
        next clean batch closes the breaker, so no manual intervention is
        ever required).
        """
        try:
            await asyncio.sleep(0)  # let the tripping execute() unwind first
            self._flush_unlogged_aborts()
            for attempt in range(3):
                try:
                    if self.faults is not None:
                        self.faults.check("service.restore")
                    self._restore_shard_state(shard)
                    break
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - retry, then degrade
                    self._restore_failure_log.append(
                        f"shard {shard} restore attempt {attempt + 1}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                    await asyncio.sleep(self.config.max_delay)
            lane = self._lanes[shard]
            lane.restores += 1
            lane.consecutive_failures = 0
            lane.state = LANE_HALF_OPEN
            lane.restore_task = None
            lane.wake.set()
        except asyncio.CancelledError:
            pass

    def _restore_shard_state(self, shard: int) -> None:
        """Rebuild one shard from the last checkpoint plus the WAL tail.

        Hash routing sends every occurrence of a key to the same shard, so
        shard ``i`` of a full :func:`~repro.persist.recovery.recover` equals
        checkpointed shard ``i`` plus exactly the acked shard-``i`` batches —
        swapping it in cannot disturb any other lane.  In-memory aborted
        indices ride along as ``extra_aborted`` in case their durable
        markers have not landed.  Without a checkpoint this is a no-op
        (soft restore: cool down and half-open).
        """
        if self._checkpoint_path is None:
            return
        from repro.persist.recovery import recover as _recover

        engine, _report = _recover(
            self._checkpoint_path,
            None if self.wal is None else self.wal.path,
            extra_aborted=self._aborted_indices,
        )
        if self._sharded:
            fresh = engine.shards[shard]
            self.engine.shards[shard] = fresh
        else:
            fresh = engine
            self.engine = engine
        self._shards[shard] = fresh
        if self.faults is not None:
            fresh.alloc.faults = self.faults.scoped(f"shard:{shard}.")

    def _resize_between_batches(self, shard: int, batch_index: int) -> None:
        """Apply this shard's deferred load-factor policy while it is idle.

        No-op without a policy (``maybe_resize`` returns ``[]`` immediately);
        migration device time is accounted separately from the batches'.
        Under an incremental policy the call advances at most a bounded
        number of migration steps, so the pause between batches stays
        bounded by the step size rather than the table size.  Recovery
        replay reproduces the same per-shard schedule by pumping exactly
        the shards each replayed record touched (pumping is not idempotent
        once migrations are incremental, so replay must not pump untouched
        shards).  A failed migration (e.g. allocator exhaustion) leaves the
        table restored — ``resize_table``'s strong guarantee for rebuilds;
        an unchanged watermark with both tables consistent for a failed
        incremental step — so it is recorded and the service keeps serving
        rather than killing the drain loop.
        Failures append to an append-only log surfaced via
        :attr:`resize_failures` / :meth:`stats`; a later successful
        migration never overwrites or clears an earlier recorded failure.
        """
        try:
            if self._sharded:
                # Through the engine hook (exactly this shard's
                # maybe_resize()) so tracers that patch the engine see it.
                results = self.engine.maybe_resize_shard(shard)
            else:
                results = self._shards[shard].maybe_resize()
        except Exception as exc:  # noqa: BLE001 - the table is intact; keep serving
            self._resize_failure_log.append(
                f"after batch {batch_index}: {type(exc).__name__}: {exc}"
            )
            return
        if results:
            self._resizes_performed += len(results)
            self._resize_modelled_seconds += sum(r.seconds for r in results)

    # ------------------------------------------------------------------ #
    # Durability: checkpointing and recovery (see repro.persist)
    # ------------------------------------------------------------------ #

    def checkpoint(self, snapshot_path: str) -> str:
        """Snapshot the engine and truncate the WAL; returns the snapshot path.

        The snapshot captures the engine bit-identically, which makes every
        *logged* batch redundant — truncating the WAL is what bounds recovery
        time.  Call from the event-loop thread (e.g. between awaits); with
        operations still pending in the per-shard logs, those operations are
        simply not yet part of the checkpoint and will be logged when their
        round commits.

        The snapshot records the next WAL batch index as its floor, so even
        if the process dies *between* the snapshot write and the WAL
        truncation, recovery skips the already-covered records instead of
        double-replaying them — and a service recovered from a
        freshly-truncated WAL keeps its batch numbering contiguous.  Batch
        indices are assigned at group-commit time, so a batch cut but not
        yet committed is always numbered *above* the floor and replays.

        Checkpointing while a shard is quarantined is refused (retryable
        :class:`~repro.service.errors.ShardQuarantined`): the snapshot would
        capture the quarantined lane's suspect state and the truncation
        would discard the very WAL tail its restore needs.
        """
        from repro.persist.snapshot import save as _save

        for shard, lane in enumerate(self._lanes):
            if lane.state == LANE_OPEN:
                raise ShardQuarantined(
                    f"cannot checkpoint while shard {shard} is quarantined "
                    "(restore in progress); retry after it half-opens"
                )

        _save(self.engine, snapshot_path, wal_min_batch_index=self._batch_index)
        if self.wal is not None:
            self.wal.truncate()
        # The quarantine-restore path rebuilds shards from here; batches the
        # truncation discarded are also no longer abortable-by-marker.
        self._checkpoint_path = snapshot_path
        return snapshot_path

    @classmethod
    def recovered(
        cls,
        snapshot_path: str,
        wal: Optional[WriteAheadLog] = None,
        *,
        config: Optional[ServiceConfig] = None,
        faults: Optional[FaultPlan] = None,
    ) -> "SlabHashService":
        """Rebuild a service from a snapshot plus the WAL it was paired with.

        Restores the snapshot, replays the WAL's complete records (a torn
        final record is discarded — its futures never resolved; aborted
        batches are skipped), and returns a *not yet started* service over
        the recovered engine that continues appending to the same log with
        contiguous batch numbering.  The recovered service remembers the snapshot as its checkpoint, so
        quarantine restores work immediately.
        """
        from repro.persist.recovery import recover as _recover

        config = config or ServiceConfig()
        engine, report = _recover(snapshot_path, None if wal is None else wal.path)
        service = cls(engine, config=config, wal=wal, faults=faults)
        service._batch_index = report.next_batch_index
        service._checkpoint_path = snapshot_path
        return service

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        """Operations waiting in the per-shard logs or staged for commit."""
        return sum(len(lane.batcher) for lane in self._lanes) + sum(
            len(entry.batch) for entry in self._staged
        )

    @property
    def num_lanes(self) -> int:
        """Drain lanes (shards for a sharded engine, 1 for a single table)."""
        return len(self._shards)

    @property
    def lane_states(self) -> Tuple[str, ...]:
        """Per-lane circuit-breaker states (``closed``/``open``/``half_open``)."""
        return tuple(lane.state for lane in self._lanes)

    @property
    def resizes_performed(self) -> int:
        """Policy-triggered resizes executed between micro-batches."""
        return self._resizes_performed

    @property
    def resize_failures(self) -> Tuple[str, ...]:
        """Append-only descriptions of failed between-batch migrations.

        Each entry records the batch it followed and the error; the table
        was restored (strong guarantee) and the service kept serving.  A
        subsequent successful migration never clears this log.
        """
        return tuple(self._resize_failure_log)

    @property
    def resize_modelled_seconds(self) -> float:
        """Modelled device time spent in between-batch migrations."""
        return self._resize_modelled_seconds

    def stats(self) -> ServiceStats:
        """Snapshot the service's accounting (latency, throughput, batching).

        Every aggregate is a sum over the ``per_shard`` lanes except
        ``modelled_seconds``, which is the busiest lane's device time (the
        parallel view — shards are independent modelled devices).
        """
        wall = 0.0
        if self._first_enqueue is not None and self._last_completion is not None:
            wall = max(0.0, self._last_completion - self._first_enqueue)
        lanes = tuple(
            ShardLaneStats(
                shard=shard,
                ops_enqueued=lane.batcher.ops_enqueued,
                batches_cut=lane.batcher.batches_cut,
                aligned_batches=lane.batcher.aligned_batches,
                forced_batches=lane.batcher.forced_batches,
                forced_aligned_batches=lane.batcher.forced_aligned_batches,
                modelled_seconds=lane.modelled_seconds,
                rejected_overloaded=lane.rejected_overloaded,
                rejected_quarantined=lane.rejected_quarantined,
                ops_expired=lane.batcher.ops_expired,
                trips=lane.trips,
                restores=lane.restores,
                state=lane.state,
            )
            for shard, lane in enumerate(self._lanes)
        )
        batches = sum(lane.batches_cut for lane in lanes)
        ops_cut = sum(lane.batcher.ops_cut for lane in self._lanes)
        modelled = max(lane.modelled_seconds for lane in lanes)
        return ServiceStats(
            ops_enqueued=sum(lane.ops_enqueued for lane in lanes),
            ops_completed=self._ops_completed,
            ops_failed=self._ops_failed,
            batches_executed=batches,
            # Size view (any batch whose op count is a warp multiple) ...
            warp_aligned_batches=sum(lane.warp_aligned_batches for lane in lanes),
            # ... and trigger view (cuts forced by a deadline or drain), so a
            # forced warp-sized tail is distinguishable from a natural cut.
            deadline_forced_batches=sum(lane.forced_batches for lane in lanes),
            mean_batch_size=ops_cut / batches if batches else 0.0,
            latency=self._latency.report(),
            wall_seconds=wall,
            ops_per_second=self._ops_completed / wall if wall > 0 else 0.0,
            modelled_seconds=modelled,
            modelled_ops_per_second=(
                self._ops_completed / modelled if modelled > 0 else 0.0
            ),
            per_shard=lanes,
            resizes_performed=self._resizes_performed,
            resize_failures=tuple(self._resize_failure_log),
            resize_modelled_seconds=self._resize_modelled_seconds,
            migration_steps=sum(t.resize_stats.migration_steps for t in self._shards),
            migration_buckets_moved=sum(
                t.resize_stats.migration_buckets for t in self._shards
            ),
            migration_items_moved=sum(
                t.resize_stats.migration_items for t in self._shards
            ),
            ops_rejected=sum(lane.rejected_overloaded for lane in lanes)
            + sum(lane.rejected_quarantined for lane in lanes),
            ops_expired=sum(lane.ops_expired for lane in lanes),
            breaker_trips=sum(lane.trips for lane in lanes),
            shard_restores=sum(lane.restores for lane in lanes),
            wal_rollbacks=self._wal_rollbacks,
            batches_aborted=len(self._aborted_indices),
            restore_failures=tuple(self._restore_failure_log),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = "sharded" if self._sharded else "single-table"
        return (
            f"SlabHashService({target}, lanes={self.num_lanes}, "
            f"pending={self.pending}, completed={self._ops_completed})"
        )
