"""The operation-log micro-batcher: an array-backed ring of admitted slices.

The slab hash's throughput comes from warp-cooperative batch execution —
one operation per thread, 32 per warp — but a service front door receives
operations as single calls and as bulk arrays.  :class:`MicroBatcher` is the
(event-loop agnostic) coalescing core the async service builds on: an
append-only log of **chunks** — contiguous array segments of one admission,
already routed to this batcher's shard — from which batches are cut
**warp-aligned** (multiples of the warp size) whenever possible, so the
engine's warps run full, and cut unaligned only when a latency deadline
forces a flush of the ragged tail.

Unlike the original one-``PendingOp``-per-operation design, the log never
touches individual operations in Python: an admission of N operations is one
:class:`OpChunk` holding NumPy arrays, a cut is a few array slices plus one
``np.concatenate``, and completion scatters results back through one
:class:`OpSlice` per admission (one asyncio future per *slice*, not per op).
That is what closes the service/engine throughput gap: per-operation Python
cost is gone from admission, cutting, and completion alike.

The batcher is a pure data structure — no clocks, no tasks — which keeps
the coalescing policy unit-testable; :class:`repro.service.SlabHashService`
owns the timing (max-delay deadlines), the routing, and the execution, with
one batcher (and one drain task) per shard.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    import asyncio

import numpy as np

from repro.gpusim.warp import WARP_SIZE

__all__ = ["OpSlice", "OpChunk", "CutBatch", "MicroBatcher"]


class OpSlice:
    """Completion handle for one admission: 1..N operations, one future.

    A bulk admission is split by the router into per-shard chunks; each chunk
    reports back here when its batch executes.  When every chunk has reported
    (``remaining`` hits zero) the future resolves with the full results array
    (admission order), or with the first chunk's exception if any failed.
    """

    __slots__ = ("future", "results", "remaining", "failure")

    def __init__(self, future: "asyncio.Future[np.ndarray]", count: int) -> None:
        self.future = future
        self.results = np.zeros(count, dtype=np.uint32)
        self.remaining = 0  # chunks outstanding; bumped as chunks are created
        self.failure: Optional[BaseException] = None

    def chunk_done(self, positions: np.ndarray, values: np.ndarray) -> None:
        """Scatter one executed chunk's results into the admission's array."""
        self.results[positions] = values
        self._finish_one()

    def chunk_failed(self, error: BaseException) -> None:
        """Record one chunk's batch failure; the slice future will raise it."""
        if self.failure is None:
            self.failure = error
        self._finish_one()

    def _finish_one(self) -> None:
        self.remaining -= 1
        if self.remaining == 0 and not self.future.done():
            if self.failure is not None:
                self.future.set_exception(self.failure)
            else:
                self.future.set_result(self.results)


class OpChunk:
    """A contiguous run of one admission's operations, routed to one shard.

    ``positions`` maps each operation back to its index in the parent
    slice's results array; ``enqueued_at`` is shared by the whole admission
    (one clock read per admission, not per operation).  ``deadline`` is an
    optional absolute ``perf_counter`` bound shared the same way: a chunk
    still waiting in the log past it is rejected at cut time
    (:meth:`MicroBatcher.expire`) instead of executed late.
    """

    __slots__ = (
        "op_codes", "keys", "values", "slice", "positions", "enqueued_at", "deadline",
    )

    def __init__(
        self,
        op_codes: np.ndarray,
        keys: np.ndarray,
        values: Optional[np.ndarray],
        slice_: OpSlice,
        positions: np.ndarray,
        enqueued_at: float,
        deadline: Optional[float] = None,
    ) -> None:
        self.op_codes = op_codes
        self.keys = keys
        self.values = values
        self.slice = slice_
        self.positions = positions
        self.enqueued_at = float(enqueued_at)
        self.deadline = None if deadline is None else float(deadline)
        slice_.remaining += 1

    def __len__(self) -> int:
        return len(self.op_codes)

    def split(self, count: int) -> "OpChunk":
        """Cut the first ``count`` operations off into a new chunk.

        The head keeps the parent slice's accounting (``remaining`` grows by
        one for the new chunk); ``self`` shrinks to the tail.  Pure array
        slicing — no per-operation work.
        """
        head = OpChunk(
            self.op_codes[:count],
            self.keys[:count],
            None if self.values is None else self.values[:count],
            self.slice,
            self.positions[:count],
            self.enqueued_at,
            self.deadline,
        )
        self.op_codes = self.op_codes[count:]
        self.keys = self.keys[count:]
        if self.values is not None:
            self.values = self.values[count:]
        self.positions = self.positions[count:]
        return head


class CutBatch:
    """One cut batch: concatenated arrays plus the chunks to scatter back to."""

    __slots__ = ("chunks", "op_codes", "keys", "values")

    def __init__(self, chunks: List[OpChunk]) -> None:
        self.chunks = chunks
        if len(chunks) == 1:
            only = chunks[0]
            self.op_codes = only.op_codes
            self.keys = only.keys
            self.values = only.values
        else:
            self.op_codes = np.concatenate([chunk.op_codes for chunk in chunks])
            self.keys = np.concatenate([chunk.keys for chunk in chunks])
            values = [chunk.values for chunk in chunks]
            self.values = None if values[0] is None else np.concatenate(values)

    def __len__(self) -> int:
        return len(self.op_codes)

    def spans(self) -> Iterator[Tuple["OpChunk", int, int]]:
        """Yield ``(chunk, start, end)`` positions within the batch arrays."""
        cursor = 0
        for chunk in self.chunks:
            yield chunk, cursor, cursor + len(chunk)
            cursor += len(chunk)

    def complete(self, results: np.ndarray) -> None:
        """Scatter per-operation ``results`` back to every admission slice."""
        for chunk, start, end in self.spans():
            chunk.slice.chunk_done(chunk.positions, results[start:end])

    def fail(self, error: BaseException) -> None:
        """Fail every admission slice with the batch's exception."""
        for chunk in self.chunks:
            chunk.slice.chunk_failed(error)


class MicroBatcher:
    """Append-only chunk log with warp-aligned batch extraction.

    Parameters
    ----------
    max_batch_size:
        Upper bound on the number of operations per extracted batch; rounded
        down to a multiple of the warp size (and at least one warp).
    warp_size:
        Threads per warp of the target engine (32 for the modelled GPU).
    """

    def __init__(self, max_batch_size: int = 1024, *, warp_size: int = WARP_SIZE) -> None:
        if warp_size <= 0:
            raise ValueError(f"warp_size must be positive, got {warp_size}")
        if max_batch_size < warp_size:
            raise ValueError(
                f"max_batch_size ({max_batch_size}) must be at least one warp ({warp_size})"
            )
        self.warp_size = int(warp_size)
        self.max_batch_size = (int(max_batch_size) // self.warp_size) * self.warp_size
        self._log: Deque[OpChunk] = deque()
        self._pending = 0
        #: Totals for :class:`repro.service.ServiceStats`.
        self.ops_enqueued = 0
        self.batches_cut = 0
        #: Operations carried by the cut batches (expired and cleared
        #: operations are never cut).
        self.ops_cut = 0
        #: Batches cut *without* ``force`` — size-triggered cuts, warp-aligned
        #: by construction ("naturally aligned").
        self.aligned_batches = 0
        #: Batches cut *with* ``force`` (a deadline expired or the service is
        #: draining), whatever their size.
        self.forced_batches = 0
        #: The subset of :attr:`forced_batches` whose tail happened to be an
        #: exact warp multiple.  Before this counter existed, such a cut was
        #: indistinguishable from a naturally aligned one, silently inflating
        #: ``aligned_batches`` on deadline-heavy traffic.
        self.forced_aligned_batches = 0
        #: Operations rejected because their per-op deadline expired in the
        #: log (:meth:`expire`) — never executed, failed with
        #: :class:`~repro.service.errors.OpDeadlineExceeded`.
        self.ops_expired = 0

    # ------------------------------------------------------------------ #
    # Logging
    # ------------------------------------------------------------------ #

    def add(self, chunk: OpChunk) -> None:
        """Append one routed chunk (1..N operations) to the log."""
        if len(chunk) == 0:
            chunk.slice.chunk_done(chunk.positions, chunk.op_codes.astype(np.uint32))
            return
        self._log.append(chunk)
        self._pending += len(chunk)
        self.ops_enqueued += len(chunk)

    def __len__(self) -> int:
        return self._pending

    @property
    def full(self) -> bool:
        """True when a maximum-size batch can be cut immediately."""
        return self._pending >= self.max_batch_size

    def oldest_enqueued_at(self) -> Optional[float]:
        """Enqueue time of the head of the log (None when empty)."""
        return self._log[0].enqueued_at if self._log else None

    # ------------------------------------------------------------------ #
    # Rejection paths (deadlines, shutdown, quarantine)
    # ------------------------------------------------------------------ #

    def expire(self, now: float) -> int:
        """Reject every logged chunk whose deadline lies before ``now``.

        Expired chunks are removed whole (a chunk shares one admission's
        deadline) and their slices failed with
        :class:`~repro.service.errors.OpDeadlineExceeded` — rejected at cut
        time, never executed late.  Returns the number of operations
        rejected; 0 on the common all-deadline-free path costs one ``any``
        scan of the log.
        """
        if not any(
            chunk.deadline is not None and chunk.deadline < now for chunk in self._log
        ):
            return 0
        from repro.service.errors import OpDeadlineExceeded

        expired = 0
        kept: Deque[OpChunk] = deque()
        for chunk in self._log:
            if chunk.deadline is not None and chunk.deadline < now:
                expired += len(chunk)
                chunk.slice.chunk_failed(
                    OpDeadlineExceeded(
                        f"deadline passed before the operation was cut "
                        f"({len(chunk)} op(s) waiting)"
                    )
                )
            else:
                kept.append(chunk)
        self._log = kept
        self._pending -= expired
        self.ops_expired += expired
        return expired

    def clear(self, error: BaseException) -> int:
        """Fail every logged chunk with ``error`` and empty the log.

        Used when a lane is quarantined (pending slices fail with a
        retryable :class:`~repro.service.errors.ShardQuarantined`) and on
        shutdown (leftovers fail with
        :class:`~repro.service.errors.ServiceStopped` instead of hanging
        their futures).  Returns the number of operations failed.
        """
        cleared = self._pending
        for chunk in self._log:
            chunk.slice.chunk_failed(error)
        self._log = deque()
        self._pending = 0
        return cleared

    # ------------------------------------------------------------------ #
    # Batch extraction
    # ------------------------------------------------------------------ #

    def take(self, *, force: bool = False) -> Optional[CutBatch]:
        """Cut the next batch from the head of the log.

        Without ``force`` only whole warps are cut (the largest multiple of
        ``warp_size`` available, capped at ``max_batch_size``): fewer than 32
        pending operations yield ``None``, keeping warps full while traffic
        keeps arriving.  With ``force`` (deadline expired, or the service is
        draining) the ragged tail is cut too, up to ``max_batch_size``
        operations.  A chunk straddling the cut is split with array slices —
        the cut never iterates per operation.

        Accounting: an unforced cut counts as *naturally aligned*
        (:attr:`aligned_batches`); a forced cut counts as deadline-forced
        (:attr:`forced_batches`), with :attr:`forced_aligned_batches`
        recording the ones whose tail was coincidentally warp-sized — the
        two triggers are kept distinguishable in the stats.
        """
        count = min(self._pending, self.max_batch_size)
        if not force:
            count = (count // self.warp_size) * self.warp_size
        if count == 0:
            return None
        chunks: List[OpChunk] = []
        needed = count
        while needed > 0:
            head = self._log[0]
            if len(head) <= needed:
                chunks.append(self._log.popleft())
                needed -= len(head)
            else:
                chunks.append(head.split(needed))
                needed = 0
        self._pending -= count
        self.ops_cut += count
        self.batches_cut += 1
        if force:
            self.forced_batches += 1
            if count % self.warp_size == 0:
                self.forced_aligned_batches += 1
        else:
            self.aligned_batches += 1
        return CutBatch(chunks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatcher(pending={self._pending}, max={self.max_batch_size}, "
            f"cut={self.batches_cut})"
        )
