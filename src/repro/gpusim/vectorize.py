"""Array-level helpers for the vectorized bulk-execution backend.

The vectorized backend (:mod:`repro.core.bulk_exec`) replaces the per-warp
generator schedule of unscheduled batches with batched NumPy resolution.  To
keep the device counters *bit-identical* to the sequential reference schedule
it synthesizes every event the generators would have recorded; this module
holds the pieces of that machinery that are pure array manipulation and know
nothing about slabs:

* :class:`CounterTally` — an accumulator mirroring
  :class:`~repro.gpusim.counters.Counters` that collects synthesized event
  totals as plain integers and commits them to the live counters in one step.
* :func:`group_ranks` — the arrival rank of every element within its group,
  the core primitive behind "the r-th new key of bucket b takes the r-th
  free slot".
* :func:`combine_codes` / :func:`first_occurrence` — (bucket, key) group codes
  and first-occurrence resolution in table scan order.
* :func:`phased_order` — the serial execution order of a phased batch
  (the vectorized batch kernel): per warp chunk, one program per operation
  phase present, drained sequentially.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.gpusim.counters import Counters

__all__ = [
    "CounterTally",
    "combine_codes",
    "first_occurrence",
    "group_ranks",
    "phased_order",
    "run_starts",
]


class CounterTally:
    """Synthesized device events, committed to a :class:`Counters` in one step.

    The vectorized backend computes event totals with array arithmetic (sums of
    per-operation iteration counts and so on); accumulating them here instead
    of poking the live counters keeps the synthesis code side-effect free until
    :meth:`commit`.
    """

    __slots__ = ("_events",)

    def __init__(self) -> None:
        self._events = {}

    def add(self, field: str, amount: int) -> None:
        if amount:
            self._events[field] = self._events.get(field, 0) + int(amount)

    def commit(self, counters: Counters) -> None:
        """Add every tallied event to the live device counters."""
        for field, amount in self._events.items():
            setattr(counters, field, getattr(counters, field) + amount)


def combine_codes(buckets: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Pack (bucket, key) pairs into sortable uint64 group codes."""
    return (np.asarray(buckets, dtype=np.uint64) << np.uint64(32)) | np.asarray(
        keys, dtype=np.uint64
    )


def run_starts(sorted_codes: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each run of equal values.

    ``run_starts([3, 3, 7, 7, 7]) == [True, False, True, False, False]``.
    The input must already be sorted (or at least run-grouped).
    """
    starts = np.empty(len(sorted_codes), dtype=bool)
    if len(starts):
        starts[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=starts[1:])
    return starts


def group_ranks(codes: np.ndarray) -> np.ndarray:
    """Arrival rank (0-based) of each element within its equal-code group.

    ``group_ranks([7, 3, 7, 7, 3]) == [0, 0, 1, 2, 1]``.  Ranks follow array
    order, which for a batch of one op type is exactly the serial execution
    order of the reference schedule.
    """
    codes = np.asarray(codes)
    n = len(codes)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    run_start = run_starts(codes[order])
    run_ids = np.cumsum(run_start) - 1
    starts = np.flatnonzero(run_start)
    ranks_sorted = np.arange(n, dtype=np.int64) - starts[run_ids]
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


def phased_order(chunk_ids: np.ndarray, phases: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Serial execution order of a phased mixed-op warp schedule.

    The reference concurrent driver enqueues, per warp chunk, one warp
    program per operation phase present (insert, then delete, then search)
    and ``run_sequential`` drains them in that order; within a program the
    WCWS work queue processes lanes in ascending lane order.  The serial
    execution order of the operations is therefore ``(chunk, phase, lane)``.

    ``chunk_ids[i]`` / ``phases[i]`` give operation ``i``'s warp chunk and
    phase rank (0, 1 or 2; both already in lane order within each chunk).
    Returns ``(order, program_start)``: ``order`` permutes operations into
    serial execution order, and ``program_start[j]`` is True when the
    ``j``-th operation *in serial order* is the first of its (chunk, phase)
    program — i.e. the operation whose program issues the initial
    work-queue ballot.
    """
    programs = np.asarray(chunk_ids, dtype=np.int64) * 3 + np.asarray(phases, dtype=np.int64)
    order = np.argsort(programs, kind="stable")  # stable: lanes stay ascending
    return order, run_starts(programs[order])


def first_occurrence(
    sorted_codes: np.ndarray, query_codes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Locate each query code in a sorted code array.

    Returns ``(found, index)``: ``found[i]`` is True when ``query_codes[i]``
    occurs in ``sorted_codes`` and ``index[i]`` is the position of its first
    occurrence (undefined where not found).
    """
    sorted_codes = np.asarray(sorted_codes)
    query_codes = np.asarray(query_codes)
    idx = np.searchsorted(sorted_codes, query_codes, side="left")
    clipped = np.minimum(idx, max(len(sorted_codes) - 1, 0))
    if len(sorted_codes):
        found = (idx < len(sorted_codes)) & (sorted_codes[clipped] == query_codes)
    else:
        found = np.zeros(len(query_codes), dtype=bool)
    return found, clipped
