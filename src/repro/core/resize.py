"""Online table resizing and adaptive load-factor management (beyond the paper).

The paper's table is constructed with a fixed number of buckets ``B``; its
performance is governed by the average slab count ``beta = n / (M * B)``
(Fig. 4c trades memory utilization against throughput through exactly this
quantity).  Under churny workloads — sustained insert phases followed by
sustained delete phases — a fixed-``B`` table drifts away from any target
beta: chains lengthen as elements pile up, and (in unique-keys mode)
tombstones accumulate, so every later traversal pays for history.

This module adds the missing recourse:

* :func:`resize_table` rebuilds a live :class:`~repro.core.slab_hash.SlabHash`
  into a new bucket array of any size.  Live elements are migrated through
  the table's regular bulk-insertion path — on either execution backend —
  so the migration's device events (slab reads, CAS traffic, allocations,
  resident-block churn) are charged to the device counters and priced by the
  cost model exactly like any other kernel, and the old chained slabs are
  returned to SlabAlloc afterwards.  Multi-value (duplicate-key) contents
  are migrated in bucket scan order, which preserves the relative order that
  ``search_all`` / ``delete`` / ``delete_all`` observe.
* :class:`LoadFactorPolicy` is the adaptive controller: a target beta band
  with geometric growth/shrink factors and a hysteresis dead-zone.  Tables
  constructed with a policy consult it after every mutating batch
  (``bulk_insert`` / ``bulk_delete`` / ``concurrent_batch`` / ``delete_all``)
  and resize themselves back into the band; a *deferred* policy
  (``auto=False``) leaves the trigger to a coordinator such as
  :class:`~repro.service.service.SlabHashService`, which resizes between
  micro-batches so no individual request's latency absorbs a migration.
* :class:`ResizeStats` accumulates per-table resize accounting (grow/shrink
  counts, migrated items, released slabs, modelled seconds) — the coverage
  hooks the property-based differential harness asserts against.

Exception safety: if SlabAlloc is exhausted mid-migration, the partially
filled new bucket array is torn down (its slabs deallocated), the old bucket
array and hash function are restored unchanged, and the allocation error
propagates — a failed resize never corrupts the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.core.slab_hash import SlabHash

import numpy as np

from repro.core import constants as C
from repro.core.bulk_exec import gather_band
from repro.core.slab_list import SlabListCollection
from repro.gpusim.costmodel import CostModel
from repro.gpusim.counters import Counters, StatsRecord

__all__ = [
    "LoadFactorPolicy",
    "MigrationState",
    "MigrationStepResult",
    "ResizeResult",
    "ResizeStats",
    "begin_migration",
    "migrate_step",
    "resize_table",
]


@dataclass(frozen=True)
class LoadFactorPolicy:
    """An adaptive target band for the average slab count ``beta = n / (M * B)``.

    Parameters
    ----------
    beta_low / beta_high:
        The acceptable band.  A mutating batch that leaves beta above
        ``beta_high`` triggers a grow; below ``beta_low``, a shrink.
    target_beta:
        Where a triggered resize aims: the new bucket count is (at least)
        ``ceil(n / (M * target_beta))``.  Must lie inside the band.
    grow_factor:
        Minimum multiplicative bucket-count step when growing.  Geometric
        growth keeps the amortized migration cost per inserted element
        constant under a sustained insert stream.  The constraint
        ``beta_high / grow_factor >= beta_low`` guarantees a grow step never
        overshoots straight through the band into a shrink trigger.
    shrink_factor:
        Maximum multiplicative step when shrinking (``0.5`` halves the
        buckets per step).  ``beta_low / shrink_factor <= beta_high``
        guarantees the symmetric no-thrash property.
    hysteresis:
        Relative dead-zone: a decision whose bucket count differs from the
        current one by at most ``hysteresis * B`` is suppressed (resize
        no-op), so borderline batches do not cause rebuild storms.
    min_buckets:
        Hard floor on the bucket count (shrinks never go below it).
    auto:
        ``True`` (default): tables holding this policy resize themselves
        immediately after each mutating batch.  ``False``: the policy is
        *deferred* — nothing happens until someone calls
        :meth:`~repro.core.slab_hash.SlabHash.maybe_resize`, which is how
        the service layer schedules migrations between micro-batches.
    incremental:
        ``False`` (default): a triggered resize is a stop-the-world rebuild
        (:func:`resize_table`).  ``True``: a triggered resize only *begins*
        an incremental migration (:func:`begin_migration`) in which the old
        and new bucket arrays are both live; subsequent pump calls
        (:meth:`~repro.core.slab_hash.SlabHash.maybe_resize` /
        :meth:`~repro.core.slab_hash.SlabHash.migrate_step`) move a bounded
        band of buckets each, so no single batch's latency absorbs a full
        rebuild.
    migration_step_buckets:
        How many buckets one incremental migration step moves (the bounded
        unit of work interleaved between batches).
    """

    beta_low: float = 0.25
    beta_high: float = 1.0
    target_beta: float = 0.6
    grow_factor: float = 2.0
    shrink_factor: float = 0.5
    hysteresis: float = 0.1
    min_buckets: int = 1
    auto: bool = True
    incremental: bool = False
    migration_step_buckets: int = 8

    def __post_init__(self) -> None:
        if self.migration_step_buckets < 1:
            raise ValueError(
                f"migration_step_buckets must be at least 1, got {self.migration_step_buckets}"
            )
        if not 0.0 < self.beta_low < self.target_beta < self.beta_high:
            raise ValueError(
                "policy needs 0 < beta_low < target_beta < beta_high, got "
                f"low={self.beta_low}, target={self.target_beta}, high={self.beta_high}"
            )
        if self.grow_factor <= 1.0:
            raise ValueError(f"grow_factor must exceed 1, got {self.grow_factor}")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError(f"shrink_factor must be in (0, 1), got {self.shrink_factor}")
        if self.hysteresis < 0.0:
            raise ValueError(f"hysteresis must be non-negative, got {self.hysteresis}")
        if self.min_buckets < 1:
            raise ValueError(f"min_buckets must be at least 1, got {self.min_buckets}")
        if self.beta_high / self.grow_factor < self.beta_low:
            raise ValueError(
                "beta_high / grow_factor must stay >= beta_low, or a grow step "
                "could overshoot the band and trigger an immediate shrink"
            )
        if self.beta_low / self.shrink_factor > self.beta_high:
            raise ValueError(
                "beta_low / shrink_factor must stay <= beta_high, or a shrink step "
                "could overshoot the band and trigger an immediate grow"
            )

    def beta(self, num_elements: int, num_buckets: int, elements_per_slab: int) -> float:
        """The average slab count of a table with the given occupancy."""
        return num_elements / (elements_per_slab * num_buckets)

    def target_buckets(self, num_elements: int, elements_per_slab: int) -> int:
        """Bucket count that puts ``num_elements`` at the target beta."""
        return max(self.min_buckets, math.ceil(num_elements / (elements_per_slab * self.target_beta)))

    def decide(
        self, num_elements: int, num_buckets: int, elements_per_slab: int
    ) -> Optional[int]:
        """The bucket count a table in this state should resize to, or ``None``.

        ``None`` means the table is quiescent under this policy: beta is in
        the band, the bucket floor was reached, or the indicated change falls
        inside the hysteresis dead-zone.
        """
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        beta = self.beta(num_elements, num_buckets, elements_per_slab)
        target = self.target_buckets(num_elements, elements_per_slab)
        if beta > self.beta_high:
            candidate = max(target, math.ceil(num_buckets * self.grow_factor))
        elif beta < self.beta_low and num_buckets > self.min_buckets:
            candidate = max(target, int(num_buckets * self.shrink_factor), self.min_buckets)
            candidate = min(candidate, num_buckets)  # a shrink trigger never grows
        else:
            return None
        if candidate == num_buckets:
            return None
        if abs(candidate - num_buckets) <= self.hysteresis * num_buckets:
            return None
        return candidate

    def deferred(self) -> "LoadFactorPolicy":
        """A copy of this policy with automatic (post-batch) triggering off."""
        return replace(self, auto=False)


@dataclass(frozen=True)
class ResizeResult:
    """Outcome and accounting of one (possibly no-op) resize."""

    old_buckets: int
    new_buckets: int
    direction: str  #: ``"grow"``, ``"shrink"`` or ``"noop"``
    trigger: str  #: ``"manual"``, ``"policy"`` or ``"rebalance"``
    migrated: int  #: live elements moved into the new bucket array
    released_slabs: int  #: old chained slabs returned to SlabAlloc
    beta_before: float
    beta_after: float
    counters: Counters  #: device events charged by the migration
    seconds: float  #: modelled device time of the migration

    @property
    def changed(self) -> bool:
        return self.direction != "noop"


@dataclass
class ResizeStats(StatsRecord):
    """Accumulated resize accounting of one table (coverage hooks for tests)."""

    resizes: int = 0
    grows: int = 0
    shrinks: int = 0
    noops: int = 0
    migrated_items: int = 0
    released_slabs: int = 0
    modelled_seconds: float = 0.0
    migration_steps: int = 0
    migration_buckets: int = 0
    migration_items: int = 0
    history: List[ResizeResult] = field(default_factory=list, metadata={"as_dict": False})

    def note_step(self, *, buckets: int, items: int) -> None:
        """Record one incremental migration step (a band of buckets moved)."""
        self.migration_steps += 1
        self.migration_buckets += buckets
        self.migration_items += items

    def note(self, result: ResizeResult) -> None:
        """Record one resize outcome."""
        self.history.append(result)
        if result.direction == "noop":
            self.noops += 1
            return
        self.resizes += 1
        if result.direction == "grow":
            self.grows += 1
        else:
            self.shrinks += 1
        self.migrated_items += result.migrated
        self.released_slabs += result.released_slabs
        self.modelled_seconds += result.seconds


def _chained_addresses(
    lists: SlabListCollection, buckets: Optional[np.ndarray] = None
) -> np.ndarray:
    """Addresses of the allocated (non-base) slabs in ``lists``.

    Restricted to ``buckets`` (sorted, unique) when given; ordered by bucket,
    then by chain depth.
    """
    addresses = lists.chain_table(buckets).addresses
    return addresses[addresses != C.BASE_SLAB]


def resize_table(table: SlabHash, num_buckets: int, *, trigger: str = "manual") -> ResizeResult:
    """Rebuild ``table`` into a bucket array of ``num_buckets`` base slabs.

    The migration runs through the table's own bulk-insertion path (so it
    executes — and is counted — on whichever backend the table uses), the old
    chained slabs are returned to the allocator, and the hash function keeps
    its universal-family draw ``(a, b)`` re-ranged to the new bucket count,
    exactly what a fresh table built with the same seed would use.

    Returns a :class:`ResizeResult`; requesting the current bucket count is a
    counted no-op (``direction="noop"``) with no device work.
    """
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    old_buckets = table.num_buckets
    beta_before = table.beta()
    if num_buckets == old_buckets:
        result = ResizeResult(
            old_buckets=old_buckets,
            new_buckets=old_buckets,
            direction="noop",
            trigger=trigger,
            migrated=0,
            released_slabs=0,
            beta_before=beta_before,
            beta_after=beta_before,
            counters=Counters(),
            seconds=0.0,
        )
        table.resize_stats.note(result)
        return result

    device = table.device
    before = device.snapshot()

    # Host-side snapshot of the live contents, in bucket scan order (the
    # order delete/search_all traverse, so duplicate-key semantics survive).
    old_lists = table.lists
    keys, values = gather_band(old_lists, 0, old_lists.num_lists)
    old_hash = table.hash_fn
    old_chained = _chained_addresses(old_lists)

    table.lists = SlabListCollection(device, table.alloc, num_buckets, table.config)
    table.hash_fn = old_hash.rebucket(num_buckets)

    was_in_resize = table._in_resize
    table._in_resize = True
    try:
        if len(keys):
            table.bulk_insert(keys, values)
    except Exception:
        # Strong guarantee: tear the partial new array down, restore the old.
        warp = table._next_warp()
        for address in _chained_addresses(table.lists):
            table.alloc.deallocate(warp, int(address))
        table.lists = old_lists
        table.hash_fn = old_hash
        raise
    finally:
        table._in_resize = was_in_resize

    if old_chained.size:
        warp = table._next_warp()
        for address in old_chained:
            table.alloc.deallocate(warp, int(address))

    counters = device.counters.diff(before)
    result = ResizeResult(
        old_buckets=old_buckets,
        new_buckets=num_buckets,
        direction="grow" if num_buckets > old_buckets else "shrink",
        trigger=trigger,
        migrated=len(keys),
        released_slabs=int(old_chained.size),
        beta_before=beta_before,
        beta_after=table.beta(),
        counters=counters,
        seconds=CostModel(device.spec).elapsed(counters).total_time,
    )
    table.resize_stats.note(result)
    return result


@dataclass
class MigrationState:
    """An in-flight incremental resize: old and new bucket arrays both live.

    Buckets of the old array are migrated whole, in scan order, a bounded
    band per :func:`migrate_step`.  :attr:`watermark` is the routing rule:
    a key whose *old* bucket is below the watermark lives (and is operated
    on) entirely in the new array; at or above it, entirely in the old one.
    Because every occurrence of a key shares one old bucket, each key lives
    in exactly one array at any instant — duplicate-key scan order and
    REPLACE/DELETE semantics are preserved mid-migration.

    The table's ``lists`` / ``hash_fn`` keep pointing at the *old* array
    until the final step completes, at which point they are swapped to
    :attr:`new_lists` / :attr:`new_hash` and the state is retired into a
    :class:`ResizeResult`.
    """

    new_lists: SlabListCollection
    new_hash: object  #: :class:`~repro.core.hashing.UniversalHash` re-ranged to the target
    old_buckets: int
    target_buckets: int
    trigger: str
    step_buckets: int
    beta_before: float
    watermark: int = 0
    steps: int = 0
    items_moved: int = 0
    released_slabs: int = 0
    counters: Counters = field(default_factory=Counters)
    seconds: float = 0.0

    @property
    def direction(self) -> str:
        return "grow" if self.target_buckets > self.old_buckets else "shrink"

    @property
    def remaining_buckets(self) -> int:
        return self.old_buckets - self.watermark

    @property
    def done(self) -> bool:
        return self.watermark >= self.old_buckets


@dataclass(frozen=True)
class MigrationStepResult:
    """Outcome and accounting of one bounded incremental migration step."""

    buckets_moved: int  #: old buckets whose contents moved this step
    items_moved: int  #: live elements moved this step
    watermark: int  #: routing watermark after the step
    done: bool  #: ``True`` when this step completed the migration
    released_slabs: int  #: old chained slabs returned to SlabAlloc this step
    counters: Counters  #: device events charged by this step
    seconds: float  #: modelled device time of this step
    result: Optional[ResizeResult] = None  #: the whole migration, when ``done``


def begin_migration(
    table: SlabHash, num_buckets: int, *, trigger: str = "manual", step_buckets: Optional[int] = None
) -> Optional[ResizeResult]:
    """Begin an incremental resize of ``table`` to ``num_buckets`` buckets.

    Allocates the new (empty) bucket array and re-ranges the hash function's
    ``(a, b)`` draw — both host-side, no device events — and installs a
    :class:`MigrationState` at watermark 0.  No items move until
    :func:`migrate_step` is called; requesting the current bucket count is a
    counted no-op that starts nothing (the returned :class:`ResizeResult`
    says so); otherwise returns ``None``.
    """
    if table.migration is not None:
        raise RuntimeError("a migration is already in flight; drain it first")
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    old_buckets = table.num_buckets
    beta_before = table.beta()
    if num_buckets == old_buckets:
        result = ResizeResult(
            old_buckets=old_buckets,
            new_buckets=old_buckets,
            direction="noop",
            trigger=trigger,
            migrated=0,
            released_slabs=0,
            beta_before=beta_before,
            beta_after=beta_before,
            counters=Counters(),
            seconds=0.0,
        )
        table.resize_stats.note(result)
        return result
    if step_buckets is None:
        policy = table.policy
        step_buckets = policy.migration_step_buckets if policy is not None else 8
    if step_buckets < 1:
        raise ValueError(f"step_buckets must be at least 1, got {step_buckets}")
    table.migration = MigrationState(
        new_lists=SlabListCollection(table.device, table.alloc, num_buckets, table.config),
        new_hash=table.hash_fn.rebucket(num_buckets),
        old_buckets=old_buckets,
        target_buckets=num_buckets,
        trigger=trigger,
        step_buckets=int(step_buckets),
        beta_before=beta_before,
    )
    return None


def migrate_step(table: SlabHash, max_buckets: Optional[int] = None) -> MigrationStepResult:
    """Move the next band of old buckets into the new array, whole and atomically.

    The band's live contents are gathered host-side in scan order (with
    :func:`~repro.core.bulk_exec.gather_band`, on either backend) and
    re-inserted through the table's own bulk path against the *new* array,
    so the step's device events are charged and priced like any other
    kernel.  On success the band's old chained slabs
    go back to SlabAlloc, the old base slabs are cleared, and the watermark
    advances — the step is the atomic unit of migration progress.

    Exception safety mirrors :func:`resize_table`: if the bulk insert fails
    mid-band (e.g. allocator exhaustion, injected fault), every band key
    that reached the new array is deleted again — band keys cannot
    pre-exist there, since their writes routed to the old array — the
    watermark stays put, and the error propagates.  Both arrays stay
    consistent and the migration remains resumable.
    """
    state = table.migration
    if state is None:
        raise RuntimeError("no migration in flight; call begin_migration first")
    faults = getattr(table.alloc, "faults", None)
    if faults is not None:
        faults.check("migration.step")
    step = int(state.step_buckets if max_buckets is None else max_buckets)
    if step < 1:
        raise ValueError(f"max_buckets must be at least 1, got {step}")
    lo = state.watermark
    hi = min(lo + step, state.old_buckets)

    device = table.device
    before = device.snapshot()
    old_lists = table.lists
    old_hash = table.hash_fn
    keys, values = gather_band(old_lists, lo, hi)

    was_in_resize = table._in_resize
    table._in_resize = True
    table.lists = state.new_lists
    table.hash_fn = state.new_hash
    try:
        if len(keys):
            table.bulk_insert(keys, values)
    except Exception:
        # Roll the partial band back: delete every occurrence that made it
        # into the new array (extra deletes of never-inserted occurrences
        # traverse and miss, which is charged but harmless and deterministic).
        if len(keys):
            table.bulk_delete(keys)
        raise
    finally:
        table.lists = old_lists
        table.hash_fn = old_hash
        table._in_resize = was_in_resize

    band_chained = _chained_addresses(old_lists, np.arange(lo, hi, dtype=np.int64))
    if band_chained.size:
        warp = table._next_warp()
        for address in band_chained.tolist():
            table.alloc.deallocate(warp, address)
    old_lists.base_slabs[lo:hi] = C.EMPTY_KEY

    state.watermark = hi
    state.steps += 1
    state.items_moved += len(keys)
    state.released_slabs += len(band_chained)
    delta = device.counters.diff(before)
    seconds = CostModel(device.spec).elapsed(delta).total_time
    state.counters += delta
    state.seconds += seconds
    table.resize_stats.note_step(buckets=hi - lo, items=len(keys))

    result: Optional[ResizeResult] = None
    done = state.done
    if done:
        table.lists = state.new_lists
        table.hash_fn = state.new_hash
        table.migration = None
        result = ResizeResult(
            old_buckets=state.old_buckets,
            new_buckets=state.target_buckets,
            direction=state.direction,
            trigger=state.trigger,
            migrated=state.items_moved,
            released_slabs=state.released_slabs,
            beta_before=state.beta_before,
            beta_after=table.beta(),
            counters=state.counters,
            seconds=state.seconds,
        )
        table.resize_stats.note(result)
    return MigrationStepResult(
        buckets_moved=hi - lo,
        items_moved=len(keys),
        watermark=hi,
        done=done,
        released_slabs=len(band_chained),
        counters=delta,
        seconds=seconds,
        result=result,
    )
