"""The slab hash: a fully concurrent dynamic hash table for the (simulated) GPU.

This is the paper's primary contribution (Section III-C): a hash table with
chaining whose buckets are slab lists.  A direct-address table of ``B`` base
slabs heads ``B`` independent slab lists; keys are distributed with a simple
universal hash ``h(k; a, b) = ((a*k + b) mod p) mod B``.

:class:`SlabHash` exposes three levels of API:

* **Single-operation convenience** (``insert`` / ``search`` / ``delete`` /
  ``search_all`` / ``delete_all``) — host-style helpers that wrap one
  operation into a one-lane warp; handy for interactive use and tests, not
  meant for throughput.
* **Bulk operations** (``bulk_build`` / ``bulk_insert`` / ``bulk_search`` /
  ``bulk_delete``) — the paper's "static comparison" mode: every thread gets
  one element/query, 32 per warp, and the warps are drained sequentially
  (one legal concurrent schedule).  Used by Figures 4, 5 and 6.
* **Concurrent mixed batches** (``concurrent_batch``) — the paper's truly
  concurrent benchmark (Section VI-C): each thread in a batch gets one
  operation drawn from an operation distribution, all operation types mixed
  within warps, and the warps' procedures are interleaved by a seeded
  scheduler (or drained on the deterministic phased schedule when no
  scheduler is given).  Used by Figure 7.

The two batch levels share one driver: a bulk op is a batch whose
operations share one op code.  Every batch is validated, split by the
migration watermark and scattered back once (``SlabHash._run``), then runs
either on the reference generator schedule or, on the ``"vectorized"``
backend without a scheduler, through
:meth:`BulkExecutor.run <repro.core.bulk_exec.BulkExecutor.run>`, which
picks its kernel by the batch's op mix.

Throughput numbers are obtained by measuring the device counters around a
bulk/concurrent call and applying :class:`repro.gpusim.costmodel.CostModel`;
see :mod:`repro.perf.harness`.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import constants as C
from repro.core.bulk_exec import BACKENDS, BulkExecutor, get_default_backend
from repro.core.config import SlabAllocConfig, SlabConfig
from repro.core.flush import FlushResult, flush_all, flush_bucket
from repro.core.hashing import UniversalHash, is_user_key
from repro.core.resize import (
    LoadFactorPolicy,
    MigrationState,
    MigrationStepResult,
    ResizeResult,
    ResizeStats,
    begin_migration,
    migrate_step as _migrate_table_step,
    resize_table,
)
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_alloc_light import SlabAllocLight
from repro.core.slab_list import SlabListCollection
from repro.gpusim.device import Device
from repro.gpusim.scheduler import WarpScheduler, run_sequential
from repro.gpusim.warp import WARP_SIZE, Warp

__all__ = ["SlabHash"]


class SlabHash:
    """A dynamic, warp-cooperative hash table with chaining over slab lists.

    Parameters
    ----------
    num_buckets:
        Number of buckets B (base slabs).  Performance depends on the implied
        average slab count ``beta = n / (M * B)``; see
        :meth:`buckets_for_utilization` / :meth:`buckets_for_beta`.
    device:
        Simulated device; a fresh Tesla K40c model is created when omitted.
    key_value:
        ``True`` stores 64-bit key-value entries (15 per slab); ``False``
        stores 32-bit keys only (30 per slab).
    unique_keys:
        ``True`` gives REPLACE/DELETE semantics (a key occurs at most once);
        ``False`` gives INSERT/DELETE-first semantics with duplicates allowed.
    light_alloc:
        Use SlabAlloc-light (cheaper address decode, <=4 GB capacity).
    alloc / alloc_config:
        Supply an existing allocator, or a sizing config for a new one.
    seed:
        Seed for the universal hash function draw.
    backend:
        Batch-execution backend: ``"vectorized"`` (default; batched NumPy
        resolution with exact counter synthesis, see
        :mod:`repro.core.bulk_exec`) or ``"reference"`` (the per-warp
        generator schedule).  Covers every batch — the ``bulk_*``
        operations and *unscheduled* ``concurrent_batch`` calls
        (``scheduler=None``, the deterministic phased schedule), with the
        vectorized kernel chosen by the batch's op mix; passing an explicit
        :class:`~repro.gpusim.scheduler.WarpScheduler` always runs the
        reference generators, since seeded interleavings are the whole point
        there.  ``None`` picks the process-wide default
        (:func:`repro.core.bulk_exec.set_default_backend`).
    policy:
        Optional :class:`~repro.core.resize.LoadFactorPolicy`.  With a policy
        whose ``auto`` flag is set (the default), the table consults it after
        every mutating batch and resizes itself back into the target beta
        band; with ``auto=False`` the policy is deferred and only applied
        when :meth:`maybe_resize` is called (e.g. by the service layer
        between micro-batches).  :attr:`resize_stats` accumulates the
        grow/shrink accounting either way.
    """

    def __init__(
        self,
        num_buckets: int,
        *,
        device: Optional[Device] = None,
        key_value: bool = True,
        unique_keys: bool = True,
        light_alloc: bool = False,
        alloc: Optional[SlabAlloc] = None,
        alloc_config: Optional[SlabAllocConfig] = None,
        seed: int = 0,
        backend: Optional[str] = None,
        policy: Optional[LoadFactorPolicy] = None,
    ) -> None:
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        backend = backend or get_default_backend()
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.device = device or Device()
        self.config = SlabConfig(key_value=key_value, unique_keys=unique_keys)
        if alloc is None:
            cfg = alloc_config or SlabAllocConfig()
            alloc = (
                SlabAllocLight(self.device, cfg, seed=seed)
                if light_alloc
                else SlabAlloc(self.device, cfg, seed=seed)
            )
        self.alloc = alloc
        self.lists = SlabListCollection(self.device, alloc, num_buckets, self.config)
        self.hash_fn = UniversalHash(num_buckets, seed=seed)
        self._warp_counter = 0
        self.backend = backend
        self._bulk_exec = BulkExecutor(self)
        self.policy = policy
        self.resize_stats = ResizeStats()
        self._in_resize = False
        #: In-flight incremental resize (``None`` when fully in one array).
        self.migration: Optional[MigrationState] = None

    # ------------------------------------------------------------------ #
    # Bucket sizing helpers (Fig. 4c)
    # ------------------------------------------------------------------ #

    @staticmethod
    def buckets_for_beta(num_elements: int, beta: float, *, key_value: bool = True) -> int:
        """Number of buckets so that ``beta = n / (M * B)`` hits the requested value."""
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        per_slab = C.PAIRS_PER_SLAB if key_value else C.KEYS_PER_SLAB
        return max(1, math.ceil(num_elements / (per_slab * beta)))

    @staticmethod
    def expected_utilization(beta: float, *, key_value: bool = True) -> float:
        """Expected memory utilization at average slab count ``beta`` (Fig. 4c model).

        Buckets receive a Poisson(lambda = beta * M) number of elements; each
        bucket occupies ``max(1, ceil(k / M))`` slabs.  Utilization is stored
        bytes over slab bytes.
        """
        per_slab = C.PAIRS_PER_SLAB if key_value else C.KEYS_PER_SLAB
        element_bytes = 8 if key_value else 4
        lam = beta * per_slab
        if lam <= 0:
            return 0.0
        # E[max(1, ceil(K / M))] for K ~ Poisson(lam), truncated at +10 sigma.
        upper = int(lam + 10 * math.sqrt(lam) + 10)
        expected_slabs = 0.0
        log_lam = math.log(lam)
        for k in range(upper + 1):
            log_p = k * log_lam - lam - math.lgamma(k + 1)
            p = math.exp(log_p)
            expected_slabs += p * max(1, math.ceil(k / per_slab))
        stored = lam * element_bytes
        return stored / (expected_slabs * C.SLAB_BYTES)

    @classmethod
    def buckets_for_utilization(
        cls, num_elements: int, utilization: float, *, key_value: bool = True
    ) -> int:
        """Number of buckets whose expected memory utilization matches the target.

        Inverts the Fig. 4c relation numerically (binary search on beta).
        """
        cfg = SlabConfig(key_value=key_value)
        if not 0.0 < utilization < cfg.max_memory_utilization:
            raise ValueError(
                f"target utilization must be in (0, {cfg.max_memory_utilization:.3f}), "
                f"got {utilization}"
            )
        lo, hi = 1e-3, 64.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if cls.expected_utilization(mid, key_value=key_value) < utilization:
                lo = mid
            else:
                hi = mid
        return cls.buckets_for_beta(num_elements, hi, key_value=key_value)

    # ------------------------------------------------------------------ #
    # Warp plumbing
    # ------------------------------------------------------------------ #

    def _next_warp(self) -> Warp:
        warp = Warp(self._warp_counter, self.device.counters)
        self._warp_counter += 1
        return warp

    def _validate_keys(self, keys: Union[Sequence[int], np.ndarray]) -> np.ndarray:
        # Two-step normalization: value inference first, then a wrap-cast to
        # uint64, so out-of-domain input (e.g. a negative key) reaches the
        # range check below and fails with the domain ValueError instead of
        # a conversion OverflowError.
        inferred = np.asarray(keys)  # repro-lint: disable=np-dtype -- wrap-cast on the next line is the explicit dtype step
        keys = inferred.astype(np.uint64, copy=False)
        if keys.size and int(keys.max()) >= C.MAX_USER_KEY:
            raise ValueError(
                f"keys must be below 0x{C.MAX_USER_KEY:08X} "
                "(the two largest 32-bit values are reserved)"
            )
        return keys.astype(np.uint32)

    def _warp_chunks(self, count: int) -> Iterator[Tuple[int, int]]:
        """Yield (start, end) ranges of at most WARP_SIZE operations."""
        for start in range(0, count, WARP_SIZE):
            yield start, min(start + WARP_SIZE, count)

    @staticmethod
    def _pad_lane_array(values: np.ndarray, start: int, end: int, fill: int) -> np.ndarray:
        lane = np.full(WARP_SIZE, fill, dtype=np.uint32)
        lane[: end - start] = values[start:end]
        return lane

    # ------------------------------------------------------------------ #
    # Migration routing (incremental resize; see repro.core.resize)
    # ------------------------------------------------------------------ #

    @contextlib.contextmanager
    def _routed_to_new(self) -> Iterator[None]:
        """Temporarily execute against the migration's new bucket array.

        Both backends read ``self.lists`` / ``self.hash_fn`` at call time,
        so swapping them routes an entire sub-batch — results, state and
        synthesized counters — to the new array.
        """
        state = self.migration
        saved = (self.lists, self.hash_fn)
        self.lists, self.hash_fn = state.new_lists, state.new_hash
        try:
            yield
        finally:
            self.lists, self.hash_fn = saved

    def _migration_mask(self, keys: np.ndarray) -> np.ndarray:
        """Watermark routing: True where a key's old bucket already migrated.

        A migrated bucket's every occurrence lives in the new array, so each
        operation runs against exactly one array; relative order within each
        routed sub-batch is preserved, which keeps duplicate-key scan-order
        semantics intact mid-migration.
        """
        return self.hash_fn.hash_array(keys) < self.migration.watermark

    def _route_to_new(self, key_arr: np.ndarray) -> bool:
        """Single-key variant of :meth:`_migration_mask` (search_all/delete_all)."""
        if self.migration is None or self._in_resize:
            return False
        return bool(self._migration_mask(key_arr)[0])

    # ------------------------------------------------------------------ #
    # Single-operation convenience API
    # ------------------------------------------------------------------ #

    def insert(self, key: int, value: Optional[int] = None) -> None:
        """Insert one key (and value in key-value mode)."""
        if self.config.key_value and value is None:
            raise ValueError("key-value mode requires a value")
        if not is_user_key(key):
            raise ValueError(f"key 0x{int(key):08X} is outside the storable key domain")
        values = None if not self.config.key_value else np.array([value], dtype=np.uint32)
        self.bulk_insert(np.array([key], dtype=np.uint32), values)

    def search(self, key: int) -> Optional[int]:
        """Return the stored value (or the key itself in key-only mode), or ``None``."""
        result = int(self.bulk_search(np.array([key], dtype=np.uint32))[0])
        return None if result == C.SEARCH_NOT_FOUND else result

    def __contains__(self, key: int) -> bool:
        return self.search(key) is not None

    def delete(self, key: int) -> bool:
        """Delete the least-recent occurrence of ``key``; returns True if one was removed."""
        return bool(self.bulk_delete(np.array([key], dtype=np.uint32))[0])

    def search_all(self, key: int) -> List[int]:
        """Return every value stored under ``key`` (duplicates mode)."""
        key_arr = self._validate_keys([key])
        if self._route_to_new(key_arr):
            with self._routed_to_new():
                return self._search_all_impl(key_arr)
        return self._search_all_impl(key_arr)

    def _search_all_impl(self, key_arr: np.ndarray) -> List[int]:
        buckets = self.hash_fn.hash_array(key_arr)
        warp = self._next_warp()
        is_active = np.zeros(WARP_SIZE, dtype=bool)
        is_active[0] = True
        lane_keys = self._pad_lane_array(key_arr, 0, 1, C.EMPTY_KEY)
        lane_buckets = np.zeros(WARP_SIZE, dtype=np.int64)
        lane_buckets[0] = buckets[0]
        out: List[List[int]] = [[] for _ in range(WARP_SIZE)]
        self.device.launch_kernel()
        run_sequential(
            [self.lists.warp_search_all(warp, is_active, lane_buckets, lane_keys, out)]
        )
        return out[0]

    def delete_all(self, key: int) -> int:
        """Delete every occurrence of ``key``; returns the number removed."""
        key_arr = self._validate_keys([key])
        if self._route_to_new(key_arr):
            with self._routed_to_new():
                removed = self._delete_all_impl(key_arr)
        else:
            removed = self._delete_all_impl(key_arr)
        self._auto_resize()
        return removed

    def _delete_all_impl(self, key_arr: np.ndarray) -> int:
        buckets = self.hash_fn.hash_array(key_arr)
        warp = self._next_warp()
        is_active = np.zeros(WARP_SIZE, dtype=bool)
        is_active[0] = True
        lane_keys = self._pad_lane_array(key_arr, 0, 1, C.EMPTY_KEY)
        lane_buckets = np.zeros(WARP_SIZE, dtype=np.int64)
        lane_buckets[0] = buckets[0]
        out = np.zeros(WARP_SIZE, dtype=np.int64)
        self.device.launch_kernel()
        run_sequential(
            [self.lists.warp_delete_all(warp, is_active, lane_buckets, lane_keys, out)]
        )
        return int(out[0])

    # ------------------------------------------------------------------ #
    # Bulk operations (Figures 4, 5 and 6)
    # ------------------------------------------------------------------ #

    def bulk_build(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> None:
        """Build the table from scratch by dynamically inserting every element.

        In the slab hash there is no difference between a bulk build and
        incremental insertion of a batch (Section VI-A, footnote 3).
        """
        self.bulk_insert(keys, values)

    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> None:
        """Insert a batch: one element per thread, WCWS processing per warp."""
        self._run(C.OP_INSERT, keys, values)
        self._auto_resize()

    def bulk_search(self, queries: Sequence[int]) -> np.ndarray:
        """Search a batch of queries; returns values (or ``SEARCH_NOT_FOUND``)."""
        return self._run(C.OP_SEARCH, queries, None)

    def bulk_delete(self, keys: Sequence[int]) -> np.ndarray:
        """Delete a batch of keys; returns per-key removed counts (0 or 1)."""
        removed = self._run(C.OP_DELETE, keys, None).astype(np.int64)
        self._auto_resize()
        return removed

    # ------------------------------------------------------------------ #
    # Concurrent mixed batches (Figure 7)
    # ------------------------------------------------------------------ #

    def concurrent_batch(
        self,
        op_codes: Sequence[int],
        keys: Sequence[int],
        values: Optional[Sequence[int]] = None,
        *,
        scheduler: Optional[WarpScheduler] = None,
        wave_size: Optional[int] = None,
    ) -> np.ndarray:
        """Execute a batch of mixed operations truly concurrently.

        ``op_codes[i]`` is one of ``OP_INSERT``, ``OP_DELETE``, ``OP_SEARCH``
        (constants in :mod:`repro.core.constants`); operation ``i`` uses
        ``keys[i]`` (and ``values[i]`` for insertions in key-value mode).
        Operations are assigned one per thread exactly as generated, so all
        types can occur within a single warp; each warp runs one procedure per
        operation type present (as in the paper's concurrent benchmark), and
        all procedures of all warps are interleaved by ``scheduler``.

        When ``scheduler`` is ``None`` the warps' procedures are drained
        sequentially (one legal concurrent schedule, deterministic); on the
        ``"vectorized"`` backend that case runs through
        :class:`~repro.core.bulk_exec.BulkExecutor`, with bit-identical
        results, state and counters.  Passing a scheduler always executes the
        reference generators, because interleaving at memory-access
        granularity is exactly what a scheduler is for; ``wave_size`` bounds
        how many warps are concurrently live under a scheduler (it is ignored
        without one).

        Returns an array with, per operation: the found value for searches
        (``SEARCH_NOT_FOUND`` if absent), 1/0 for deletions (removed or not),
        and 0 for insertions.
        """
        results = self._run(op_codes, keys, values, scheduler, wave_size)
        self._auto_resize()
        return results

    def _run(
        self,
        op_codes: Union[int, Sequence[int]],
        keys: Sequence[int],
        values: Optional[Sequence[int]],
        scheduler: Optional[WarpScheduler] = None,
        wave_size: Optional[int] = None,
    ) -> np.ndarray:
        """Validate, route and execute one batch; every batch API ends here.

        ``op_codes`` is one code per operation, or a single code for a
        uniform bulk batch.  During an incremental migration the batch is
        split by the per-bucket watermark: each operation runs against the
        single array its key lives in, relative order within each part is
        preserved (old part first), and results are scattered back to the
        original batch positions.
        """
        keys = self._validate_keys(keys)
        uniform = isinstance(op_codes, int)
        if uniform:
            ops = np.full(len(keys), op_codes, dtype=np.int64)
        else:
            ops = np.asarray(op_codes, dtype=np.int64)
            if ops.shape != keys.shape:
                raise ValueError("op_codes and keys must have the same length")
        # Only a uniform search or delete batch may omit the values array.
        needs_values = not uniform or op_codes == C.OP_INSERT
        vals = None
        if self.config.key_value and (values is not None or needs_values):
            if values is None:
                raise ValueError("key-value mode requires a values array")
            vals = np.asarray(values, dtype=np.uint32)
            if vals.shape != keys.shape:
                raise ValueError("keys and values must have the same length")

        if self.migration is None or self._in_resize:
            return self._execute(ops, keys, vals, scheduler, wave_size)
        mask = self._migration_mask(keys)
        if not mask.any():
            return self._execute(ops, keys, vals, scheduler, wave_size)
        results = np.zeros(len(keys), dtype=np.uint32)
        old = ~mask
        if old.any():
            results[old] = self._execute(
                ops[old], keys[old], None if vals is None else vals[old], scheduler, wave_size
            )
        with self._routed_to_new():
            results[mask] = self._execute(
                ops[mask], keys[mask], None if vals is None else vals[mask], scheduler, wave_size
            )
        return results

    def _execute(
        self,
        op_codes: np.ndarray,
        keys: np.ndarray,
        values: Optional[np.ndarray],
        scheduler: Optional[WarpScheduler],
        wave_size: Optional[int],
    ) -> np.ndarray:
        if scheduler is None and self.backend == "vectorized":
            return self._bulk_exec.run(op_codes, keys, values)
        return self._reference_concurrent_batch(op_codes, keys, values, scheduler, wave_size)

    def _reference_concurrent_batch(
        self,
        op_codes: np.ndarray,
        keys: np.ndarray,
        values: Optional[np.ndarray],
        scheduler: Optional[WarpScheduler],
        wave_size: Optional[int],
    ) -> np.ndarray:
        """The reference driver: the per-warp generator schedule of any batch.

        One kernel launch reserves a warp id per 32-operation chunk; each
        warp runs one program per operation type present (insert, delete,
        search), and ``scheduler`` interleaves all programs (``None`` drains
        them in that order — the bulk mode's sequential schedule).
        """
        buckets = self.hash_fn.hash_array(keys)
        results = np.zeros(len(keys), dtype=np.uint32)
        self.device.launch_kernel()

        programs = []
        collectors = []  # (start, end, lane mask, out_array)
        insert_op = self.lists.warp_replace if self.config.unique_keys else self.lists.warp_insert

        for start, end in self._warp_chunks(len(keys)):
            warp = self._next_warp()
            span = end - start
            lane_ops = np.zeros(WARP_SIZE, dtype=np.int64)
            lane_ops[:span] = op_codes[start:end]
            lane_keys = self._pad_lane_array(keys, start, end, C.EMPTY_KEY)
            lane_buckets = np.zeros(WARP_SIZE, dtype=np.int64)
            lane_buckets[:span] = buckets[start:end]
            lane_values = None
            if values is not None:
                lane_values = self._pad_lane_array(values, start, end, C.EMPTY_VALUE)

            insert_mask = lane_ops == C.OP_INSERT
            delete_mask = lane_ops == C.OP_DELETE
            search_mask = lane_ops == C.OP_SEARCH

            if insert_mask.any():
                programs.append(
                    insert_op(warp, insert_mask, lane_buckets, lane_keys, lane_values)
                )
            if delete_mask.any():
                out_deleted = np.zeros(WARP_SIZE, dtype=np.int64)
                programs.append(
                    self.lists.warp_delete(warp, delete_mask, lane_buckets, lane_keys, out_deleted)
                )
                collectors.append((start, end, delete_mask, out_deleted))
            if search_mask.any():
                out_values = np.full(WARP_SIZE, C.SEARCH_NOT_FOUND, dtype=np.uint32)
                programs.append(
                    self.lists.warp_search(warp, search_mask, lane_buckets, lane_keys, out_values)
                )
                collectors.append((start, end, search_mask, out_values))

        if scheduler is None:
            run_sequential(programs)
        elif wave_size is not None:
            scheduler.run_in_waves(programs, wave_size)
        else:
            scheduler.run(programs)

        for start, end, lane_mask, out in collectors:
            span = end - start
            mask = lane_mask[:span]
            results[start:end][mask] = out[:span][mask].astype(np.uint32)
        return results

    # ------------------------------------------------------------------ #
    # Online resizing (see repro.core.resize)
    # ------------------------------------------------------------------ #

    def resize(self, num_buckets: int, *, trigger: str = "manual") -> ResizeResult:
        """Rebuild the table into ``num_buckets`` buckets, migrating live items.

        Migration runs through the bulk-insertion path of this table's
        backend (so it is charged to the device counters like any other
        kernel), old chained slabs are returned to the allocator, and the
        hash function keeps its ``(a, b)`` draw re-ranged to the new bucket
        count.  Resizing to the current size is a no-op.

        Raises ``RuntimeError`` while an incremental migration is in flight:
        drain it with :meth:`migrate_step` / :meth:`maybe_resize` first.
        """
        if self.migration is not None:
            raise RuntimeError(
                "an incremental migration is in flight; pump it with migrate_step() "
                "or maybe_resize() before a stop-the-world resize"
            )
        return resize_table(self, num_buckets, trigger=trigger)

    def begin_resize(
        self,
        num_buckets: int,
        *,
        trigger: str = "manual",
        step_buckets: Optional[int] = None,
    ) -> Optional[ResizeResult]:
        """Begin an incremental (non-blocking) resize to ``num_buckets``.

        Installs a :class:`~repro.core.resize.MigrationState`; no items move
        until :meth:`migrate_step` (or :meth:`maybe_resize`) pumps the
        migration.  Requesting the current size is a counted no-op, returned
        as a :class:`~repro.core.resize.ResizeResult`; otherwise ``None``.
        """
        return begin_migration(self, num_buckets, trigger=trigger, step_buckets=step_buckets)

    def migrate_step(self, max_buckets: Optional[int] = None) -> MigrationStepResult:
        """Advance the in-flight migration by one bounded band of buckets.

        See :func:`repro.core.resize.migrate_step` for semantics (atomic
        whole-bucket bands, strong exception guarantee, resumability).
        """
        return _migrate_table_step(self, max_buckets)

    def maybe_resize(self, *, max_steps: int = 8) -> List[ResizeResult]:
        """Pump the in-flight migration and/or apply the load-factor policy.

        With a migration in flight, up to ``max_steps`` incremental steps
        are advanced (policy decisions stay suppressed until it completes).
        Otherwise each step asks :meth:`LoadFactorPolicy.decide
        <repro.core.resize.LoadFactorPolicy.decide>` for a bucket count and
        performs that resize — as a stop-the-world rebuild, or, under an
        ``incremental`` policy, by beginning a migration that the remaining
        step budget (and later calls) pumps.  Returns the *completed*
        resizes; ``[]`` when quiescent or when a begun migration has not
        finished yet.
        """
        if self._in_resize:
            return []
        results: List[ResizeResult] = []
        steps = 0
        while steps < max_steps:
            if self.migration is not None:
                outcome = self.migrate_step()
                steps += 1
                if outcome.result is not None:
                    results.append(outcome.result)
                continue
            if self.policy is None:
                break
            decision = self.policy.decide(
                len(self), self.num_buckets, self.config.elements_per_slab
            )
            if decision is None:
                break
            if self.policy.incremental:
                if self.begin_resize(decision, trigger="policy") is not None:
                    break  # counted no-op; nothing to pump
                continue
            results.append(self.resize(decision, trigger="policy"))
            steps += 1
        return results

    def _auto_resize(self) -> None:
        """Post-batch hook: apply an automatic policy, if one is attached.

        With a migration in flight the hook advances at most one step per
        mutating batch, so migration work stays interleaved with — never
        ahead of — the request stream.  The moment that step *completes*
        the migration, the policy takes back control in the same hook, so
        an auto table is policy-quiescent after every batch that is not
        mid-migration (manual migrations can land anywhere; the policy
        reconciles as soon as they finish).
        """
        if self.policy is None or not self.policy.auto or self._in_resize:
            return
        if self.migration is not None:
            if self.migrate_step().result is None:
                return
            # fall through: the migration just finished; let the policy
            # reconcile the (possibly out-of-band) result right away
        if self.policy.incremental:
            self.maybe_resize(max_steps=1)
        else:
            self.maybe_resize()

    # ------------------------------------------------------------------ #
    # Durable snapshots (see repro.persist)
    # ------------------------------------------------------------------ #

    def save(self, path: str) -> str:
        """Write a versioned snapshot of this table to ``path``.

        Convenience hook for :func:`repro.persist.save`; the snapshot is
        host-side work (no device events) and restores bit-identically —
        items, chain structure, allocator occupancy and device counters.
        """
        from repro.persist.snapshot import save as _save

        return _save(self, path)

    @classmethod
    def load(cls, path: str) -> "SlabHash":
        """Restore a table from a snapshot written by :meth:`save`."""
        from repro.persist.snapshot import load as _load

        table = _load(path)
        if not isinstance(table, cls):
            raise TypeError(f"{path} holds a {type(table).__name__}, not a {cls.__name__}")
        return table

    # ------------------------------------------------------------------ #
    # Maintenance and introspection
    # ------------------------------------------------------------------ #

    def flush(self, bucket: Optional[int] = None) -> List[FlushResult]:
        """Compact one bucket (or all buckets) and release empty slabs.

        ``bucket`` addresses the current (old) array; a full flush during an
        incremental migration compacts both live arrays.
        """
        warp = self._next_warp()
        if bucket is not None:
            self.device.launch_kernel()
            return [flush_bucket(self.lists, warp, bucket)]
        results = flush_all(self.lists, warp)
        if self.migration is not None:
            results += flush_all(self.migration.new_lists, self._next_warp())
        return results

    @property
    def num_buckets(self) -> int:
        """Bucket count of the current (old, during a migration) array."""
        return self.lists.num_lists

    def __len__(self) -> int:
        """Number of stored elements (host-side scan, not performance-counted).

        During an incremental migration this spans both live arrays.
        """
        count = self.lists.live_item_count()
        if self.migration is not None:
            count += self.migration.new_lists.live_item_count()
        return count

    def beta(self) -> float:
        """Average slab count ``beta = n / (M * B)`` for the current contents."""
        return len(self) / (self.config.elements_per_slab * self.num_buckets)

    def total_slabs(self) -> int:
        """Base slabs plus allocated slabs currently used by the table.

        Spans both live arrays during an incremental migration.
        """
        total = self.lists.total_slabs()
        if self.migration is not None:
            total += self.migration.new_lists.total_slabs()
        return total

    def used_bytes(self) -> int:
        """Total memory occupied by the table (all slabs, 128 bytes each)."""
        return self.total_slabs() * C.SLAB_BYTES

    def memory_utilization(self) -> float:
        """Stored data bytes over total used memory (the paper's utilization metric)."""
        stored = len(self) * self.config.element_bytes
        return stored / self.used_bytes()

    def bucket_slab_counts(self) -> np.ndarray:
        """Per-bucket slab counts of the current (old) array."""
        return self.lists.slab_counts()

    def items(self) -> List[Tuple[int, Optional[int]]]:
        """All stored (key, value) pairs (value ``None`` in key-only mode).

        During an incremental migration, old-array items first (buckets at
        or above the watermark), then new-array items.
        """
        items = self.lists.all_live_items()
        if self.migration is not None:
            items += self.migration.new_lists.all_live_items()
        return items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "key-value" if self.config.key_value else "key-only"
        return (
            f"SlabHash(buckets={self.num_buckets}, {mode}, "
            f"unique={self.config.unique_keys}, elements={len(self)})"
        )
