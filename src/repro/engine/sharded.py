"""A sharded multi-table engine over independent :class:`SlabHash` shards.

The paper's table lives on one GPU and scales with the SMs of that device.
This engine models the next step: partition the key space across ``N``
independent slab hashes — each with its own simulated
:class:`~repro.gpusim.device.Device` and allocator, standing in for a group
of SMs or a whole extra GPU — and route operation streams between them with a
:class:`~repro.engine.router.ShardRouter`.

Because the hash-partition (and range-partition) policies send *every*
occurrence of a key to the same shard, the relative order of the operations
on any single key is preserved, and every bulk result is **identical** to
running the same stream through one unsharded table
(``tests/engine/test_sharded.py`` asserts this element by element).  A
``concurrent_batch`` is identical too whenever its outcome is
schedule-independent (no conflicting operations on the same key within the
batch); conflicting concurrent operations are resolved by *some* legal
schedule in both settings, but not necessarily the same one, exactly as on
real hardware.  What
changes is the performance model: shards execute concurrently, so the
engine's modelled time for a phase is the *slowest shard's* time rather than
the sum — :meth:`ShardedSlabHash.measure` returns an
:class:`~repro.engine.stats.EngineStats` with both views plus the merged
counters.

The ``reproduce shard-sweep`` experiment
(:func:`repro.perf.figures.shard_sweep`) sweeps the shard count and reports
the resulting scaling efficiency on bulk and mixed concurrent workloads.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import DTypeLike

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy, MigrationStepResult, ResizeResult
from repro.core.slab_hash import SlabHash
from repro.engine.router import ShardRouter
from repro.engine.stats import EngineStats
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import Device, DeviceSpec, TESLA_K40C
from repro.gpusim.scheduler import WarpScheduler

__all__ = ["MigrationInFlightError", "ShardedSlabHash"]

#: Seed offset between the router's hash draw and the shard tables' draws, so
#: shard choice and bucket choice are independent members of the family.
_SHARD_SEED_STRIDE = 101


class MigrationInFlightError(RuntimeError):
    """``rebalance(on_migrating="error")`` refused: migrations are in flight.

    Raised *before any shard is touched*, so a refused rebalance mutates
    nothing.  Pump the listed shards (``maybe_resize`` /
    ``migrate_step_shard``) or call ``rebalance(on_migrating="complete")``
    to have the rebalance finish them itself.
    """

    def __init__(self, shards: Sequence[int]) -> None:
        self.shards = list(shards)
        super().__init__(
            f"rebalance refused: shards {self.shards} have in-flight "
            "incremental migrations; pump them to completion first, or call "
            "rebalance(on_migrating='complete') to have rebalance finish them"
        )


class ShardedSlabHash:
    """N independent slab hashes behind a single key-partitioned front door.

    Parameters
    ----------
    num_shards:
        Number of shards (independent tables/devices).
    buckets_per_shard:
        Bucket count of each shard's slab hash.  With hash routing an
        N-shard engine with ``B`` buckets per shard behaves like one table
        with ``N * B`` buckets.
    policy:
        Routing policy (see :class:`~repro.engine.router.ShardRouter`):
        ``"hash"`` (default), ``"range"``, or ``"round-robin"`` (build-only).
    device_spec:
        Hardware model used for every shard's fresh device.
    key_value / unique_keys / light_alloc / alloc_config:
        Forwarded to each shard's :class:`SlabHash`.
    seed:
        Master seed; the router and each shard draw independent hash
        functions from it.
    backend:
        Execution backend for every shard (``"vectorized"`` or
        ``"reference"``; ``None`` picks the process default).  Shards route
        bulk batches — and unscheduled concurrent sub-batches — through
        their own backend paths, so the engine inherits the backend's speed
        and its counter-exactness guarantee unchanged.
    load_factor_policy:
        Optional :class:`~repro.core.resize.LoadFactorPolicy`, forwarded to
        every shard: each shard tracks its own beta and resizes itself
        independently (automatically after mutating batches when the
        policy's ``auto`` flag is set, or on :meth:`maybe_resize` when
        deferred).  :meth:`rebalance` additionally right-sizes unevenly
        loaded shards directly to the policy's target beta.  (Named to
        avoid clashing with ``policy``, the routing policy.)
    """

    def __init__(
        self,
        num_shards: int,
        buckets_per_shard: int,
        *,
        policy: str = "hash",
        device_spec: DeviceSpec = TESLA_K40C,
        key_value: bool = True,
        unique_keys: bool = True,
        light_alloc: bool = False,
        alloc_config: Optional[SlabAllocConfig] = None,
        seed: int = 0,
        backend: Optional[str] = None,
        load_factor_policy: Optional[LoadFactorPolicy] = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.router = ShardRouter(num_shards, policy=policy, seed=seed)
        self.shards: List[SlabHash] = [
            SlabHash(
                buckets_per_shard,
                device=Device(device_spec),
                key_value=key_value,
                unique_keys=unique_keys,
                light_alloc=light_alloc,
                alloc_config=alloc_config,
                seed=seed + _SHARD_SEED_STRIDE * (shard + 1),
                backend=backend,
                policy=load_factor_policy,
            )
            for shard in range(num_shards)
        ]
        self.cost_model = CostModel(device_spec)
        self._ops_routed = np.zeros(num_shards, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Sizing helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def for_utilization(
        cls,
        num_shards: int,
        num_elements: int,
        utilization: float,
        *,
        key_value: bool = True,
        **kwargs: object,
    ) -> "ShardedSlabHash":
        """Size each shard so the whole engine hits a target memory utilization.

        Hash routing spreads ``num_elements`` keys nearly evenly, so each
        shard is sized for its expected ``num_elements / num_shards`` share
        using the same Fig. 4c relation as the unsharded table.
        """
        share = max(1, math.ceil(num_elements / num_shards))
        buckets = SlabHash.buckets_for_utilization(share, utilization, key_value=key_value)
        return cls(num_shards, buckets, key_value=key_value, **kwargs)

    # ------------------------------------------------------------------ #
    # Routing plumbing
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def num_buckets(self) -> int:
        """Total buckets across all shards."""
        return sum(shard.num_buckets for shard in self.shards)

    @property
    def devices(self) -> List[Device]:
        """Per-shard devices."""
        return [shard.device for shard in self.shards]

    def _require_key_partitioning(self, operation: str) -> None:
        if not self.router.key_partitioning:
            raise ValueError(
                f"{operation} needs a key-partitioning routing policy "
                f"(hash or range); {self.router.policy!r} routes by stream "
                "position, so lookups could land on the wrong shard"
            )

    def _partition(self, keys: np.ndarray) -> List[np.ndarray]:
        parts = self.router.partition(keys)
        for shard, idx in enumerate(parts):
            self._ops_routed[shard] += idx.size
        return parts

    def admit_partition(self, keys: Sequence[int]) -> List[np.ndarray]:
        """Per-shard stream positions for ``keys``, with routing accounting.

        The service layer routes operations to per-shard logs at admission
        time and later executes each shard's batches through the shard's own
        bulk path; this hook gives it the router's partition *and* keeps the
        engine's per-shard operation accounting (used by :meth:`measure`)
        consistent with streams that went through :meth:`concurrent_batch` —
        including the deterministic WAL replay of such batches on recovery.
        """
        self._require_key_partitioning("admit_partition")
        return self._partition(np.asarray(keys, dtype=np.uint64))

    def admit_one(self, key: int) -> int:
        """Shard index for one admitted key (single-op :meth:`admit_partition`)."""
        self._require_key_partitioning("admit_one")
        shard = self.router.shard_of(key)
        self._ops_routed[shard] += 1
        return shard

    # ------------------------------------------------------------------ #
    # Bulk operations (mirror SlabHash's bulk API, shard by shard)
    # ------------------------------------------------------------------ #

    def bulk_build(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> None:
        """Build the engine by dynamically inserting every element (cf. SlabHash)."""
        self.bulk_insert(keys, values)

    def bulk_insert(self, keys: Sequence[int], values: Optional[Sequence[int]] = None) -> None:
        """Route a batch of insertions to their shards and run each sub-batch."""
        keys = np.asarray(keys, dtype=np.uint64)
        vals = None if values is None else np.asarray(values, dtype=np.int64)
        if (
            not self.router.key_partitioning
            and self.shards[0].config.unique_keys
            and np.unique(keys).size != keys.size
        ):
            # Round-robin would deal two occurrences of a key to different
            # shards, silently defeating REPLACE semantics.
            raise ValueError(
                "round-robin routing cannot uphold unique-key (REPLACE) "
                "semantics for batches with repeated keys; use the hash or "
                "range policy, or deduplicate the batch"
            )
        self._per_shard(
            keys,
            lambda shard, idx: self.shards[shard].bulk_insert(
                keys[idx], None if vals is None else vals[idx]
            ),
        )

    def bulk_search(self, queries: Sequence[int]) -> np.ndarray:
        """Search a batch; results are in query order, exactly as SlabHash returns them."""
        self._require_key_partitioning("bulk_search")
        queries = np.asarray(queries, dtype=np.uint64)
        return self._per_shard(
            queries, lambda shard, idx: self.shards[shard].bulk_search(queries[idx])
        )

    def bulk_delete(self, keys: Sequence[int]) -> np.ndarray:
        """Delete a batch; returns per-key removed counts in key order."""
        self._require_key_partitioning("bulk_delete")
        keys = np.asarray(keys, dtype=np.uint64)
        return self._per_shard(
            keys, lambda shard, idx: self.shards[shard].bulk_delete(keys[idx]), dtype=np.int64
        )

    # ------------------------------------------------------------------ #
    # Concurrent mixed batches
    # ------------------------------------------------------------------ #

    def concurrent_batch(
        self,
        op_codes: Sequence[int],
        keys: Sequence[int],
        values: Optional[Sequence[int]] = None,
        *,
        scheduler_seed: Optional[int] = None,
    ) -> np.ndarray:
        """Run a mixed insert/search/delete batch across the shards.

        With ``scheduler_seed`` given, each shard executes its sub-stream
        under its own :class:`~repro.gpusim.scheduler.WarpScheduler` (seeded
        from ``scheduler_seed`` plus the shard index) — shards are
        independent devices, so there is no cross-shard interleaving to
        model.  Without it (the default) every shard drains its sub-stream
        on the deterministic phased schedule, which the vectorized backend
        runs on its concurrent fast path.  Results come back in stream order
        with SlabHash's conventions: found value for searches, 1/0 for
        deletions, 0 for insertions.
        """
        self._require_key_partitioning("concurrent_batch")
        op_codes = np.asarray(op_codes, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.uint64)
        if op_codes.shape != keys.shape:
            raise ValueError("op_codes and keys must have the same length")
        vals = None if values is None else np.asarray(values, dtype=np.int64)

        def run(shard: int, idx: np.ndarray) -> np.ndarray:
            scheduler = None
            if scheduler_seed is not None:
                scheduler = WarpScheduler(seed=scheduler_seed + shard)
            return self.shards[shard].concurrent_batch(
                op_codes[idx], keys[idx], None if vals is None else vals[idx],
                scheduler=scheduler,
            )

        return self._per_shard(keys, run)

    def _per_shard(
        self,
        keys: np.ndarray,
        run: Callable[[int, np.ndarray], Optional[np.ndarray]],
        dtype: DTypeLike = np.uint32,
    ) -> np.ndarray:
        """Call ``run(shard index, positions)`` for each non-empty partition of ``keys``.

        Every position belongs to exactly one shard, so the returned array
        holds each part's results scattered back to stream order.
        """
        results = np.zeros(len(keys), dtype=dtype)
        for shard, idx in enumerate(self._partition(keys)):
            if idx.size:
                part = run(shard, idx)
                if part is not None:
                    results[idx] = part
        return results

    # ------------------------------------------------------------------ #
    # Single-operation convenience API
    # ------------------------------------------------------------------ #

    def insert(self, key: int, value: Optional[int] = None) -> None:
        shard = self.router.shard_of(key)
        self._ops_routed[shard] += 1
        self.shards[shard].insert(key, value)

    def search(self, key: int) -> Optional[int]:
        self._require_key_partitioning("search")
        shard = self.router.shard_of(key)
        self._ops_routed[shard] += 1
        return self.shards[shard].search(key)

    def __contains__(self, key: int) -> bool:
        return self.search(key) is not None

    def delete(self, key: int) -> bool:
        self._require_key_partitioning("delete")
        shard = self.router.shard_of(key)
        self._ops_routed[shard] += 1
        return self.shards[shard].delete(key)

    def search_all(self, key: int) -> List[int]:
        """Every value stored under ``key`` (duplicates mode; cf. SlabHash)."""
        self._require_key_partitioning("search_all")
        shard = self.router.shard_of(key)
        self._ops_routed[shard] += 1
        return self.shards[shard].search_all(key)

    def delete_all(self, key: int) -> int:
        """Delete every occurrence of ``key``; returns the number removed."""
        self._require_key_partitioning("delete_all")
        shard = self.router.shard_of(key)
        self._ops_routed[shard] += 1
        return self.shards[shard].delete_all(key)

    # ------------------------------------------------------------------ #
    # Online resizing and rebalancing
    # ------------------------------------------------------------------ #

    def resize_shard(
        self,
        shard: int,
        num_buckets: int,
        *,
        trigger: str = "manual",
        incremental: bool = False,
        step_buckets: Optional[int] = None,
    ) -> Optional[ResizeResult]:
        """Resize one shard into ``num_buckets`` buckets (items stay put).

        Routing is untouched — a shard resize only changes that shard's
        bucket array — so every key remains reachable and the engine's
        totals (:meth:`__len__`, :meth:`shard_sizes`, :meth:`items`) are
        unchanged by construction.

        With ``incremental=True`` the shard's migration is *begun* rather
        than run to completion: the call returns ``None`` (or a counted
        no-op :class:`ResizeResult` when the shard is already that size)
        and subsequent batches / :meth:`maybe_resize` /
        :meth:`migrate_step_shard` calls advance it a bounded number of
        buckets at a time.  Shards migrate independently — beginning a
        migration on one shard never blocks the others.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range for {self.num_shards} shards")
        if incremental:
            return self.shards[shard].begin_resize(
                num_buckets, trigger=trigger, step_buckets=step_buckets
            )
        return self.shards[shard].resize(num_buckets, trigger=trigger)

    def migrate_step_shard(
        self, shard: int, max_buckets: Optional[int] = None
    ) -> MigrationStepResult:
        """Advance one shard's in-flight migration by at most ``max_buckets``."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range for {self.num_shards} shards")
        return self.shards[shard].migrate_step(max_buckets)

    def migrating_shards(self) -> List[int]:
        """Indices of shards with a migration currently in flight."""
        return [i for i, shard in enumerate(self.shards) if shard.migration is not None]

    def maybe_resize(self) -> List[ResizeResult]:
        """Pump each shard's migration / load-factor policy (see SlabHash).

        Shards are pumped independently: a shard mid-migration advances by
        a bounded number of steps while its neighbours follow their own
        policies, so one shard's long migration never delays another's.
        """
        results: List[ResizeResult] = []
        for shard in self.shards:
            results.extend(shard.maybe_resize())
        return results

    def maybe_resize_shard(self, shard: int) -> List[ResizeResult]:
        """Pump one shard's migration / load-factor policy.

        The per-shard sibling of :meth:`maybe_resize`: the service calls it
        between a shard's batches so one lane's maintenance never touches
        the other shards.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range for {self.num_shards} shards")
        return self.shards[shard].maybe_resize()

    def rebalance(
        self,
        load_factor_policy: Optional[LoadFactorPolicy] = None,
        *,
        on_migrating: str = "complete",
    ) -> List[ResizeResult]:
        """Right-size unevenly loaded shards to the policy's target beta.

        Hash routing keeps shard sizes *nearly* equal, but skew (or a range
        policy over a skewed key space) can leave shards with very different
        betas even when each is individually inside the band.  Rebalancing
        resizes every shard whose bucket count is more than the policy's
        hysteresis away from the target for its current contents.

        Uses ``load_factor_policy`` if given, else each shard's own policy;
        raises when neither exists.  Returns the performed per-shard resizes.

        Incremental policies (``LoadFactorPolicy.incremental``) *begin* a
        per-shard migration instead of rebuilding — each shard migrates
        independently as its own batches and :meth:`maybe_resize` calls pump
        it.

        A shard with a migration already in flight is handled per
        ``on_migrating``: ``"complete"`` (default) pumps that migration to
        completion — appending its :class:`ResizeResult` — and *then*
        retargets the shard from its settled state; ``"error"`` refuses up
        front with :class:`MigrationInFlightError` before touching any
        shard.  Rebalance never retargets from a half-migrated bucket view.

        Failure semantics: shards are independent devices with independent
        allocators, so one shard's failed migration (e.g. allocator
        exhaustion) must not starve the others of maintenance.  A failing
        shard is restored unchanged — ``resize_table``'s strong guarantee
        covers its bucket array, chains and allocator occupancy, and a
        failed incremental step leaves the watermark where it was — the
        remaining shards still get their rebalance attempt, and the first
        error is re-raised afterwards.
        """
        if on_migrating not in ("complete", "error"):
            raise ValueError(
                f"on_migrating must be 'complete' or 'error', got {on_migrating!r}"
            )
        if on_migrating == "error":
            migrating = [
                i for i, shard in enumerate(self.shards) if shard.migration is not None
            ]
            if migrating:
                raise MigrationInFlightError(migrating)
        results: List[ResizeResult] = []
        first_error: Optional[Exception] = None
        for shard in self.shards:
            pol = load_factor_policy or shard.policy
            if pol is None:
                raise ValueError(
                    "rebalance needs a LoadFactorPolicy: pass one, or construct "
                    "the engine with load_factor_policy="
                )
            try:
                while shard.migration is not None:
                    outcome = shard.migrate_step()
                    if outcome.result is not None:
                        results.append(outcome.result)
                target = pol.target_buckets(len(shard), shard.config.elements_per_slab)
                if abs(target - shard.num_buckets) <= pol.hysteresis * shard.num_buckets:
                    continue
                if pol.incremental:
                    performed = shard.begin_resize(
                        target,
                        trigger="rebalance",
                        step_buckets=pol.migration_step_buckets,
                    )
                else:
                    performed = shard.resize(target, trigger="rebalance")
                if performed is not None:
                    results.append(performed)
            except Exception as error:  # noqa: BLE001 - shard restored; try the rest
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return results

    # ------------------------------------------------------------------ #
    # Durable snapshots (see repro.persist)
    # ------------------------------------------------------------------ #

    def save(self, path: str) -> str:
        """Write a snapshot directory (manifest + one file per shard) to ``path``.

        Convenience hook for :func:`repro.persist.save`; restoring yields a
        bit-identical engine (per-shard items, chains, allocator occupancy,
        device counters, router draw and routing accounting).
        """
        from repro.persist.snapshot import save as _save

        return _save(self, path)

    @classmethod
    def load(cls, path: str) -> "ShardedSlabHash":
        """Restore an engine from a snapshot directory written by :meth:`save`."""
        from repro.persist.snapshot import load as _load

        engine = _load(path)
        if not isinstance(engine, cls):
            raise TypeError(f"{path} holds a {type(engine).__name__}, not a {cls.__name__}")
        return engine

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #

    def measure(
        self,
        fn: Callable[[], object],
        *,
        scale_to_ops: Optional[int] = None,
        label: str = "",
    ) -> EngineStats:
        """Run ``fn`` (engine calls) and merge the per-shard events it caused.

        The number of operations each shard handled is taken from the
        router's accounting, so ``fn`` should drive this engine rather than
        the shards directly.  Counterpart of
        :func:`repro.perf.metrics.measure_phase` for multi-device phases.
        Maintenance phases that route no operations (``flush``,
        :meth:`rebalance`, :meth:`maybe_resize`) are measurable too: their
        migration events are merged and priced with ``num_ops == 0``.
        """
        before_counters = [device.snapshot() for device in self.devices]
        before_ops = self._ops_routed.copy()
        fn()
        events = [
            device.counters.diff(snap)
            for device, snap in zip(self.devices, before_counters)
        ]
        ops_per_shard = (self._ops_routed - before_ops).tolist()
        return EngineStats.from_shard_events(
            events,
            ops_per_shard,
            cost_model=self.cost_model,
            scale_to_ops=scale_to_ops,
            label=label,
        )

    # ------------------------------------------------------------------ #
    # Aggregate maintenance and introspection
    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Compact every bucket of every shard and release empty slabs."""
        for shard in self.shards:
            shard.flush()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def shard_sizes(self) -> np.ndarray:
        """Stored element count per shard (load-balance diagnostics)."""
        return np.array([len(shard) for shard in self.shards], dtype=np.int64)

    def used_bytes(self) -> int:
        return sum(shard.used_bytes() for shard in self.shards)

    def memory_utilization(self) -> float:
        """Stored data bytes over total slab bytes, across all shards."""
        stored = sum(
            len(shard) * shard.config.element_bytes for shard in self.shards
        )
        return stored / self.used_bytes()

    def items(self) -> List[Tuple[int, Optional[int]]]:
        """All stored (key, value) pairs, shard by shard."""
        out: List[Tuple[int, Optional[int]]] = []
        for shard in self.shards:
            out.extend(shard.items())
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedSlabHash(shards={self.num_shards}, "
            f"policy={self.router.policy!r}, buckets={self.num_buckets}, "
            f"elements={len(self)})"
        )
