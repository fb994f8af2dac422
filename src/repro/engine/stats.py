"""Aggregated measurements for the sharded engine.

Each shard owns its own :class:`~repro.gpusim.device.Device`, so a sharded
phase produces one :class:`~repro.gpusim.counters.Counters` stream per shard.
:class:`EngineStats` merges them into the quantities the shard-sweep
experiment reports:

* the **aggregate** counters (elementwise sum over shards) — total device
  work, used for sanity checks and per-op profiles;
* **parallel time** — the shards model independent SMs/GPUs, so the engine's
  modelled wall time is the *maximum* of the per-shard modelled times;
* **serial time** — the sum of per-shard times, i.e. what one device running
  the shards back to back would take; ``parallel_speedup`` is their ratio;
* **load imbalance** — max over mean operations per shard; a perfectly
  balanced split gives 1.0.

Throughput follows the same *simulate small, model at paper scale*
methodology as :func:`repro.perf.metrics.measure_phase`: per-shard event
counts are scaled by a common factor before pricing, so relative shard loads
(and therefore the parallel/serial ratio) are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.gpusim.costmodel import CostModel
from repro.gpusim.counters import Counters, scale_counters

__all__ = ["ShardPhase", "EngineStats", "merge_counters"]


def merge_counters(counters: Sequence[Counters]) -> Counters:
    """Elementwise sum of several shard counter snapshots."""
    total = Counters()
    for c in counters:
        total += c
    return total


@dataclass(frozen=True)
class ShardPhase:
    """One shard's share of a measured phase."""

    shard: int
    num_ops: int
    counters: Counters
    seconds: float


@dataclass(frozen=True)
class EngineStats:
    """Merged per-shard measurements of one engine phase."""

    label: str
    num_ops: int
    shards: List[ShardPhase] = field(default_factory=list)

    @classmethod
    def from_shard_events(
        cls,
        events: Sequence[Counters],
        ops_per_shard: Sequence[int],
        *,
        cost_model: CostModel,
        scale_to_ops: Optional[int] = None,
        label: str = "",
    ) -> "EngineStats":
        """Price each shard's events and assemble the merged statistics.

        Parameters
        ----------
        events / ops_per_shard:
            Per-shard counter deltas and the number of logical operations each
            shard handled (aligned by shard index).
        scale_to_ops:
            If given, every shard's counts are scaled by the common factor
            ``scale_to_ops / sum(ops_per_shard)`` before pricing (the
            paper-scale extrapolation).

        A phase that routed no operations is allowed (``num_ops=0``): a pure
        maintenance phase such as :meth:`~repro.engine.sharded.ShardedSlabHash.rebalance`
        still produces device events (the migrations), which are merged and
        priced normally; throughput reports 0 and the load imbalance 1.0.
        Such a phase cannot be scaled to a paper-size operation count.
        """
        if len(events) != len(ops_per_shard):
            raise ValueError("events and ops_per_shard must have one entry per shard")
        total_ops = int(sum(ops_per_shard))
        factor = 1.0
        reported_ops = total_ops
        if scale_to_ops is not None and scale_to_ops != total_ops:
            if total_ops <= 0:
                raise ValueError(
                    "cannot scale a phase that performed no operations to a "
                    "target operation count"
                )
            factor = scale_to_ops / total_ops
            reported_ops = scale_to_ops
        phases = []
        for shard, (counters, ops) in enumerate(zip(events, ops_per_shard)):
            scaled = scale_counters(counters, factor) if factor != 1.0 else counters
            seconds = cost_model.elapsed(scaled).total_time
            phases.append(
                ShardPhase(
                    shard=shard,
                    num_ops=int(round(ops * factor)),
                    counters=scaled,
                    seconds=seconds,
                )
            )
        return cls(label=label, num_ops=reported_ops, shards=phases)

    # ------------------------------------------------------------------ #
    # Merged quantities
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def aggregate(self) -> Counters:
        """Total device work: elementwise sum of the per-shard counters."""
        return merge_counters([p.counters for p in self.shards])

    @property
    def parallel_seconds(self) -> float:
        """Modelled engine wall time: shards run concurrently, so the max."""
        return max(p.seconds for p in self.shards)

    @property
    def serial_seconds(self) -> float:
        """Modelled time if one device ran every shard back to back."""
        return sum(p.seconds for p in self.shards)

    @property
    def parallel_speedup(self) -> float:
        """Serial over parallel time — the payoff of the extra hardware."""
        return self.serial_seconds / self.parallel_seconds

    @property
    def throughput(self) -> float:
        """Operations per second of modelled parallel time.

        A zero-operation maintenance phase reports 0 even when it also
        produced no device events (e.g. measuring an already-quiescent
        ``maybe_resize``), never ``inf``.
        """
        if self.num_ops == 0:
            return 0.0
        seconds = self.parallel_seconds
        return self.num_ops / seconds if seconds > 0 else float("inf")

    @property
    def mops(self) -> float:
        """Throughput in the paper's M ops/s units."""
        return self.throughput / 1e6

    @property
    def load_imbalance(self) -> float:
        """Max over mean operations per shard (1.0 = perfectly balanced)."""
        busiest = max(p.num_ops for p in self.shards)
        return busiest * self.num_shards / self.num_ops if self.num_ops else 1.0

    def per_op(self, field_name: str) -> float:
        """Average count of one aggregate counter event per operation."""
        if self.num_ops == 0:
            raise ValueError("per_op is undefined for a zero-operation (maintenance) phase")
        return getattr(self.aggregate, field_name) / self.num_ops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EngineStats({self.label!r}, shards={self.num_shards}, "
            f"ops={self.num_ops}, mops={self.mops:.1f}, "
            f"speedup={self.parallel_speedup:.2f})"
        )
