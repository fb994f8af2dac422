"""Analytical cost model: event counts -> modelled execution time.

The paper reports throughput measured on an NVIDIA Tesla K40c.  This
reproduction runs the same algorithms on a software SIMT substrate, so Python
wall-clock time says nothing about GPU performance.  Instead, every benchmark
measures the *events* a real GPU would have to perform — coalesced 128-byte
transactions, scattered sector accesses, 32/64-bit atomics, warp instructions,
shared-memory reads, kernel launches — and this module converts them into
modelled time with a roofline-style model:

``total = launch_overhead + max(memory, atomics, compute) + 0.2 * (sum of the other two)``

The ``max`` term is the classic roofline bound (the device overlaps the three
engines); the 20 % tail accounts for imperfect overlap and dependent accesses.

Calibration
-----------
The device constants in :data:`repro.gpusim.device.TESLA_K40C` were chosen so
that the *headline* paper numbers are approximately reproduced by the counted
event streams of this implementation:

* slab hash bulk search at low load (one 128 B slab read plus ~45 warp
  instructions per query) models out to roughly 0.9–1.0 G queries/s
  (paper: 937 M queries/s);
* slab hash bulk REPLACE at low load (one slab read plus one 64-bit CAS plus
  ~55 warp instructions per insertion) models out to roughly 0.45–0.55 G
  insertions/s (paper: 512 M updates/s);
* SlabAlloc (one 32-bit atomic OR plus a handful of warp instructions per
  allocation) models out to roughly 0.6 G allocations/s (paper: 600 M/s).

Every other reported number (the utilization sweeps, the 65 % cliff, the
incremental-versus-rebuild gap, the Misra comparison, the allocator table) is
*not* calibrated — it follows from the counted events of the respective
algorithm under the same model, which is what preserves the paper's trends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.gpusim.counters import Counters, StatsRecord
from repro.gpusim.device import DeviceSpec, TESLA_K40C

__all__ = ["CostBreakdown", "CostModel"]

#: Fraction of the non-bottleneck engine time that is not hidden by overlap.
OVERLAP_INEFFICIENCY = 0.2

#: Extra serialization charged per failed CAS (fraction of one atomic issue).
CAS_FAILURE_PENALTY = 0.5


@dataclass(frozen=True)
class CostBreakdown(StatsRecord):
    """Modelled time of one measured phase, split by engine."""

    memory_time: float
    atomic_time: float
    compute_time: float
    launch_overhead: float
    total_time: float
    bottleneck: str


class CostModel:
    """Convert :class:`~repro.gpusim.counters.Counters` into modelled time."""

    def __init__(self, spec: DeviceSpec = TESLA_K40C) -> None:
        self.spec = spec

    # ------------------------------------------------------------------ #

    def elapsed(
        self,
        counters: Counters,
        working_set_bytes: Optional[int] = None,
    ) -> CostBreakdown:
        """Modelled execution time of the events in ``counters``.

        Parameters
        ----------
        counters:
            Events of the measured phase (typically from ``Device.phase()``).
        working_set_bytes:
            Size of the randomly accessed working set.  When it fits in the
            device's L2 cache, atomics run at the (much higher) L2 rate; this
            is what makes small cuckoo tables build so fast in Fig. 5a.
        """
        spec = self.spec

        # Memory engine: coalesced bulk traffic plus scattered sector traffic.
        memory_time = counters.coalesced_bytes / spec.effective_bandwidth
        memory_time += counters.uncoalesced_transactions / spec.random_sector_rate

        # Atomic engine.
        in_l2 = working_set_bytes is not None and working_set_bytes <= spec.l2_cache_bytes
        rate32 = spec.atomic32_rate_l2 if in_l2 else spec.atomic32_rate_dram
        rate64 = spec.atomic64_rate_l2 if in_l2 else spec.atomic64_rate_dram
        atomic_time = counters.atomic32 / rate32 + counters.atomic64 / rate64
        atomic_time += CAS_FAILURE_PENALTY * counters.cas_failures / rate32

        # Compute engine: warp-wide instructions plus shared-memory traffic.
        compute_time = counters.total_warp_instructions / spec.warp_instruction_rate
        compute_time += counters.shared_reads / spec.shared_read_rate

        launch_overhead = counters.kernel_launches * spec.kernel_launch_overhead

        engines = {
            "memory": memory_time,
            "atomics": atomic_time,
            "compute": compute_time,
        }
        bottleneck = max(engines, key=engines.get)
        bound = engines[bottleneck]
        tail = OVERLAP_INEFFICIENCY * (sum(engines.values()) - bound)
        total = launch_overhead + bound + tail

        return CostBreakdown(
            memory_time=memory_time,
            atomic_time=atomic_time,
            compute_time=compute_time,
            launch_overhead=launch_overhead,
            total_time=total,
            bottleneck=bottleneck,
        )

    # ------------------------------------------------------------------ #

    def throughput(
        self,
        num_ops: int,
        counters: Counters,
        working_set_bytes: Optional[int] = None,
    ) -> float:
        """Operations per second of modelled time for the measured phase."""
        if num_ops <= 0:
            raise ValueError(f"num_ops must be positive, got {num_ops}")
        breakdown = self.elapsed(counters, working_set_bytes=working_set_bytes)
        if breakdown.total_time <= 0.0:
            raise ValueError("modelled time is zero; no events were recorded")
        return num_ops / breakdown.total_time

    @staticmethod
    def mops(rate_per_second: float) -> float:
        """Convert an ops/s rate to the paper's M ops/s units."""
        return rate_per_second / 1e6
