"""Per-operation latency accounting: percentile reports for the service layer.

The request-service layer (:mod:`repro.service`) trades latency for
throughput: operations wait in a micro-batch so the engine can run them as
one warp-aligned concurrent batch.  This module provides the measurement
side of that trade-off — a lightweight recorder for per-operation latency
samples and a frozen percentile report — so the service (and the
``benchmarks/bench_service_latency.py`` benchmark) can quote p50/p90/p99
next to throughput, the way a serving system would.

Latencies here are *host wall-clock* seconds (enqueue to completion), which
is what a client of the simulation-backed service actually waits; the
modelled device time of each executed batch is reported separately by
:class:`repro.service.ServiceStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

__all__ = ["LatencyReport", "LatencyRecorder", "DEFAULT_PERCENTILES"]

#: The percentiles a :class:`LatencyReport` always carries.
DEFAULT_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 99.0)


@dataclass(frozen=True)
class LatencyReport:
    """Summary statistics over a set of latency samples (seconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "LatencyReport":
        """Build a report from raw samples; all-zero when there are none."""
        values = np.asarray(list(samples), dtype=np.float64)
        if values.size == 0:
            return cls(count=0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, max=0.0)
        p50, p90, p99 = np.percentile(values, DEFAULT_PERCENTILES)
        return cls(
            count=int(values.size),
            mean=float(values.mean()),
            p50=float(p50),
            p90=float(p90),
            p99=float(p99),
            max=float(values.max()),
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view with explicit units (used by the bench JSON)."""
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": self.p50,
            "p90_s": self.p90,
            "p99_s": self.p99,
            "max_s": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyReport(n={self.count}, p50={self.p50 * 1e3:.3f}ms, "
            f"p90={self.p90 * 1e3:.3f}ms, p99={self.p99 * 1e3:.3f}ms)"
        )


class LatencyRecorder:
    """Accumulates latency samples and produces :class:`LatencyReport` views.

    Deliberately minimal, and deliberately cheap on the bulk path: the
    vectorized service records one *run* of identical samples per executed
    chunk (every operation of an admission shares an enqueue time, every
    operation of a batch shares a completion time), so :meth:`record_many`
    stores ``(value, count)`` pairs instead of materializing per-operation
    floats.  :meth:`report` expands runs lazily, only when percentiles are
    actually requested.
    """

    __slots__ = ("_runs", "_run_count")

    def __init__(self) -> None:
        self._runs: List[Tuple[float, int]] = []
        self._run_count = 0

    def record_many(self, seconds: float, count: int) -> None:
        """Record ``count`` operations that all observed the same latency.

        O(1) per call: this is the service's bulk path — one call per
        executed chunk, however many operations the chunk carried.
        """
        if count <= 0:
            return
        self._runs.append((float(seconds), int(count)))
        self._run_count += int(count)

    def __len__(self) -> int:
        return self._run_count

    def report(self) -> LatencyReport:
        """Summarize everything recorded so far."""
        values = np.array([value for value, _ in self._runs], dtype=np.float64)
        counts = np.array([count for _, count in self._runs], dtype=np.int64)
        return LatencyReport.from_samples(np.repeat(values, counts))
