"""Churn workloads: sustained insert/delete phases that stress table sizing.

The paper's benchmarks hold the element count (nearly) fixed; a *churn*
workload instead swings it between a base and a peak population, cycle after
cycle.  On a fixed-bucket table each cycle makes things worse twice over:
chains lengthen as the population climbs past the construction-time sizing,
and (in unique-keys mode) every delete phase leaves tombstones that all later
traversals keep paying for.  This is exactly the scenario online resizing
(:mod:`repro.core.resize`) exists for — each grow/shrink migration rebuilds
the chains at the target beta and drops accumulated tombstones — so the churn
workload is the canonical driver for the ``resize-sweep`` experiment and
``benchmarks/bench_resize.py``.

A :class:`ChurnWorkload` is a deterministic list of :class:`ChurnStep`
batches.  Each cycle inserts fresh keys up to the peak population in several
batches (the *grow* phase), then deletes back down to the base population
(the *shrink* phase), oldest keys first.  Run one against any table with
:func:`apply_churn_step` / :func:`run_churn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

if TYPE_CHECKING:
    from repro.core.slab_hash import SlabHash
    from repro.engine.sharded import ShardedSlabHash

import numpy as np

from repro.workloads.generators import unique_random_keys, values_for_keys

__all__ = ["ChurnStep", "ChurnWorkload", "build_churn_workload", "apply_churn_step", "run_churn"]


@dataclass(frozen=True)
class ChurnStep:
    """One bulk batch of a churn workload."""

    kind: str  #: ``"insert"`` or ``"delete"``
    keys: np.ndarray
    values: Optional[np.ndarray]  #: ``None`` for deletions
    cycle: int  #: which insert/delete cycle this batch belongs to
    phase: str  #: ``"grow"`` (insert phase) or ``"shrink"`` (delete phase)

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class ChurnWorkload:
    """A materialized churn schedule (deterministic from its seed)."""

    steps: List[ChurnStep]
    base_elements: int
    peak_elements: int
    cycles: int

    @property
    def num_ops(self) -> int:
        """Total operations across every step (inserts plus deletes)."""
        return sum(len(step) for step in self.steps)

    def cycle_steps(self, cycle: int) -> List[ChurnStep]:
        """The steps of one cycle, in execution order."""
        return [step for step in self.steps if step.cycle == cycle]

    def __len__(self) -> int:
        return len(self.steps)


def build_churn_workload(
    peak_elements: int,
    *,
    base_elements: Optional[int] = None,
    cycles: int = 3,
    batches_per_phase: int = 4,
    seed: int = 0,
) -> ChurnWorkload:
    """Materialize a churn schedule swinging between base and peak population.

    Every cycle inserts ``peak - current`` brand-new distinct keys (in
    ``batches_per_phase`` batches) and then deletes the oldest keys until
    only ``base_elements`` remain (again batched).  Keys are never reused
    across cycles, so a unique-keys table accumulates tombstones exactly the
    way a long-running churny deployment would.
    """
    if peak_elements <= 0:
        raise ValueError(f"peak_elements must be positive, got {peak_elements}")
    base_elements = peak_elements // 8 if base_elements is None else base_elements
    if not 0 <= base_elements < peak_elements:
        raise ValueError(
            f"base_elements must be in [0, peak_elements), got {base_elements} "
            f"with peak {peak_elements}"
        )
    if cycles <= 0:
        raise ValueError(f"cycles must be positive, got {cycles}")
    if batches_per_phase <= 0:
        raise ValueError(f"batches_per_phase must be positive, got {batches_per_phase}")

    # One disjoint pool of fresh keys for every cycle's insert phase.
    total_fresh = peak_elements + (cycles - 1) * (peak_elements - base_elements)
    pool = unique_random_keys(total_fresh, seed=seed)
    pool_next = 0

    steps: List[ChurnStep] = []
    live: List[np.ndarray] = []  # insertion-ordered batches still (partly) alive
    live_count = 0
    for cycle in range(cycles):
        fresh = peak_elements - live_count
        new_keys = pool[pool_next : pool_next + fresh]
        pool_next += fresh
        for chunk in np.array_split(new_keys, batches_per_phase):
            if not chunk.size:
                continue
            steps.append(
                ChurnStep(
                    kind="insert",
                    keys=chunk.copy(),
                    values=values_for_keys(chunk),
                    cycle=cycle,
                    phase="grow",
                )
            )
        live.append(new_keys)
        live_count = peak_elements

        doomed_total = live_count - base_elements
        doomed = np.concatenate(live)[:doomed_total]
        for chunk in np.array_split(doomed, batches_per_phase):
            if not chunk.size:
                continue
            steps.append(
                ChurnStep(kind="delete", keys=chunk.copy(), values=None, cycle=cycle, phase="shrink")
            )
        survivors = np.concatenate(live)[doomed_total:]
        live = [survivors]
        live_count = base_elements

    return ChurnWorkload(
        steps=steps,
        base_elements=base_elements,
        peak_elements=peak_elements,
        cycles=cycles,
    )


def apply_churn_step(table: "Union[SlabHash, ShardedSlabHash]", step: ChurnStep) -> None:
    """Run one churn batch against a table (SlabHash or ShardedSlabHash)."""
    if step.kind == "insert":
        # A key-only table ignores the values.
        table.bulk_insert(step.keys, step.values)
    elif step.kind == "delete":
        table.bulk_delete(step.keys)
    else:  # pragma: no cover - ChurnWorkload only builds the two kinds
        raise ValueError(f"unknown churn step kind {step.kind!r}")


def run_churn(table: "Union[SlabHash, ShardedSlabHash]", workload: ChurnWorkload) -> int:
    """Apply every step of a churn workload in order; returns total operations."""
    for step in workload.steps:
        apply_churn_step(table, step)
    return workload.num_ops
