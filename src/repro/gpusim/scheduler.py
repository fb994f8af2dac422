"""Warp scheduling: sequential draining and seeded concurrent interleaving.

The warp-cooperative procedures in :mod:`repro.core` are written as Python
generators that ``yield`` after every global-memory access (slab read, CAS,
allocation).  That makes them *resumable*: the scheduler can run any number of
warps "concurrently" by interleaving their steps.  Because all shared state
lives in the simulated global memory, interleaving at yield points genuinely
exercises the lock-free algorithms' concurrency paths: CAS failures and
retries, two warps racing to append a slab to the same list (the loser
deallocates its slab), searches observing partially built lists, and so on.

Two drivers are provided:

* :func:`run_sequential` — drain each warp generator to completion in order.
  This is one legal schedule and is what the bulk (static-comparison)
  benchmarks use, since it is the cheapest to execute.
* :class:`WarpScheduler` — randomized round-robin interleaving with a seeded
  RNG, used by the concurrent benchmarks and by the property-based tests that
  sweep schedules looking for linearizability violations.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional, Sequence

import numpy as np

from repro.gpusim.errors import SchedulerError

__all__ = ["run_sequential", "WarpScheduler"]

WarpProgram = Generator[None, None, None]


def run_sequential(programs: Iterable[WarpProgram]) -> int:
    """Drain each warp program to completion, one after another.

    Returns the total number of scheduling steps executed (useful in tests to
    compare schedule lengths).
    """
    steps = 0
    for program in programs:
        for _ in program:
            steps += 1
    return steps


class WarpScheduler:
    """Randomized interleaving scheduler over a set of warp programs.

    Parameters
    ----------
    seed:
        Seed for the scheduling RNG.  Two runs with the same seed and the same
        set of programs produce the same interleaving, which the concurrency
        tests rely on for reproducibility.
    max_steps:
        Safety valve: raise :class:`SchedulerError` if the programs have not
        all finished after this many steps (a lock-free algorithm that
        livelocks under some schedule would otherwise hang the test suite).
    """

    def __init__(self, seed: Optional[int] = None, max_steps: int = 50_000_000) -> None:
        self.rng = np.random.default_rng(seed)
        self.max_steps = max_steps
        self.steps_executed = 0

    def run(self, programs: Sequence[WarpProgram]) -> int:
        """Interleave the given warp programs until all complete.

        At each step one live program is chosen uniformly at random and
        advanced to its next yield point (i.e. through its next global-memory
        access).  Returns the number of steps executed in this call.
        """
        live: List[WarpProgram] = list(programs)
        steps = 0
        while live:
            if steps >= self.max_steps:
                raise SchedulerError(
                    f"scheduler exceeded max_steps={self.max_steps}; "
                    "possible livelock in a warp program"
                )
            idx = int(self.rng.integers(len(live)))
            program = live[idx]
            try:
                next(program)
            except StopIteration:
                live.pop(idx)
            else:
                steps += 1
        self.steps_executed += steps
        return steps
