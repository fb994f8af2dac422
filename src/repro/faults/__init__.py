"""Deterministic fault injection (see :mod:`repro.faults.plan`).

The robustness counterpart of the simulator's determinism: faults are
scheduled by **site name + occurrence index**, never by wall-clock or global
randomness, so every overload/quarantine/rollback behavior the service
exhibits under a plan is replayable from the plan alone.  ``docs/FAULTS.md``
catalogs the sites and the degradation semantics each one exercises.
"""

from repro.faults.plan import (
    FaultAction,
    FaultClock,
    FaultPlan,
    InjectedAllocExhausted,
    InjectedBatchFailure,
    InjectedFault,
    InjectedMigrationFailure,
    InjectedWalError,
    ScopedFaults,
)

__all__ = [
    "FaultAction",
    "FaultClock",
    "FaultPlan",
    "InjectedAllocExhausted",
    "InjectedBatchFailure",
    "InjectedFault",
    "InjectedMigrationFailure",
    "InjectedWalError",
    "ScopedFaults",
]
