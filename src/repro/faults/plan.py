"""Deterministic, seeded fault injection for the slab-hash stack.

A :class:`FaultPlan` is a schedule of :class:`FaultAction` entries addressed
by **site name + occurrence index** — "the 3rd time the WAL writes, tear the
write after 10 bytes", "the 1st batch shard 2 executes, fail it".  There is
no wall-clock and no global randomness anywhere: the same plan against the
same program produces the same faults at the same points, which is what
makes the chaos proptests (``tests/proptest/test_chaos_service.py``)
shrinkable and replayable from a seed.

Instrumented components hold an optional ``faults`` attribute (``None`` by
default — the hooks are a dict lookup when armed and a single ``is None``
test when not) and consult it at named sites:

=============================  ==================================================
site                           fired by
=============================  ==================================================
``shard:<i>.alloc.warp_allocate``  :meth:`repro.core.slab_alloc.SlabAlloc.warp_allocate`
                               (via the service's per-shard scoped view;
                               fires mid-migration-step too — the step's
                               inserts allocate through the same hook, so
                               allocator exhaustion inside a step is the
                               same site)
``shard:<i>.migration.step``   :func:`repro.core.resize.migrate_step`, before
                               the step moves any bucket — every step,
                               including a stop-the-world resize's single
                               one (the step fails whole: watermark
                               unchanged, both tables consistent, migration
                               resumable; a failed resize is fully undone)
``wal.append``                 :meth:`~repro.persist.wal.WriteAheadLog.append_group`,
                               before any byte is written
``wal.write``                  same, at the write itself (supports
                               ``torn_write`` — n bytes land, then the error)
``wal.fsync``                  same, after the write/flush, before fsync
``shard:<i>.execute``          the service drain, before a staged batch runs
``service.restore``            the quarantine-restore task, before ``recover()``
=============================  ==================================================

See ``docs/FAULTS.md`` for the degradation semantics behind each site.

Occurrence indices are per-site and tracked by a :class:`FaultClock`; a
:meth:`FaultPlan.scoped` view prefixes site names so one plan can address
per-shard instances ("shard:0." + "alloc.warp_allocate") while sharing a
single clock and fired-log.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.gpusim.errors import SlabAllocExhausted

__all__ = [
    "FaultAction",
    "FaultClock",
    "FaultPlan",
    "FaultSite",
    "InjectedFault",
    "InjectedAllocExhausted",
    "InjectedBatchFailure",
    "InjectedMigrationFailure",
    "InjectedWalError",
    "SITE_CATALOG",
]


@dataclass(frozen=True)
class FaultSite:
    """One entry of the machine-readable fault-site catalog.

    ``name`` is the canonical plan-addressable site (``<i>`` stands for a
    shard index); ``call_site`` is the literal the firing component passes
    to ``check``/``fire`` — they differ only for sites reached through a
    ``scoped("shard:<i>.")`` view.  ``dirty`` records whether shard state
    may have partially applied when the fault fires (the degradation
    semantics table in ``docs/FAULTS.md`` mirrors this flag).
    """

    name: str
    call_site: str
    component: str
    dirty: bool
    description: str


#: The single source of truth for fault-site names.  The ``fault-site``
#: lint rule checks every ``check``/``fire`` literal in ``src/`` against
#: this catalog, and ``tests/faults/test_site_catalog.py`` checks that the
#: catalog, the call sites, and ``docs/FAULTS.md`` agree.
SITE_CATALOG: Tuple[FaultSite, ...] = (
    FaultSite(
        name="shard:<i>.alloc.warp_allocate",
        call_site="alloc.warp_allocate",
        component="allocator",
        dirty=True,
        description="shard i's allocator grabs a slab inside a running batch",
    ),
    FaultSite(
        name="shard:<i>.migration.step",
        call_site="migration.step",
        component="resize",
        dirty=False,
        description=(
            "before a migration step moves any bucket, a stop-the-world resize's "
            "single step included (step fails whole; a failed resize is undone)"
        ),
    ),
    FaultSite(
        name="shard:<i>.execute",
        call_site="shard:<i>.execute",
        component="drain loop",
        dirty=False,
        description="before shard i's staged batch runs (post-WAL-commit)",
    ),
    FaultSite(
        name="wal.append",
        call_site="wal.append",
        component="WAL",
        dirty=False,
        description="before any byte of a group append is written",
    ),
    FaultSite(
        name="wal.write",
        call_site="wal.write",
        component="WAL",
        dirty=False,
        description="at the group append's write (supports torn_write)",
    ),
    FaultSite(
        name="wal.fsync",
        call_site="wal.fsync",
        component="WAL",
        dirty=False,
        description="after the write/flush, before fsync",
    ),
    FaultSite(
        name="service.restore",
        call_site="service.restore",
        component="quarantine restore",
        dirty=False,
        description="at each restore attempt of a quarantined shard",
    ),
)


class InjectedFault(Exception):
    """Marker base: an error that exists only because a FaultPlan said so.

    The service uses this distinction for durability: a *natural* batch
    failure is deterministic and replays identically from the WAL, but an
    injected one would not recur on replay, so the service writes an abort
    marker before failing the batch's futures (see ``docs/FAULTS.md``).
    """


class InjectedAllocExhausted(InjectedFault, SlabAllocExhausted):
    """Injected allocator exhaustion (``alloc.warp_allocate`` site)."""


class InjectedBatchFailure(InjectedFault):
    """Injected batch-execution failure (``shard:<i>.execute`` site)."""


class InjectedMigrationFailure(InjectedFault):
    """Injected migration-step failure (``shard:<i>.migration.step`` site).

    Fired before the step moves any bucket, so the failed step leaves the
    watermark unchanged and both tables consistent; the migration resumes
    on the next pump.  A stop-the-world resize is a single step: its
    failure drops the migration and leaves the table as it was.
    """


class InjectedWalError(InjectedFault, OSError):
    """Injected WAL I/O error (``wal.append`` / ``wal.write`` / ``wal.fsync``)."""


#: Exception class per ``FaultAction.exc`` key.
_EXCEPTIONS = {
    "alloc": InjectedAllocExhausted,
    "batch": InjectedBatchFailure,
    "migration": InjectedMigrationFailure,
    "os": InjectedWalError,
    "fault": InjectedFault,
}


@dataclass(frozen=True)
class FaultAction:
    """What happens when a scheduled (site, occurrence) is reached.

    ``kind``:

    * ``"raise"`` — raise the exception named by ``exc`` (a key of the
      injected-exception registry: ``alloc`` / ``batch`` / ``os`` /
      ``fault``).
    * ``"sleep"`` — block for ``seconds`` (a slow batch / slow I/O); the
      site then proceeds normally.
    * ``"torn_write"`` — WAL ``wal.write`` site only: ``bytes_written``
      bytes of the frame group land on disk, then an injected ``OSError``
      is raised (the torn-tail + rollback paths both get exercised).
    """

    kind: str = "raise"
    exc: str = "fault"
    seconds: float = 0.0
    bytes_written: int = 0
    note: str = ""

    def exception(self) -> InjectedFault:
        """Build the injected exception this action raises."""
        cls = _EXCEPTIONS.get(self.exc, InjectedFault)
        detail = f" ({self.note})" if self.note else ""
        return cls(f"injected {self.exc} fault{detail}")


class FaultClock:
    """Per-site occurrence counters (the 'time base' of a plan).

    Monotonic per site, advanced by every :meth:`FaultPlan.fire` — whether
    or not a fault was scheduled there — so "occurrence 3 of ``wal.write``"
    means the same thing in every run of the same program.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def tick(self, site: str) -> int:
        """Advance ``site`` and return the occurrence index just consumed."""
        occurrence = self._counts.get(site, 0)
        self._counts[site] = occurrence + 1
        return occurrence

    def count(self, site: str) -> int:
        """Occurrences of ``site`` seen so far."""
        return self._counts.get(site, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)


@dataclass
class _Fired:
    """One fault that actually fired (for assertions and postmortems)."""

    site: str
    occurrence: int
    action: FaultAction


class FaultPlan:
    """A deterministic schedule of faults: ``(site, occurrence) -> action``.

    Build one explicitly::

        plan = FaultPlan({
            ("wal.write", 1): FaultAction(kind="torn_write", bytes_written=7),
            ("shard:0.execute", 2): FaultAction(exc="batch"),
        })

    or draw one from a seed with :meth:`random`.  Components call
    :meth:`check` (interpret raise/sleep inline) or :meth:`fire` (get the
    action back to interpret locally, e.g. torn writes).  Every fired fault
    is recorded in :attr:`fired`.
    """

    def __init__(
        self, schedule: Optional[Mapping[Tuple[str, int], FaultAction]] = None
    ) -> None:
        self.schedule: Dict[Tuple[str, int], FaultAction] = dict(schedule or {})
        self.clock = FaultClock()
        self.fired: List[_Fired] = []

    # ------------------------------------------------------------------ #
    # The two hook entry points
    # ------------------------------------------------------------------ #

    def fire(self, site: str) -> Optional[FaultAction]:
        """Advance ``site``'s clock; return the scheduled action, if any.

        The caller interprets the action (used by sites with local
        semantics, like the WAL's torn write).  ``None`` means proceed.
        """
        occurrence = self.clock.tick(site)
        action = self.schedule.get((site, occurrence))
        if action is not None:
            self.fired.append(_Fired(site, occurrence, action))
        return action

    def check(self, site: str) -> Optional[FaultAction]:
        """Advance ``site``'s clock and interpret raise/sleep actions inline.

        Raises the injected exception for ``"raise"`` actions, sleeps for
        ``"sleep"`` actions (then returns the action), and returns any other
        action uninterpreted.
        """
        action = self.fire(site)
        if action is None:
            return None
        if action.kind == "raise":
            raise action.exception()
        if action.kind == "sleep":
            time.sleep(action.seconds)
        return action

    def exception(self, action: FaultAction) -> InjectedFault:
        """The exception an action raises (for caller-interpreted kinds)."""
        return action.exception()

    # ------------------------------------------------------------------ #
    # Views and constructors
    # ------------------------------------------------------------------ #

    def scoped(self, prefix: str) -> "ScopedFaults":
        """A view that prefixes every site name (shared clock + fired log).

        The service hands ``plan.scoped("shard:2.")`` to shard 2's
        allocator, whose local ``check("alloc.warp_allocate")`` then
        addresses the plan site ``"shard:2.alloc.warp_allocate"``.
        """
        return ScopedFaults(self, prefix)

    @classmethod
    def random(
        cls,
        seed: int,
        sites: Sequence[Tuple[str, FaultAction]],
        *,
        rate: float = 0.05,
        horizon: int = 64,
    ) -> "FaultPlan":
        """Draw a plan from a seed: each (site, template) pair fires with
        probability ``rate`` at each of the first ``horizon`` occurrences.

        Deterministic given ``(seed, sites, rate, horizon)`` — the chaos
        proptests derive ``sites`` from their own seed, so a failing seed
        fully reproduces the fault schedule.
        """
        rng = random.Random(seed)
        schedule: Dict[Tuple[str, int], FaultAction] = {}
        for site, template in sites:
            for occurrence in range(horizon):
                if rng.random() < rate:
                    schedule[(site, occurrence)] = template
        return cls(schedule)

    def fired_sites(self) -> List[Tuple[str, int]]:
        """``(site, occurrence)`` of every fault that fired, in fire order."""
        return [(f.site, f.occurrence) for f in self.fired]

    def __len__(self) -> int:
        return len(self.schedule)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(scheduled={len(self.schedule)}, fired={len(self.fired)})"


class ScopedFaults:
    """A site-name-prefixing view over a shared :class:`FaultPlan`."""

    __slots__ = ("plan", "prefix")

    def __init__(self, plan: FaultPlan, prefix: str) -> None:
        self.plan = plan
        self.prefix = str(prefix)

    def fire(self, site: str) -> Optional[FaultAction]:
        return self.plan.fire(self.prefix + site)

    def check(self, site: str) -> Optional[FaultAction]:
        return self.plan.check(self.prefix + site)

    def exception(self, action: FaultAction) -> InjectedFault:
        return self.plan.exception(action)

    def scoped(self, prefix: str) -> "ScopedFaults":
        return ScopedFaults(self.plan, self.prefix + prefix)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScopedFaults({self.prefix!r}, {self.plan!r})"
