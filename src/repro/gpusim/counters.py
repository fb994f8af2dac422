"""Event counters for the simulated device.

Every global-memory access, atomic operation and warp-wide instruction issued
by the data structures is recorded here.  The cost model
(:mod:`repro.gpusim.costmodel`) converts a :class:`Counters` snapshot into
modelled execution time; the benchmark harness reports throughput as
``operations / modelled_time``.

The counters are deliberately fine grained so that the per-operation access
profile of each data structure (e.g. "one coalesced 128 B read plus one 64-bit
CAS per slab-hash insertion" versus "one uncoalesced 8 B read per linked-list
hop" for the Misra baseline) is visible and testable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, cast

__all__ = ["Counters", "StatsRecord", "scale_counters"]


@dataclass
class Counters:
    """Accumulated device events.

    Attributes
    ----------
    coalesced_read_transactions:
        Number of fully coalesced 128-byte read transactions (one per slab
        read performed by a whole warp).
    coalesced_write_transactions:
        Number of fully coalesced 128-byte write transactions.
    uncoalesced_read_words:
        Number of 32-bit words read through scattered (per-thread) accesses.
        Each costs a 32-byte sector on the modelled device.
    uncoalesced_write_words:
        Number of 32-bit words written through scattered accesses.
    atomic32 / atomic64:
        Number of 32-bit / 64-bit atomic operations (CAS, exchange, or, add).
    cas_failures:
        Number of atomic compare-and-swap operations whose comparison failed
        (i.e. contention-induced retries).
    shared_reads:
        Shared-memory reads (used by the regular SlabAlloc address decode).
    warp_ballots / warp_shuffles:
        Warp-wide communication instructions issued.
    warp_instructions:
        Other warp-wide ALU/control instructions charged by the algorithms
        (loop overhead, hashing, address arithmetic).
    allocations / deallocations:
        Memory units handed out / returned by an allocator.
    resident_changes:
        SlabAlloc resident-block changes (each implies one coalesced bitmap
        read).
    kernel_launches:
        Number of kernel launches (each pays a fixed launch overhead).
    """

    coalesced_read_transactions: int = 0
    coalesced_write_transactions: int = 0
    uncoalesced_read_words: int = 0
    uncoalesced_write_words: int = 0
    atomic32: int = 0
    atomic64: int = 0
    cas_failures: int = 0
    shared_reads: int = 0
    warp_ballots: int = 0
    warp_shuffles: int = 0
    warp_instructions: int = 0
    allocations: int = 0
    deallocations: int = 0
    resident_changes: int = 0
    kernel_launches: int = 0

    def copy(self) -> "Counters":
        """Return an independent snapshot of the current counts."""
        return Counters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def diff(self, earlier: "Counters") -> "Counters":
        """Return the events accumulated since ``earlier`` (self - earlier)."""
        return Counters(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "Counters") -> "Counters":
        return Counters(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __iadd__(self, other: "Counters") -> "Counters":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    # ------------------------------------------------------------------ #
    # Derived quantities used by the cost model.
    # ------------------------------------------------------------------ #

    @property
    def coalesced_bytes(self) -> int:
        """Bytes moved through coalesced 128-byte transactions."""
        return 128 * (self.coalesced_read_transactions + self.coalesced_write_transactions)

    @property
    def uncoalesced_transactions(self) -> int:
        """Number of 32-byte sectors touched by scattered word accesses."""
        return self.uncoalesced_read_words + self.uncoalesced_write_words

    @property
    def uncoalesced_bytes(self) -> int:
        """Bytes moved (wastefully, one 32-byte sector per word) by scattered accesses."""
        return 32 * self.uncoalesced_transactions

    @property
    def total_atomics(self) -> int:
        return self.atomic32 + self.atomic64

    @property
    def total_warp_instructions(self) -> int:
        """All warp-wide instructions: ballots, shuffles and generic ALU/control."""
        return self.warp_ballots + self.warp_shuffles + self.warp_instructions

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (useful for reports and assertions in tests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"Counters({parts})"


def scale_counters(counters: Counters, factor: float) -> Counters:
    """Scale every event count by ``factor`` (the simulate-small / model-at-paper-scale step).

    Kernel launches are *not* scaled: running the paper-scale workload still
    uses the same number of kernel launches as the scaled simulation.
    """
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    scaled = Counters()
    for f in fields(Counters):
        value = getattr(counters, f.name)
        if f.name == "kernel_launches":
            setattr(scaled, f.name, value)
        else:
            setattr(scaled, f.name, int(round(value * factor)))
    return scaled


class StatsRecord:
    """Base of the stats dataclasses: one JSON-ready :meth:`as_dict` for all."""

    def as_dict(self) -> Dict[str, Any]:
        """The dataclass fields, then the public properties, as plain data.

        Tuples become lists; a nested value with its own ``as_dict`` (another
        record, a :class:`~repro.perf.latency.LatencyReport`) goes through it.
        """
        cls = type(self)
        names = [f.name for f in fields(cast(Any, self))]
        names += [
            name
            for name in dir(cls)
            if not name.startswith("_") and isinstance(getattr(cls, name), property)
        ]
        return {name: _plain(getattr(self, name)) for name in names}


def _plain(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value.as_dict() if hasattr(value, "as_dict") else value
