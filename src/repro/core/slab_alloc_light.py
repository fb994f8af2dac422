"""SlabAlloc-light: the single-contiguous-pool variant of SlabAlloc (Section V).

The regular SlabAlloc stores each super block's 64-bit base pointer in shared
memory; translating a 32-bit slab address into an actual memory location
therefore costs one shared-memory read per lookup, which is noticeable in
search-heavy workloads.  SlabAlloc-light allocates *all* super blocks in one
contiguous array so a single global base pointer suffices: address decoding
becomes pure arithmetic, at the price of scalability (at most ~4 GB of slabs,
versus ~1 TB for the regular layout).

In this simulator both variants keep the same storage, the slab arena of
:class:`repro.core.slab_alloc.SlabAlloc`: the super blocks stored
contiguously, one mapping per growth step.  The two differ only in
:meth:`~repro.core.slab_alloc.SlabAlloc.charge_address_decode`, which charges
the light decode one instruction instead of a shared-memory read.

The paper reports up to a 25 % search-rate improvement from the light variant
in lookup-heavy scenarios; the ablation benchmark
``benchmarks/bench_ablations.py::test_slaballoc_light_search_gain`` reproduces
that comparison.
"""

from __future__ import annotations

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.slab_alloc import SlabAlloc
from repro.gpusim.device import Device

__all__ = ["SlabAllocLight"]

#: Capacity limit of the light variant: a single contiguous array under 4 GB.
LIGHT_CAPACITY_BYTES = 4 * 1024**3


class SlabAllocLight(SlabAlloc):
    """SlabAlloc that models one contiguous pool: address decoding is free."""

    def __init__(
        self,
        device: Device,
        config: SlabAllocConfig | None = None,
        *,
        slab_words: int = C.SLAB_WORDS,
        seed: int = 0,
    ) -> None:
        cfg = config or SlabAllocConfig()
        capacity_bytes = cfg.capacity_units * 4 * slab_words
        if capacity_bytes > LIGHT_CAPACITY_BYTES:
            raise ValueError(
                "SlabAlloc-light requires all super blocks to fit in one contiguous "
                f"allocation of at most 4 GB; requested {capacity_bytes / 2**30:.1f} GB. "
                "Use the regular SlabAlloc for larger capacities."
            )
        super().__init__(device, cfg, slab_words=slab_words, seed=seed, light=True)
