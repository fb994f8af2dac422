"""Per-figure experiment drivers.

Each function regenerates one table or figure of the paper's evaluation
(Section VI) and returns a :class:`~repro.perf.harness.FigureResult` whose
series mirror the paper's series.  The benchmark suite under ``benchmarks/``
calls these drivers and prints their tables; EXPERIMENTS.md records the
paper-versus-modelled comparison.

Methodology ("simulate small, model at paper scale"): the data structures run
with a scaled-down number of elements (`sim_*` parameters) because the warp
simulator is pure Python, the measured per-operation event counts are scaled
to the paper's operation counts, and the cost model evaluates them with the
paper-scale working-set size (which decides L2 residency of the cuckoo
baseline's atomics).  Per-operation event counts depend on the load factor /
average slab count — which the drivers sweep exactly as the paper does — and
not on the absolute element count, so the trends are preserved.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.allocators.baselines import CudaMallocAllocator, HallocLikeAllocator
from repro.baselines.cuckoo import CuckooHashTable
from repro.baselines.gfsl import GFSLModel
from repro.baselines.misra import MisraHashTable
from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.engine import ShardedSlabHash
from repro.gpusim.costmodel import CostModel
from repro.gpusim.counters import Counters
from repro.gpusim.device import Device, TESLA_K40C
from repro.gpusim.scheduler import WarpScheduler
from repro.gpusim.warp import Warp
from repro.perf.harness import FigureResult, Series
from repro.perf.metrics import Measurement, measure_phase
from repro.workloads.churn import apply_churn_step, build_churn_workload
from repro.workloads.distributions import (
    PAPER_DISTRIBUTIONS,
    OperationDistribution,
    build_concurrent_workload,
)
from repro.workloads.generators import (
    existing_queries,
    missing_queries,
    split_batches,
    unique_random_keys,
    values_for_keys,
)

__all__ = [
    "DEFAULT_UTILIZATIONS",
    "figure_4a",
    "figure_4b",
    "figure_4c",
    "figure_5a",
    "figure_5b",
    "figure_6",
    "figure_7a",
    "figure_7b",
    "allocator_comparison",
    "slaballoc_light_ablation",
    "gfsl_comparison",
    "wcws_vs_per_thread",
    "slab_size_ablation",
    "shard_sweep",
    "resize_sweep",
]

#: Memory utilizations swept by Figures 4a, 4b and 7a.
DEFAULT_UTILIZATIONS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.8, 0.9)

#: The paper's element count for the bulk experiments (2^22).
PAPER_BULK_ELEMENTS = 2**22

#: A compact SlabAlloc sizing for scaled-down simulations (keeps host RAM low
#: while still exercising multiple super blocks and resident changes).
SIM_ALLOC_CONFIG = SlabAllocConfig(num_super_blocks=8, num_memory_blocks=64, units_per_block=256)


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #


def _new_slab_hash(
    num_elements: int,
    utilization: float,
    *,
    seed: int,
    light_alloc: bool = False,
) -> SlabHash:
    """A fresh slab hash sized so its expected memory utilization hits the target."""
    buckets = SlabHash.buckets_for_utilization(num_elements, utilization)
    return SlabHash(
        buckets,
        device=Device(),
        alloc_config=SIM_ALLOC_CONFIG,
        light_alloc=light_alloc,
        seed=seed,
    )


def _cuckoo_working_set(paper_elements: int, load_factor: float) -> int:
    """Paper-scale size of the cuckoo table (drives the L2 residency decision)."""
    return int(paper_elements / load_factor) * 8


def _slab_build_measurement(
    table: SlabHash,
    keys: np.ndarray,
    values: np.ndarray,
    *,
    scale_to_ops: int,
    label: str,
) -> Measurement:
    return measure_phase(
        table.device,
        lambda: table.bulk_build(keys, values),
        num_ops=len(keys),
        scale_to_ops=scale_to_ops,
        label=label,
    )


def _slab_search_measurement(
    table: SlabHash,
    queries: np.ndarray,
    *,
    scale_to_ops: int,
    label: str,
) -> Measurement:
    return measure_phase(
        table.device,
        lambda: table.bulk_search(queries),
        num_ops=len(queries),
        scale_to_ops=scale_to_ops,
        label=label,
    )


# --------------------------------------------------------------------------- #
# Figure 4: bulk performance versus memory utilization (n = 2^22 in the paper)
# --------------------------------------------------------------------------- #


def figure_4a(
    sim_elements: int = 2**13,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    *,
    paper_elements: int = PAPER_BULK_ELEMENTS,
    seed: int = 0,
) -> FigureResult:
    """Figure 4a: bulk build rate (M elements/s) versus memory utilization."""
    result = FigureResult(
        figure_id="Figure 4a",
        title="Build rate vs memory utilization (paper scale n=2^22)",
        x_label="memory utilization",
        y_label="build rate (M elements/s)",
        notes="CUDPP load factor equals the target utilization; slab hash bucket "
        "counts are chosen from the Fig. 4c relation.",
    )
    cudpp = result.add_series("CUDPP")
    slab = result.add_series("SlabHash")

    keys = unique_random_keys(sim_elements, seed=seed)
    values = values_for_keys(keys)

    for utilization in utilizations:
        table = _new_slab_hash(sim_elements, utilization, seed=seed)
        m_slab = _slab_build_measurement(
            table, keys, values, scale_to_ops=paper_elements, label=f"slab build u={utilization}"
        )
        slab.add(utilization, m_slab.mops)

        cuckoo = CuckooHashTable.for_load_factor(sim_elements, utilization, seed=seed + 1)
        m_cuckoo = measure_phase(
            cuckoo.device,
            lambda: cuckoo.bulk_build(keys, values),
            num_ops=sim_elements,
            scale_to_ops=paper_elements,
            working_set_bytes=_cuckoo_working_set(paper_elements, utilization),
            label=f"cuckoo build lf={utilization}",
        )
        cudpp.add(utilization, m_cuckoo.mops)

    result.extra["geomean_cuckoo_over_slab"] = cudpp.geometric_mean() / slab.geometric_mean()
    result.extra["slabhash_peak_mops"] = max(slab.y)
    return result


def figure_4b(
    sim_elements: int = 2**13,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    *,
    paper_elements: int = PAPER_BULK_ELEMENTS,
    seed: int = 0,
) -> FigureResult:
    """Figure 4b: bulk search rate (M queries/s), all-found and none-found."""
    result = FigureResult(
        figure_id="Figure 4b",
        title="Search rate vs memory utilization (paper scale n=2^22)",
        x_label="memory utilization",
        y_label="search rate (M queries/s)",
    )
    series = {
        "CUDPP-all": result.add_series("CUDPP-all"),
        "CUDPP-none": result.add_series("CUDPP-none"),
        "SlabHash-all": result.add_series("SlabHash-all"),
        "SlabHash-none": result.add_series("SlabHash-none"),
    }

    keys = unique_random_keys(sim_elements, seed=seed)
    values = values_for_keys(keys)
    hits = existing_queries(keys, sim_elements, seed=seed + 1)
    misses = missing_queries(sim_elements, seed=seed + 2)

    for utilization in utilizations:
        table = _new_slab_hash(sim_elements, utilization, seed=seed)
        table.bulk_build(keys, values)
        m_all = _slab_search_measurement(
            table, hits, scale_to_ops=paper_elements, label=f"slab search-all u={utilization}"
        )
        m_none = _slab_search_measurement(
            table, misses, scale_to_ops=paper_elements, label=f"slab search-none u={utilization}"
        )
        series["SlabHash-all"].add(utilization, m_all.mops)
        series["SlabHash-none"].add(utilization, m_none.mops)

        cuckoo = CuckooHashTable.for_load_factor(sim_elements, utilization, seed=seed + 1)
        cuckoo.bulk_build(keys, values)
        working_set = _cuckoo_working_set(paper_elements, utilization)
        mc_all = measure_phase(
            cuckoo.device,
            lambda: cuckoo.bulk_search(hits),
            num_ops=len(hits),
            scale_to_ops=paper_elements,
            working_set_bytes=working_set,
        )
        mc_none = measure_phase(
            cuckoo.device,
            lambda: cuckoo.bulk_search(misses),
            num_ops=len(misses),
            scale_to_ops=paper_elements,
            working_set_bytes=working_set,
        )
        series["CUDPP-all"].add(utilization, mc_all.mops)
        series["CUDPP-none"].add(utilization, mc_none.mops)

    result.extra["geomean_cuckoo_over_slab_all"] = (
        series["CUDPP-all"].geometric_mean() / series["SlabHash-all"].geometric_mean()
    )
    result.extra["geomean_cuckoo_over_slab_none"] = (
        series["CUDPP-none"].geometric_mean() / series["SlabHash-none"].geometric_mean()
    )
    result.extra["slabhash_peak_mops"] = max(
        max(series["SlabHash-all"].y), max(series["SlabHash-none"].y)
    )
    return result


def figure_4c(
    sim_elements: int = 2**13,
    betas: Sequence[float] = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0),
    *,
    seed: int = 0,
) -> FigureResult:
    """Figure 4c: achieved memory utilization versus average slab count beta."""
    result = FigureResult(
        figure_id="Figure 4c",
        title="Memory utilization vs average slab count (beta)",
        x_label="average slab count (beta)",
        y_label="memory utilization",
        notes="'measured' builds a table and reports its actual utilization; "
        "'analytic' is the Poisson occupancy model; both approach Mx/(Mx+y)=0.94.",
    )
    measured = result.add_series("measured")
    analytic = result.add_series("analytic")

    keys = unique_random_keys(sim_elements, seed=seed)
    values = values_for_keys(keys)

    for beta in betas:
        buckets = SlabHash.buckets_for_beta(sim_elements, beta)
        table = SlabHash(buckets, device=Device(), alloc_config=SIM_ALLOC_CONFIG, seed=seed)
        table.bulk_build(keys, values)
        measured.add(beta, table.memory_utilization())
        analytic.add(beta, SlabHash.expected_utilization(beta))

    result.extra["max_utilization"] = table.config.max_memory_utilization
    return result


# --------------------------------------------------------------------------- #
# Figure 5: bulk performance versus table size (60 % utilization)
# --------------------------------------------------------------------------- #


def _figure_5_common(
    table_sizes: Sequence[int],
    sim_elements: int,
    utilization: float,
    seed: int,
    *,
    include_build: bool,
    include_search: bool,
) -> Tuple[FigureResult, FigureResult]:
    build = FigureResult(
        figure_id="Figure 5a",
        title=f"Build rate vs number of elements (utilization {utilization:.0%})",
        x_label="number of elements (log2)",
        y_label="build rate (M elements/s)",
    )
    search = FigureResult(
        figure_id="Figure 5b",
        title=f"Search rate vs number of elements (utilization {utilization:.0%})",
        x_label="number of elements (log2)",
        y_label="search rate (M queries/s)",
    )
    b_cudpp = build.add_series("CUDPP")
    b_slab = build.add_series("SlabHash")
    s_series = {
        "CUDPP-all": search.add_series("CUDPP-all"),
        "CUDPP-none": search.add_series("CUDPP-none"),
        "SlabHash-all": search.add_series("SlabHash-all"),
        "SlabHash-none": search.add_series("SlabHash-none"),
    }

    keys = unique_random_keys(sim_elements, seed=seed)
    values = values_for_keys(keys)
    hits = existing_queries(keys, sim_elements, seed=seed + 1)
    misses = missing_queries(sim_elements, seed=seed + 2)

    for paper_n in table_sizes:
        log_n = math.log2(paper_n)
        working_set = _cuckoo_working_set(paper_n, utilization)

        if include_build or include_search:
            table = _new_slab_hash(sim_elements, utilization, seed=seed)
            m_build = _slab_build_measurement(
                table, keys, values, scale_to_ops=paper_n, label=f"slab build n=2^{log_n:.0f}"
            )
            if include_build:
                b_slab.add(log_n, m_build.mops)
            if include_search:
                m_all = _slab_search_measurement(table, hits, scale_to_ops=paper_n, label="")
                m_none = _slab_search_measurement(table, misses, scale_to_ops=paper_n, label="")
                s_series["SlabHash-all"].add(log_n, m_all.mops)
                s_series["SlabHash-none"].add(log_n, m_none.mops)

            cuckoo = CuckooHashTable.for_load_factor(sim_elements, utilization, seed=seed + 1)
            m_cbuild = measure_phase(
                cuckoo.device,
                lambda: cuckoo.bulk_build(keys, values),
                num_ops=sim_elements,
                scale_to_ops=paper_n,
                working_set_bytes=working_set,
            )
            if include_build:
                b_cudpp.add(log_n, m_cbuild.mops)
            if include_search:
                mc_all = measure_phase(
                    cuckoo.device,
                    lambda: cuckoo.bulk_search(hits),
                    num_ops=len(hits),
                    scale_to_ops=paper_n,
                    working_set_bytes=working_set,
                )
                mc_none = measure_phase(
                    cuckoo.device,
                    lambda: cuckoo.bulk_search(misses),
                    num_ops=len(misses),
                    scale_to_ops=paper_n,
                    working_set_bytes=working_set,
                )
                s_series["CUDPP-all"].add(log_n, mc_all.mops)
                s_series["CUDPP-none"].add(log_n, mc_none.mops)

    if include_build and b_slab.y:
        build.extra["geomean_cuckoo_over_slab"] = (
            b_cudpp.geometric_mean() / b_slab.geometric_mean()
        )
    if include_search and s_series["SlabHash-all"].y:
        search.extra["geomean_cuckoo_over_slab_all"] = (
            s_series["CUDPP-all"].geometric_mean() / s_series["SlabHash-all"].geometric_mean()
        )
        search.extra["geomean_cuckoo_over_slab_none"] = (
            s_series["CUDPP-none"].geometric_mean() / s_series["SlabHash-none"].geometric_mean()
        )
        search.extra["slabhash_all_harmonic_mean"] = len(s_series["SlabHash-all"].y) / sum(
            1.0 / y for y in s_series["SlabHash-all"].y
        )
    return build, search


def figure_5a(
    table_sizes: Sequence[int] = tuple(2**k for k in range(16, 28, 2)),
    *,
    sim_elements: int = 2**12,
    utilization: float = 0.6,
    seed: int = 0,
) -> FigureResult:
    """Figure 5a: build rate versus total number of stored elements."""
    build, _search = _figure_5_common(
        table_sizes, sim_elements, utilization, seed, include_build=True, include_search=False
    )
    return build


def figure_5b(
    table_sizes: Sequence[int] = tuple(2**k for k in range(16, 28, 2)),
    *,
    sim_elements: int = 2**12,
    utilization: float = 0.6,
    seed: int = 0,
) -> FigureResult:
    """Figure 5b: search rate versus total number of stored elements."""
    _build, search = _figure_5_common(
        table_sizes, sim_elements, utilization, seed, include_build=False, include_search=True
    )
    return search


# --------------------------------------------------------------------------- #
# Figure 6: incremental batch insertion versus rebuilding from scratch
# --------------------------------------------------------------------------- #


def figure_6(
    total_elements: int = 2**14,
    batch_sizes: Sequence[int] = (256, 512, 1024),
    *,
    final_utilization: float = 0.65,
    paper_total_elements: int = 2_000_000,
    seed: int = 0,
) -> FigureResult:
    """Figure 6: cumulative time to insert batches incrementally (slab hash) versus
    rebuilding from scratch after every batch (CUDPP cuckoo hashing).

    Batch sizes keep the paper's total/batch ratios (2 M with 32k/64k/128k
    batches); times are scaled to the paper's 2 M-element workload.
    """
    result = FigureResult(
        figure_id="Figure 6",
        title="Incremental batched insertion vs rebuild-from-scratch (final utilization 65%)",
        x_label="number of elements inserted so far (paper scale)",
        y_label="cumulative time (ms, modelled)",
        notes="SlabHash series insert each batch dynamically; the CUDPP series "
        "rebuilds the whole table from scratch after every batch.",
    )
    scale = paper_total_elements / total_elements
    keys = unique_random_keys(total_elements, seed=seed)
    values = values_for_keys(keys)
    model = CostModel(TESLA_K40C)

    for batch_size in batch_sizes:
        paper_batch = int(batch_size * scale)
        slab_series = result.add_series(f"SlabHash batch={paper_batch // 1000}k")
        cudpp_series = result.add_series(f"CUDPP batch={paper_batch // 1000}k")

        # --- Slab hash: one table, incrementally extended batch by batch.
        table = _new_slab_hash(total_elements, final_utilization, seed=seed)
        cumulative = 0.0
        inserted = 0
        for batch in split_batches(keys, batch_size):
            batch_values = values_for_keys(batch)
            m = measure_phase(
                table.device,
                lambda b=batch, v=batch_values: table.bulk_insert(b, v),
                num_ops=len(batch),
                scale_to_ops=int(len(batch) * scale),
            )
            cumulative += m.seconds
            inserted += len(batch)
            slab_series.add(inserted * scale, cumulative * 1e3)

        # --- CUDPP: rebuild from scratch with all elements seen so far.
        cumulative = 0.0
        inserted = 0
        for batch in split_batches(keys, batch_size):
            inserted += len(batch)
            all_keys = keys[:inserted]
            all_values = values[:inserted]
            cuckoo = CuckooHashTable.for_load_factor(
                inserted, final_utilization, seed=seed + 1
            )
            m = measure_phase(
                cuckoo.device,
                lambda k=all_keys, v=all_values, t=cuckoo: t.bulk_build(k, v),
                num_ops=inserted,
                scale_to_ops=int(inserted * scale),
                working_set_bytes=_cuckoo_working_set(
                    int(inserted * scale), final_utilization
                ),
                cost_model=model,
            )
            cumulative += m.seconds
            cudpp_series.add(inserted * scale, cumulative * 1e3)

        result.extra[f"speedup_batch_{paper_batch // 1000}k"] = (
            cudpp_series.y[-1] / slab_series.y[-1]
        )
    return result


# --------------------------------------------------------------------------- #
# Figure 7: concurrent benchmarks
# --------------------------------------------------------------------------- #


def figure_7a(
    sim_elements: int = 2**12,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    distributions: Sequence[OperationDistribution] = PAPER_DISTRIBUTIONS,
    *,
    operations_per_batch: Optional[int] = None,
    paper_operations: int = PAPER_BULK_ELEMENTS,
    seed: int = 0,
) -> FigureResult:
    """Figure 7a: concurrent mixed-operation rate versus initial memory utilization."""
    result = FigureResult(
        figure_id="Figure 7a",
        title="Concurrent benchmark: operation rate vs initial memory utilization",
        x_label="initial memory utilization",
        y_label="operation rate (M ops/s)",
    )
    operations_per_batch = operations_per_batch or sim_elements
    keys = unique_random_keys(sim_elements, seed=seed)
    values = values_for_keys(keys)

    for distribution in distributions:
        series = result.add_series(distribution.describe())
        for utilization in utilizations:
            table = _new_slab_hash(sim_elements, utilization, seed=seed)
            table.bulk_build(keys, values)
            workload = build_concurrent_workload(
                distribution, operations_per_batch, keys, seed=seed + 13
            )
            scheduler = WarpScheduler(seed=seed + 17)
            m = measure_phase(
                table.device,
                lambda w=workload, t=table, s=scheduler: t.concurrent_batch(
                    w.op_codes, w.keys, w.values, scheduler=s
                ),
                num_ops=len(workload),
                scale_to_ops=paper_operations,
                label=f"{distribution.describe()} u={utilization}",
            )
            series.add(utilization, m.mops)
    return result


def figure_7b(
    bucket_counts: Sequence[int] = (64, 128, 256, 512, 1024),
    *,
    num_operations: int = 2**12,
    initial_elements: int = 2**12,
    distributions: Sequence[OperationDistribution] = PAPER_DISTRIBUTIONS,
    paper_operations: int = 1_000_000,
    seed: int = 0,
) -> FigureResult:
    """Figure 7b: slab hash versus Misra & Chaudhuri's lock-free hash table.

    The paper runs one million operations per configuration and sweeps the
    number of buckets; bucket counts here are scaled down together with the
    operation count, preserving the operations-per-bucket ratios.
    """
    result = FigureResult(
        figure_id="Figure 7b",
        title="Concurrent performance vs Misra & Chaudhuri's lock-free hash table",
        x_label="number of buckets (scaled)",
        y_label="operation rate (M ops/s)",
        notes="Each configuration performs the scaled equivalent of 1 M mixed operations.",
    )
    keys = unique_random_keys(initial_elements, seed=seed)
    values = values_for_keys(keys)

    for distribution in distributions:
        slab_series = result.add_series(f"SlabHash ({distribution.describe()})")
        misra_series = result.add_series(f"Misra ({distribution.describe()})")
        for buckets in bucket_counts:
            workload = build_concurrent_workload(
                distribution, num_operations, keys, seed=seed + 29
            )

            table = SlabHash(
                buckets, device=Device(), alloc_config=SIM_ALLOC_CONFIG, seed=seed
            )
            table.bulk_build(keys, values)
            scheduler = WarpScheduler(seed=seed + 31)
            m_slab = measure_phase(
                table.device,
                lambda w=workload, t=table, s=scheduler: t.concurrent_batch(
                    w.op_codes, w.keys, w.values, scheduler=s
                ),
                num_ops=len(workload),
                scale_to_ops=paper_operations,
            )
            slab_series.add(buckets, m_slab.mops)

            misra = MisraHashTable(
                buckets,
                capacity=initial_elements + num_operations + 64,
                device=Device(),
                seed=seed,
            )
            misra.bulk_build(keys)
            m_misra = measure_phase(
                misra.device,
                lambda w=workload, t=misra: t.concurrent_batch(w.op_codes, w.keys),
                num_ops=len(workload),
                scale_to_ops=paper_operations,
            )
            misra_series.add(buckets, m_misra.mops)

        result.extra[f"speedup_{distribution.describe()}"] = (
            slab_series.geometric_mean() / misra_series.geometric_mean()
        )
    return result


# --------------------------------------------------------------------------- #
# Section V: dynamic memory allocation comparison
# --------------------------------------------------------------------------- #


def allocator_comparison(
    sim_allocations: int = 2**13,
    *,
    paper_allocations: int = 1_000_000,
    num_warps: int = 64,
    seed: int = 0,
) -> FigureResult:
    """Section V allocator comparison: 1 M slab allocations under the WCWS pattern.

    Reported rates correspond to one million 128-byte slab allocations issued
    one at a time per warp, the access pattern the slab hash generates.
    """
    result = FigureResult(
        figure_id="Section V",
        title="Dynamic allocation rate under the WCWS allocation pattern (1 M slabs, 128 B)",
        x_label="allocator",
        y_label="allocation rate (M slabs/s)",
        notes="CUDA-malloc and Halloc stand-ins are calibrated to the paper's "
        "published measurements (see repro.allocators.baselines).",
    )
    series = result.add_series("allocation rate")

    # --- SlabAlloc: counted events drive the rate.
    from repro.core.slab_alloc import SlabAlloc  # local import to avoid cycles

    device = Device()
    slab_alloc = SlabAlloc(device, SlabAllocConfig(num_super_blocks=8, num_memory_blocks=128), seed=seed)
    warps = [Warp(i, device.counters) for i in range(num_warps)]

    def run_slaballoc() -> None:
        device.launch_kernel()
        for i in range(sim_allocations):
            slab_alloc.warp_allocate(warps[i % num_warps])

    m_slab = measure_phase(
        device,
        run_slaballoc,
        num_ops=sim_allocations,
        scale_to_ops=paper_allocations,
        label="SlabAlloc",
    )
    series.add(0, m_slab.mops)

    # --- Halloc-like baseline.
    halloc = HallocLikeAllocator(paper_allocations + sim_allocations, device=Device())

    def run_halloc() -> None:
        halloc.device.launch_kernel()
        for _ in range(sim_allocations):
            halloc.allocate()

    m_halloc = measure_phase(
        halloc.device,
        run_halloc,
        num_ops=sim_allocations,
        scale_to_ops=paper_allocations,
        extra_serial_seconds=sim_allocations * HallocLikeAllocator.SERIAL_LATENCY,
        label="Halloc",
    )
    series.add(1, m_halloc.mops)

    # --- CUDA-malloc-like baseline.
    cuda_malloc = CudaMallocAllocator(paper_allocations + sim_allocations, device=Device())

    def run_malloc() -> None:
        cuda_malloc.device.launch_kernel()
        for _ in range(sim_allocations):
            cuda_malloc.allocate()

    m_malloc = measure_phase(
        cuda_malloc.device,
        run_malloc,
        num_ops=sim_allocations,
        scale_to_ops=paper_allocations,
        extra_serial_seconds=sim_allocations * CudaMallocAllocator.SERIAL_LATENCY,
        label="CUDA malloc",
    )
    series.add(2, m_malloc.mops)

    result.extra["slaballoc_mops"] = m_slab.mops
    result.extra["halloc_mops"] = m_halloc.mops
    result.extra["cuda_malloc_mops"] = m_malloc.mops
    result.extra["slaballoc_over_halloc"] = m_slab.mops / m_halloc.mops
    result.extra["slaballoc_over_malloc"] = m_slab.mops / m_malloc.mops
    result.notes += "  x-axis: 0=SlabAlloc, 1=Halloc, 2=CUDA malloc."
    return result


# --------------------------------------------------------------------------- #
# Ablations and analytic comparisons
# --------------------------------------------------------------------------- #


def slaballoc_light_ablation(
    sim_elements: int = 2**13,
    *,
    utilization: float = 0.8,
    paper_elements: int = PAPER_BULK_ELEMENTS,
    seed: int = 0,
) -> FigureResult:
    """SlabAlloc versus SlabAlloc-light on a lookup-heavy workload (Section V).

    The paper reports up to 25 % higher search rates with the light variant
    when memory lookups dominate (long chains, so most slab reads require an
    address decode).
    """
    result = FigureResult(
        figure_id="Section V (light)",
        title="SlabAlloc vs SlabAlloc-light on bulk searches",
        x_label="variant (0=regular, 1=light)",
        y_label="search rate (M queries/s)",
    )
    series = result.add_series("search rate")
    keys = unique_random_keys(sim_elements, seed=seed)
    values = values_for_keys(keys)
    queries = existing_queries(keys, sim_elements, seed=seed + 1)

    rates = {}
    for idx, light in enumerate((False, True)):
        table = _new_slab_hash(sim_elements, utilization, seed=seed, light_alloc=light)
        table.bulk_build(keys, values)
        m = _slab_search_measurement(
            table, queries, scale_to_ops=paper_elements, label="light" if light else "regular"
        )
        series.add(idx, m.mops)
        rates["light" if light else "regular"] = m.mops
    result.extra["light_speedup"] = rates["light"] / rates["regular"]
    return result


def gfsl_comparison() -> FigureResult:
    """Section VI-C: the analytic GFSL comparison (peak search/update rates)."""
    result = FigureResult(
        figure_id="Section VI-C (GFSL)",
        title="GFSL (lock-based skip list) peak rates vs slab hash peak rates",
        x_label="operation (0=search, 1=update)",
        y_label="peak rate (M ops/s)",
        notes="GFSL modelled on its published platform (GTX 970); slab hash peaks "
        "are the paper's headline numbers reproduced by Figure 4.",
    )
    gfsl = GFSLModel()
    gfsl_series = result.add_series("GFSL")
    gfsl_series.add(0, gfsl.peak_search_rate() / 1e6)
    gfsl_series.add(1, gfsl.peak_update_rate() / 1e6)

    slab_series = result.add_series("SlabHash (paper peak)")
    slab_series.add(0, 937.0)
    slab_series.add(1, 512.0)

    result.extra["gfsl_peak_search_mops"] = gfsl.peak_search_rate() / 1e6
    result.extra["gfsl_peak_update_mops"] = gfsl.peak_update_rate() / 1e6
    return result


def wcws_vs_per_thread(
    sim_elements: int = 2**13,
    *,
    utilization: float = 0.6,
    paper_elements: int = PAPER_BULK_ELEMENTS,
    seed: int = 0,
) -> FigureResult:
    """Ablation of the warp-cooperative work sharing strategy (Section IV-A).

    The WCWS rate is measured from the real slab hash.  The per-thread variant
    re-prices the *same* traversal under traditional per-thread processing:
    every slab a query visited becomes ~16 scattered word reads (the thread
    walks its chain alone, no coalescing) and the per-thread control flow is
    charged un-amortized (divergence serialization), which is exactly the
    behaviour the paper's strategy avoids.
    """
    result = FigureResult(
        figure_id="Section IV-A",
        title="WCWS vs per-thread processing of the same slab-list traversals",
        x_label="strategy (0=WCWS, 1=per-thread)",
        y_label="search rate (M queries/s)",
    )
    series = result.add_series("search rate")

    keys = unique_random_keys(sim_elements, seed=seed)
    values = values_for_keys(keys)
    queries = existing_queries(keys, sim_elements, seed=seed + 1)

    table = _new_slab_hash(sim_elements, utilization, seed=seed)
    table.bulk_build(keys, values)
    m_wcws = _slab_search_measurement(table, queries, scale_to_ops=paper_elements, label="wcws")
    series.add(0, m_wcws.mops)

    # Re-price the same traversals under per-thread processing.
    slab_visits = m_wcws.counters.coalesced_read_transactions
    per_thread = Counters(
        uncoalesced_read_words=slab_visits * (C.PAIRS_PER_SLAB + 1),
        warp_instructions=m_wcws.num_ops * 120
        + slab_visits * 40,
        kernel_launches=1,
    )
    model = CostModel(TESLA_K40C)
    rate = model.throughput(m_wcws.num_ops, per_thread)
    series.add(1, rate / 1e6)

    result.extra["wcws_speedup"] = m_wcws.mops / (rate / 1e6)
    return result


def shard_sweep(
    sim_elements: int = 2**13,
    shard_counts: Sequence[int] = (1, 2, 4, 8, 16),
    *,
    utilization: float = 0.6,
    paper_operations: int = PAPER_BULK_ELEMENTS,
    seed: int = 0,
) -> FigureResult:
    """Shard-count sweep of the sharded multi-table engine (beyond the paper).

    Partitions the key space across 1..N independent slab hashes — each with
    its own simulated device and allocator, modeling multi-SM groups or
    multiple GPUs — and reports modelled throughput for three workloads:

    * **build** — bulk-build the whole element set through the router;
    * **search** — bulk-search every stored key;
    * **mixed** — a Figure-7-style concurrent batch (40 % updates).

    Shards execute in parallel, so engine time is the slowest shard's
    modelled time; the ``build speedup`` series normalizes build throughput
    by the smallest swept shard count, which is the scaling-efficiency number
    quoted in the README.  Hash routing is slightly imbalanced (multinomial
    key splits), so speedups track, but do not exactly reach, the shard count.
    """
    result = FigureResult(
        figure_id="Shard sweep",
        title=f"Sharded engine scaling (hash routing, utilization {utilization:.0%})",
        x_label="number of shards",
        y_label="operation rate (M ops/s)",
        notes="Each shard is an independent SlabHash on its own simulated "
        "device; engine time is the slowest shard's modelled time. "
        "'build speedup' is normalized to the smallest swept shard count.",
    )
    build_series = result.add_series("build")
    search_series = result.add_series("search")
    mixed_series = result.add_series("mixed 40% updates")
    speedup_series = result.add_series("build speedup")

    keys = unique_random_keys(sim_elements, seed=seed)
    values = values_for_keys(keys)
    hits = existing_queries(keys, sim_elements, seed=seed + 1)
    workload = build_concurrent_workload(
        PAPER_DISTRIBUTIONS[1], sim_elements, keys, seed=seed + 13
    )

    stats_by_count = {}
    for num_shards in shard_counts:
        engine = ShardedSlabHash.for_utilization(
            num_shards,
            sim_elements,
            utilization,
            alloc_config=SIM_ALLOC_CONFIG,
            seed=seed,
        )
        build = engine.measure(
            lambda: engine.bulk_build(keys, values),
            scale_to_ops=paper_operations,
            label=f"build x{num_shards}",
        )
        search = engine.measure(
            lambda: engine.bulk_search(hits),
            scale_to_ops=paper_operations,
            label=f"search x{num_shards}",
        )
        mixed = engine.measure(
            lambda: engine.concurrent_batch(
                workload.op_codes, workload.keys, workload.values,
                scheduler_seed=seed + 17,
            ),
            scale_to_ops=paper_operations,
            label=f"mixed x{num_shards}",
        )
        build_series.add(num_shards, build.mops)
        search_series.add(num_shards, search.mops)
        mixed_series.add(num_shards, mixed.mops)
        stats_by_count[num_shards] = build

    # Normalize to the smallest swept shard count, whatever the sweep order.
    base = min(stats_by_count)
    base_build_mops = stats_by_count[base].mops
    for num_shards in shard_counts:
        speedup_series.add(num_shards, stats_by_count[num_shards].mops / base_build_mops)

    if 4 in stats_by_count:
        result.extra["build_speedup_4_shards"] = stats_by_count[4].mops / base_build_mops
    top = max(stats_by_count)
    result.extra["build_speedup_max_shards"] = stats_by_count[top].mops / base_build_mops
    result.extra["scaling_efficiency_max_shards"] = result.extra[
        "build_speedup_max_shards"
    ] / (top / base)
    result.extra["load_imbalance_max_shards"] = stats_by_count[top].load_imbalance
    return result


def resize_sweep(
    sim_elements: int = 2**12,
    *,
    cycles: int = 3,
    base_divisor: int = 8,
    paper_operations: int = PAPER_BULK_ELEMENTS,
    seed: int = 0,
) -> FigureResult:
    """Churn scenario: adaptive online resizing versus fixed-bucket tables.

    Runs the same churn workload (population swinging between
    ``sim_elements / base_divisor`` and ``sim_elements`` for ``cycles``
    insert/delete cycles, :mod:`repro.workloads.churn`) against three tables:

    * **fixed-undersized** — bucket count frozen at the base population's
      target-beta sizing; chains stretch far past beta at every peak and
      tombstones pile up cycle over cycle;
    * **fixed-rightsized** — sized for the peak (memory held even at the
      trough, the static-over-provisioning answer);
    * **adaptive** — starts undersized with a
      :class:`~repro.core.resize.LoadFactorPolicy` attached, so it grows and
      shrinks with the population and every migration drops the accumulated
      tombstones.

    Reports modelled throughput per cycle for each table (migration cost is
    charged to the adaptive series' own cycles) plus the adaptive table's
    measured beta trajectory.  The ``adaptive_over_undersized`` extra is the
    end-to-end modelled-time ratio the README quotes.
    """
    base_elements = max(64, sim_elements // base_divisor)
    workload = build_churn_workload(
        sim_elements, base_elements=base_elements, cycles=cycles, seed=seed
    )
    undersized_buckets = SlabHash.buckets_for_beta(base_elements, 0.6)
    policy = LoadFactorPolicy(min_buckets=max(1, undersized_buckets // 2))

    result = FigureResult(
        figure_id="Resize sweep",
        title=(
            f"Churn workload ({base_elements}..{sim_elements} elements, "
            f"{cycles} cycles): adaptive resizing vs fixed buckets"
        ),
        x_label="churn cycle",
        y_label="operation rate (M ops/s)",
        notes="Adaptive cycles include their own migration cost; 'adaptive beta' "
        "is the measured average slab count after each cycle (policy band "
        f"[{policy.beta_low}, {policy.beta_high}]).",
    )
    beta_series = result.add_series("adaptive beta")

    configs = {
        "fixed-undersized": SlabHash(
            undersized_buckets, device=Device(), alloc_config=SIM_ALLOC_CONFIG, seed=seed
        ),
        "fixed-rightsized": SlabHash(
            SlabHash.buckets_for_beta(sim_elements, 0.6),
            device=Device(),
            alloc_config=SIM_ALLOC_CONFIG,
            seed=seed,
        ),
        "adaptive": SlabHash(
            undersized_buckets,
            device=Device(),
            alloc_config=SIM_ALLOC_CONFIG,
            seed=seed,
            policy=policy,
        ),
    }

    total_seconds = {}
    for name, table in configs.items():
        series = result.add_series(name)
        total = 0.0
        for cycle in range(cycles):
            steps = workload.cycle_steps(cycle)
            ops = sum(len(step) for step in steps)
            m = measure_phase(
                table.device,
                lambda t=table, s=steps: [apply_churn_step(t, step) for step in s],
                num_ops=ops,
                scale_to_ops=paper_operations,
                label=f"{name} cycle {cycle}",
            )
            series.add(cycle, m.mops)
            total += m.seconds
            if name == "adaptive":
                beta_series.add(cycle, table.beta())
        total_seconds[name] = total

    adaptive = configs["adaptive"]
    result.extra["adaptive_over_undersized"] = (
        total_seconds["fixed-undersized"] / total_seconds["adaptive"]
    )
    result.extra["adaptive_over_rightsized"] = (
        total_seconds["fixed-rightsized"] / total_seconds["adaptive"]
    )
    result.extra["adaptive_grows"] = adaptive.resize_stats.grows
    result.extra["adaptive_shrinks"] = adaptive.resize_stats.shrinks
    result.extra["adaptive_final_beta"] = adaptive.beta()
    result.extra["adaptive_final_buckets"] = adaptive.num_buckets
    result.extra["adaptive_beta_in_band"] = float(
        policy.decide(len(adaptive), adaptive.num_buckets, adaptive.config.elements_per_slab)
        is None
    )
    return result


def slab_size_ablation(
    slab_bytes_options: Sequence[int] = (32, 64, 128, 256),
    *,
    beta_elements_per_bucket: float = 0.7,
    key_value: bool = True,
) -> FigureResult:
    """Design-choice ablation: slab size (Section III-A / IV-B).

    Analytic: smaller slabs waste less space per pointer but need more memory
    transactions per traversal and cannot give each warp lane a full word; the
    128-byte choice matches the warp's physical memory access width.
    """
    result = FigureResult(
        figure_id="Section IV-B",
        title="Slab-size ablation: utilization ceiling and modelled search cost",
        x_label="slab size (bytes)",
        y_label="value",
        notes="'max utilization' is Mx/(Mx+y); 'relative search cost' is modelled "
        "memory transactions per query at fixed elements-per-bucket, normalized "
        "to the 128-byte slab.",
    )
    util_series = result.add_series("max utilization")
    cost_series = result.add_series("relative search cost")

    element_bytes = 8 if key_value else 4
    reference_cost = None
    for slab_bytes in slab_bytes_options:
        data_bytes = slab_bytes - 8  # pointer word + auxiliary word
        elements_per_slab = max(1, data_bytes // element_bytes)
        max_util = (elements_per_slab * element_bytes) / slab_bytes
        util_series.add(slab_bytes, max_util)

        # Elements per bucket fixed (beta at the 128-byte reference); smaller
        # slabs mean proportionally more slabs (and transactions) per chain.
        elements_per_bucket = beta_elements_per_bucket * (120 // element_bytes)
        slabs_per_chain = max(1.0, elements_per_bucket / elements_per_slab)
        transactions = slabs_per_chain * max(1.0, slab_bytes / 128.0)
        if reference_cost is None and slab_bytes == 128:
            reference_cost = transactions
    # Normalize after the reference is known (fall back to the last value).
    reference_cost = reference_cost or transactions
    for slab_bytes in slab_bytes_options:
        data_bytes = slab_bytes - 8
        elements_per_slab = max(1, data_bytes // element_bytes)
        elements_per_bucket = beta_elements_per_bucket * (120 // element_bytes)
        slabs_per_chain = max(1.0, elements_per_bucket / elements_per_slab)
        transactions = slabs_per_chain * max(1.0, slab_bytes / 128.0)
        cost_series.add(slab_bytes, transactions / reference_cost)
    return result
