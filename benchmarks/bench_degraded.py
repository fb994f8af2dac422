"""Degraded-mode service benchmark: overload and quarantine operating points.

Measures the service at three operating points and merges the results into
the ``degraded`` section of the repo-root ``BENCH_service.json`` (schema
v4, owned by ``benchmarks/bench_service_saturation.py``):

* **healthy** — generous admission budget, no faults: baseline accepted
  throughput and served-latency percentiles for the same stream shape;
* **overloaded** — a tiny ``max_pending_per_shard`` budget under far more
  offered load than the drains clear: clients with no retry loop measure
  *rejection latency* (how long a refused ``submit_many`` takes to fail —
  backpressure must say "no" quickly, not after queueing) alongside the
  accepted throughput the bounded queue still sustains;
* **quarantined** — a seeded :class:`repro.faults.FaultPlan` injects batch
  failures that trip per-shard breakers mid-run; clients ride through with
  :func:`repro.service.retry_with_backoff` and the point records the
  throughput the service sustains while lanes trip, restore, and close.

The acceptance floor (``tests/perf/test_service_schema.py``): the
overloaded point's rejection-latency p99 must not exceed the committed
document's healthy served p99 — being told "come back later" is never
slower than being served.

Run after the saturation sweep has produced the base document::

    PYTHONPATH=src python benchmarks/bench_service_saturation.py --smoke --out /tmp/BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_degraded.py --smoke --out /tmp/BENCH_service.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import time
from typing import List, Optional

import numpy as np

from repro.engine.sharded import ShardedSlabHash
from repro.faults import FaultAction, FaultPlan, InjectedFault
from repro.service import (
    LANE_OPEN,
    ServiceConfig,
    ServiceError,
    ServiceOverloaded,
    SlabHashService,
    retry_with_backoff,
)
from repro.workloads.distributions import GAMMA_40_UPDATES, build_concurrent_workload
from repro.workloads.generators import unique_random_keys, values_for_keys

from bench_service_saturation import DEFAULT_OUT, SCHEMA_VERSION, validate_document


def _percentiles(samples: List[float]) -> dict:
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    return {
        "count": int(ordered.size),
        "mean_s": float(ordered.mean()) if ordered.size else 0.0,
        "p50_s": float(np.percentile(ordered, 50)) if ordered.size else 0.0,
        "p90_s": float(np.percentile(ordered, 90)) if ordered.size else 0.0,
        "p99_s": float(np.percentile(ordered, 99)) if ordered.size else 0.0,
        "max_s": float(ordered.max()) if ordered.size else 0.0,
    }


def _build_engine(num_shards: int, initial_elements: int, seed: int):
    engine = ShardedSlabHash.for_utilization(num_shards, initial_elements, 0.6, seed=seed)
    keys = unique_random_keys(initial_elements, seed=seed)
    engine.bulk_build(keys, values_for_keys(keys))
    return engine, keys


def run_healthy_point(
    *, num_ops: int, num_shards: int, initial_elements: int, burst: int,
    concurrency: int, max_batch_size: int, max_delay: float, seed: int,
) -> dict:
    engine, keys = _build_engine(num_shards, initial_elements, seed)
    workload = build_concurrent_workload(GAMMA_40_UPDATES, num_ops, keys, seed=seed + 7)
    service = SlabHashService(
        engine, config=ServiceConfig(max_batch_size=max_batch_size, max_delay=max_delay)
    )

    async def main() -> None:
        gate = asyncio.Semaphore(concurrency)

        async def one(start: int, end: int) -> None:
            async with gate:
                await service.submit_many(
                    workload.op_codes[start:end],
                    workload.keys[start:end],
                    workload.values[start:end],
                )

        async with service:
            await asyncio.gather(
                *[
                    asyncio.ensure_future(one(start, min(start + burst, len(workload))))
                    for start in range(0, len(workload), burst)
                ]
            )

    asyncio.run(main())
    stats = service.stats()
    return {
        "ops_per_sec": stats.ops_per_second,
        "latency": stats.latency.as_dict(),
    }


def run_overloaded_point(
    *, num_ops: int, num_shards: int, initial_elements: int, burst: int,
    concurrency: int, max_batch_size: int, max_delay: float,
    max_pending_per_shard: int, seed: int,
) -> dict:
    """Offer the stream against a tiny admission budget, no client retries.

    Each refused admission's wall time is a rejection-latency sample — the
    cost of being told "come back later".
    """
    engine, keys = _build_engine(num_shards, initial_elements, seed)
    workload = build_concurrent_workload(GAMMA_40_UPDATES, num_ops, keys, seed=seed + 7)
    service = SlabHashService(
        engine,
        config=ServiceConfig(
            max_batch_size=max_batch_size,
            max_delay=max_delay,
            max_pending_per_shard=max_pending_per_shard,
        ),
    )
    rejection_samples: List[float] = []
    admitted = 0

    async def main() -> None:
        nonlocal admitted
        gate = asyncio.Semaphore(concurrency)

        async def one(start: int, end: int) -> None:
            nonlocal admitted
            async with gate:
                began = time.perf_counter()
                try:
                    await service.submit_many(
                        workload.op_codes[start:end],
                        workload.keys[start:end],
                        workload.values[start:end],
                    )
                    admitted += end - start
                except ServiceOverloaded:
                    rejection_samples.append(time.perf_counter() - began)

        async with service:
            await asyncio.gather(
                *[
                    asyncio.ensure_future(one(start, min(start + burst, len(workload))))
                    for start in range(0, len(workload), burst)
                ]
            )

    asyncio.run(main())
    stats = service.stats()
    return {
        "accepted_ops_per_sec": stats.ops_per_second,
        "admitted_ops": int(admitted),
        "rejected_admissions": len(rejection_samples),
        "ops_rejected": stats.ops_rejected,
        "rejection_latency": _percentiles(rejection_samples),
    }


def run_quarantined_point(
    *, num_ops: int, num_shards: int, initial_elements: int, burst: int,
    concurrency: int, max_batch_size: int, max_delay: float,
    breaker_threshold: int, chaos_seed: int, fault_rate: float, seed: int,
) -> dict:
    """Serve the stream while injected batch failures trip and heal lanes."""
    engine, keys = _build_engine(num_shards, initial_elements, seed)
    workload = build_concurrent_workload(GAMMA_40_UPDATES, num_ops, keys, seed=seed + 7)
    sites = []
    for shard in range(num_shards):
        sites.append((f"shard:{shard}.execute", FaultAction(exc="batch")))
    plan = FaultPlan.random(chaos_seed, sites, rate=fault_rate, horizon=32)
    service = SlabHashService(
        engine,
        config=ServiceConfig(
            max_batch_size=max_batch_size,
            max_delay=max_delay,
            breaker_threshold=breaker_threshold,
        ),
        faults=plan,
    )

    async def main() -> None:
        gate = asyncio.Semaphore(concurrency)

        async def one(start: int, end: int) -> None:
            async with gate:
                def admit(s=start, e=end):
                    return service.submit_many(
                        workload.op_codes[s:e],
                        workload.keys[s:e],
                        workload.values[s:e],
                    )

                try:
                    await retry_with_backoff(
                        admit, retries=40, base_delay=0.0005, max_delay=0.01,
                        rng=random.Random(seed + start),
                    )
                except (InjectedFault, ServiceError):
                    pass  # dropped under chaos; the counters record it

        async with service:
            await asyncio.gather(
                *[
                    asyncio.ensure_future(one(start, min(start + burst, len(workload))))
                    for start in range(0, len(workload), burst)
                ]
            )
            while LANE_OPEN in service.lane_states:
                await asyncio.sleep(0.001)

    asyncio.run(main())
    stats = service.stats()
    return {
        "ops_per_sec": stats.ops_per_second,
        "breaker_trips": stats.breaker_trips,
        "shard_restores": stats.shard_restores,
        "injected_faults": len(plan.fired),
        "latency": stats.latency.as_dict(),
    }


def run_degraded_section(
    *, num_ops: int, num_shards: int, initial_elements: int, burst: int,
    concurrency: int, max_batch_size: int, max_delay: float,
    max_pending_per_shard: int, breaker_threshold: int, chaos_seed: int,
    fault_rate: float, seed: int,
) -> dict:
    common = dict(
        num_ops=num_ops, num_shards=num_shards, initial_elements=initial_elements,
        burst=burst, concurrency=concurrency, max_batch_size=max_batch_size,
        max_delay=max_delay, seed=seed,
    )
    return {
        "config": {
            "num_ops": int(num_ops),
            "num_shards": int(num_shards),
            "initial_elements": int(initial_elements),
            "burst": int(burst),
            "concurrency": int(concurrency),
            "max_batch_size": int(max_batch_size),
            "max_delay_s": float(max_delay),
            "max_pending_per_shard": int(max_pending_per_shard),
            "breaker_threshold": int(breaker_threshold),
            "chaos_seed": int(chaos_seed),
            "fault_rate": float(fault_rate),
        },
        "healthy": run_healthy_point(**common),
        "overloaded": run_overloaded_point(
            max_pending_per_shard=max_pending_per_shard, **common
        ),
        "quarantined": run_quarantined_point(
            breaker_threshold=breaker_threshold, chaos_seed=chaos_seed,
            fault_rate=fault_rate, **common,
        ),
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-ops", type=int, default=30_000,
                        help="operations offered per operating point (default %(default)s)")
    parser.add_argument("--num-shards", type=int, default=4,
                        help="shards behind the service (default %(default)s)")
    parser.add_argument("--initial", type=int, default=10_000,
                        help="elements pre-built into each engine (default %(default)s)")
    parser.add_argument("--max-batch", type=int, default=2048,
                        help="micro-batcher batch-size cap (default %(default)s)")
    parser.add_argument("--max-delay", type=float, default=0.002,
                        help="co-batching latency budget, seconds (default %(default)s)")
    parser.add_argument("--burst", type=int, default=256,
                        help="operations per client admission (default %(default)s)")
    parser.add_argument("--concurrency", type=int, default=64,
                        help="client admissions in flight (default %(default)s)")
    parser.add_argument("--budget", type=int, default=512,
                        help="max_pending_per_shard at the overloaded point "
                             "(default %(default)s)")
    parser.add_argument("--breaker-threshold", type=int, default=1,
                        help="consecutive failures before a lane trips (default %(default)s)")
    parser.add_argument("--chaos-seed", type=int, default=7,
                        help="seed for the quarantine point's FaultPlan (default %(default)s)")
    parser.add_argument("--fault-rate", type=float, default=0.15,
                        help="per-occurrence injection probability (default %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale for CI smoke")
    parser.add_argument("--out", type=str, default=DEFAULT_OUT,
                        help="BENCH_service.json to merge into (default: repo root)")
    args = parser.parse_args(argv)

    if not os.path.exists(args.out):
        print(f"error: {args.out} does not exist — run "
              "benchmarks/bench_service_saturation.py first (the degraded "
              "section rides in its document)")
        return 1
    with open(args.out, encoding="utf-8") as handle:
        document = json.load(handle)

    if args.smoke:
        degraded = run_degraded_section(
            num_ops=2_048, num_shards=2, initial_elements=1_024, burst=64,
            concurrency=16, max_batch_size=256, max_delay=args.max_delay,
            max_pending_per_shard=96, breaker_threshold=args.breaker_threshold,
            chaos_seed=args.chaos_seed, fault_rate=args.fault_rate, seed=1,
        )
    else:
        degraded = run_degraded_section(
            num_ops=args.num_ops, num_shards=args.num_shards,
            initial_elements=args.initial, burst=args.burst,
            concurrency=args.concurrency, max_batch_size=args.max_batch,
            max_delay=args.max_delay, max_pending_per_shard=args.budget,
            breaker_threshold=args.breaker_threshold,
            chaos_seed=args.chaos_seed, fault_rate=args.fault_rate, seed=1,
        )

    document["degraded"] = degraded
    document["schema_version"] = SCHEMA_VERSION
    validate_document(document, require_degraded=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")

    print(f"merged degraded section into {args.out}")
    healthy, overloaded, quarantined = (
        degraded["healthy"], degraded["overloaded"], degraded["quarantined"]
    )
    print(f"  healthy      {healthy['ops_per_sec'] / 1e3:9.1f} kops/s   "
          f"p99 {healthy['latency']['p99_s'] * 1e3:7.3f} ms")
    print(f"  overloaded   {overloaded['accepted_ops_per_sec'] / 1e3:9.1f} kops/s accepted   "
          f"{overloaded['rejected_admissions']} admissions refused   "
          f"rejection p99 {overloaded['rejection_latency']['p99_s'] * 1e3:7.3f} ms")
    print(f"  quarantined  {quarantined['ops_per_sec'] / 1e3:9.1f} kops/s   "
          f"{quarantined['breaker_trips']} trips, "
          f"{quarantined['shard_restores']} restores, "
          f"{quarantined['injected_faults']} faults fired")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
