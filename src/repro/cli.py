"""Command-line interface for regenerating the paper's experiments.

Usage (after installation, or with ``PYTHONPATH=src``)::

    python -m repro list                    # show every reproducible experiment
    python -m repro reproduce fig4a         # regenerate one figure, print its table
    python -m repro reproduce all --scale 0.5 --out results/
    python -m repro info                    # device model and calibration summary
    python -m repro snapshot out.npz --elements 8192   # durable snapshot demo
    python -m repro recover out.npz --wal ops.wal      # restore + replay a WAL
    python -m repro service-health --chaos-seed 7      # live-service health counters

Experiment ids (the single source of truth is the :data:`EXPERIMENTS`
registry below; ``python -m repro list`` prints the same table)::

    fig4a        bulk build rate vs memory utilization
    fig4b        bulk search rate vs memory utilization
    fig4c        memory utilization vs average slab count
    fig5a        build rate vs number of elements
    fig5b        search rate vs number of elements
    fig6         incremental batched insertion vs rebuild-from-scratch
    fig7a        concurrent mixed-operation rate vs utilization
    fig7b        slab hash vs Misra & Chaudhuri's lock-free hash table
    allocators   SlabAlloc vs Halloc vs CUDA malloc
    light        SlabAlloc vs SlabAlloc-light ablation
    gfsl         analytic GFSL comparison
    wcws         WCWS vs per-thread processing ablation
    slabsize     slab-size design-choice ablation
    shard-sweep  sharded multi-table engine scaling (1..16 shards)
    resize-sweep online resizing under churn vs fixed-bucket tables

``--scale`` multiplies the default (scaled-down) simulation sizes: 1.0 is the
benchmark default, smaller values are faster smoke runs, larger values tighten
the statistics at the cost of runtime.  See docs/EXPERIMENTS.md for how the
modelled numbers relate to the paper's K40c measurements.

``--backend`` selects the execution backend for every table the experiments
build: ``vectorized`` (default; one NumPy kernel for bulk operations and
unscheduled concurrent batches) or ``reference`` (the per-warp generator
schedule).  Both produce identical device counters — and therefore identical
tables — the flag only changes the host-side wall-clock time; see
docs/PERFORMANCE.md.  (Scheduler-interleaved concurrent runs, e.g. fig7a/b,
always execute the reference generators on either backend.)
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Awaitable, Callable, Dict, List, Optional, TextIO, Tuple

from repro.core.bulk_exec import BACKENDS
from repro.gpusim.device import TESLA_K40C
from repro.perf import figures
from repro.perf.harness import FigureResult, execution_backend
from repro.perf.report import PAPER_REFERENCE, format_figure, format_table

__all__ = ["EXPERIMENTS", "main", "build_parser"]


def _scaled(base: int, scale: float, minimum: int = 256) -> int:
    return max(minimum, int(base * scale))


#: Registry: experiment id -> (description, driver taking a scale factor).
EXPERIMENTS: Dict[str, Tuple[str, Callable[[float], FigureResult]]] = {
    "fig4a": (
        "Bulk build rate vs memory utilization (paper Fig. 4a)",
        lambda scale: figures.figure_4a(sim_elements=_scaled(2**13, scale)),
    ),
    "fig4b": (
        "Bulk search rate vs memory utilization (paper Fig. 4b)",
        lambda scale: figures.figure_4b(sim_elements=_scaled(2**13, scale)),
    ),
    "fig4c": (
        "Memory utilization vs average slab count (paper Fig. 4c)",
        lambda scale: figures.figure_4c(sim_elements=_scaled(2**13, scale)),
    ),
    "fig5a": (
        "Build rate vs number of elements (paper Fig. 5a)",
        lambda scale: figures.figure_5a(sim_elements=_scaled(2**12, scale)),
    ),
    "fig5b": (
        "Search rate vs number of elements (paper Fig. 5b)",
        lambda scale: figures.figure_5b(sim_elements=_scaled(2**12, scale)),
    ),
    "fig6": (
        "Incremental batched insertion vs rebuild-from-scratch (paper Fig. 6)",
        lambda scale: figures.figure_6(
            total_elements=_scaled(2**14, scale, minimum=1024),
            batch_sizes=(
                _scaled(256, scale, 32),
                _scaled(512, scale, 64),
                _scaled(1024, scale, 128),
            ),
        ),
    ),
    "fig7a": (
        "Concurrent mixed-operation rate vs utilization (paper Fig. 7a)",
        lambda scale: figures.figure_7a(sim_elements=_scaled(2**12, scale)),
    ),
    "fig7b": (
        "Slab hash vs Misra & Chaudhuri's lock-free hash table (paper Fig. 7b)",
        lambda scale: figures.figure_7b(
            num_operations=_scaled(2**12, scale), initial_elements=_scaled(2**12, scale)
        ),
    ),
    "allocators": (
        "SlabAlloc vs Halloc vs CUDA malloc under the WCWS pattern (paper Sec. V)",
        lambda scale: figures.allocator_comparison(sim_allocations=_scaled(2**13, scale)),
    ),
    "light": (
        "SlabAlloc vs SlabAlloc-light on bulk searches (paper Sec. V)",
        lambda scale: figures.slaballoc_light_ablation(sim_elements=_scaled(2**13, scale)),
    ),
    "gfsl": (
        "Analytic GFSL comparison (paper Sec. VI-C)",
        lambda scale: figures.gfsl_comparison(),
    ),
    "wcws": (
        "WCWS vs per-thread processing ablation (paper Sec. IV-A)",
        lambda scale: figures.wcws_vs_per_thread(sim_elements=_scaled(2**13, scale)),
    ),
    "slabsize": (
        "Slab-size design-choice ablation (paper Sec. IV-B)",
        lambda scale: figures.slab_size_ablation(),
    ),
    "shard-sweep": (
        "Sharded multi-table engine: throughput scaling over 1..16 shards",
        lambda scale: figures.shard_sweep(sim_elements=_scaled(2**13, scale)),
    ),
    "resize-sweep": (
        "Online resizing under a churn workload vs fixed-bucket tables",
        lambda scale: figures.resize_sweep(sim_elements=_scaled(2**12, scale, minimum=512)),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'A Dynamic Hash Table for the GPU' (IPDPS 2018).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every reproducible experiment")
    sub.add_parser("info", help="show the modelled device and calibration reference points")

    run = sub.add_parser("reproduce", help="run one experiment (or 'all') and print its table")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"],
                     help="experiment id (see 'repro list'), or 'all'")
    run.add_argument("--scale", type=float, default=1.0,
                     help="multiplier on the default simulation sizes (default 1.0)")
    run.add_argument("--out", type=str, default=None,
                     help="directory to write the resulting tables into")
    run.add_argument("--backend", choices=list(BACKENDS), default="vectorized",
                     help="execution backend for every table: bulk ops and "
                          "unscheduled concurrent batches (identical results; "
                          "vectorized is much faster)")

    snap = sub.add_parser(
        "snapshot",
        help="build a demo table (or sharded engine) and write a durable snapshot",
    )
    snap.add_argument("out", help="snapshot path (a file for 1 shard, a directory otherwise)")
    snap.add_argument("--elements", type=int, default=8192,
                      help="elements to build before snapshotting (default %(default)s)")
    snap.add_argument("--shards", type=int, default=1,
                      help="1 builds a SlabHash, >1 a ShardedSlabHash (default %(default)s)")
    snap.add_argument("--seed", type=int, default=1, help="workload/table seed")
    snap.add_argument("--backend", choices=list(BACKENDS), default="vectorized",
                      help="execution backend stored in the snapshot")

    rec = sub.add_parser(
        "recover",
        help="restore a snapshot, optionally replaying a write-ahead log tail",
    )
    rec.add_argument("snapshot", help="path written by 'repro snapshot' or persist.save()")
    rec.add_argument("--wal", default=None,
                     help="write-ahead log whose complete records are replayed "
                          "(a torn final record is discarded)")

    health = sub.add_parser(
        "service-health",
        help="run a short live-service burst (optionally under injected "
             "faults) and print its health and degradation counters",
    )
    health.add_argument("--ops", type=int, default=20000,
                        help="insertions to push through the service (default %(default)s)")
    health.add_argument("--shards", type=int, default=2,
                        help="shards in the backing engine (default %(default)s)")
    health.add_argument("--seed", type=int, default=1, help="workload/table seed")
    health.add_argument("--chaos-seed", type=int, default=None,
                        help="inject a seeded random FaultPlan over the "
                             "execute and allocator sites (docs/FAULTS.md); "
                             "omitted = healthy run")
    health.add_argument("--fault-rate", type=float, default=0.05,
                        help="per-occurrence injection probability when "
                             "--chaos-seed is set (default %(default)s)")

    lint = sub.add_parser(
        "lint",
        help="run the repo's determinism/concurrency/typing lints "
             "(docs/ANALYSIS.md)",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the "
                           "whole repro package)")
    lint.add_argument("--select", action="append", default=None, metavar="RULE",
                      help="run only this rule id (repeatable); see --list-rules")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog (id, scope, rationale) and exit")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="violation output format (default %(default)s)")
    return parser


def _run_one(name: str, scale: float, out_dir: Optional[str], stream: TextIO) -> FigureResult:
    description, driver = EXPERIMENTS[name]
    start = time.perf_counter()
    result = driver(scale)
    elapsed = time.perf_counter() - start
    text = format_figure(result)
    stream.write(f"\n# {name}: {description}  [{elapsed:.1f}s]\n{text}\n")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{name}.txt"), "w", encoding="utf-8") as handle:
            handle.write(text)
    return result


def main(argv: Optional[List[str]] = None, stream: Optional[TextIO] = None) -> int:
    stream = stream or sys.stdout
    args = build_parser().parse_args(argv)

    if args.command == "list":
        rows = [[name, description] for name, (description, _) in sorted(EXPERIMENTS.items())]
        stream.write(format_table(["experiment", "description"], rows) + "\n")
        return 0

    if args.command == "info":
        spec = TESLA_K40C
        rows = [
            ["device", spec.name],
            ["SMs / warp size", f"{spec.num_sms} / {spec.warp_size}"],
            ["DRAM bandwidth", f"{spec.dram_bandwidth / 1e9:.0f} GB/s"],
            ["L2 cache", f"{spec.l2_cache_bytes // 1024} KiB"],
            ["paper peak updates", f"{PAPER_REFERENCE['slabhash_peak_updates_mops']:.0f} M/s"],
            ["paper peak searches", f"{PAPER_REFERENCE['slabhash_peak_searches_mops']:.0f} M/s"],
            ["paper SlabAlloc rate", f"{PAPER_REFERENCE['slaballoc_rate_mops']:.0f} M/s"],
            ["paper max utilization", f"{PAPER_REFERENCE['slabhash_max_utilization']:.0%}"],
        ]
        stream.write(format_table(["quantity", "value"], rows) + "\n")
        return 0

    if args.command == "snapshot":
        return _cmd_snapshot(args, stream)

    if args.command == "recover":
        return _cmd_recover(args, stream)

    if args.command == "service-health":
        return _cmd_service_health(args, stream)

    if args.command == "lint":
        return _cmd_lint(args, stream)

    # command == "reproduce"
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    with execution_backend(args.backend):
        for name in names:
            _run_one(name, args.scale, args.out, stream)
    return 0


def _snapshot_size_bytes(path: str) -> int:
    if os.path.isdir(path):
        return sum(
            os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
        )
    return os.path.getsize(path)


def _cmd_snapshot(args: argparse.Namespace, stream: TextIO) -> int:
    from repro.core.slab_hash import SlabHash
    from repro.engine.sharded import ShardedSlabHash
    from repro.persist import load, save
    from repro.workloads.generators import unique_random_keys, values_for_keys

    keys = unique_random_keys(args.elements, seed=args.seed)
    values = values_for_keys(keys)
    buckets = SlabHash.buckets_for_beta(max(1, args.elements // max(1, args.shards)), 0.6)
    if args.shards > 1:
        table = ShardedSlabHash(args.shards, buckets, seed=args.seed, backend=args.backend)
    else:
        table = SlabHash(buckets, seed=args.seed, backend=args.backend)
    table.bulk_build(keys, values)
    save(table, args.out)
    restored = load(args.out)
    verified = restored.items() == table.items()
    rows = [
        ["snapshot", args.out],
        ["kind", "sharded engine" if args.shards > 1 else "single table"],
        ["elements", str(len(table))],
        ["buckets", str(table.num_buckets)],
        ["shards", str(args.shards)],
        ["bytes", str(_snapshot_size_bytes(args.out))],
        ["round-trip verified", "yes" if verified else "NO — items diverged"],
    ]
    stream.write(format_table(["quantity", "value"], rows) + "\n")
    return 0 if verified else 1


def _cmd_recover(args: argparse.Namespace, stream: TextIO) -> int:
    from repro.engine.sharded import ShardedSlabHash
    from repro.persist import recover

    engine, report = recover(args.snapshot, args.wal)
    sharded = isinstance(engine, ShardedSlabHash)
    rows = [
        ["snapshot", report.snapshot_path],
        ["wal", report.wal_path or "(none)"],
        ["records replayed", str(report.records_replayed)],
        ["operations replayed", str(report.ops_replayed)],
        ["torn tail discarded", "yes" if report.torn_tail else "no"],
        ["kind", "sharded engine" if sharded else "single table"],
        ["elements", str(len(engine))],
        ["buckets", str(engine.num_buckets)],
    ]
    stream.write(format_table(["quantity", "value"], rows) + "\n")
    return 0


def _cmd_lint(args: argparse.Namespace, stream: TextIO) -> int:
    import json

    from repro.analysis import RULE_CLASSES, default_rules, lint_paths

    if args.list_rules:
        rows = []
        for cls in RULE_CLASSES:
            scope = ", ".join(cls.dirs) if cls.dirs else "repro/ (all)"
            if cls.exclude_dirs:
                scope += f" except {', '.join(cls.exclude_dirs)}"
            rows.append([cls.id, scope, cls.title])
        stream.write(format_table(["rule", "scope", "checks that"], rows) + "\n")
        return 0

    report = lint_paths(
        args.paths or None,
        rules=default_rules(args.select) if args.select else None,
    )
    if args.format == "json":
        payload = {
            "ok": report.ok,
            "files_checked": report.files_checked,
            "rules_run": list(report.rules_run),
            "violations": [
                {
                    "rule": v.rule,
                    "path": v.rel,
                    "line": v.line,
                    "col": v.col,
                    "message": v.message,
                }
                for v in report.violations
            ],
        }
        stream.write(json.dumps(payload, indent=2) + "\n")
    else:
        stream.write(report.format() + "\n")
    return 0 if report.ok else 1


def _cmd_service_health(args: argparse.Namespace, stream: TextIO) -> int:
    import asyncio
    import random as pyrandom

    import numpy as np

    from repro.core import constants as C
    from repro.engine.sharded import ShardedSlabHash
    from repro.faults import FaultAction, FaultPlan, InjectedFault
    from repro.service import (
        LANE_OPEN,
        ServiceConfig,
        ServiceError,
        SlabHashService,
        retry_with_backoff,
    )
    from repro.workloads.generators import unique_random_keys, values_for_keys

    plan = None
    if args.chaos_seed is not None:
        sites = []
        for shard in range(args.shards):
            sites.append((f"shard:{shard}.execute", FaultAction(exc="batch")))
            sites.append(
                (f"shard:{shard}.alloc.warp_allocate", FaultAction(exc="alloc"))
            )
        plan = FaultPlan.random(args.chaos_seed, sites, rate=args.fault_rate)

    engine = ShardedSlabHash(max(1, args.shards), 64, seed=args.seed)
    config = ServiceConfig(
        max_batch_size=256,
        max_delay=0.001,
        max_pending_per_shard=4096,
        breaker_threshold=2,
    )
    service = SlabHashService(engine, config=config, faults=plan)

    keys = unique_random_keys(args.ops, seed=args.seed)
    values = values_for_keys(keys)
    dropped = 0

    async def run() -> None:
        nonlocal dropped
        async with service:
            chunk = 512
            for start in range(0, len(keys), chunk):
                ops = np.full(len(keys[start : start + chunk]), C.OP_INSERT, dtype=np.int64)

                def admit(s: int = start, ops: np.ndarray = ops) -> Awaitable[np.ndarray]:
                    return service.submit_many(
                        ops, keys[s : s + chunk], values[s : s + chunk]
                    )

                try:
                    await retry_with_backoff(
                        admit,
                        retries=20,
                        base_delay=0.001,
                        rng=pyrandom.Random(args.seed + start),
                    )
                except (InjectedFault, ServiceError):
                    dropped += len(ops)  # degraded: the counters record why
            while LANE_OPEN in service.lane_states:
                await asyncio.sleep(0.001)

    asyncio.run(run())

    stats = service.stats().as_dict()
    healthy = all(state != LANE_OPEN for state in service.lane_states)
    rows = [
        ["verdict", "healthy" if healthy else "DEGRADED — lane(s) still open"],
        ["ops enqueued", str(stats["ops_enqueued"])],
        ["ops completed", str(stats["ops_completed"])],
        ["ops failed", str(stats["ops_failed"])],
        ["ops rejected (backpressure/quarantine)", str(stats["ops_rejected"])],
        ["ops expired (deadline)", str(stats["ops_expired"])],
        ["admissions dropped after retries", str(dropped)],
        ["breaker trips", str(stats["breaker_trips"])],
        ["shard restores", str(stats["shard_restores"])],
        ["wal rollbacks", str(stats["wal_rollbacks"])],
        ["batches aborted", str(stats["batches_aborted"])],
        ["restore failures", str(len(stats["restore_failures"]))],
        ["resize failures", str(len(stats["resize_failures"]))],
        ["injected faults fired", str(len(plan.fired)) if plan is not None else "0"],
    ]
    stream.write(format_table(["quantity", "value"], rows) + "\n")
    lane_rows = [
        [
            str(lane["shard"]),
            lane["state"],
            str(lane["ops_enqueued"]),
            str(lane["rejected_overloaded"]),
            str(lane["rejected_quarantined"]),
            str(lane["ops_expired"]),
            str(lane["trips"]),
            str(lane["restores"]),
        ]
        for lane in stats["per_shard"]
    ]
    stream.write(
        format_table(
            ["lane", "state", "enqueued", "rej-over", "rej-quar",
             "expired", "trips", "restores"],
            lane_rows,
        )
        + "\n"
    )
    return 0 if healthy else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
