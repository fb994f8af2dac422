"""Service benchmark: closed-loop traffic through SlabHashService with the WAL on.

Run from the repository root::

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.  The
line before it holds the details (host fingerprint, sample counts, work
identity).  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from repro.core.resize import LoadFactorPolicy  # noqa: E402
from repro.engine.sharded import ShardedSlabHash  # noqa: E402
from repro.persist.recovery import recover  # noqa: E402
from repro.persist.wal import WriteAheadLog  # noqa: E402
from repro.service.service import ServiceConfig, SlabHashService  # noqa: E402
from repro.workloads.generators import values_for_keys  # noqa: E402

import hostinfo  # noqa: E402
from streams import IN_FLIGHT, Phase, Request, Stream, churn_stream, steady_stream  # noqa: E402
from tracing import SpanView, Tracer  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
SHARDS = 2
SETUPS = 3  #: set-ups per run; ``setup_s`` is their median
#: max_delay=0: a ragged tail is cut at once instead of waiting on a timer,
#: so batch cuts depend on the op stream alone.
CONFIG = ServiceConfig(max_delay=0.0)


@dataclass(frozen=True)
class Workload:
    make_stream: Callable[[int, int], Stream]  # (seed, seconds) -> stream
    make_engine: Callable[[int], ShardedSlabHash]  # seed -> empty engine
    reps: int  #: measured repetitions, each from the same checkpoint


def _steady(initial: int, mix: Tuple[float, float, float], windows_per_s: float,
            reps: int) -> Workload:
    return Workload(
        lambda seed, seconds: steady_stream(
            initial, mix, 2, max(1, round(seconds * windows_per_s / reps)), seed
        ),
        lambda seed: ShardedSlabHash.for_utilization(SHARDS, initial, 0.6, seed=seed),
        reps,
    )


def _churn(peak: int, cycles_per_s: float, reps: int) -> Workload:
    policy = LoadFactorPolicy(auto=False, incremental=True)
    return Workload(
        lambda seed, seconds: churn_stream(
            peak, max(1, round(seconds * cycles_per_s / reps)), seed
        ),
        lambda seed: ShardedSlabHash.for_utilization(
            SHARDS, peak // 8, 0.6, seed=seed, load_factor_policy=policy
        ),
        reps,
    )


#: Gamma_1 = 20 % inserts, 20 % deletes, 30 % hit and 30 % miss searches;
#: Gamma_2 = 10 / 10 / 40 / 40.  Mix tuples are (insert, hit, miss).
WORKLOADS: Dict[str, Workload] = {
    "serve_small": _steady(20_000, (0.2, 0.3, 0.3), 22.4, 7),
    "serve_large": _steady(500_000, (0.1, 0.4, 0.4), 3.3, 3),
    "churn_resize": _churn(50_000, 0.5, 5),
}


# --------------------------------------------------------------------------- #
# Load generation and checks
# --------------------------------------------------------------------------- #


async def drive(
    service: SlabHashService, phases: List[Phase], latencies: List[float],
    replies: List[Tuple[Request, np.ndarray]],
) -> None:
    """Closed loop: IN_FLIGHT clients, each sends its next request on a reply."""
    clock = time.perf_counter
    for phase in phases:
        pending = iter(phase.requests)

        async def client() -> None:
            for request in pending:
                start = clock()
                result = await service.submit_many(request.op_codes, request.keys, request.values)
                latencies.append(clock() - start)
                replies.append((request, result))

        await asyncio.gather(*(client() for _ in range(IN_FLIGHT)))


def wrong_results(replies: List[Tuple[Request, np.ndarray]]) -> int:
    return sum(int(np.count_nonzero(res != req.expected)) for req, res in replies)


def contents(engine: ShardedSlabHash) -> Tuple[np.ndarray, np.ndarray]:
    items = np.array(engine.items(), dtype=np.uint64).reshape(-1, 2)
    items = items[np.argsort(items[:, 0], kind="stable")]
    return items[:, 0].astype(np.uint32), items[:, 1].astype(np.uint32)


def digest(keys: np.ndarray, values: np.ndarray) -> str:
    return hashlib.sha256(keys.tobytes() + values.tobytes()).hexdigest()[:32]


def mismatches(got: Tuple[np.ndarray, np.ndarray], want: Tuple[np.ndarray, np.ndarray]) -> int:
    """Keys missing or extra, plus keys whose value differs."""
    got_map = dict(zip(got[0].tolist(), got[1].tolist()))
    want_map = dict(zip(want[0].tolist(), want[1].tolist()))
    return len(got_map.keys() ^ want_map.keys()) + sum(
        got_map[k] != v for k, v in want_map.items() if k in got_map
    )


def lane_totals(service: SlabHashService) -> Dict[str, Any]:
    stats = service.stats()
    return {
        "batches": stats.batches_executed,
        "lane_modelled_s": [lane.modelled_seconds for lane in stats.per_shard],
        "resize_modelled_s": stats.resize_modelled_seconds,
        "migrations": stats.resizes_performed,
        "migration_steps": stats.migration_steps,
        "ops_failed": stats.ops_failed,
    }


def counters(engine: ShardedSlabHash) -> Tuple[int, int]:
    return (sum(s.device.counters.allocations for s in engine.shards),
            sum(s.device.counters.resident_changes for s in engine.shards))


def du(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #


class Run:
    """Set-up, measured phase, crash and recovery for one workload and seed."""

    def __init__(self, workload: Workload, stream: Stream, seed: int, scratch: str) -> None:
        self.workload = workload
        self.stream = stream
        self.seed = seed
        self.scratch = scratch
        self.wal_path = os.path.join(scratch, "wal.log")
        self.snapshot_path = os.path.join(scratch, "snapshot")
        self.service: Optional[SlabHashService] = None
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, wrong: int) -> None:
        if wrong:
            print(f"check failed: {what}: {wrong} wrong", file=sys.stderr)
        self.failed += wrong

    async def setup(self) -> float:
        """Build, warm up and checkpoint a fresh service; returns the time taken."""
        remove(self.wal_path)
        remove(self.snapshot_path)
        start = time.perf_counter()
        engine = self.workload.make_engine(self.seed)
        build = self.stream.build_keys
        if build.size:
            engine.bulk_build(build, values_for_keys(build))
        self.service = SlabHashService(engine, config=CONFIG, wal=WriteAheadLog(self.wal_path))
        await self.service.start()
        replies: List[Tuple[Request, np.ndarray]] = []
        await drive(self.service, self.stream.warmup, [], replies)
        self.service.checkpoint(self.snapshot_path)
        elapsed = time.perf_counter() - start
        self.attempted += sum(p.num_ops for p in self.stream.warmup)
        self.check("warm-up results", wrong_results(replies))
        return elapsed

    async def setups(self) -> List[float]:
        """SETUPS timed set-ups; each ends with a checkpoint and is then dropped."""
        samples: List[float] = []
        for _ in range(SETUPS):
            samples.append(await self.setup())
            await self.drop()
        return samples

    async def drop(self) -> None:
        """Stop the service and free its engine before anything else is built."""
        if self.service is not None:
            await self.service.stop()
            if self.service.wal is not None:
                self.service.wal.close()
            self.service = None
        gc.collect()

    async def measure(self) -> Dict[str, Any]:
        """The measured phase; the service is left holding the crash state."""
        service = self.service
        engine = service.engine
        latencies: List[float] = []
        replies: List[Tuple[Request, np.ndarray]] = []
        before, wal_before, alloc_before = lane_totals(service), service.wal.size(), counters(engine)
        gc.collect()
        usage_before = hostinfo.usage()
        start = time.perf_counter()
        await drive(service, self.stream.measured, latencies, replies)
        end = time.perf_counter()
        usage_after = hostinfo.usage()
        after, alloc_after = lane_totals(service), counters(engine)
        ops = self.stream.measured_ops
        self.attempted += ops
        failed_ops = after["ops_failed"] - before["ops_failed"]
        self.check("measured results", wrong_results(replies) + failed_ops)
        live = contents(engine)
        want = (self.stream.final_keys, self.stream.final_values)
        self.check("final contents vs model", mismatches(live, want))
        modelled = max(b - a for a, b in zip(before["lane_modelled_s"], after["lane_modelled_s"]))
        modelled += after["resize_modelled_s"] - before["resize_modelled_s"]
        allocs = alloc_after[0] - alloc_before[0]
        lat_ms = np.array(latencies) * 1e3
        return {
            "t0": start, "t1": end, "wall_s": end - start, "ops": ops,
            "throughput_ops_s": ops / (end - start),
            "latency_p50_ms": float(np.percentile(lat_ms, 50)),
            "latency_p99_ms": float(np.percentile(lat_ms, 99)),
            "latency_samples": len(latencies),
            "modelled_s": modelled,
            "modelled_mops_s": ops / modelled / 1e6,
            "batches": after["batches"] - before["batches"],
            "migrations": after["migrations"] - before["migrations"],
            "migration_steps": after["migration_steps"] - before["migration_steps"],
            "wal_bytes": service.wal.size() - wal_before,
            "resident_changes_per_alloc": (alloc_after[1] - alloc_before[1]) / allocs if allocs else 0.0,
            "host": {k: usage_after[k] - usage_before[k] for k in usage_before},
            "digest": digest(*live),
            "live": live,
        }

    async def crash_and_recover(self, live: Tuple[np.ndarray, np.ndarray]) -> Tuple[float, Dict[str, Any]]:
        """Drop the live service without a checkpoint, then recover its engine."""
        await self.drop()
        start = time.perf_counter()
        engine, report = recover(self.snapshot_path, self.wal_path)
        elapsed = time.perf_counter() - start
        self.check("recovered contents vs live", mismatches(contents(engine), live))
        self.check("recovery replayed failures", report.records_failed)
        del engine
        gc.collect()
        return elapsed, report.as_dict()

    async def restart_from_checkpoint(self) -> None:
        """A service recovered from the checkpoint alone, logging to an empty WAL."""
        await self.drop()
        remove(self.wal_path)
        wal = WriteAheadLog(self.wal_path)
        self.service = SlabHashService.recovered(self.snapshot_path, wal, config=CONFIG)
        await self.service.start()


# --------------------------------------------------------------------------- #
# Work identity: a seed must always produce the same work
# --------------------------------------------------------------------------- #


def code_digest() -> str:
    """Digest of the program and benchmark sources: the guard compares like with like."""
    sha = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for file in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, file)
                sha.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:16]


def guard_identity(key: str, identity: Dict[str, Any]) -> None:
    """Record this run's work, or stop if an earlier run of the same code and seed differs."""
    path = os.path.join(WORK, "identity", f"{key}-{code_digest()}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as handle:
            recorded = json.load(handle)
        if recorded != identity:
            raise SystemExit(
                f"work identity changed for {key}: recorded {recorded}, this run {identity}"
            )
        return
    with open(path, "w") as handle:
        json.dump(identity, handle)


def identity_of(m: Dict[str, Any]) -> Dict[str, Any]:
    return {"batches": m["batches"], "migrations": m["migrations"],
            "migration_steps": m["migration_steps"], "modelled_s": f"{m['modelled_s']:.12g}",
            "digest": m["digest"]}


# --------------------------------------------------------------------------- #
# Metric assembly
# --------------------------------------------------------------------------- #


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def end_to_end(reps: List[Dict[str, Any]], setup: List[float], recover_s: float) -> Dict[str, Any]:
    def median(key: str) -> float:
        return statistics.median(r[key] for r in reps)

    m = reps[-1]
    return {
        "throughput_ops_s": metric(median("throughput_ops_s"), "ops/s"),
        "latency_p50_ms": metric(median("latency_p50_ms"), "ms"),
        "latency_p99_ms": metric(median("latency_p99_ms"), "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(hostinfo.peak_rss_mb(), "MB"),
        "recover_s": metric(recover_s, "s"),
        "modelled_mops_s": metric(m["modelled_mops_s"], "Mops/s"),
    }


def per_layer(m: Dict[str, Any], spans: SpanView, save_s: List[float], snapshot_bytes: int,
              recovery: SpanView, untraced_tp: float) -> Dict[str, Any]:
    ops = m["ops"]
    cb = "core.slab_hash.concurrent_batch"
    out = {
        cb + ".calls": metric(spans.calls(cb), "count"),
        cb + ".busy_s": metric(spans.busy_s(cb), "s"),
        cb + ".p50_ms": metric(spans.percentile_ms(cb, 50), "ms"),
        cb + ".p99_ms": metric(spans.percentile_ms(cb, 99), "ms"),
        cb + ".us_per_op": metric(spans.busy_s(cb) / ops * 1e6, "us"),
    }
    for layer in ("core.slab_alloc.deallocate", "core.slab_alloc.warp_allocate",
                  "core.resize.pump", "persist.wal.append_group", "engine.admit_partition"):
        out[layer + ".calls"] = metric(spans.calls(layer), "count")
        out[layer + ".busy_s"] = metric(spans.busy_s(layer), "s")
    traced_tp = m["throughput_ops_s"]
    out.update({
        "core.slab_alloc.resident_changes_per_alloc": metric(m["resident_changes_per_alloc"], "ratio"),
        "core.resize.pump.max_ms": metric(spans.percentile_ms("core.resize.pump", 100), "ms"),
        "core.resize.migrations": metric(m["migrations"], "count"),
        "persist.wal.bytes": metric(m["wal_bytes"], "bytes"),
        "perf.metrics.measure_phase.self_s": metric(spans.self_s("perf.metrics.measure_phase"), "s"),
        "service.self_s": metric(m["wall_s"] - spans.top_level_busy_s(), "s"),
        "service.batches": metric(m["batches"], "count"),
        "service.batch_ops_mean": metric(ops / m["batches"], "ops"),
        "persist.snapshot.save_s": metric(statistics.median(save_s), "s"),
        "persist.snapshot.bytes": metric(snapshot_bytes, "bytes"),
        "persist.recovery.load_s": metric(recovery.busy_s("persist.recovery.load"), "s"),
        "persist.recovery.replay_s": metric(recovery.busy_s("persist.recovery.replay"), "s"),
        "persist.recovery.records": metric(recovery.calls("persist.recovery.replay"), "count"),
        "host.user_s": metric(m["host"]["user_s"], "s"),
        "host.sys_s": metric(m["host"]["sys_s"], "s"),
        "host.minor_faults": metric(m["host"]["minor_faults"], "count"),
        "host.rss_growth_mb": metric(m["host"]["rss_mb"], "MB"),
        "trace.throughput_ops_s": metric(traced_tp, "ops/s"),
        "trace.untraced_throughput_ops_s": metric(untraced_tp, "ops/s"),
        "trace.overhead_pct": metric((untraced_tp - traced_tp) / untraced_tp * 100.0, "%"),
    })
    return out


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


async def run(name: str, seed: int, seconds: int, trace: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    workload = WORKLOADS[name]
    host = hostinfo.fingerprint()
    stream = workload.make_stream(seed, seconds)  # built before any timing
    scratch = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        bench = Run(workload, stream, seed, scratch)
        if tracer is not None:
            tracer.install()
        setup = await bench.setups()
        snapshot_bytes = du(bench.snapshot_path)
        # Every repetition replays the same requests on a service recovered
        # from the last set-up's checkpoint.  A traced run brackets one traced
        # repetition by two untraced ones, so host drift cancels out of the
        # tracing overhead.
        plan = [False, True, False] if trace else [False] * workload.reps
        reps: List[Dict[str, Any]] = []
        for index, traced in enumerate(plan):
            await bench.restart_from_checkpoint()
            if tracer is not None:
                (tracer.install if traced else tracer.uninstall)()
            reps.append(await bench.measure())
            if identity_of(reps[index]) != identity_of(reps[0]):
                raise SystemExit(
                    "repetitions from one checkpoint did different work: "
                    f"{identity_of(reps[0])} vs {identity_of(reps[index])}"
                )
            live = reps[index].pop("live")
        if tracer is not None:
            tracer.install()
        recover_t0 = time.perf_counter()
        recover_s, report = await bench.crash_and_recover(live)
        detail: Dict[str, Any] = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "host": host, "requests_per_rep": stream.measured_requests, "recovery": report,
            "setup_samples_s": setup,
            "reps": [{k: r[k] for k in ("throughput_ops_s", "latency_p50_ms", "latency_p99_ms",
                                          "wall_s", "host")} for r in reps],
        }
        if tracer is None:
            metrics = end_to_end(reps, setup, recover_s)
        else:
            tracer.uninstall()
            m = reps[1]
            spans = SpanView(tracer, m["t0"], m["t1"])
            recovery = SpanView(tracer, recover_t0)
            setup_spans = SpanView(tracer, float("-inf"), reps[0]["t0"])
            save_s = [d / 1e3 for d in setup_spans.durations_ms("persist.snapshot.save")]
            untraced_tp = statistics.mean(r["throughput_ops_s"] for r in (reps[0], reps[2]))
            metrics = per_layer(m, spans, save_s, snapshot_bytes, recovery, untraced_tp)
            tracer.write(os.path.join(WORK, f"spans-{name}.npz"))
        last = reps[-1]
        guard_identity(f"{name}-seed{seed}-s{seconds}", identity_of(last))
        detail["identity"] = identity_of(last)
        detail["latency_samples_per_rep"] = last["latency_samples"]
        detail["calibration_end_s"] = hostinfo.calibration_s()
        detail["metrics"] = metrics
        result = {"correct": bench.failed == 0, "attempted": bench.attempted,
                  "failed": bench.failed, "metrics": metrics}
        return detail, result
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    detail, result = asyncio.run(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
