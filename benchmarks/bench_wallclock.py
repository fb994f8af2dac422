"""Wall-clock throughput of the bulk backends — the repo's perf trajectory.

Unlike every other benchmark in this directory (which reports *modelled* GPU
time from the device counters), this one measures **real host wall-clock
seconds**: how fast the simulation itself executes bulk builds, bulk
searches, and Figure-7-style concurrent mixed batches (40 % updates, 60 %
searches, run on an already-built table) on each backend.  It writes a
machine-readable ``BENCH_wallclock.json`` so the speed of the simulator can
be tracked across PRs.

Run directly (or via ``scripts/bench_wallclock.sh``)::

    PYTHONPATH=src python benchmarks/bench_wallclock.py [--sizes 20000,100000]
        [--beta 0.6] [--repeats 3] [--out BENCH_wallclock.json]

Schema (``SCHEMA_VERSION``; version 2 added ``concurrent_mixed``, version 3
added the ``resize_churn`` op and top-level section, version 4 the
``persist`` section, version 5 the ``incremental_resize`` latency
comparison, version 6 the ``parallel`` measured-multiprocess section, and
version 7 removed ``parallel`` again together with the process shard
executor it measured)::

    {
      "schema_version": 7,
      "benchmark": "bulk_wallclock",
      "device_model": "...", "python": "...", "numpy": "...",
      "config": {"beta": ..., "repeats": ..., "sizes": [...]},
      "results": [
        {"op": "bulk_build" | "bulk_search" | "concurrent_mixed" | "resize_churn",
         "backend": "vectorized" | "reference",
         "num_keys": N, "seconds": s, "ops_per_sec": r}, ...
      ],
      "speedups": {"bulk_build_100000": x, "resize_churn_100000": y, ...},
      "resize_churn": {"num_keys": N, "cycles": c, "base_divisor": d,
                       "total_ops": t, "auto": {...}, "fixed": {...},
                       "auto_over_fixed": r},
      "incremental_resize": {"num_keys": N, "old_buckets": ..., "new_buckets": ...,
                             "step_buckets": ..., "interleaved_batch_ops": ...,
                             "stop_the_world": {"rebuild_seconds": ..., ...},
                             "incremental": {"steps": ..., "max_step_seconds": ..., ...},
                             "stw_over_incremental_max": r},
      "persist": {"num_keys": N, "snapshot_seconds": ..., "restore_seconds": ...,
                  "wal_append_seconds": ..., "replay_seconds": ...,
                  "snapshot_bytes": ..., "wal_bytes": ..., ...}
    }

``incremental_resize`` (owned by ``benchmarks/bench_resize.py``) compares
one incremental migration's worst bounded-step pause against the equivalent
stop-the-world rebuild in **modelled** device seconds, at the largest size;
``stw_over_incremental_max`` is enforced to be an order of magnitude at
``num_keys >= 100000`` — the headline latency claim of the non-blocking
resize.

The ``persist`` section (snapshot/restore/WAL-append/replay throughput of
:mod:`repro.persist` at the largest size) is owned by
``benchmarks/bench_persist.py``; its restore is verified bit-identical
before the timing is reported.

``resize_churn`` entries time the churn scenario of
:mod:`repro.workloads.churn` on an auto-resizing table (``num_keys`` is the
peak population; ``ops_per_sec`` counts the churn stream's operations, which
exceed ``num_keys``); the top-level section compares auto-resize against the
fixed-undersized baseline at the largest size — see
``benchmarks/bench_resize.py``, which owns those measurements.  Churn runs
are long, so they are timed once per backend (not best-of-``repeats``).

``validate_document`` is the schema's single source of truth; the smoke test
``tests/perf/test_wallclock_schema.py`` regenerates a tiny document and fails
if the schema drifts from it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import time
from typing import Dict, List, Optional

import numpy as np

import bench_persist
import bench_resize
from repro.core.bulk_exec import BACKENDS
from repro.core.slab_hash import SlabHash
from repro.gpusim.device import TESLA_K40C
from repro.workloads.distributions import GAMMA_40_UPDATES, build_concurrent_workload

SCHEMA_VERSION = 7
DEFAULT_SIZES = (20_000, 100_000)
DEFAULT_BETA = 0.6
DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "BENCH_wallclock.json")

#: Short operations timed best-of-``repeats`` on a fresh table per repetition.
BULK_OPS = ("bulk_build", "bulk_search", "concurrent_mixed")
#: Every op kind a results entry may carry (churn runs are timed once).
OPS = BULK_OPS + ("resize_churn",)


def _make_batch(num_keys: int, seed: int = 1):
    rng = np.random.default_rng(seed)
    keys = rng.choice(2**28, size=num_keys, replace=False).astype(np.uint32)
    values = np.arange(num_keys, dtype=np.uint32)
    return keys, values


def _time_backend(backend: str, num_keys: int, beta: float, repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` wall-clock seconds per operation kind.

    ``concurrent_mixed`` is the paper's Figure-7 scenario: the table already
    holds ``num_keys`` elements, then one mixed batch of ``num_keys``
    operations drawn from the Gamma_1 distribution (40 % updates, 60 %
    searches) runs truly concurrently (unscheduled phased schedule, so both
    backends execute the identical deterministic schedule).
    """
    keys, values = _make_batch(num_keys)
    buckets = SlabHash.buckets_for_beta(num_keys, beta)
    workload = build_concurrent_workload(GAMMA_40_UPDATES, num_keys, keys, seed=7)
    best = {op: float("inf") for op in BULK_OPS}
    for _ in range(repeats):
        # A fresh table per repetition; drop the previous one first so block
        # stores do not pile up and skew timings with allocator memory churn.
        gc.collect()
        table = SlabHash(buckets, backend=backend, seed=1)
        start = time.perf_counter()
        table.bulk_build(keys, values)
        built = time.perf_counter()
        table.bulk_search(keys)
        searched = time.perf_counter()
        table.concurrent_batch(workload.op_codes, workload.keys, workload.values)
        mixed = time.perf_counter()
        best["bulk_build"] = min(best["bulk_build"], built - start)
        best["bulk_search"] = min(best["bulk_search"], searched - built)
        best["concurrent_mixed"] = min(best["concurrent_mixed"], mixed - searched)
        del table
    return best


def run_benchmark(
    sizes=DEFAULT_SIZES, *, beta: float = DEFAULT_BETA, repeats: int = 3
) -> dict:
    """Measure both backends at every size and assemble the JSON document."""
    # Warm-up amortizes one-time costs (lazy NumPy submodule imports).
    warm = SlabHash(64, backend="vectorized")
    warm_keys, warm_values = _make_batch(256, seed=0)
    warm.bulk_build(warm_keys, warm_values)
    warm.bulk_search(warm_keys)

    results: List[dict] = []
    speedups: Dict[str, float] = {}
    churn_by_size: Dict[int, dict] = {}
    for num_keys in sizes:
        timings = {
            backend: _time_backend(backend, num_keys, beta, repeats)
            for backend in BACKENDS
        }
        for backend in BACKENDS:
            for op in BULK_OPS:
                seconds = timings[backend][op]
                results.append(
                    {
                        "op": op,
                        "backend": backend,
                        "num_keys": int(num_keys),
                        "seconds": seconds,
                        "ops_per_sec": num_keys / seconds if seconds > 0 else float("inf"),
                    }
                )
        for op in BULK_OPS:
            speedups[f"{op}_{num_keys}"] = (
                timings["reference"][op] / timings["vectorized"][op]
            )
        # Churn with auto-resize: one long run per backend (see bench_resize).
        churn = {
            backend: bench_resize.measure_churn(num_keys, backend=backend)
            for backend in BACKENDS
        }
        churn_by_size[int(num_keys)] = churn
        for backend in BACKENDS:
            results.append(
                {
                    "op": "resize_churn",
                    "backend": backend,
                    "num_keys": int(num_keys),
                    "seconds": churn[backend]["seconds"],
                    "ops_per_sec": churn[backend]["ops_per_sec"],
                }
            )
        speedups[f"resize_churn_{num_keys}"] = (
            churn["reference"]["seconds"] / churn["vectorized"]["seconds"]
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "bulk_wallclock",
        "device_model": f"{TESLA_K40C.name} (simulated)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {"beta": beta, "repeats": repeats, "sizes": [int(s) for s in sizes]},
        "results": results,
        "speedups": speedups,
        # Auto-resize versus the fixed-undersized baseline, at the largest
        # size — reusing that size's already-measured adaptive churn run.
        "resize_churn": bench_resize.churn_comparison(
            int(max(sizes)), auto=churn_by_size[int(max(sizes))]["vectorized"]
        ),
        # Worst bounded-step pause versus the stop-the-world rebuild, in
        # modelled device seconds, at the largest size (schema v5).
        "incremental_resize": bench_resize.incremental_comparison(int(max(sizes))),
        # Durability primitives (snapshot/restore/WAL/replay), largest size.
        "persist": bench_persist.measure_persist(int(max(sizes))),
    }


def validate_document(document: dict) -> None:
    """Raise ``ValueError`` if ``document`` does not match the schema.

    Single source of truth for the BENCH_wallclock.json layout; the smoke test
    runs a tiny benchmark through this to catch schema drift.
    """
    required_top = {
        "schema_version": int,
        "benchmark": str,
        "device_model": str,
        "python": str,
        "numpy": str,
        "config": dict,
        "results": list,
        "speedups": dict,
        "resize_churn": dict,
        "incremental_resize": dict,
        "persist": dict,
    }
    for field, kind in required_top.items():
        if field not in document:
            raise ValueError(f"missing top-level field {field!r}")
        if not isinstance(document[field], kind):
            raise ValueError(f"field {field!r} must be {kind.__name__}")
    if document["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {document['schema_version']} != {SCHEMA_VERSION}"
        )
    if document["benchmark"] != "bulk_wallclock":
        raise ValueError("benchmark field must be 'bulk_wallclock'")
    for field in ("beta", "repeats", "sizes"):
        if field not in document["config"]:
            raise ValueError(f"missing config field {field!r}")
    if not document["results"]:
        raise ValueError("results must not be empty")
    for entry in document["results"]:
        if entry.get("op") not in OPS:
            raise ValueError(f"result op must be one of {OPS}, got {entry.get('op')!r}")
        if entry.get("backend") not in BACKENDS:
            raise ValueError(f"result backend must be one of {BACKENDS}")
        for field in ("num_keys", "seconds", "ops_per_sec"):
            if not isinstance(entry.get(field), (int, float)):
                raise ValueError(f"result field {field!r} must be numeric")
    expected_speedups = {
        f"{op}_{size}" for op in OPS for size in document["config"]["sizes"]
    }
    if set(document["speedups"]) != expected_speedups:
        raise ValueError(
            f"speedups keys {sorted(document['speedups'])} != {sorted(expected_speedups)}"
        )
    for key, value in document["speedups"].items():
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"speedup {key!r} must be a positive number")
    bench_resize.validate_section(document["resize_churn"])
    bench_resize.validate_incremental_section(document["incremental_resize"])
    bench_persist.validate_section(document["persist"])


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=str, default=",".join(str(s) for s in DEFAULT_SIZES),
                        help="comma-separated batch sizes (default %(default)s)")
    parser.add_argument("--beta", type=float, default=DEFAULT_BETA,
                        help="average slab count the tables are sized for (default %(default)s)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per measurement, best-of (default %(default)s)")
    parser.add_argument("--out", type=str, default=DEFAULT_OUT,
                        help="output JSON path (default: BENCH_wallclock.json at the repo root)")
    args = parser.parse_args(argv)

    sizes = [int(part) for part in args.sizes.split(",") if part]
    document = run_benchmark(sizes, beta=args.beta, repeats=args.repeats)
    validate_document(document)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.out}")
    for entry in document["results"]:
        print(f"  {entry['op']:12s} {entry['backend']:11s} n={entry['num_keys']:>7d} "
              f"{entry['seconds']:8.4f}s  {entry['ops_per_sec'] / 1e3:9.1f} kops/s")
    for key, value in document["speedups"].items():
        print(f"  speedup {key}: {value:.1f}x")
    incremental = document["incremental_resize"]
    print(f"  incremental_resize n={incremental['num_keys']}: rebuild "
          f"{incremental['stop_the_world']['rebuild_seconds']:.3e}s vs worst step "
          f"{incremental['incremental']['max_step_seconds']:.3e}s "
          f"({incremental['stw_over_incremental_max']:.1f}x)")
    persist = document["persist"]
    print(f"  persist n={persist['num_keys']}: snapshot {persist['snapshot_seconds']:.3f}s "
          f"({persist['snapshot_bytes'] / 1024:.0f} KiB), "
          f"restore {persist['restore_seconds']:.3f}s, "
          f"replay {persist['replay_ops_per_sec'] / 1e3:.1f} kops/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
