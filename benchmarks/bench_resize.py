"""Amortized wall-clock cost of online resizing under churn.

Measures **real host wall-clock seconds** (like ``bench_wallclock.py``, not
modelled GPU time) for the churn scenario of :mod:`repro.workloads.churn`:
the population swings between ``peak / BASE_DIVISOR`` and ``peak`` for
``CYCLES`` insert/delete cycles.  Two tables run the identical operation
stream:

* **auto** — starts sized for the base population with a
  :class:`~repro.core.resize.LoadFactorPolicy` attached, so it grows and
  shrinks with the population; every migration's cost is *included* in its
  wall-clock time (that is the amortization being measured);
* **fixed** — the same undersized table without a policy; chains stretch at
  every peak and (unique-keys mode) tombstones accumulate cycle over cycle,
  so every later batch pays for history.

The results feed ``BENCH_wallclock.json``: per-backend ``resize_churn``
entries in ``results`` / ``speedups`` (recorded by ``bench_wallclock.py``,
which imports this module), the top-level ``resize_churn`` comparison
section whose ``auto_over_fixed`` ratio is the headline number — the
amortized resize cost keeps the auto table within ``AUTO_OVER_FIXED_FLOOR``
of the fixed undersized one, which ``validate_section`` enforces — and,
since schema v5, the
top-level ``incremental_resize`` section: a **modelled-latency** comparison
of one incremental migration against the equivalent stop-the-world rebuild
(:func:`incremental_comparison`).  Its ``stw_over_incremental_max`` ratio is
the tentpole claim of the non-blocking resize: the worst pause any
operation can land behind shrinks from a whole rebuild to one bounded
migration step — an order of magnitude at production sizes, which
``validate_incremental_section`` enforces at ``num_keys >= 100000``.

Run standalone to refresh just the comparison sections of an existing
``BENCH_wallclock.json``::

    PYTHONPATH=src python benchmarks/bench_resize.py [--num-keys 100000]
        [--cycles 6] [--out BENCH_wallclock.json] [--print-only]

Under pytest (the benchmark suite) this module also asserts the modelled
version of the same claim via ``repro.perf.figures.resize_sweep``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
from typing import Optional

import numpy as np

from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.workloads.churn import build_churn_workload, run_churn

#: Churn shape shared by every measurement (and by the schema smoke test):
#: population swings between peak/BASE_DIVISOR and peak, CYCLES times.  The
#: deep trough and repeated cycles are what make tombstone accumulation (not
#: just chain length) the fixed table's dominant cost.
CYCLES = 6
BASE_DIVISOR = 16
#: Lowest ``auto_over_fixed`` a ``resize_churn`` section may record: the
#: auto-resizing table's host cost must stay within 2x of the fixed one's.
AUTO_OVER_FIXED_FLOOR = 0.5
#: Interleaved auto/fixed pairs per comparison; the median ratio is recorded.
CHURN_PAIRS = 3

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_wallclock.json"
)


def churn_policy(initial_buckets: int) -> LoadFactorPolicy:
    """The adaptive policy the churn measurements use.

    ``grow_factor=4`` keeps the number of migrations per insert ramp small
    (coarse geometric steps amortize better on the host simulator), and the
    bucket floor stays at half the initial sizing so the trough's shrink
    cannot collapse the table.
    """
    return LoadFactorPolicy(grow_factor=4.0, min_buckets=max(1, initial_buckets // 2))


def run_churn_once(
    num_keys: int,
    *,
    backend: str,
    adaptive: bool,
    cycles: int = CYCLES,
    seed: int = 1,
) -> dict:
    """One full churn run on a fresh table; returns wall-clock and resize stats."""
    base = max(64, num_keys // BASE_DIVISOR)
    workload = build_churn_workload(num_keys, base_elements=base, cycles=cycles, seed=seed)
    buckets = SlabHash.buckets_for_beta(base, 0.6)
    policy = churn_policy(buckets) if adaptive else None
    gc.collect()
    table = SlabHash(buckets, backend=backend, seed=seed, policy=policy)
    start = time.perf_counter()
    total_ops = run_churn(table, workload)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "total_ops": total_ops,
        "ops_per_sec": total_ops / seconds if seconds > 0 else float("inf"),
        "grows": table.resize_stats.grows,
        "shrinks": table.resize_stats.shrinks,
        "migrated_items": table.resize_stats.migrated_items,
        "final_buckets": table.num_buckets,
        "final_beta": table.beta(),
    }


def measure_churn(num_keys: int, *, backend: str, cycles: int = CYCLES) -> dict:
    """Adaptive churn timing for one backend (the per-backend results entry).

    A churn run is long (hundreds of thousands of operations), so a single
    run is stable enough — no best-of-N like the short bulk measurements.
    """
    return run_churn_once(num_keys, backend=backend, adaptive=True, cycles=cycles)


def churn_comparison(num_keys: int, *, cycles: int = CYCLES, auto: Optional[dict] = None) -> dict:
    """Auto-resize versus fixed-undersized churn on the vectorized backend.

    Times ``CHURN_PAIRS`` interleaved auto/fixed pairs, so host drift hits
    both sides alike, and records the pair whose ``auto_over_fixed`` ratio
    is the median: one short timing is too noisy to gate on.  ``auto``
    accepts an already-measured adaptive run (the shape
    :func:`run_churn_once` returns), which serves as the first pair's auto
    side, so a caller that just timed it — like
    ``bench_wallclock.run_benchmark`` — does not repeat that run.
    """
    pairs = []
    for index in range(CHURN_PAIRS):
        if index or auto is None:
            auto = run_churn_once(num_keys, backend="vectorized", adaptive=True, cycles=cycles)
        fixed = run_churn_once(num_keys, backend="vectorized", adaptive=False, cycles=cycles)
        pairs.append((fixed["seconds"] / auto["seconds"], auto, fixed))
    ratio, auto, fixed = sorted(pairs, key=lambda pair: pair[0])[len(pairs) // 2]
    return {
        "num_keys": int(num_keys),
        "cycles": int(cycles),
        "base_divisor": BASE_DIVISOR,
        "total_ops": auto["total_ops"],
        "auto": auto,
        "fixed": fixed,
        "auto_over_fixed": ratio,
    }


def _p99(samples: list) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * (len(ordered) - 1)))]


def incremental_comparison(
    num_keys: int, *, step_buckets: int = 64, batch_ops: int = 512, seed: int = 11
) -> dict:
    """Incremental migration versus a stop-the-world rebuild, in modelled time.

    Two identical right-sized tables holding ``num_keys`` items double their
    bucket count while an insert stream keeps arriving.  The stop-the-world
    twin pays one :meth:`~repro.core.slab_hash.SlabHash.resize` — the whole
    rebuild lands in a single pause some unlucky batch waits out.  The
    incremental twin begins a migration and pumps **one bounded step per
    interleaved batch**; its worst pause is one band of ``step_buckets``
    buckets.  Modelled device seconds (the same accounting the engine uses
    for every kernel) make the comparison exactly reproducible — no host
    wall-clock noise.

    The twins are verified to land on identical contents before the timings
    are reported.
    """
    buckets = SlabHash.buckets_for_beta(num_keys, 0.6)
    target = buckets * 2
    rng = np.random.default_rng(seed)
    base = rng.choice(2**28, size=2 * num_keys, replace=False).astype(np.uint32)
    resident, fresh = base[:num_keys], base[num_keys:]

    stw = SlabHash(buckets, backend="vectorized", seed=seed)
    stw.bulk_insert(resident, resident)
    rebuild = stw.resize(target)

    incr = SlabHash(buckets, backend="vectorized", seed=seed)
    incr.bulk_insert(resident, resident)
    incr.begin_resize(target, step_buckets=step_buckets)
    pauses: list = []
    cursor = 0
    while incr.migration is not None:
        batch = fresh[cursor : cursor + batch_ops]
        cursor += batch_ops
        if len(batch):
            incr.bulk_insert(batch, batch)  # routed old/new by the watermark
        pauses.append(incr.migrate_step().seconds)

    # The stop-the-world twin serves the same interleaved stream (after its
    # rebuild); both must land on identical live contents.
    used = fresh[:cursor]
    if len(used):
        stw.bulk_insert(used, used)
    if sorted(incr.items()) != sorted(stw.items()):
        raise AssertionError("incremental and stop-the-world twins diverged")

    worst_step = max(pauses)
    return {
        "num_keys": int(num_keys),
        "old_buckets": int(buckets),
        "new_buckets": int(target),
        "step_buckets": int(step_buckets),
        "interleaved_batch_ops": int(batch_ops),
        "stop_the_world": {
            "rebuild_seconds": rebuild.seconds,
            "migrated_items": rebuild.migrated,
        },
        "incremental": {
            "steps": len(pauses),
            "items_moved": incr.resize_stats.migration_items,
            "max_step_seconds": worst_step,
            "p99_step_seconds": _p99(pauses),
            "total_seconds": sum(pauses),
        },
        "stw_over_incremental_max": rebuild.seconds / worst_step,
    }


def validate_incremental_section(section: dict) -> None:
    """Raise ``ValueError`` if an ``incremental_resize`` section drifts.

    At production sizes (``num_keys >= 100000``) the tentpole claim itself
    is enforced: the worst incremental pause must sit an order of magnitude
    below the stop-the-world rebuild.
    """
    if not isinstance(section, dict):
        raise ValueError("incremental_resize must be an object")
    for field in ("num_keys", "old_buckets", "new_buckets", "step_buckets",
                  "interleaved_batch_ops"):
        if not isinstance(section.get(field), int):
            raise ValueError(f"incremental_resize field {field!r} must be an integer")
    stw = section.get("stop_the_world")
    if not isinstance(stw, dict):
        raise ValueError("incremental_resize must contain a 'stop_the_world' object")
    for field in ("rebuild_seconds", "migrated_items"):
        if not isinstance(stw.get(field), (int, float)):
            raise ValueError(f"incremental_resize stop_the_world field {field!r} must be numeric")
    incremental = section.get("incremental")
    if not isinstance(incremental, dict):
        raise ValueError("incremental_resize must contain an 'incremental' object")
    for field in ("steps", "items_moved", "max_step_seconds", "p99_step_seconds",
                  "total_seconds"):
        if not isinstance(incremental.get(field), (int, float)):
            raise ValueError(f"incremental_resize incremental field {field!r} must be numeric")
    if incremental["steps"] < 1:
        raise ValueError("the incremental twin must pump at least one step")
    ratio = section.get("stw_over_incremental_max")
    if not isinstance(ratio, (int, float)) or ratio <= 0:
        raise ValueError("incremental_resize stw_over_incremental_max must be positive")
    if section["num_keys"] >= 100_000 and ratio < 10:
        raise ValueError(
            "at production sizes the worst incremental pause must be an order "
            f"of magnitude below the rebuild; got {ratio:.2f}x"
        )


def validate_section(section: dict) -> None:
    """Raise ``ValueError`` if a ``resize_churn`` section does not match the schema."""
    if not isinstance(section, dict):
        raise ValueError("resize_churn must be an object")
    for field in ("num_keys", "cycles", "base_divisor", "total_ops"):
        if not isinstance(section.get(field), int):
            raise ValueError(f"resize_churn field {field!r} must be an integer")
    for variant in ("auto", "fixed"):
        entry = section.get(variant)
        if not isinstance(entry, dict):
            raise ValueError(f"resize_churn must contain a {variant!r} object")
        for field in ("seconds", "total_ops", "ops_per_sec", "grows", "shrinks",
                      "migrated_items", "final_buckets", "final_beta"):
            if not isinstance(entry.get(field), (int, float)):
                raise ValueError(f"resize_churn {variant} field {field!r} must be numeric")
    if section["auto"]["grows"] < 1 or section["auto"]["shrinks"] < 1:
        raise ValueError("the auto churn run must perform at least one grow and one shrink")
    if section["fixed"]["grows"] != 0 or section["fixed"]["shrinks"] != 0:
        raise ValueError("the fixed churn run must not resize")
    ratio = section.get("auto_over_fixed")
    if not isinstance(ratio, (int, float)) or ratio < AUTO_OVER_FIXED_FLOOR:
        raise ValueError(
            f"resize_churn auto_over_fixed must be a number >= {AUTO_OVER_FIXED_FLOOR}"
        )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-keys", type=int, default=100_000,
                        help="peak churn population (default %(default)s)")
    parser.add_argument("--cycles", type=int, default=CYCLES,
                        help="insert/delete cycles (default %(default)s)")
    parser.add_argument("--out", type=str, default=DEFAULT_OUT,
                        help="BENCH_wallclock.json to update in place (default: repo root)")
    parser.add_argument("--print-only", action="store_true",
                        help="measure and print, but do not touch the JSON document")
    args = parser.parse_args(argv)

    comparison = churn_comparison(args.num_keys, cycles=args.cycles)
    validate_section(comparison)
    for variant in ("auto", "fixed"):
        entry = comparison[variant]
        print(f"  {variant:5s} n={args.num_keys:>7d} {entry['seconds']:8.3f}s "
              f"{entry['ops_per_sec'] / 1e3:9.1f} kops/s  grows={entry['grows']} "
              f"shrinks={entry['shrinks']} final_beta={entry['final_beta']:.3f}")
    print(f"  auto_over_fixed: {comparison['auto_over_fixed']:.2f}x")

    incremental = incremental_comparison(args.num_keys)
    validate_incremental_section(incremental)
    print(f"  stop-the-world rebuild: "
          f"{incremental['stop_the_world']['rebuild_seconds']:.3e}s modelled; "
          f"worst incremental step: "
          f"{incremental['incremental']['max_step_seconds']:.3e}s "
          f"({incremental['incremental']['steps']} steps)")
    print(f"  stw_over_incremental_max: {incremental['stw_over_incremental_max']:.1f}x")

    if args.print_only:
        return 0
    if not os.path.exists(args.out):
        print(f"{args.out} does not exist; run benchmarks/bench_wallclock.py first "
              "(it records the full schema document, including these sections)")
        return 1
    with open(args.out, encoding="utf-8") as handle:
        document = json.load(handle)
    document["resize_churn"] = comparison
    document["incremental_resize"] = incremental
    import bench_wallclock  # deferred: bench_wallclock imports this module

    bench_wallclock.validate_document(document)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"updated resize_churn + incremental_resize sections of {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


# --------------------------------------------------------------------------- #
# Benchmark-suite tests (pytest; see scripts/smoke.sh)
# --------------------------------------------------------------------------- #


def test_resize_sweep_adaptive_beats_undersized(benchmark):
    """Modelled churn throughput: the adaptive table must beat fixed-undersized."""
    from _bench_utils import emit
    from repro.perf import figures

    result = benchmark.pedantic(
        lambda: figures.resize_sweep(sim_elements=2**12, cycles=3), rounds=1, iterations=1
    )
    emit(result, benchmark)
    assert result.extra["adaptive_over_undersized"] > 1.2
    assert result.extra["adaptive_grows"] >= 1
    assert result.extra["adaptive_shrinks"] >= 1
    assert result.extra["adaptive_beta_in_band"] == 1.0


def test_churn_comparison_structure_and_coverage():
    """A tiny wall-clock comparison satisfies the schema and exercises resizing."""
    comparison = churn_comparison(2048, cycles=3)
    validate_section(comparison)
    assert comparison["auto"]["grows"] >= 1
    assert comparison["auto"]["shrinks"] >= 1
    # The fixed table served the same stream without ever resizing.
    assert comparison["fixed"]["total_ops"] == comparison["auto"]["total_ops"]


def test_incremental_comparison_structure_and_determinism():
    """A small incremental-vs-rebuild comparison satisfies the schema, and
    its modelled timings are exactly reproducible."""
    section = incremental_comparison(4096, step_buckets=16, batch_ops=128)
    validate_incremental_section(section)
    assert section["incremental"]["steps"] >= 2
    assert section["incremental"]["items_moved"] >= 4096  # resident + routed fresh
    twin = incremental_comparison(4096, step_buckets=16, batch_ops=128)
    assert twin == section  # modelled seconds: no wall-clock noise anywhere
