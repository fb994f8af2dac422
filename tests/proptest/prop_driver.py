"""Seeded random-operation driver for the differential property harness.

A *program* is a plain list of repr-able tuples — single operations, bulk
batches, concurrent mixed batches, explicit resizes, incremental-migration
begin/step ops, flushes — generated deterministically from a
``random.Random`` seed with three structural guarantees: the first part of
every program inserts enough elements to force at least one policy *grow*,
the tail deletes enough to force at least one *shrink*, and every program
begins at least one incremental migration so searches, deletes, concurrent
batches and flushes run while **both tables are live**, whatever the seed.

:func:`run_program` executes the same program against

* a ``backend="reference"`` :class:`~repro.core.slab_hash.SlabHash`,
* a ``backend="vectorized"`` one,
* a two-shard :class:`~repro.engine.sharded.ShardedSlabHash`,

each carrying the same auto :class:`~repro.core.resize.LoadFactorPolicy`,
and a plain-dict model, checking the invariants below after every step
(structure-heavy ones periodically).  On a violation it returns an error
string; :func:`shrink_program` then delta-debugs the program down to a
minimal reproducer (no hypothesis — a ``random``-seeded loop, as the repo's
CI has no extra dependencies).

Invariants (the differential contract):

1. every step's results agree across all three implementations *and* the
   plain-dict model;
2. ``len(table)`` equals ``len(model)`` for every implementation;
3. the reference and vectorized tables report **identical device counters**
   (the backend's counter-exactness guarantee, extended over resizes);
4. device counters are monotonically non-decreasing on every device;
5. stored items equal the model's items exactly (multiset of pairs), and
   ``search_all`` multisets match the model on sampled keys;
6. chain structure is coherent: per-bucket slab counts cover exactly
   ``num_buckets`` buckets (the old array, during a migration), each at
   least one slab, summing to that array's slab total;
7. after every mutating step the auto-policy is quiescent
   (``policy.decide(...) is None``) and beta does not exceed the band's
   ceiling beyond the hysteresis slack — except while an incremental
   migration is in flight, when the policy is deliberately suppressed and
   the table's shape is transiently out of band — and the run's resize
   stats must show at least one grow, one shrink, and one migration step
   per table (coverage hooks).

Concurrent batches are generated with batch-unique keys, so their outcome is
schedule-independent and the sharded engine (which interleaves differently)
must agree exactly — see the sharded-engine module docstring.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.engine import ShardedSlabHash

NOT_FOUND = -1  #: normalized "no result" sentinel for comparisons
KEY_SPACE = 50_000  #: generated keys live in [1, KEY_SPACE]

ALLOC = SlabAllocConfig(num_super_blocks=4, num_memory_blocks=32, units_per_block=128)
POLICY = LoadFactorPolicy(min_buckets=2)

Step = Tuple
Program = List[Step]


def make_impls() -> Dict[str, object]:
    """Fresh, identically seeded implementations for one program run.

    Every table starts at the policy's bucket floor, so the quiescence
    invariant holds from step zero (an empty table above the floor would
    legitimately want to shrink before any operation ran).
    """
    return {
        "reference": SlabHash(
            POLICY.min_buckets, alloc_config=ALLOC, seed=41, backend="reference",
            policy=POLICY,
        ),
        "vectorized": SlabHash(
            POLICY.min_buckets, alloc_config=ALLOC, seed=41, backend="vectorized",
            policy=POLICY,
        ),
        "sharded": ShardedSlabHash(
            2, POLICY.min_buckets, alloc_config=ALLOC, seed=41, backend="vectorized",
            load_factor_policy=POLICY,
        ),
    }


# --------------------------------------------------------------------------- #
# Program generation
# --------------------------------------------------------------------------- #

MUTATING = {"insert", "delete", "delete_all", "bulk_insert", "bulk_delete", "concurrent"}


def _value(rng: random.Random) -> int:
    return rng.randrange(0, 2**16)


def _existing_key(rng: random.Random, shadow: dict) -> int:
    if shadow:
        return rng.choice(sorted(shadow))
    return rng.randrange(1, KEY_SPACE)


def _random_step(rng: random.Random, shadow: dict, *, delete_phase: bool) -> Step:
    """One random filler step; the shadow dict mirrors what the model will hold."""
    ops = (
        ["search", "search", "search_all", "insert", "delete", "delete_all",
         "bulk_search", "concurrent", "resize", "flush",
         "begin_migration", "migrate_step", "migrate_step"]
        if not delete_phase
        else ["search", "search_all", "delete", "delete", "delete_all",
              "bulk_delete", "bulk_search", "concurrent", "resize", "flush",
              "begin_migration", "migrate_step", "migrate_step"]
    )
    op = rng.choice(ops)
    if op == "insert":
        key, value = rng.randrange(1, KEY_SPACE), _value(rng)
        shadow[key] = value
        return ("insert", key, value)
    if op == "delete":
        key = _existing_key(rng, shadow)
        shadow.pop(key, None)
        return ("delete", key)
    if op == "delete_all":
        key = _existing_key(rng, shadow)
        shadow.pop(key, None)
        return ("delete_all", key)
    if op == "search":
        hit = rng.random() < 0.7
        return ("search", _existing_key(rng, shadow) if hit else rng.randrange(1, KEY_SPACE))
    if op == "search_all":
        return ("search_all", _existing_key(rng, shadow))
    if op == "bulk_search":
        count = rng.randrange(4, 40)
        keys = [_existing_key(rng, shadow) if rng.random() < 0.6 else rng.randrange(1, KEY_SPACE)
                for _ in range(count)]
        return ("bulk_search", keys)
    if op == "bulk_delete":
        count = rng.randrange(4, 40)
        keys = [_existing_key(rng, shadow) for _ in range(count)]
        for key in keys:
            shadow.pop(key, None)
        return ("bulk_delete", keys)
    if op == "concurrent":
        return _concurrent_step(rng, shadow)
    if op == "resize":
        # Explicit resize request; the auto policy may well undo it on the
        # next mutating batch, which is itself a path worth exercising.
        return ("resize", rng.choice([2, 3, 4]), rng.choice(["grow", "shrink"]))
    if op == "begin_migration":
        # Begin an incremental migration (no-op on tables already migrating);
        # subsequent ops then run with both tables live until the auto hook
        # and explicit migrate_step ops drain it.
        return ("begin_migration", rng.choice([2, 3]), rng.choice(["grow", "shrink"]))
    if op == "migrate_step":
        # Advance any in-flight migration by one bounded step (no-op otherwise).
        return ("migrate_step",)
    return ("flush",)


def _concurrent_step(rng: random.Random, shadow: dict) -> Step:
    """A mixed batch whose keys are batch-unique (schedule-independent)."""
    count = rng.randrange(6, 48)
    existing = sorted(shadow)
    rng.shuffle(existing)
    candidates = existing[: count // 2]
    while len(candidates) < count:
        key = rng.randrange(1, KEY_SPACE)
        if key not in candidates:
            candidates.append(key)
    rng.shuffle(candidates)
    op_codes, keys, values = [], [], []
    for key in candidates:
        code = rng.choice([C.OP_INSERT, C.OP_DELETE, C.OP_SEARCH])
        value = _value(rng)
        if code == C.OP_INSERT:
            shadow[key] = value
        elif code == C.OP_DELETE:
            shadow.pop(key, None)
        op_codes.append(int(code))
        keys.append(int(key))
        values.append(value)
    return ("concurrent", op_codes, keys, values)


def generate_program(seed: int, *, filler_steps: int = 22) -> Program:
    """A random program with guaranteed grow and shrink coverage.

    Structure: an insert-heavy phase whose interleaved bulk insertions total
    >= 450 fresh keys (the policy band is breached many times over on every
    implementation), random filler throughout, then a delete-heavy phase
    whose bulk deletions drain the shadow population below 40 (forcing
    shrinks down toward the bucket floor).
    """
    rng = random.Random(seed)
    shadow: dict = {}
    program: Program = []

    grow_half = filler_steps // 2
    fresh = rng.sample(range(1, KEY_SPACE), 1500)
    cursor = 0
    for _ in range(grow_half):
        program.append(_random_step(rng, shadow, delete_phase=False))
        # Guaranteed insert ramp, interleaved with the filler.
        batch = rng.randrange(60, 110)
        keys = fresh[cursor : cursor + batch]
        cursor += batch
        if not keys:
            continue
        values = [_value(rng) for _ in keys]
        for key, value in zip(keys, values):
            shadow[key] = value
        program.append(("bulk_insert", list(keys), values))

    # Structural guarantee: whatever the seed drew above, at least one
    # incremental migration is begun here and the following delete-phase
    # filler runs with both tables live (the auto hook and explicit
    # migrate_step ops drain it).
    program.append(("begin_migration", 2, "grow"))
    program.append(("migrate_step",))
    program.append(("migrate_step",))

    for _ in range(filler_steps - grow_half):
        program.append(_random_step(rng, shadow, delete_phase=True))
        # Guaranteed delete ramp: drain the population toward the floor.
        live = sorted(shadow)
        if len(live) > 40:
            batch = rng.sample(live, min(len(live) - 20, rng.randrange(60, 120)))
            for key in batch:
                shadow.pop(key, None)
            program.append(("bulk_delete", list(batch)))
    while len(shadow) > 40:  # belt and braces: finish the drain
        live = sorted(shadow)
        batch = live[: len(live) - 20]
        for key in batch:
            shadow.pop(key, None)
        program.append(("bulk_delete", list(batch)))
    # Finish any migration still in flight and let the policy reconcile, so
    # the end-of-program quiescence and shrink-coverage checks are about the
    # steady state, not about where the last random migration happened to be.
    program.append(("drain_migration",))
    return program


# --------------------------------------------------------------------------- #
# Execution: model and implementations
# --------------------------------------------------------------------------- #


def _norm(value) -> int:
    """Normalize a search result for comparison (-1 = not found)."""
    if value is None:
        return NOT_FOUND
    value = int(value)
    return NOT_FOUND if value == int(C.SEARCH_NOT_FOUND) else value


def apply_to_model(model: dict, step: Step):
    op = step[0]
    if op == "insert":
        model[step[1]] = step[2]
        return None
    if op == "delete":
        return 1 if model.pop(step[1], None) is not None else 0
    if op == "delete_all":
        return 1 if model.pop(step[1], None) is not None else 0
    if op == "search":
        return _norm(model.get(step[1]))
    if op == "search_all":
        return [model[step[1]]] if step[1] in model else []
    if op == "bulk_insert":
        for key, value in zip(step[1], step[2]):
            model[key] = value
        return None
    if op == "bulk_delete":
        return [1 if model.pop(key, None) is not None else 0 for key in step[1]]
    if op == "bulk_search":
        return [_norm(model.get(key)) for key in step[1]]
    if op == "concurrent":
        results = []
        for code, key, value in zip(step[1], step[2], step[3]):
            if code == C.OP_INSERT:
                model[key] = value
                results.append(0)
            elif code == C.OP_DELETE:
                results.append(1 if model.pop(key, None) is not None else 0)
            else:
                results.append(_norm(model.get(key)))
        return results
    if op in ("resize", "flush", "begin_migration", "migrate_step",
              "drain_migration", "fail_if_migrating"):
        return None
    raise ValueError(f"unknown program step {step!r}")


def _scaled_target(buckets: int, factor: int, direction: str) -> int:
    return max(1, buckets * factor if direction == "grow" else buckets // factor)


def _drain_migration(impl) -> None:
    """Run any in-flight migration to completion (stop-the-world resize
    requires a quiescent table, and the drain itself is deterministic).
    """
    if isinstance(impl, ShardedSlabHash):
        while True:
            migrating = impl.migrating_shards()
            if not migrating:
                return
            for index in migrating:
                impl.migrate_step_shard(index)
    else:
        while impl.migration is not None:
            impl.migrate_step()


def _resize_impl(impl, factor: int, direction: str) -> None:
    _drain_migration(impl)
    if isinstance(impl, ShardedSlabHash):
        for index, shard in enumerate(impl.shards):
            impl.resize_shard(index, _scaled_target(shard.num_buckets, factor, direction))
    else:
        impl.resize(_scaled_target(impl.num_buckets, factor, direction))


def _begin_migration_impl(impl, factor: int, direction: str) -> None:
    """Begin an incremental migration per table; tables already migrating
    are left alone (double-begin is an API error)."""
    if isinstance(impl, ShardedSlabHash):
        for index, shard in enumerate(impl.shards):
            if shard.migration is None:
                impl.resize_shard(
                    index,
                    _scaled_target(shard.num_buckets, factor, direction),
                    incremental=True,
                    step_buckets=2,
                )
    elif impl.migration is None:
        impl.begin_resize(
            _scaled_target(impl.num_buckets, factor, direction), step_buckets=2
        )


def _migrate_step_impl(impl) -> None:
    if isinstance(impl, ShardedSlabHash):
        for index in impl.migrating_shards():
            outcome = impl.migrate_step_shard(index)
            if outcome.result is not None:
                impl.maybe_resize_shard(index)
        return
    if impl.migration is not None:
        outcome = impl.migrate_step()
        if outcome.result is not None:
            # The step completed the migration; reconcile with the auto
            # policy right away (exactly what the post-batch hook does),
            # so quiescence is checkable on the very next step.
            impl.maybe_resize()


def apply_to_impl(impl, step: Step):
    op = step[0]
    if op == "insert":
        impl.insert(step[1], step[2])
        return None
    if op == "delete":
        return int(impl.delete(step[1]))
    if op == "delete_all":
        return int(impl.delete_all(step[1]))
    if op == "search":
        return _norm(impl.search(step[1]))
    if op == "search_all":
        return sorted(impl.search_all(step[1]))
    if op == "bulk_insert":
        impl.bulk_insert(
            np.array(step[1], dtype=np.uint32), np.array(step[2], dtype=np.uint32)
        )
        return None
    if op == "bulk_delete":
        return [int(x) for x in impl.bulk_delete(np.array(step[1], dtype=np.uint32))]
    if op == "bulk_search":
        return [_norm(x) for x in impl.bulk_search(np.array(step[1], dtype=np.uint32))]
    if op == "concurrent":
        results = impl.concurrent_batch(
            np.array(step[1], dtype=np.int64),
            np.array(step[2], dtype=np.uint32),
            np.array(step[3], dtype=np.uint32),
        )
        normalized = []
        for code, raw in zip(step[1], results):
            normalized.append(_norm(raw) if code == C.OP_SEARCH else int(raw))
        return normalized
    if op == "resize":
        _resize_impl(impl, step[1], step[2])
        # Reconcile with the policy right away: an explicit resize may land
        # outside the band, and a later batch need not touch every shard, so
        # quiescence would otherwise be unverifiable step to step.
        impl.maybe_resize()
        return None
    if op == "begin_migration":
        _begin_migration_impl(impl, step[1], step[2])
        return None
    if op == "migrate_step":
        _migrate_step_impl(impl)
        return None
    if op == "drain_migration":
        _drain_migration(impl)
        impl.maybe_resize()
        return None
    if op == "flush":
        impl.flush()
        return None
    if op == "fail_if_migrating":
        # Harness self-test hook (never generated): fails exactly when a
        # migration is in flight, so the shrinker demonstrably preserves
        # the migration ops a failure depends on.
        if any(table.migration is not None for table in _tables(impl)):
            raise RuntimeError("fail_if_migrating: both tables are live")
        return None
    raise ValueError(f"unknown program step {step!r}")


# --------------------------------------------------------------------------- #
# Invariants
# --------------------------------------------------------------------------- #


def _devices(name: str, impl) -> list:
    return impl.devices if isinstance(impl, ShardedSlabHash) else [impl.device]


def _tables(impl) -> list:
    return impl.shards if isinstance(impl, ShardedSlabHash) else [impl]


def _model_result_mismatch(step, expected, got_by_impl) -> Optional[str]:
    for name, got in got_by_impl.items():
        if got != expected:
            return (
                f"result mismatch on {step!r}: model={expected!r}, {name}={got!r}"
            )
    first = next(iter(got_by_impl.values()))
    for name, got in got_by_impl.items():
        if got != first:
            return f"cross-implementation mismatch on {step!r}: {got_by_impl!r}"
    return None


def _check_lengths(impls, model) -> Optional[str]:
    for name, impl in impls.items():
        if len(impl) != len(model):
            return f"len mismatch: model={len(model)}, {name}={len(impl)}"
    return None


def _check_counter_monotonicity(impls, previous) -> Optional[str]:
    for name, impl in impls.items():
        for index, device in enumerate(_devices(name, impl)):
            now = device.counters.as_dict()
            before = previous[name][index]
            for field, value in now.items():
                if value < before[field]:
                    return (
                        f"counter {field} decreased on {name}[{index}]: "
                        f"{before[field]} -> {value}"
                    )
            previous[name][index] = now
    return None


def _check_backend_counters(impls) -> Optional[str]:
    ref = impls["reference"].device.counters.as_dict()
    vec = impls["vectorized"].device.counters.as_dict()
    if ref != vec:
        drift = {
            field: (ref[field], vec[field])
            for field in ref
            if ref[field] != vec[field]
        }
        return f"reference/vectorized counter drift: {drift}"
    return None


def _check_items(impls, model) -> Optional[str]:
    expected = sorted(model.items())
    for name, impl in impls.items():
        got = sorted(impl.items())
        if got != expected:
            missing = set(model.items()) - set(impl.items())
            extra = set(impl.items()) - set(model.items())
            return (
                f"items mismatch on {name}: missing={sorted(missing)[:5]}, "
                f"extra={sorted(extra)[:5]}"
            )
    return None


def _check_chains(impls) -> Optional[str]:
    for name, impl in impls.items():
        for table in _tables(impl):
            counts = table.bucket_slab_counts()
            if len(counts) != table.num_buckets:
                return (
                    f"{name}: bucket_slab_counts has {len(counts)} entries "
                    f"for {table.num_buckets} buckets"
                )
            if counts.min() < 1:
                return f"{name}: a bucket reports {counts.min()} slabs"
            # bucket_slab_counts covers the current (old) array; during a
            # migration the new array's slabs are extra, so compare against
            # the old array's own total rather than the two-array sum.
            old_total = table.lists.total_slabs()
            if int(counts.sum()) != old_total:
                return (
                    f"{name}: slab counts sum {int(counts.sum())} != "
                    f"old-array total_slabs {old_total}"
                )
            if table.migration is None and old_total != table.total_slabs():
                return (
                    f"{name}: quiescent table reports total_slabs "
                    f"{table.total_slabs()} != array total {old_total}"
                )
    return None


def _check_search_all(impls, model, rng: random.Random) -> Optional[str]:
    live = sorted(model)
    sample = rng.sample(live, min(5, len(live))) if live else []
    sample += [rng.randrange(1, KEY_SPACE) for _ in range(3)]
    for key in sample:
        expected = sorted([model[key]] if key in model else [])
        for name, impl in impls.items():
            got = sorted(impl.search_all(key))
            if got != expected:
                return f"search_all({key}) mismatch on {name}: {got} != {expected}"
    return None


def _check_policy_band(impls) -> Optional[str]:
    for name, impl in impls.items():
        for table in _tables(impl):
            if table.migration is not None:
                # The policy is deliberately suppressed while a migration is
                # in flight; shape invariants resume once it completes (the
                # auto hook reconciles in the same post-batch call).
                continue
            eps = table.config.elements_per_slab
            decision = POLICY.decide(len(table), table.num_buckets, eps)
            if decision is not None:
                return (
                    f"{name}: policy not quiescent after auto-resize "
                    f"(n={len(table)}, buckets={table.num_buckets}, "
                    f"wants {decision})"
                )
            beta = table.beta()
            ceiling = POLICY.beta_high * (1 + POLICY.hysteresis) + 1e-9
            if beta > ceiling:
                return f"{name}: beta {beta:.3f} above the band ceiling {ceiling:.3f}"
    return None


# --------------------------------------------------------------------------- #
# The runner and the shrinking loop
# --------------------------------------------------------------------------- #

HEAVY_EVERY = 4  #: run the structure-heavy invariants every N steps


def run_program(program: Program, *, check_coverage: bool = False) -> Optional[str]:
    """Execute a program; return an error description, or ``None`` if clean."""
    impls = make_impls()
    model: dict = {}
    previous = {
        name: [device.counters.as_dict() for device in _devices(name, impl)]
        for name, impl in impls.items()
    }
    check_rng = random.Random(0xC0FFEE)

    for index, step in enumerate(program):
        try:
            expected = apply_to_model(model, step)
            got = {name: apply_to_impl(impl, step) for name, impl in impls.items()}
        except Exception as error:  # noqa: BLE001 - a crash is a failing program
            return f"step {index} {step!r} raised {type(error).__name__}: {error}"

        error = (
            _model_result_mismatch(step, expected, got)
            or _check_lengths(impls, model)
            or _check_counter_monotonicity(impls, previous)
            or _check_backend_counters(impls)
        )
        if error is None and step[0] in MUTATING:
            error = _check_policy_band(impls)
        if error is None and (index % HEAVY_EVERY == 0 or index == len(program) - 1):
            error = (
                _check_items(impls, model)
                or _check_chains(impls)
                or _check_search_all(impls, model, check_rng)
            )
        if error:
            return f"step {index} {step!r}: {error}"

    error = (
        _check_items(impls, model)
        or _check_chains(impls)
        or _check_search_all(impls, model, check_rng)
        or _check_policy_band(impls)
    )
    if error:
        return f"end of program: {error}"

    if check_coverage:
        for name, impl in impls.items():
            for table in _tables(impl):
                if table.resize_stats.grows < 1 or table.resize_stats.shrinks < 1:
                    return (
                        f"coverage: {name} table saw grows="
                        f"{table.resize_stats.grows}, shrinks="
                        f"{table.resize_stats.shrinks}; the generator must force both"
                    )
                # Every finished resize is at least one step (a stop-the-world
                # rebuild is exactly one), so only steps beyond that count
                # prove a mid-migration phase.
                stats = table.resize_stats
                if stats.migration_steps <= stats.resizes:
                    return (
                        f"coverage: {name} table saw no incremental migration "
                        f"steps; the generator must force a mid-migration phase"
                    )
    return None


def shrink_program(program: Program, *, max_attempts: int = 120) -> Program:
    """Delta-debug a failing program to a (locally) minimal reproducer.

    Re-runs candidate programs from scratch (coverage checks off — only the
    original failure class needs to persist, and any invariant violation
    counts), removing ever-smaller chunks while the failure survives.
    """
    current = list(program)
    attempts = 0
    chunk = max(1, len(current) // 2)
    while chunk > 0 and attempts < max_attempts:
        index = 0
        while index < len(current) and attempts < max_attempts:
            candidate = current[:index] + current[index + chunk:]
            attempts += 1
            if candidate and run_program(candidate) is not None:
                current = candidate
            else:
                index += chunk
        chunk //= 2
    return current


def format_program(program: Program) -> str:
    """A copy-pasteable Python literal of the program."""
    lines = ["PROGRAM = ["]
    for step in program:
        lines.append(f"    {step!r},")
    lines.append("]")
    return "\n".join(lines)
