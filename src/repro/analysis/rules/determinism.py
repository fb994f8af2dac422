"""Determinism rules: no ambient time, no ambient randomness, no set order.

The bit-identity contract (results, device counters, snapshot bytes equal
across backends, shard layouts, and recovery) only holds
if nothing in the state-bearing planes reads an ambient source of
nondeterminism.  These rules ban the three ways that happens in practice:
wall-clock reads, unseeded RNGs, and iteration order of unordered sets.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.analysis.framework import Module, Rule, Violation

__all__ = [
    "DetWallclockRule",
    "DetClockRule",
    "DetRandomRule",
    "DetSetOrderRule",
]

#: Calls that read the wall clock (or a civil date/time derived from it).
_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Monotonic process clocks: fine for latency accounting, banned where a
#: read could reach deterministic state.
_MONOTONIC_CALLS = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.thread_time",
    "time.thread_time_ns",
}

#: Module-level RNG entry points that draw from hidden global state.
_GLOBAL_RNG_CALLS = {
    f"random.{name}"
    for name in (
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "betavariate", "expovariate", "gauss",
        "getrandbits", "normalvariate", "paretovariate", "triangular",
        "vonmisesvariate", "weibullvariate", "seed",
    )
} | {
    f"numpy.random.{name}"
    for name in (
        "rand", "randn", "randint", "random", "random_sample", "choice",
        "shuffle", "permutation", "uniform", "normal", "poisson", "seed",
    )
}

#: Constructors that are deterministic *only* when given an explicit seed.
_SEEDED_CONSTRUCTORS = {"random.Random", "numpy.random.default_rng", "random.SystemRandom"}


class DetWallclockRule(Rule):
    id = "det-wallclock"
    title = "no wall-clock reads outside perf/"
    rationale = (
        "A wall-clock read anywhere results, counters, or persisted bytes "
        "are produced breaks replay: the same program would not reproduce "
        "the same state.  Wall-clock time belongs to the measurement plane "
        "(repro/perf, benchmarks/) only."
    )
    exclude_dirs = ("repro/perf/",)

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = module.names.resolve(node.func)
            if qualified in _WALLCLOCK_CALLS:
                yield self.violation(
                    module,
                    node,
                    f"wall-clock read `{qualified}()` — deterministic code "
                    f"must not observe the wall clock (move it to repro/perf "
                    f"or benchmarks/, or derive the value from the program)",
                )


class DetClockRule(Rule):
    id = "det-clock"
    title = "no monotonic-clock reads in the deterministic planes"
    rationale = (
        "perf_counter/monotonic/process_time are fine for deadlines and "
        "latency accounting in the service, but core/, persist/, gpusim/, "
        "workloads/ and baselines/ produce state that must be bit-identical "
        "across hosts and replays — no clock of any kind may be read there."
    )
    dirs = (
        "repro/core/",
        "repro/persist/",
        "repro/gpusim/",
        "repro/workloads/",
        "repro/baselines/",
    )

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = module.names.resolve(node.func)
            if qualified in _MONOTONIC_CALLS:
                yield self.violation(
                    module,
                    node,
                    f"monotonic-clock read `{qualified}()` in a deterministic "
                    f"plane — state produced here must replay bit-identically; "
                    f"clocks live in repro/service (deadlines) and repro/perf "
                    f"(measurement) only",
                )


class DetRandomRule(Rule):
    id = "det-random"
    title = "no unseeded randomness"
    rationale = (
        "Every RNG in the repo is constructed from an explicit seed "
        "(workload generators, schedulers, fault plans, retry jitter) so any "
        "run replays from its seed.  Global-state RNG calls and unseeded "
        "constructors reintroduce ambient nondeterminism."
    )
    exclude_dirs = ("repro/perf/",)

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = module.names.resolve(node.func)
            if qualified in _GLOBAL_RNG_CALLS:
                yield self.violation(
                    module,
                    node,
                    f"global-state RNG call `{qualified}()` — construct a "
                    f"seeded generator (`random.Random(seed)` / "
                    f"`np.random.default_rng(seed)`) and thread it through",
                )
            elif qualified in _SEEDED_CONSTRUCTORS and not _has_seed(node):
                yield self.violation(
                    module,
                    node,
                    f"`{qualified}()` constructed without a seed draws from "
                    f"OS entropy — pass an explicit seed so the run replays",
                )


def _has_seed(call: ast.Call) -> bool:
    """True when a constructor call passes a non-None first arg or seed=."""
    for arg in call.args:
        if not (isinstance(arg, ast.Constant) and arg.value is None):
            return True
    for keyword in call.keywords:
        if keyword.arg in (None, "seed", "x"):  # None = **kwargs: trust it
            if not (
                isinstance(keyword.value, ast.Constant) and keyword.value.value is None
            ):
                return True
    return False


#: Consumers whose argument order is observable.
_ORDER_SENSITIVE_CALLS = {
    "list", "tuple", "enumerate", "iter", "next",
    "numpy.array", "numpy.asarray", "numpy.fromiter", "numpy.concatenate",
}

class DetSetOrderRule(Rule):
    id = "det-set-order"
    title = "no iteration over unordered sets where order can escape"
    rationale = (
        "`set` iteration order depends on insertion history and hash "
        "randomization of the running process.  Where the order can reach "
        "results, counters, or the WAL, iterate `sorted(...)` instead; "
        "membership tests and aggregations stay free."
    )
    dirs = (
        "repro/core/",
        "repro/engine/",
        "repro/persist/",
        "repro/service/",
        "repro/gpusim/",
        "repro/faults/",
    )

    def check(self, module: Module) -> Iterator[Violation]:
        set_names = _setlike_bindings(module.tree)

        def is_setlike(node: ast.AST) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call):
                qualified = module.names.resolve(node.func)
                name = qualified or (
                    node.func.id if isinstance(node.func, ast.Name) else None
                )
                return name in ("set", "frozenset")
            key = _binding_key(node)
            return key is not None and key in set_names

        for node in ast.walk(module.tree):
            iter_expr: Optional[ast.AST] = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr = node.iter
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                iter_expr = node.generators[0].iter
            elif isinstance(node, ast.Call):
                name = module.names.resolve(node.func) or (
                    node.func.id if isinstance(node.func, ast.Name) else None
                )
                if name in _ORDER_SENSITIVE_CALLS and node.args:
                    iter_expr = node.args[0]
            elif isinstance(node, ast.Starred):
                iter_expr = node.value
            if iter_expr is not None and is_setlike(iter_expr):
                yield self.violation(
                    module,
                    node,
                    "iteration over an unordered set where the order can "
                    "escape — wrap it in `sorted(...)` (or restructure so "
                    "order never reaches results, counters, or the WAL)",
                )


def _binding_key(node: ast.AST) -> Optional[str]:
    """Key for a plain name or a self-attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        parts = []
        cursor: ast.AST = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if isinstance(cursor, ast.Name) and cursor.id == "self":
            parts.append("self")
            return ".".join(reversed(parts))
    return None


def _setlike_bindings(tree: ast.AST) -> Set[str]:
    """Names / self-attributes assigned a set literal, set() or set-typed
    annotation anywhere in the module (single-assignment heuristic: a name
    later rebound to a non-set is still reported — rebinding a collection's
    kind mid-flight is its own smell)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            value_is_set = _value_is_setlike(node.value)
            for target in node.targets:
                key = _binding_key(target)
                if key and value_is_set:
                    names.add(key)
        elif isinstance(node, ast.AnnAssign):
            key = _binding_key(node.target)
            if key and (_annotation_is_set(node.annotation) or _value_is_setlike(node.value)):
                names.add(key)
    return names


def _value_is_setlike(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet", "MutableSet")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet", "MutableSet")
    return False
