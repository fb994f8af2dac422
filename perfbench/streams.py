"""Op streams for the service benchmark, built from the seed before any timing.

Every stream is a list of :class:`Request` objects, each carrying the
results a correct service must return.  Expected results come from a plain
set/dict model that is advanced *window by window*: a window is as many
requests as the load generator keeps in flight, and

* a key is touched at most once per window,
* a key touched in one window is not touched in the next,
* deletes and hit-searches draw from the keys live after the previous window,
* inserts use keys never used before, missing searches use the key range
  that stored keys never come from.

The closed loop keeps at most one window's worth of requests outstanding, so
two operations on one key are never in flight together, and every expected
result is independent of how the service cuts its batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core import constants as C
from repro.workloads.churn import build_churn_workload
from repro.workloads.generators import missing_queries, unique_random_keys, values_for_keys

REQUEST_OPS = 256  #: operations per ``submit_many`` request
IN_FLIGHT = 16  #: requests the closed loop keeps outstanding (one window)


@dataclass(frozen=True)
class Request:
    """One ``submit_many`` admission and the results it must produce."""

    op_codes: np.ndarray  # int64
    keys: np.ndarray  # uint64
    values: np.ndarray  # uint32
    expected: np.ndarray  # uint32

    def __len__(self) -> int:
        return len(self.op_codes)


@dataclass(frozen=True)
class Phase:
    """Requests run back to back; the loop drains fully between phases."""

    requests: List[Request]

    @property
    def num_ops(self) -> int:
        return sum(len(r) for r in self.requests)


@dataclass(frozen=True)
class Stream:
    """Everything a run needs, derived from the seed alone."""

    build_keys: np.ndarray  # uint32, bulk-built at set-up (may be empty)
    warmup: List[Phase]
    measured: List[Phase]
    final_keys: np.ndarray  # uint32, sorted: the model's contents at the end
    final_values: np.ndarray  # uint32, aligned with ``final_keys``

    @property
    def measured_ops(self) -> int:
        return sum(p.num_ops for p in self.measured)

    @property
    def measured_requests(self) -> int:
        return sum(len(p.requests) for p in self.measured)


def _split(op_codes: np.ndarray, keys: np.ndarray, expected: np.ndarray) -> List[Request]:
    keys64 = keys.astype(np.uint64)
    values = values_for_keys(keys)
    return [
        Request(op_codes[i : i + REQUEST_OPS], keys64[i : i + REQUEST_OPS],
                values[i : i + REQUEST_OPS], expected[i : i + REQUEST_OPS])
        for i in range(0, len(op_codes), REQUEST_OPS)
    ]


def _sorted_contents(live: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    keys = np.sort(live.astype(np.uint32))
    return keys, values_for_keys(keys)


def steady_stream(
    initial: int,
    mix: Tuple[float, float, float],
    warmup_windows: int,
    measured_windows: int,
    seed: int,
) -> Stream:
    """A Gamma-style mix over a population held at ``initial`` keys.

    ``mix`` is (insert, hit-search, miss-search) shares of a window; deletes
    match inserts one for one, so the population never drifts.
    """
    insert_share, hit_share, _miss_share = mix
    window_ops = IN_FLIGHT * REQUEST_OPS
    n_ins = round(window_ops * insert_share)
    n_hit = round(window_ops * hit_share)
    n_miss = window_ops - 2 * n_ins - n_hit
    windows = warmup_windows + measured_windows
    rng = np.random.default_rng(seed)
    pool = unique_random_keys(initial + windows * n_ins, seed=seed)
    live = pool[:initial]
    cooling = np.zeros(initial, dtype=bool)  # touched in the previous window
    misses = missing_queries(windows * n_miss, seed=seed + 1)
    kinds = np.repeat(
        np.array([C.OP_INSERT, C.OP_DELETE, C.OP_SEARCH, C.OP_SEARCH], dtype=np.int64),
        [n_ins, n_ins, n_hit, n_miss],
    )
    phases: List[Phase] = []
    for w in range(windows):
        fresh = pool[initial + w * n_ins : initial + (w + 1) * n_ins]
        picked = rng.choice(np.flatnonzero(~cooling), n_ins + n_hit, replace=False)
        doomed, hits = picked[:n_ins], picked[n_ins:]
        keys = np.concatenate(
            [fresh, live[doomed], live[hits], misses[w * n_miss : (w + 1) * n_miss]]
        )
        expected = np.concatenate([
            np.zeros(n_ins, dtype=np.uint32),
            np.ones(n_ins, dtype=np.uint32),
            values_for_keys(live[hits]),
            np.full(n_miss, C.SEARCH_NOT_FOUND, dtype=np.uint32),
        ])
        order = rng.permutation(window_ops)
        phases.append(Phase(_split(kinds[order], keys[order], expected[order])))
        touched = np.zeros(len(live), dtype=bool)
        touched[hits] = True
        keep = np.ones(len(live), dtype=bool)
        keep[doomed] = False
        live = np.concatenate([live[keep], fresh])
        cooling = np.concatenate([touched[keep], np.ones(n_ins, dtype=bool)])
    # Warm-up and measured windows are one continuous stream, but each part
    # runs as a single phase so the loop never drains inside it.
    warm = [Phase([r for p in phases[:warmup_windows] for r in p.requests])]
    measured = [Phase([r for p in phases[warmup_windows:] for r in p.requests])]
    final_keys, final_values = _sorted_contents(live)
    return Stream(pool[:initial], warm, measured, final_keys, final_values)


def churn_stream(peak: int, cycles: int, seed: int) -> Stream:
    """The ``build_churn_workload`` schedule, one phase per churn step.

    Each step is all fresh inserts or all deletes of distinct live keys, and
    a delete step can hit keys the step before inserted, so the loop drains
    between steps.  The first step is the warm-up.
    """
    churn = build_churn_workload(peak, cycles=cycles, seed=seed)
    live: Dict[int, None] = {}
    phases: List[Phase] = []
    for step in churn.steps:
        keys = step.keys.astype(np.uint32)
        if step.kind == "insert":
            ops = np.full(len(keys), C.OP_INSERT, dtype=np.int64)
            expected = np.zeros(len(keys), dtype=np.uint32)
            live.update(dict.fromkeys(keys.tolist()))
        else:
            ops = np.full(len(keys), C.OP_DELETE, dtype=np.int64)
            expected = np.ones(len(keys), dtype=np.uint32)
            for key in keys.tolist():
                del live[key]
        phases.append(Phase(_split(ops, keys, expected)))
    final_keys, final_values = _sorted_contents(np.fromiter(live, dtype=np.uint32))
    return Stream(np.zeros(0, dtype=np.uint32), phases[:1], phases[1:], final_keys, final_values)
