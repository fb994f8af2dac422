"""Span tracing around calls into the program's layers, from outside ``src/``.

:class:`Tracer` wraps named public functions in place (class methods, or
module globals the calling module looks up at call time) and records one span
per call: layer name, start, end and the index of the enclosing span.  Every
wrapped function runs synchronously, so a plain stack gives the parent even
while the asyncio loop interleaves requests.  Spans stay in memory until
:meth:`Tracer.write` saves them at the end of the run.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro.persist.recovery as recovery_mod
import repro.persist.snapshot as snapshot_mod
import repro.service.service as service_mod
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.engine.sharded import ShardedSlabHash
from repro.persist.wal import WriteAheadLog

#: layer name -> (object holding the attribute, attribute name)
LAYERS: Dict[str, Tuple[Any, str]] = {
    "core.slab_hash.concurrent_batch": (SlabHash, "concurrent_batch"),
    "core.slab_alloc.deallocate": (SlabAlloc, "deallocate"),
    "core.slab_alloc.warp_allocate": (SlabAlloc, "warp_allocate"),
    "core.resize.pump": (ShardedSlabHash, "maybe_resize_shard"),
    "persist.wal.append_group": (WriteAheadLog, "append_group"),
    "perf.metrics.measure_phase": (service_mod, "measure_phase"),
    "engine.admit_partition": (ShardedSlabHash, "admit_partition"),
    # SlabHashService.checkpoint imports ``save`` at call time.
    "persist.snapshot.save": (snapshot_mod, "save"),
    "persist.recovery.load": (recovery_mod, "load"),
    "persist.recovery.replay": (recovery_mod, "replay_record"),
}
NAMES = list(LAYERS)


class Tracer:
    """Records spans for every call into :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, code: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack,
        )

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for code, (owner, attr) in enumerate(LAYERS.values()):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(code, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int16),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


class SpanView:
    """Per-layer aggregates over the spans that started inside a time window."""

    def __init__(self, tracer: Tracer, t0: float = float("-inf"), t1: float = float("inf")) -> None:
        spans = tracer.arrays()
        duration = spans["end"] - spans["start"]
        child_time = np.zeros(len(duration))
        has_parent = spans["parent"] >= 0
        np.add.at(child_time, spans["parent"][has_parent], duration[has_parent])
        inside = (spans["start"] >= t0) & (spans["start"] < t1)
        self._name = spans["name"][inside]
        self._duration = duration[inside]
        self._self = (duration - child_time)[inside]
        self._top = ~has_parent[inside]

    def _mask(self, layer: str) -> np.ndarray:
        return self._name == NAMES.index(layer)

    def calls(self, layer: str) -> int:
        return int(self._mask(layer).sum())

    def busy_s(self, layer: str) -> float:
        return float(self._duration[self._mask(layer)].sum())

    def self_s(self, layer: str) -> float:
        return float(self._self[self._mask(layer)].sum())

    def durations_ms(self, layer: str) -> np.ndarray:
        return self._duration[self._mask(layer)] * 1e3

    def top_level_busy_s(self) -> float:
        """Time inside any traced span that no other traced span encloses."""
        return float(self._duration[self._top].sum())


    def percentile_ms(self, layer: str, q: float) -> float:
        durations = self.durations_ms(layer)
        return float(np.percentile(durations, q)) if durations.size else 0.0
