"""Guard for perfbench's per-layer names: every traced layer is really called.

``perfbench/tracing.py`` patches named functions of the program in place and
reports per-layer time from the calls they record.  A refactor that renames
one of them fails at install time, but one that routes around it (calls a
sibling instead) leaves the name in place and silently reads 0 for that
layer.  This test installs the tracer over a tiny service run that touches
every layer: a 2-shard engine under a deferred incremental policy, WAL on,
inserts then deletes, a checkpoint, more traffic, then ``recover``.
"""

from __future__ import annotations

import asyncio
import importlib.util
import os

import numpy as np

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.engine.sharded import ShardedSlabHash
from repro.persist.recovery import recover
from repro.persist.wal import WriteAheadLog
from repro.service import ServiceConfig, SlabHashService

_TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "perfbench",
    "tracing.py",
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ops(code: int, keys: np.ndarray):
    return np.full(len(keys), code, dtype=np.int64), keys, (keys * 3).astype(np.uint32)


def test_every_traced_layer_records_a_call(tmp_path):
    tracing = _load_tracing()
    policy = LoadFactorPolicy(min_buckets=2, incremental=True).deferred()
    engine = ShardedSlabHash(
        2,
        2,
        alloc_config=SlabAllocConfig(num_super_blocks=2, num_memory_blocks=8, units_per_block=64),
        seed=7,
        load_factor_policy=policy,
    )
    wal = WriteAheadLog(str(tmp_path / "ops.wal"))
    snap = str(tmp_path / "snap")
    keys = np.arange(1, 1201, dtype=np.uint64)

    async def main():
        async with SlabHashService(
            engine, config=ServiceConfig(max_batch_size=128, max_delay=0.0), wal=wal
        ) as service:
            await service.submit_many(*_ops(C.OP_INSERT, keys[:800]))
            await service.submit_many(*_ops(C.OP_DELETE, keys[:600]))
            service.checkpoint(snap)
            await service.submit_many(*_ops(C.OP_INSERT, keys[800:]))
            await service.submit_many(*_ops(C.OP_SEARCH, keys))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        asyncio.run(asyncio.wait_for(main(), timeout=30))
        wal.close()
        recovered, report = recover(snap, wal.path)
    finally:
        tracer.uninstall()

    assert report.records_replayed >= 1
    assert sorted(recovered.items()) == sorted(engine.items())
    view = tracing.SpanView(tracer)
    silent = [name for name in tracing.NAMES if view.calls(name) == 0]
    assert not silent, f"traced layers never called: {silent}"
