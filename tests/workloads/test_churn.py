"""Churn workloads run against key-only tables, which ignore the values."""

import numpy as np
import pytest

from repro.core.slab_hash import SlabHash
from repro.engine.sharded import ShardedSlabHash
from repro.workloads.churn import apply_churn_step, build_churn_workload


@pytest.mark.parametrize(
    "make_table",
    [
        lambda: SlabHash(16, key_value=False, seed=3),
        lambda: ShardedSlabHash(2, 8, key_value=False, seed=3),
    ],
    ids=["table", "engine"],
)
def test_one_churn_cycle_on_a_key_only_table(make_table):
    workload = build_churn_workload(400, base_elements=100, cycles=1, seed=5)
    table = make_table()
    live = set()
    for step in workload.cycle_steps(0):
        apply_churn_step(table, step)
        if step.kind == "insert":
            live.update(step.keys.tolist())
        else:
            live.difference_update(step.keys.tolist())
    keys = np.array(sorted(live), dtype=np.uint64)
    assert len(keys) == len(table) == workload.base_elements
    assert np.array_equal(table.bulk_search(keys), keys)
