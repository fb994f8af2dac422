"""Tests for the standalone SlabList container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import constants as C
from repro.core.bulk_exec import BACKENDS
from repro.core.config import SlabAllocConfig, SlabConfig
from repro.core.flush import flush_bucket
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_list import SlabListCollection
from repro.core.slab_list_single import SlabList
from repro.gpusim.device import Device
from repro.gpusim.scheduler import run_sequential
from repro.gpusim.warp import WARP_SIZE, Warp
from repro.perf.harness import execution_backend

CFG = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=8, units_per_block=64)


def new_list(**kwargs):
    kwargs.setdefault("alloc_config", CFG)
    kwargs.setdefault("seed", 5)
    return SlabList(**kwargs)


class TestBasicContainerBehaviour:
    def test_insert_search_delete(self):
        slab_list = new_list()
        slab_list.insert(10, 100)
        assert slab_list.search(10) == 100
        assert 10 in slab_list
        assert slab_list.delete(10) is True
        assert slab_list.search(10) is None
        assert 10 not in slab_list

    def test_len_and_items(self):
        slab_list = new_list()
        slab_list.extend([1, 2, 3], [10, 20, 30])
        assert len(slab_list) == 3
        assert dict(slab_list.items()) == {1: 10, 2: 20, 3: 30}
        assert sorted(slab_list) == [1, 2, 3]

    def test_replace_semantics_in_unique_mode(self):
        slab_list = new_list()
        slab_list.insert(7, 1)
        slab_list.insert(7, 2)
        assert slab_list.search(7) == 2
        assert len(slab_list) == 1

    def test_duplicates_mode_and_search_all(self):
        slab_list = new_list(unique_keys=False)
        for value in (1, 2, 3):
            slab_list.insert(7, value)
        assert sorted(slab_list.search_all(7)) == [1, 2, 3]
        assert slab_list.delete_all(7) == 3
        assert len(slab_list) == 0

    def test_key_only_mode(self):
        slab_list = new_list(key_value=False)
        slab_list.extend(range(1, 50))
        assert slab_list.search(13) == 13
        assert slab_list.search(99) is None
        assert len(slab_list) == 49

    def test_key_value_mode_requires_values(self):
        slab_list = new_list()
        with pytest.raises(ValueError):
            slab_list.extend([1, 2, 3])

    def test_reserved_keys_rejected(self):
        slab_list = new_list()
        with pytest.raises(ValueError):
            slab_list.insert(C.EMPTY_KEY, 1)

    def test_contains_rejects_reserved_values_gracefully(self):
        slab_list = new_list()
        assert C.EMPTY_KEY not in slab_list


class TestGrowthAndCompaction:
    def test_list_grows_beyond_one_slab(self):
        slab_list = new_list()
        keys = list(range(1, 100))
        slab_list.extend(keys, keys)
        assert slab_list.slab_count() >= 7  # 99 pairs / 15 per slab
        assert np.array_equal(slab_list.search_many(keys), np.array(keys, dtype=np.uint32))

    def test_flush_compacts_after_deletions(self):
        slab_list = new_list()
        keys = list(range(1, 100))
        slab_list.extend(keys, keys)
        for key in keys[::2]:
            slab_list.delete(key)
        before = slab_list.slab_count()
        result = slab_list.flush()
        assert result.slabs_released > 0
        assert slab_list.slab_count() < before
        survivors = keys[1::2]
        assert np.array_equal(
            slab_list.search_many(survivors), np.array(survivors, dtype=np.uint32)
        )

    def test_memory_utilization_bounded(self):
        slab_list = new_list()
        keys = list(range(1, 200))
        slab_list.extend(keys, keys)
        assert 0 < slab_list.memory_utilization() <= slab_list.config.max_memory_utilization + 1e-9

    def test_search_many_missing_marked(self):
        slab_list = new_list()
        slab_list.extend([1, 2], [1, 2])
        results = slab_list.search_many([1, 5, 2, 9])
        assert results[0] == 1 and results[2] == 2
        assert results[1] == C.SEARCH_NOT_FOUND and results[3] == C.SEARCH_NOT_FOUND

    def test_shares_device_and_allocator_with_caller(self):
        device = Device()
        slab_list = SlabList(device=device, alloc_config=CFG)
        slab_list.extend(range(1, 40), range(1, 40))
        assert device.counters.allocations == slab_list.alloc.allocated_units
        assert device.counters.allocations >= 2


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "search"]),
                st.integers(min_value=1, max_value=30),
                st.integers(min_value=0, max_value=1000),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_property_matches_dict(self, ops):
        slab_list = new_list()
        reference = {}
        for op, key, value in ops:
            if op == "insert":
                slab_list.insert(key, value)
                reference[key] = value
            elif op == "delete":
                assert slab_list.delete(key) == (key in reference)
                reference.pop(key, None)
            else:
                assert slab_list.search(key) == reference.get(key)
        assert dict(slab_list.items()) == reference


class OneListDriver:
    """A one-bucket :class:`SlabListCollection` driven warp by warp.

    Each call is one kernel launch; each 32-operation chunk is one warp
    program under ``run_sequential`` — the schedule a standalone slab list
    runs, written out by hand as the oracle for :class:`SlabList`.
    """

    def __init__(self, *, key_value, unique_keys, alloc_config, seed):
        self.device = Device()
        self.config = SlabConfig(key_value=key_value, unique_keys=unique_keys)
        self.alloc = SlabAlloc(self.device, alloc_config, seed=seed)
        self.lists = SlabListCollection(self.device, self.alloc, 1, self.config)
        self.warps = 0

    def _warp(self):
        self.warps += 1
        return Warp(self.warps - 1, self.device.counters)

    def _launch(self, program, keys, lane_arg):
        """One kernel launch of ``program`` over ``keys``, 32 lanes per warp.

        ``lane_arg(start)`` builds a warp's last argument (its lane values or
        its output array); returns each warp's ``(span, argument)``.
        """
        keys = np.asarray(keys, dtype=np.uint32)
        self.device.launch_kernel()
        warps = []
        for start in range(0, len(keys), WARP_SIZE):
            span = min(WARP_SIZE, len(keys) - start)
            lane_keys = np.full(WARP_SIZE, C.EMPTY_KEY, dtype=np.uint32)
            lane_keys[:span] = keys[start : start + span]
            is_active = np.arange(WARP_SIZE) < span
            buckets = np.zeros(WARP_SIZE, dtype=np.int64)
            arg = lane_arg(start)
            run_sequential([program(self._warp(), is_active, buckets, lane_keys, arg)])
            warps.append((span, arg))
        return warps

    def _outputs(self, program, keys, make_out):
        warps = self._launch(program, keys, lambda start: make_out())
        return [result for span, out in warps for result in out[:span]]

    def extend(self, keys, values):
        def lane_values(start):
            if values is None:
                return None
            lanes = np.full(WARP_SIZE, C.EMPTY_VALUE, dtype=np.uint32)
            part = np.asarray(values, dtype=np.uint32)[start : start + WARP_SIZE]
            lanes[: len(part)] = part
            return lanes

        op = self.lists.warp_replace if self.config.unique_keys else self.lists.warp_insert
        self._launch(op, keys, lane_values)

    def delete(self, key):
        out = self._outputs(self.lists.warp_delete, [key], lambda: np.zeros(WARP_SIZE, dtype=np.int64))
        return bool(out[0])

    def delete_all(self, key):
        out = self._outputs(
            self.lists.warp_delete_all, [key], lambda: np.zeros(WARP_SIZE, dtype=np.int64)
        )
        return int(out[0])

    def search_many(self, keys):
        out = self._outputs(
            self.lists.warp_search,
            keys,
            lambda: np.full(WARP_SIZE, C.SEARCH_NOT_FOUND, dtype=np.uint32),
        )
        return np.array(out, dtype=np.uint32)

    def search(self, key):
        found = int(self.search_many([key])[0])
        return None if found == C.SEARCH_NOT_FOUND else found

    def search_all(self, key):
        out = self._outputs(self.lists.warp_search_all, [key], lambda: [[] for _ in range(WARP_SIZE)])
        return out[0]

    def flush(self):
        self.device.launch_kernel()
        return flush_bucket(self.lists, self._warp(), 0)

    def items(self):
        return self.lists.live_items(0)

    def slab_count(self):
        return self.lists.slab_count(0)


def run_program(target, key_value):
    """One mixed program; returns every result it observes, in order."""
    rng = np.random.default_rng(17)
    keys = rng.integers(1, 50, size=240).astype(np.uint32)
    values = rng.integers(0, 1000, size=240).astype(np.uint32)
    vals = (lambda part: part) if key_value else (lambda part: None)
    seen = []
    target.extend(keys[:100], vals(values[:100]))
    target.extend(keys[:0], vals(values[:0]))
    for key, value in zip(keys[100:120], values[100:120]):
        target.extend([key], vals([value]))
    seen.append(target.search_many(keys).tolist())
    seen.append([target.delete(int(k)) for k in keys[:30]])
    seen.append([target.search(int(k)) for k in keys[:40]])
    seen.append([target.search_all(int(k)) for k in keys[:20]])
    seen.append([target.delete_all(int(k)) for k in keys[30:40]])
    seen.append(target.slab_count())
    seen.append(target.flush().slabs_released)
    target.extend(keys[120:], vals(values[120:]))
    seen.append(target.search_many(keys).tolist())
    seen.append(target.items())
    seen.append(target.slab_count())
    return seen


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("unique_keys", [True, False])
@pytest.mark.parametrize("key_value", [True, False])
def test_matches_hand_driven_one_bucket_collection(key_value, unique_keys, backend):
    """SlabList (a one-bucket SlabHash) is bit-identical to the hand-driven list."""
    oracle = OneListDriver(key_value=key_value, unique_keys=unique_keys, alloc_config=CFG, seed=5)
    with execution_backend(backend):
        slab_list = new_list(key_value=key_value, unique_keys=unique_keys)
    assert slab_list.table.backend == backend
    assert run_program(slab_list, key_value) == run_program(oracle, key_value)
    assert slab_list.device.counters.as_dict() == oracle.device.counters.as_dict()
    assert slab_list.lists.base_slabs.tobytes() == oracle.lists.base_slabs.tobytes()
    for mine, theirs in zip(slab_list.alloc.export_units(), oracle.alloc.export_units()):
        assert mine.tobytes() == theirs.tobytes()
