"""Keys outside the storable key domain, on every container and entry point.

Every container validates keys in one place (``repro.core.hashing.user_keys``):
a single-key or batch operation on a key outside ``[0, MAX_USER_KEY)`` raises
the domain ``ValueError``, never a NumPy conversion error, and ``in`` answers
``False``.
"""

import asyncio

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.slab_hash import SlabHash
from repro.core.slab_list_single import SlabList
from repro.core.slab_set import SlabSet
from repro.engine.sharded import ShardedSlabHash
from repro.service import ServiceConfig, SlabHashService

OUTSIDE = [-1, 2**40, C.EMPTY_KEY, C.DELETED_KEY]

#: Batch entry points, each called with ``[5, bad]``; none may apply the
#: in-domain key 5 before it rejects the batch.
BATCHES = {
    "SlabSet.update": (lambda: SlabSet(4, seed=1), lambda s, keys: s.update(keys)),
    "SlabSet.contains_many": (
        lambda: SlabSet(4, seed=1), lambda s, keys: s.contains_many(keys)
    ),
    "SlabSet.discard_many": (
        lambda: SlabSet(4, seed=1), lambda s, keys: s.discard_many(keys)
    ),
    "ShardedSlabHash.bulk_insert": (
        lambda: ShardedSlabHash(2, 4, seed=1),
        lambda e, keys: e.bulk_insert(keys, np.arange(len(keys))),
    ),
    "ShardedSlabHash.bulk_search": (
        lambda: ShardedSlabHash(2, 4, seed=1), lambda e, keys: e.bulk_search(keys)
    ),
    "ShardedSlabHash.bulk_delete": (
        lambda: ShardedSlabHash(2, 4, seed=1), lambda e, keys: e.bulk_delete(keys)
    ),
    "ShardedSlabHash.concurrent_batch": (
        lambda: ShardedSlabHash(2, 4, seed=1),
        lambda e, keys: e.concurrent_batch(
            np.full(len(keys), C.OP_INSERT), keys, np.arange(len(keys))
        ),
    ),
    "ShardedSlabHash.admit_partition": (
        lambda: ShardedSlabHash(2, 4, seed=1), lambda e, keys: e.admit_partition(keys)
    ),
}

CONTAINERS = {
    "SlabHash": (lambda: SlabHash(4, seed=1), "search", "delete"),
    "SlabList": (lambda: SlabList(seed=1), "search", "delete"),
    "SlabSet": (lambda: SlabSet(4, seed=1), None, "discard"),
    "ShardedSlabHash": (lambda: ShardedSlabHash(2, 4, seed=1), "search", "delete"),
}


@pytest.mark.parametrize("key", OUTSIDE)
@pytest.mark.parametrize("name", CONTAINERS)
def test_out_of_domain_keys(name, key):
    factory, search, delete = CONTAINERS[name]
    container = factory()
    assert (key in container) is False
    for method in filter(None, (search, delete)):
        with pytest.raises(ValueError, match="keys must be below"):
            getattr(container, method)(key)


@pytest.mark.parametrize("name", CONTAINERS)
def test_in_domain_membership(name):
    container = CONTAINERS[name][0]()
    if isinstance(container, SlabSet):
        container.add(7)
    else:
        container.insert(7, 70)
    assert 7 in container
    assert 8 not in container


@pytest.mark.parametrize("key", OUTSIDE[:3])
@pytest.mark.parametrize("name", BATCHES)
def test_batch_entry_points_raise_the_domain_error(name, key):
    factory, call = BATCHES[name]
    container = factory()
    with pytest.raises(ValueError, match="keys must be below") as caught:
        call(container, [5, key])
    assert "storable key domain" in str(caught.value)
    assert len(container) == 0
    if isinstance(container, ShardedSlabHash):
        assert not container._ops_routed.any()


@pytest.mark.parametrize("key", OUTSIDE[:3])
@pytest.mark.parametrize("sharded", [False, True], ids=["table", "engine"])
def test_service_admission_raises_the_domain_error(sharded, key):
    engine = ShardedSlabHash(2, 4, seed=1) if sharded else SlabHash(4, seed=1)

    async def main():
        async with SlabHashService(engine, config=ServiceConfig(max_delay=0.0005)) as service:
            for admit in (
                lambda: service.submit_many([C.OP_SEARCH, C.OP_SEARCH], [5, key]),
                lambda: service.search(key),
            ):
                with pytest.raises(ValueError, match="keys must be below") as caught:
                    await admit()
                assert "storable key domain" in str(caught.value)
            assert await service.search(5) is None

    asyncio.run(main())
