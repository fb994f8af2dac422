"""Single-key operations outside the storable key domain, on every container.

Every container validates keys in one place (``SlabHash._validate_keys``):
a search or delete of a key outside ``[0, MAX_USER_KEY)`` raises the domain
``ValueError``, never a NumPy conversion error, and ``in`` answers ``False``.
"""

import pytest

from repro.core import constants as C
from repro.core.slab_hash import SlabHash
from repro.core.slab_list_single import SlabList
from repro.core.slab_set import SlabSet
from repro.engine.sharded import ShardedSlabHash

OUTSIDE = [-1, 2**40, C.EMPTY_KEY, C.DELETED_KEY]

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
