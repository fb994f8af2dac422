"""Tests for the shard router: hash routing must partition the stream by key."""

import numpy as np
import pytest

from repro.engine.router import ShardRouter

from tests.conftest import make_keys


class TestConstruction:
    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


@pytest.mark.smoke
class TestPartitionProperty:
    """Routing must send every stream position to exactly one shard."""

    @pytest.mark.parametrize("num_shards", (1, 3, 8))
    def test_partition_is_disjoint_and_complete(self, num_shards):
        keys = make_keys(500, seed=11)
        parts = ShardRouter(num_shards, seed=5).partition(keys)
        assert len(parts) == num_shards
        merged = np.concatenate(parts)
        assert merged.size == keys.size  # complete
        assert np.unique(merged).size == keys.size  # disjoint
        for idx in parts:
            assert np.array_equal(idx, np.sort(idx))  # stream order kept

    def test_routing_is_a_function_of_the_key(self):
        router = ShardRouter(6, seed=3)
        keys = make_keys(200, seed=2)
        first = router.route(keys)
        again = router.route(np.flip(keys))
        assert np.array_equal(first, np.flip(again))
        for key, shard in zip(keys[:10], first[:10]):
            assert router.shard_of(int(key)) == shard


class TestBalance:
    def test_hash_routing_is_roughly_balanced(self):
        parts = ShardRouter(8, seed=0).partition(make_keys(4000, seed=9))
        sizes = np.array([p.size for p in parts])
        assert sizes.min() > 0
        assert sizes.max() / sizes.mean() < 1.5

    def test_single_shard_routes_everything_to_shard_zero(self):
        keys = make_keys(64, seed=4)
        assert not ShardRouter(1).route(keys).any()
