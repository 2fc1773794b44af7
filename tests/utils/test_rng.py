"""Unit tests for deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.utils.rng import (
    make_rng,
    resolve_entropy,
    shard_bounds,
)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7).integers(0, 1000, 10)
        b = make_rng(7).integers(0, 1000, 10)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = make_rng(7).integers(0, 1000, 10)
        b = make_rng(8).integers(0, 1000, 10)
        assert not (a == b).all()

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestResolveEntropy:
    def test_integer_passthrough(self):
        assert resolve_entropy(42) == 42

    def test_none_draws_entropy(self):
        assert isinstance(resolve_entropy(None), int)

    def test_generator_rejected(self):
        with pytest.raises(ValueError):
            resolve_entropy(np.random.default_rng(0))


class TestShardBounds:
    def test_covers_range_contiguously(self):
        bounds = shard_bounds(17, 4)
        assert bounds[0][0] == 0 and bounds[-1][1] == 17
        for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
            assert hi == lo2

    def test_sizes_balanced(self):
        sizes = [hi - lo for lo, hi in shard_bounds(17, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_trials(self):
        bounds = shard_bounds(2, 5)
        assert bounds == [(0, 1), (1, 2)]

    def test_zero_trials(self):
        assert shard_bounds(0, 3) == []

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            shard_bounds(5, 0)
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)
