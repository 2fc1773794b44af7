"""Unit tests for fault injectors."""

import numpy as np
import pytest

from repro.core.checkstore import CheckStore
from repro.faults.injector import (
    BurstInjector,
    CheckBitInjector,
    DeterministicInjector,
    InjectionResult,
    UniformInjector,
)
from repro.utils.rng import INJECT_STREAM, TrialStreams
from repro.xbar.crossbar import CrossbarArray


@pytest.fixture
def mem():
    return CrossbarArray(15, 15)


def trial(entropy, i=0):
    """Trial ``i``'s one-trial injection span under ``entropy``."""
    return TrialStreams(entropy, i, i + 1, INJECT_STREAM)


class TestDeterministicInjector:
    def test_flips_listed_cells(self, mem):
        inj = DeterministicInjector([(1, 2), (3, 4)])
        result = inj.inject(mem)
        assert mem.read_bit(1, 2) == 1
        assert mem.read_bit(3, 4) == 1
        assert result.data_flips == [(1, 2), (3, 4)]

    def test_check_flips(self, mem, small_grid):
        store = CheckStore(small_grid)
        inj = DeterministicInjector(check_flips=[("leading", 0, 1, 1)])
        result = inj.inject(mem, store)
        assert store.lead[0, 1, 1] == 1
        assert result.check_flips == [("leading", 0, 1, 1)]

    def test_check_flips_skipped_without_store(self, mem):
        inj = DeterministicInjector(check_flips=[("leading", 0, 0, 0)])
        assert inj.inject(mem).total == 0


class TestUniformInjector:
    def test_probability_zero_never_flips(self, mem):
        assert UniformInjector(0.0).inject(mem, streams=trial(1)).total == 0

    def test_probability_one_flips_everything(self, mem):
        result = UniformInjector(1.0, include_check_bits=False).inject(
            mem, streams=trial(1))
        assert len(result.data_flips) == mem.size

    def test_streams_reproducible(self):
        r1, r2, r3 = (UniformInjector(0.1).inject(CrossbarArray(15, 15),
                                                  streams=streams)
                      for streams in (trial(9), trial(9), trial(9, 1)))
        assert r1.data_flips == r2.data_flips
        assert r1.data_flips != r3.data_flips

    def test_rate_statistics(self):
        """Expected flip count within 5 sigma of binomial mean."""
        mem = CrossbarArray(100, 100)
        p = 0.05
        result = UniformInjector(p, include_check_bits=False).inject(
            mem, streams=trial(3))
        mean = p * mem.size
        sigma = (mem.size * p * (1 - p)) ** 0.5
        assert abs(len(result.data_flips) - mean) < 5 * sigma

    def test_from_ser_conversion(self):
        inj = UniformInjector.from_ser(1e6, 2000)
        assert inj.probability == pytest.approx(1 - np.exp(-2.0))

    def test_check_bits_included(self, mem, small_grid):
        store = CheckStore(small_grid)
        result = UniformInjector(1.0).inject(mem, store, streams=trial(2))
        assert len(result.check_flips) == store.total_bits

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            UniformInjector(1.5)


class TestBurstInjector:
    def test_zero_strikes(self, mem):
        result = BurstInjector(strikes=0).inject(mem, streams=trial(0))
        assert result.total == 0

    def test_single_strike_center_always_hit(self, mem):
        result = BurstInjector(strikes=1, radius=1, neighbor_probability=0.0
                               ).inject(mem, streams=trial(4))
        assert result.total == 1

    def test_neighborhood_radius_bounds(self):
        mem = CrossbarArray(30, 30)
        result = BurstInjector(strikes=1, radius=2, neighbor_probability=1.0
                               ).inject(mem, streams=trial(5))
        rows = [r for r, _ in result.data_flips]
        cols = [c for _, c in result.data_flips]
        assert max(rows) - min(rows) <= 4
        assert max(cols) - min(cols) <= 4

    def test_full_neighborhood_count(self):
        mem = CrossbarArray(30, 30)
        result = BurstInjector(strikes=1, radius=1, neighbor_probability=1.0
                               ).inject(mem, streams=trial(6))
        # Interior strike: 3x3 = 9 cells; edges may clip.
        assert 4 <= result.total <= 9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BurstInjector(strikes=-1)
        with pytest.raises(ValueError):
            BurstInjector(radius=-1)


class TestCheckBitInjector:
    def test_targets_only_check_bits(self, mem, small_grid):
        store = CheckStore(small_grid)
        result = CheckBitInjector(1.0).inject(mem, store, streams=trial(7))
        assert result.data_flips == []
        assert len(result.check_flips) == store.total_bits
        assert mem.total_flips == 0

    def test_noop_without_store(self, mem):
        assert CheckBitInjector(1.0).inject(mem, streams=trial(7)).total == 0


class TestInjectionResult:
    def test_merge(self):
        a = InjectionResult([(0, 0)], [])
        b = InjectionResult([(1, 1)], [("leading", 0, 0, 0)])
        merged = a.merge(b)
        assert merged.total == 3
