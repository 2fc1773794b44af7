"""Draw contract v2: keyed per-trial streams and the sparse Bernoulli draw.

Contract v2 changed the campaign streams, so its tallies are no longer
bit-identical to v1's. What is pinned instead: the keying is exact (a
pure function of entropy, trial and stream, no truncation), and the
sparse field is distributed exactly like independent Bernoulli flips —
its count is Binomial(cells, p), its positions uniform and distinct —
so campaigns still match the paper's closed-form per-block model.
"""

import math

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.core.registry import build_code
from repro.faults.batch import CampaignRunner
from repro.faults.injector import CheckBitInjector, UniformInjector
from repro.reliability.model import log_block_success_probability
from repro.utils.rng import (
    DATA_STREAM,
    INJECT_STREAM,
    TrialStreams,
    bernoulli_positions,
    resolve_entropy,
    trial_stream,
)

#: The benchmark geometry: n=129, m=3, diagonal code.
GRID = BlockGrid(129, 3)
SHAPES = build_code("diagonal", GRID).plane_shapes
CELLS = GRID.n ** 2 + sum(math.prod(s) for s in SHAPES)

#: |z| bound of every moment check (fixed seeds: deterministic).
MAX_Z = 5.0

ENTROPY = 0x1234_5678_9ABC_DEF0_0FED_CBA9_8765_4321


def draws(stream, count):
    """A few draws exercising the generator's buffered paths."""
    return (stream.integers(0, 2 ** 32, size=3, dtype=np.uint32).tolist(),
            stream.random(count).tolist())


class TestKeyedStreams:
    def test_pure_function_of_entropy_trial_stream(self):
        assert draws(trial_stream(ENTROPY, 5, 1), 4) == \
            draws(trial_stream(ENTROPY, 5, 1), 4)

    def test_philox_addressing(self):
        direct = np.random.Generator(np.random.Philox(
            key=[ENTROPY % 2 ** 64, ENTROPY >> 64],
            counter=[0, 0, 5, INJECT_STREAM]))
        assert draws(trial_stream(ENTROPY, 5, INJECT_STREAM), 4) == \
            draws(direct, 4)

    @pytest.mark.parametrize("stream", [DATA_STREAM, INJECT_STREAM])
    def test_readdressed_range_equals_fresh_generators(self, stream):
        walked = [draws(g, 3) for g in TrialStreams(ENTROPY, 7, 12, stream)]
        fresh = [draws(trial_stream(ENTROPY, i, stream), 3)
                 for i in range(7, 12)]
        assert walked == fresh
        assert len(TrialStreams(ENTROPY, 7, 12, stream)) == 5

    def test_neighbours_differ(self):
        base = draws(trial_stream(ENTROPY, 3, 1), 4)
        for other in (trial_stream(ENTROPY, 4, 1),
                      trial_stream(ENTROPY, 3, 0),
                      trial_stream(ENTROPY + 1, 3, 1),
                      trial_stream(ENTROPY ^ (1 << 64), 3, 1)):
            assert draws(other, 4) != base

    @pytest.mark.parametrize("entropy", [-1, 2 ** 128, 2 ** 200])
    def test_out_of_range_entropy_raises(self, entropy):
        with pytest.raises(ValueError, match="2\\*\\*128"):
            trial_stream(entropy, 0, INJECT_STREAM)
        with pytest.raises(ValueError, match="2\\*\\*128"):
            TrialStreams(entropy, 0, 4, INJECT_STREAM)
        with pytest.raises(ValueError, match="2\\*\\*128"):
            resolve_entropy(entropy)
        with pytest.raises(ValueError, match="2\\*\\*128"):
            CampaignRunner(GRID, UniformInjector(1e-3), seed=entropy,
                           seeding="per-trial")

    def test_largest_entropy_accepted(self):
        assert resolve_entropy(2 ** 128 - 1) == 2 ** 128 - 1
        trial_stream(2 ** 128 - 1, 2 ** 64 - 1, INJECT_STREAM).random()


def binomial_moment_z(counts, cells, p):
    """z of the sample mean and variance of ``counts`` vs Binomial."""
    counts = np.asarray(counts, dtype=float)
    t = counts.size
    var = cells * p * (1 - p)
    mu4 = var * (1 + 3 * (cells - 2) * p * (1 - p))
    z_mean = (counts.mean() - cells * p) / math.sqrt(var / t)
    se_var = math.sqrt((mu4 - var ** 2 * (t - 3) / (t - 1)) / t)
    return z_mean, (counts.var(ddof=1) - var) / se_var


class TestSparseBernoulliDraw:
    @pytest.mark.parametrize("p,trials", [(2e-4, 4000), (1e-2, 3000),
                                          (0.5, 400)])
    def test_count_is_binomial(self, p, trials):
        counts = []
        for rng in TrialStreams(ENTROPY, 0, trials, INJECT_STREAM):
            positions = bernoulli_positions(rng, CELLS, p)
            assert positions.size == np.unique(positions).size
            assert (np.diff(positions) > 0).all()
            if positions.size:
                assert 0 <= positions[0] and positions[-1] < CELLS
            counts.append(positions.size)
        z_mean, z_var = binomial_moment_z(counts, CELLS, p)
        assert abs(z_mean) <= MAX_Z, z_mean
        assert abs(z_var) <= MAX_Z, z_var

    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(3)
        assert bernoulli_positions(rng, CELLS, 0.0).size == 0
        assert (bernoulli_positions(rng, CELLS, 1.0)
                == np.arange(CELLS)).all()
        assert bernoulli_positions(rng, 0, 0.5).size == 0


def flat_events(result, trial):
    """Flat field positions of one trial's events (data, then planes)."""
    n = GRID.n
    sel = result.trial == trial
    parts = [result.rows[sel] * n + result.cols[sel]]
    offset = n * n
    for plane, shape in enumerate(SHAPES):
        sel = (result.check_trial == trial) & (result.check_plane == plane)
        parts.append(offset + np.ravel_multi_index(
            (result.check_d[sel], result.check_br[sel], result.check_bc[sel]),
            shape))
        offset += math.prod(shape)
    return np.concatenate(parts)


def uniform_chi2_z(values, size, bins):
    """(chi2 - dof) / sqrt(2 dof) of ``values`` over equal bins."""
    observed = np.bincount(values * bins // size, minlength=bins)
    expected = values.size / bins
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return (chi2 - (bins - 1)) / math.sqrt(2 * (bins - 1))


class TestFieldLayout:
    def draw(self, injector, trials=64, planes=SHAPES):
        return injector._draw_batch(
            trials, (GRID.n, GRID.n), planes,
            TrialStreams(ENTROPY, 0, trials, INJECT_STREAM))

    def test_layout_is_data_row_major_then_planes(self):
        result = self.draw(UniformInjector(1e-2))
        for i, rng in enumerate(TrialStreams(ENTROPY, 0, 64,
                                             INJECT_STREAM)):
            expected = bernoulli_positions(rng, CELLS, 1e-2)
            assert (flat_events(result, i) == expected).all()

    def test_positions_uniform_over_data_and_each_plane(self):
        result = self.draw(UniformInjector(1e-2), trials=1000)
        n = GRID.n
        parts = [result.rows * n + result.cols]
        for p, shape in enumerate(SHAPES):
            sel = result.check_plane == p
            parts.append(np.ravel_multi_index(
                (result.check_d[sel], result.check_br[sel],
                 result.check_bc[sel]), shape))
        sizes = [n * n] + [math.prod(s) for s in SHAPES]
        for values, size in zip(parts, sizes):
            assert abs(uniform_chi2_z(values, size, 43)) <= MAX_Z
        # and the parts share the faults in proportion to their size
        observed = np.array([v.size for v in parts], dtype=float)
        expected = observed.sum() * np.array(sizes) / CELLS
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert (chi2 - 2) / 2 <= MAX_Z

    def test_p_zero_draws_nothing(self):
        assert self.draw(UniformInjector(0.0)).totals.sum() == 0

    def test_p_one_flips_every_exposed_cell_once(self):
        result = self.draw(UniformInjector(1.0), trials=3)
        for i in range(3):
            assert (np.sort(flat_events(result, i))
                    == np.arange(CELLS)).all()

    def test_data_only_without_check_bits(self):
        result = self.draw(UniformInjector(1e-2, include_check_bits=False))
        assert result.check_trial.size == 0
        assert result.trial.size > 0
        assert result.rows.max() < GRID.n and result.cols.max() < GRID.n

    def test_check_bit_injector_draws_planes_only(self):
        result = self.draw(CheckBitInjector(1e-2))
        assert result.trial.size == 0
        assert set(np.unique(result.check_plane)) == {0, 1}
        assert self.draw(CheckBitInjector(1.0), planes=None) \
            .totals.sum() == 0


class TestCampaignAgainstClosedForm:
    @pytest.mark.parametrize("p", [2e-4, 1e-2])
    def test_faults_and_multi_fault_blocks_match_model(self, p):
        trials = 512
        result = CampaignRunner(GRID, UniformInjector(p), seed=ENTROPY,
                                seeding="per-trial", packing="u64"
                                ).run(trials)
        z_faults = (result.injected_faults - trials * CELLS * p) \
            / math.sqrt(trials * CELLS * p * (1 - p))
        blocks = GRID.blocks_per_side ** 2
        cells_per_block = CELLS // blocks
        q = -math.expm1(log_block_success_probability(p, cells_per_block))
        z_multi = (result.blocks_with_multi_faults - trials * blocks * q) \
            / math.sqrt(trials * blocks * q * (1 - q))
        assert abs(z_faults) <= MAX_Z, z_faults
        assert abs(z_multi) <= MAX_Z, z_multi
