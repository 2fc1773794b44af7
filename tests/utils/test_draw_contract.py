"""Draw contract v3: keyed streams, 64-trial group fields, the gap sampler.

Contract v3 changed the Bernoulli-field draws, so its tallies are no
longer bit-identical to v2's. What is pinned instead: the keying is
exact (a pure function of entropy, index and stream, no truncation); a
span's fields are the matching slice of the full-range draw, whatever
the span and block size; and the fields are distributed exactly like
independent Bernoulli flips — per-trial counts Binomial(cells, p), no
dependence between the trial slots of a group — so campaigns still
match the paper's closed-form per-block model. Golden digests make a
numpy release that changes ``geometric`` or Philox turn this file red
instead of silently changing served tallies.
"""

import hashlib
import json
import math
from dataclasses import astuple

import numpy as np
import pytest

import repro.utils.rng as rng_mod
from repro.core.blocks import BlockGrid
from repro.core.registry import build_code
from repro.faults.batch import BatchCampaign, CampaignRunner
from repro.faults.injector import CheckBitInjector, UniformInjector
from repro.reliability.model import log_block_success_probability
from repro.utils.rng import (
    DATA_STREAM,
    GROUP_TRIALS,
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

#: A small geometry for the exhaustive span walks and the golden run.
SMALL = BlockGrid(15, 3)
SMALL_CELLS = SMALL.n ** 2 + sum(
    math.prod(s) for s in build_code("diagonal", SMALL).plane_shapes)

#: |z| bound of every moment check (fixed seeds: deterministic).
MAX_Z = 5.0

ENTROPY = 0x1234_5678_9ABC_DEF0_0FED_CBA9_8765_4321


def draws(stream, count):
    """A few draws exercising the generator's buffered paths."""
    return (stream.integers(0, 2 ** 32, size=3, dtype=np.uint32).tolist(),
            stream.random(count).tolist())


def field(lo, hi, cells, p):
    """``(trial, cell)`` of trials ``[lo, hi)``, trial counted from 0."""
    return TrialStreams(ENTROPY, lo, hi, INJECT_STREAM) \
        .bernoulli_field(cells, p)


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

    @pytest.mark.parametrize("group", [0, 2 ** 58 - 1])
    def test_group_addressing(self, group):
        """Group ``g`` draws its field from counter ``[0, 1, g, s]``."""
        direct = np.random.Generator(np.random.Philox(
            key=[ENTROPY % 2 ** 64, ENTROPY >> 64],
            counter=[0, 1, group, INJECT_STREAM]))
        positions = bernoulli_positions(direct, GROUP_TRIALS * CELLS, 1e-3)
        lo = group * GROUP_TRIALS
        trial, cell = field(lo, lo + GROUP_TRIALS, CELLS, 1e-3)
        assert positions.size > 0
        assert (trial * CELLS + cell == positions).all()

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


#: Span ends straddling, touching and skipping group boundaries.
ENDS = (0, 1, 5, 63, 64, 65, 100, 130)


class TestGroupSpans:
    @pytest.mark.parametrize("batch", [1, 17, 64, 100])
    def test_span_equals_slice_of_full_draw(self, batch):
        p = 2e-2
        full_trial, full_cell = field(0, max(ENDS), SMALL_CELLS, p)
        for lo in ENDS:
            for hi in (h for h in ENDS if h >= lo):
                streams = TrialStreams(ENTROPY, lo, hi, INJECT_STREAM)
                parts = []
                for start in range(lo, hi, batch):
                    stop = min(start + batch, hi)
                    trial, cell = streams.span(start, stop) \
                        .bernoulli_field(SMALL_CELLS, p)
                    parts.append((trial + start - lo) * SMALL_CELLS + cell)
                got = np.concatenate(parts) if parts else np.empty(0)
                sel = (full_trial >= lo) & (full_trial < hi)
                expected = (full_trial[sel] - lo) * SMALL_CELLS \
                    + full_cell[sel]
                assert np.array_equal(got, expected), (lo, hi, batch)

    def test_span_outside_range_refused(self):
        with pytest.raises(ValueError):
            TrialStreams(ENTROPY, 5, 10, INJECT_STREAM).span(4, 8)

    def test_engine_draws_each_group_once(self, monkeypatch):
        """Blocks of 17 over [5, 130) split groups; each is drawn once."""
        sizes = []

        def counting(rng, cells, probability):
            sizes.append(cells)
            return bernoulli_positions(rng, cells, probability)

        monkeypatch.setattr(rng_mod, "bernoulli_positions", counting)
        engine = BatchCampaign(SMALL, UniformInjector(2e-2), batch_size=17,
                               packing="u64")
        engine.run_range_seeded(ENTROPY, 5, 130)
        assert sizes == [GROUP_TRIALS * SMALL_CELLS] * 3


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
        """Group fields: per-trial counts Binomial, cells distinct."""
        trial, cell = field(0, trials, CELLS, p)
        flat = trial * CELLS + cell
        assert (np.diff(flat) > 0).all()
        assert cell.min() >= 0 and cell.max() < CELLS
        counts = np.bincount(trial, minlength=trials)
        z_mean, z_var = binomial_moment_z(counts, CELLS, p)
        assert abs(z_mean) <= MAX_Z, z_mean
        assert abs(z_var) <= MAX_Z, z_var

    @pytest.mark.parametrize("p,trials", [(2e-4, 4000), (1e-2, 3000),
                                          (0.5, 400)])
    def test_sequential_count_is_binomial(self, p, trials):
        """One field per call from a shared stream (sequential mode)."""
        rng = np.random.default_rng(11)
        counts = []
        for _ in range(trials):
            positions = bernoulli_positions(rng, CELLS, p)
            assert (np.diff(positions) > 0).all()
            if positions.size:
                assert 0 <= positions[0] and positions[-1] < CELLS
            counts.append(positions.size)
        z_mean, z_var = binomial_moment_z(counts, CELLS, p)
        assert abs(z_mean) <= MAX_Z, z_mean
        assert abs(z_var) <= MAX_Z, z_var

    def test_group_slots_are_exchangeable_and_independent(self):
        """Slot means pass chi-square; adjacent slots are uncorrelated."""
        p, groups = 1e-2, 128
        trial, _ = field(0, groups * GROUP_TRIALS, CELLS, p)
        counts = np.bincount(trial, minlength=groups * GROUP_TRIALS) \
            .reshape(groups, GROUP_TRIALS).astype(float)
        var = groups * CELLS * p * (1 - p)
        chi2 = float(((counts.sum(axis=0) - groups * CELLS * p) ** 2
                      / var).sum())
        z_chi2 = (chi2 - GROUP_TRIALS) / math.sqrt(2 * GROUP_TRIALS)
        assert abs(z_chi2) <= MAX_Z, z_chi2
        left, right = counts[:, :-1].ravel(), counts[:, 1:].ravel()
        z_corr = np.corrcoef(left, right)[0, 1] * math.sqrt(left.size)
        assert abs(z_corr) <= MAX_Z, z_corr

    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(3)
        assert bernoulli_positions(rng, CELLS, 0.0).size == 0
        assert (bernoulli_positions(rng, CELLS, 1.0)
                == np.arange(CELLS)).all()
        assert bernoulli_positions(rng, 0, 0.5).size == 0
        # numpy returns INT64_MAX gaps here; the clipped sum must neither
        # overflow nor land a spurious upset on the last cell
        assert bernoulli_positions(rng, CELLS, 1e-19).size == 0

    def test_degenerate_group_fields(self):
        trial, cell = field(3, 100, CELLS, 0.0)
        assert trial.size == 0 and cell.size == 0
        trial, cell = field(3, 100, SMALL_CELLS, 1.0)
        assert (trial == np.repeat(np.arange(97), SMALL_CELLS)).all()
        assert (cell == np.tile(np.arange(SMALL_CELLS), 97)).all()
        trial, cell = field(0, 130, CELLS, 1e-19)
        assert trial.size == 0 and cell.size == 0


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
        trial, cell = field(0, 64, CELLS, 1e-2)
        for i in range(64):
            assert (flat_events(result, i) == cell[trial == i]).all()

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


#: sha256 of group 0's positions (int64 little-endian) at n=15, p=2e-2.
GOLDEN_GROUP = (
    "4986a09787da7b1f802cddbab7fff6f3e69d89d06c1bc519765670fc92084cfb")
#: sha256 of the JSON tallies of 256 u64 trials at n=15, p=2e-2.
GOLDEN_TALLIES = (
    "ac4d8d0f00edcf4e0233938200e5c65edd7086dc205fe794db2d2f44347f15ae")


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenDraws:
    """Exact v3 output for fixed inputs.

    A failure here means the draws changed, most likely through numpy's
    ``Generator.geometric`` or its Philox. That changes served tallies,
    so it needs a new :data:`repro.utils.rng.DRAW_CONTRACT`, not a new
    digest.
    """

    def test_group_positions(self):
        trial, cell = field(0, GROUP_TRIALS, SMALL_CELLS, 2e-2)
        positions = (trial * SMALL_CELLS + cell).astype("<i8")
        assert sha256_of(positions.tobytes()) == GOLDEN_GROUP, \
            positions[:8].tolist()

    def test_campaign_tallies(self):
        result = CampaignRunner(SMALL, UniformInjector(2e-2), seed=ENTROPY,
                                seeding="per-trial", packing="u64"
                                ).run(256)
        tallies = json.dumps(astuple(result)).encode()
        assert sha256_of(tallies) == GOLDEN_TALLIES, astuple(result)


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
