"""Differential suite for the batched burst-survival path.

``simulate_burst_survival`` rides the unified campaign engine; these
tests pin its equivalence to the scalar replay (``run_reference``), its
shard invariance and its agreement with the closed form, plus the
event-level ground truth of ``LinearBurstInjector``.
"""

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.faults import CampaignRunner, LinearBurstInjector
from repro.reliability.burst import (
    linear_burst_survival,
    simulate_burst_survival,
)
from repro.utils.rng import INJECT_STREAM, TrialStreams
from repro.xbar.crossbar import CrossbarArray


def trial(entropy, i=0):
    """Trial ``i``'s one-trial injection span under ``entropy``."""
    return TrialStreams(entropy, i, i + 1, INJECT_STREAM)


class TestLinearBurstInjector:
    @pytest.mark.parametrize("orientation", ["row", "col"])
    def test_batched_events_match_scalar_events(self, small_grid,
                                                orientation):
        n = small_grid.n
        trials = 8

        scalar = LinearBurstInjector(3, orientation)
        scalar_results = []
        for i in range(trials):
            mem = CrossbarArray(n, n)
            scalar_results.append(scalar.inject(mem, streams=trial(21, i)))

        batched = LinearBurstInjector(3, orientation)
        data = np.zeros((trials, n, n), dtype=np.uint8)
        got = batched.inject_batch(
            data, streams=TrialStreams(21, 0, trials, INJECT_STREAM))

        for i, expected in enumerate(scalar_results):
            assert got.result_of(i).data_flips == expected.data_flips

    def test_burst_shape(self, tiny_grid):
        n = tiny_grid.n
        mem = CrossbarArray(n, n)
        result = LinearBurstInjector(4, "row").inject(mem,
                                                      streams=trial(0))
        rows = {r for r, _ in result.data_flips}
        cols = [c for _, c in result.data_flips]
        assert len(rows) == 1  # one lane
        assert len(set(cols)) == 4
        # Adjacent cells modulo the lane (wrap-around geometry).
        assert all((b - a) % n == 1 for a, b in zip(cols, cols[1:]))

    def test_wraparound_placements_occur(self, tiny_grid):
        """Start is uniform over the full lane, so some bursts wrap."""
        n = tiny_grid.n
        injector = LinearBurstInjector(3, "row")
        wrapped = 0
        for i in range(200):
            mem = CrossbarArray(n, n)
            cols = [c for _, c in injector.inject(
                mem, streams=trial(1, i)).data_flips]
            wrapped += int(max(cols) - min(cols) > 2)
        assert wrapped > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearBurstInjector(0)
        with pytest.raises(ValueError):
            LinearBurstInjector(2, orientation="diag")


class TestEngineEquivalence:
    @pytest.mark.parametrize("length", [1, 2, 4])
    @pytest.mark.parametrize("orientation", ["row", "col"])
    def test_batched_matches_reference(self, length, orientation):
        grid = BlockGrid(15, 3)
        reference = CampaignRunner(
            grid, LinearBurstInjector(length, orientation), seed=5
        ).run_reference(40)
        b = simulate_burst_survival(grid, length, 40, orientation=orientation,
                                    seed=5, batch_size=7)
        assert (b.trials, b.survived, b.detected) == (
            reference.trials, reference.clean + reference.corrected,
            reference.detected)

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_batch_size_invisible(self, small_grid, batch_size):
        reference = simulate_burst_survival(small_grid, 2, 30, seed=4,
                                            batch_size=9)
        other = simulate_burst_survival(small_grid, 2, 30, seed=4,
                                        batch_size=batch_size)
        assert reference == other


class TestPerTrialSeeding:
    def test_worker_count_invariant(self, small_grid):
        one = simulate_burst_survival(small_grid, 2, 24, seed=9, workers=1,
                                      batch_size=5)
        two = simulate_burst_survival(small_grid, 2, 24, seed=9, workers=2,
                                      batch_size=5)
        assert one == two

    def test_matches_scalar_replay(self, small_grid):
        runner = CampaignRunner(small_grid, LinearBurstInjector(2),
                                seed=12, batch_size=5)
        assert runner.run(20).as_dict() == runner.run_reference(20).as_dict()


class TestStatisticalContract:
    def test_still_matches_closed_form(self):
        """The rewired Monte-Carlo validates the closed form — at a
        trial count that would expose the historical no-wrap placement
        bias ((b-1)/(n-1) = 0.286 vs 1/m = 0.333 at this geometry)."""
        grid = BlockGrid(15, 3)
        trials = 20_000
        result = simulate_burst_survival(grid, 2, trials=trials, seed=2)
        analytic = linear_burst_survival(3, 2)
        sigma = (analytic * (1 - analytic) / trials) ** 0.5
        assert abs(result.survival_rate - analytic) < 5 * sigma

    @pytest.mark.parametrize("seed", [2, 0xB0257_5EED, 2 ** 90 + 1])
    @pytest.mark.parametrize("orientation", ["row", "col"])
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_lengths_and_orientations_match_closed_form(
            self, length, orientation, seed):
        """4,000 trials still put the no-wrap bias at L=2 six sigma
        out; L=1 and L=3 are exact, so a few hundred trials suffice."""
        grid = BlockGrid(15, 3)
        trials = 4000 if length == 2 else 400
        result = simulate_burst_survival(grid, length, trials=trials,
                                         orientation=orientation, seed=seed)
        analytic = linear_burst_survival(3, length)
        sigma = (analytic * (1 - analytic) / trials) ** 0.5
        assert abs(result.survival_rate - analytic) <= 5 * sigma

    def test_length_validation(self, tiny_grid):
        with pytest.raises(ValueError):
            simulate_burst_survival(tiny_grid, tiny_grid.n + 1, 5)

    def test_numpy_integer_seed_is_deterministic(self, small_grid):
        """Regression: np.integer seeds must not fall back to fresh
        OS entropy."""
        a = simulate_burst_survival(small_grid, 2, 30, seed=np.int64(5))
        b = simulate_burst_survival(small_grid, 2, 30, seed=np.int64(5))
        c = simulate_burst_survival(small_grid, 2, 30, seed=5)
        assert a == b == c

    def test_generator_seed_rejected_loudly(self, small_grid):
        with pytest.raises(ValueError, match="integer seed"):
            simulate_burst_survival(small_grid, 2, 10,
                                    seed=np.random.default_rng(0))
