"""Differential harness: batched campaign engine vs the scalar reference.

The seeding contract (see the ``repro.faults.batch`` module docstring)
is pinned here: batched runs are invariant under batch size, shard
layout and worker count, and identical to the scalar replay
(``run_reference``) of the same per-trial streams, for every injector
model and geometry.
"""

import math

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.core.checkstore import CheckStore
from repro.faults import (
    BatchCampaign,
    BurstInjector,
    CampaignRunner,
    CheckBitInjector,
    DeterministicInjector,
    DriftInjector,
    DriftModel,
    LinearBurstInjector,
    UniformInjector,
    merge_results,
)
from repro.reliability.burst import simulate_burst_survival
from repro.reliability.drift_analysis import simulate_drift_survival
from repro.reliability.model import log_block_success_probability
from repro.utils.rng import INJECT_STREAM, TrialStreams
from repro.xbar.crossbar import CrossbarArray

GEOMETRIES = [(9, 3), (15, 5), (45, 15)]


def _pair(injector_factory, grid, trials, batch_size, seed=42,
          include_check_bits=True):
    """(reference, batched) tallies of one campaign."""
    runner = CampaignRunner(grid, injector_factory(), seed=seed,
                            include_check_bits=include_check_bits,
                            batch_size=batch_size)
    return runner.run_reference(trials).as_dict(), runner.run(trials).as_dict()


class TestReferenceEquivalence:
    @pytest.mark.parametrize("n,m", GEOMETRIES)
    @pytest.mark.parametrize("p", [0.0, 0.002, 0.02, 0.1])
    def test_uniform_matches_reference(self, n, m, p):
        s, b = _pair(lambda: UniformInjector(p), BlockGrid(n, m),
                     trials=24, batch_size=7)
        assert s == b

    @pytest.mark.parametrize("n,m", GEOMETRIES)
    def test_burst_matches_reference(self, n, m):
        s, b = _pair(lambda: BurstInjector(strikes=2, radius=1,
                                           neighbor_probability=0.6),
                     BlockGrid(n, m), trials=20, batch_size=6)
        assert s == b

    @pytest.mark.parametrize("n,m", GEOMETRIES)
    def test_check_bit_matches_reference(self, n, m):
        s, b = _pair(lambda: CheckBitInjector(0.03), BlockGrid(n, m),
                     trials=20, batch_size=9)
        assert s == b

    def test_deterministic_matches_reference(self, small_grid):
        s, b = _pair(lambda: DeterministicInjector(
            [(0, 0), (2, 3), (7, 7)],
            check_flips=[("counter", 2, 1, 1), ("leading", 0, 0, 0)]),
            small_grid, trials=5, batch_size=2)
        assert s == b

    def test_duplicate_flips_match_reference(self, small_grid):
        """A cell listed twice flips twice (net zero) on both engines."""
        s, b = _pair(lambda: DeterministicInjector([(4, 4), (4, 4), (1, 2)]),
                     small_grid, trials=4, batch_size=3)
        assert s == b

    def test_exclude_check_bits_matches_reference(self, small_grid):
        s, b = _pair(lambda: UniformInjector(0.05), small_grid,
                     trials=20, batch_size=8, include_check_bits=False)
        assert s == b

    @pytest.mark.parametrize("batch_size", [1, 3, 16, 64])
    def test_batch_size_never_changes_tallies(self, small_grid, batch_size):
        """Keyed draws make chunking invisible to the streams."""
        reference = CampaignRunner(small_grid, UniformInjector(0.02),
                                   seed=2, batch_size=5).run(30).as_dict()
        other = CampaignRunner(small_grid, UniformInjector(0.02), seed=2,
                               batch_size=batch_size).run(30).as_dict()
        assert reference == other


class TestPerTrialSeeding:
    def test_matches_scalar_replay(self, small_grid):
        runner = CampaignRunner(small_grid, UniformInjector(0.02),
                                seed=123, seeding="per-trial", batch_size=7)
        assert runner.run(30).as_dict() == \
            runner.run_reference(30).as_dict()

    @pytest.mark.parametrize("splits", [[(0, 30)], [(0, 13), (13, 30)],
                                        [(0, 1), (1, 2), (2, 30)]])
    def test_shard_layout_invariant(self, small_grid, splits):
        def engine():
            return BatchCampaign(small_grid, UniformInjector(0.03),
                                 batch_size=4)
        whole = engine().run_range_seeded(entropy=99, lo=0, hi=30)
        sharded = merge_results([engine().run_range_seeded(99, lo, hi)
                                 for lo, hi in splits])
        assert whole.as_dict() == sharded.as_dict()

    def test_worker_count_invariant_inline(self, small_grid):
        results = [
            CampaignRunner(small_grid, UniformInjector(0.02),
                           seed=55, seeding="per-trial", workers=1,
                           batch_size=6).run(24).as_dict()
        ]
        # workers > 1 exercises the process pool end to end.
        results.append(
            CampaignRunner(small_grid, UniformInjector(0.02),
                           seed=55, workers=2, batch_size=6)
            .run(24).as_dict())
        assert results[0] == results[1]

    def test_burst_per_trial_matches_replay(self, tiny_grid):
        runner = CampaignRunner(
            tiny_grid, BurstInjector(1, 1, 0.5), seed=8,
            seeding="per-trial")
        assert runner.run(20).as_dict() == \
            runner.run_reference(20).as_dict()

    def test_generator_seed_rejected(self, small_grid):
        import numpy as np
        with pytest.raises(ValueError):
            CampaignRunner(small_grid, UniformInjector(0.01),
                           seed=np.random.default_rng(0),
                           seeding="per-trial")


class TestOneContract:
    """Default in-process runs — no ``seeding``, no ``batch_size`` —
    draw under the one seeding contract: invariant under ``workers``
    and replayed bit for bit by ``run_reference``."""

    TRIALS = 24

    def test_default_runner(self, small_grid):
        def runner(**kwargs):
            return CampaignRunner(small_grid, UniformInjector(0.02), seed=61,
                                  **kwargs)

        one = runner().run(self.TRIALS).as_dict()
        assert runner(workers=2).run(self.TRIALS).as_dict() == one
        assert runner().run_reference(self.TRIALS).as_dict() == one

    def test_default_burst_survival(self, small_grid):
        one = simulate_burst_survival(small_grid, 2, self.TRIALS, seed=62)
        assert simulate_burst_survival(small_grid, 2, self.TRIALS, seed=62,
                                       workers=2) == one
        ref = CampaignRunner(small_grid, LinearBurstInjector(2), seed=62) \
            .run_reference(self.TRIALS)
        assert (one.trials, one.survived, one.detected) == \
            (ref.trials, ref.clean + ref.corrected, ref.detected)

    def test_default_drift_survival(self, small_grid):
        model = DriftModel(tau_hours=150.0, beta=2.0, abrupt_fit_per_bit=5e5)
        one = simulate_drift_survival(small_grid, model, trials=self.TRIALS,
                                      seed=63).as_dict()
        assert simulate_drift_survival(small_grid, model,
                                       trials=self.TRIALS, seed=63,
                                       workers=2).as_dict() == one
        ref = CampaignRunner(small_grid, DriftInjector(model, 24.0), seed=63) \
            .run_reference(self.TRIALS)
        assert ref.as_dict() == one

    @pytest.mark.parametrize("seed", [71, 0xC0FFEE_5EED, 2 ** 127 + 5])
    @pytest.mark.parametrize("p", [2e-4, 1e-2])
    def test_default_uniform_tallies_match_model(self, p, seed):
        """Faults and multi-fault blocks vs the per-block binomial model,
        |z| <= 5 (the benchmark's output check)."""
        grid, trials = BlockGrid(129, 3), 512
        result = CampaignRunner(grid, UniformInjector(p), seed=seed) \
            .run(trials)
        blocks = grid.blocks_per_side ** 2
        cells_per_block = grid.m ** 2 + 2 * grid.m

        def z(count, per_trial, q):
            n = trials * per_trial
            return (count - n * q) / math.sqrt(n * q * (1 - q))

        q_multi = -math.expm1(log_block_success_probability(
            p, cells_per_block))
        assert abs(z(result.injected_faults, blocks * cells_per_block,
                     p)) <= 5
        assert abs(z(result.blocks_with_multi_faults, blocks,
                     q_multi)) <= 5


class TestInjectorGroundTruth:
    """Event-level equivalence: ``inject_batch`` ground truth over a
    trial range, viewed per trial through ``result_of``, must equal one
    scalar ``inject`` per trial on that trial's one-trial span — flip for
    flip, in order."""

    @pytest.mark.parametrize("make_injector", [
        lambda: UniformInjector(0.03),
        lambda: BurstInjector(strikes=2, radius=1,
                              neighbor_probability=0.5),
        lambda: CheckBitInjector(0.04),
        lambda: DeterministicInjector([(1, 1), (1, 1), (4, 2)],
                                      check_flips=[("leading", 0, 1, 1)]),
    ])
    def test_batched_events_match_scalar_events(self, small_grid,
                                                make_injector):
        n, m = small_grid.n, small_grid.m
        b = small_grid.blocks_per_side
        trials = 6

        scalar_injector = make_injector()
        scalar_results = []
        for i in range(trials):
            mem = CrossbarArray(n, n)
            store = CheckStore(small_grid)
            scalar_results.append(scalar_injector.inject(
                mem, store, streams=TrialStreams(13, i, i + 1,
                                                 INJECT_STREAM)))

        batch_injector = make_injector()
        data = np.zeros((trials, n, n), dtype=np.uint8)
        lead = np.zeros((trials, m, b, b), dtype=np.uint8)
        ctr = np.zeros((trials, m, b, b), dtype=np.uint8)
        batched = batch_injector.inject_batch(
            data, lead, ctr,
            streams=TrialStreams(13, 0, trials, INJECT_STREAM))

        for i, expected in enumerate(scalar_results):
            got = batched.result_of(i)
            assert got.data_flips == expected.data_flips
            assert got.check_flips == expected.check_flips


@pytest.mark.slow
class TestLargeScaleDifferential:
    """Heavy sweeps excluded from tier-1 (select with ``-m slow``)."""

    def test_long_campaign_matches_reference(self):
        grid = BlockGrid(45, 15)
        s, b = _pair(lambda: UniformInjector(5e-3), grid,
                     trials=300, batch_size=64)
        assert s == b

    def test_process_pool_at_scale(self):
        grid = BlockGrid(45, 15)
        tallies = [
            CampaignRunner(grid, UniformInjector(5e-3), seed=77,
                           workers=w, seeding="per-trial",
                           batch_size=50).run(600).as_dict()
            for w in (1, 4)]
        assert tallies[0] == tallies[1]


class TestRunnerValidation:
    def test_removed_seeding_refused(self, small_grid):
        """Per-trial seeding is the only draw contract left."""
        for seeding in ("sequential", None):
            with pytest.raises(ValueError, match="removed"):
                CampaignRunner(small_grid, UniformInjector(0.01),
                               seeding=seeding)
        with pytest.raises(ValueError, match="removed"):
            CampaignRunner(small_grid, UniformInjector(0.01), workers=2,
                           seeding="sequential")

    def test_stream_range_must_match_batch(self, small_grid):
        n = small_grid.n
        with pytest.raises(ValueError, match="3-trial"):
            UniformInjector(0.01).draw_events(
                3, (n, n), None, TrialStreams(1, 0, 4, INJECT_STREAM))
