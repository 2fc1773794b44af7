"""Differential suite for the batched drift-window simulation path.

The drift simulators run on the unified campaign engine, and the
seeding contract of ``repro.faults.batch`` is pinned for them:
``BatchCampaign``/``CampaignRunner`` with a :class:`DriftInjector` is
invariant under batch size and shard layout and identical to the scalar
replay (``run_reference``) under the same entropy.
"""

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.core.checkstore import CheckStore
from repro.faults import (
    BatchCampaign,
    CampaignRunner,
    DriftInjector,
    DriftModel,
    DriftSimulator,
    merge_results,
    window_flip_mask,
)
from repro.reliability.drift_analysis import (
    simulate_drift_survival,
    validate_drift_model,
)
from repro.utils.rng import INJECT_STREAM, TrialStreams, trial_stream
from repro.xbar.crossbar import CrossbarArray

#: Aggressive model so small campaigns actually see flips.
HOT = DriftModel(tau_hours=150.0, beta=2.0, abrupt_fit_per_bit=5e5)


def _injector(refresh=4.0, include_check_bits=True):
    return DriftInjector(HOT, window_hours=24.0,
                         refresh_period_hours=refresh,
                         include_check_bits=include_check_bits)


class TestWindowFlipMask:
    def test_matches_simulator_stream(self):
        """DriftSimulator.simulate_window is the kernel on (cells,)."""
        sim = DriftSimulator(HOT, cells=500, seed=3)
        direct_rng = np.random.default_rng(3)
        a = sim.simulate_window(24.0, 4.0)
        b = window_flip_mask(HOT, direct_rng, (500,), 24.0, 4.0)
        assert (a == b).all()

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            window_flip_mask(HOT, rng, (4,), -1.0, None)
        with pytest.raises(ValueError):
            window_flip_mask(HOT, rng, (4,), 10.0, 0.0)


class TestDriftSimulatorSeeding:
    def test_entropy_mode_is_trial_invariant(self):
        """Per-trial streams depend only on (entropy, trial index)."""
        sim_a = DriftSimulator(HOT, cells=2000, seed=1)
        sim_b = DriftSimulator(HOT, cells=2000, seed=999)
        pa = sim_a.empirical_flip_probability(24.0, 4.0, trials=5,
                                              entropy=42)
        pb = sim_b.empirical_flip_probability(24.0, 4.0, trials=5,
                                              entropy=42)
        assert pa == pb  # own stream never consumed in entropy mode

    def test_entropy_mode_matches_manual_replay(self):
        sim = DriftSimulator(HOT, cells=800, seed=0)
        p = sim.empirical_flip_probability(24.0, None, trials=3, entropy=7)
        total = 0
        for i in range(3):
            rng = trial_stream(7, i, INJECT_STREAM)
            total += int(window_flip_mask(HOT, rng, (800,), 24.0,
                                          None).sum())
        assert p == total / (800 * 3)


class TestAggregatedFieldContract:
    """The injector's single-draw Bernoulli field vs the event kernel."""

    def test_threshold_is_the_closed_form(self):
        inj = _injector(refresh=4.0)
        assert inj.probability == HOT.flip_probability(24.0, 4.0)

    def test_flip_rate_matches_discrete_event_kernel(self):
        """Aggregated field and window_flip_mask agree in distribution."""
        rng = np.random.default_rng(5)
        cells = 200_000
        event = window_flip_mask(HOT, rng, (cells,), 24.0, 4.0).mean()
        agg = (np.random.default_rng(6).random(cells)
               < HOT.flip_probability(24.0, 4.0)).mean()
        p = HOT.flip_probability(24.0, 4.0)
        sigma = (p * (1 - p) / cells) ** 0.5
        assert abs(event - p) < 6 * sigma
        assert abs(agg - p) < 6 * sigma


class TestDriftInjectorGroundTruth:
    @pytest.mark.parametrize("include_check_bits", [True, False])
    def test_batched_events_match_scalar_events(self, small_grid,
                                                include_check_bits):
        n, m = small_grid.n, small_grid.m
        b = small_grid.blocks_per_side
        trials = 6

        scalar = _injector(include_check_bits=include_check_bits)
        scalar_results = []
        for i in range(trials):
            mem = CrossbarArray(n, n)
            store = CheckStore(small_grid)
            scalar_results.append(scalar.inject(
                mem, store, streams=TrialStreams(13, i, i + 1,
                                                 INJECT_STREAM)))

        batched = _injector(include_check_bits=include_check_bits)
        data = np.zeros((trials, n, n), dtype=np.uint8)
        lead = np.zeros((trials, m, b, b), dtype=np.uint8)
        ctr = np.zeros((trials, m, b, b), dtype=np.uint8)
        got = batched.inject_batch(
            data, lead, ctr, streams=TrialStreams(13, 0, trials,
                                                  INJECT_STREAM))

        for i, expected in enumerate(scalar_results):
            view = got.result_of(i)
            assert view.data_flips == expected.data_flips
            assert view.check_flips == expected.check_flips

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftInjector(HOT, window_hours=-1.0)
        with pytest.raises(ValueError):
            DriftInjector(HOT, window_hours=10.0, refresh_period_hours=0.0)


class TestReferenceEquivalence:
    @pytest.mark.parametrize("n,m", [(9, 3), (15, 5)])
    @pytest.mark.parametrize("refresh", [None, 4.0])
    def test_campaign_matches_reference(self, n, m, refresh):
        runner = CampaignRunner(BlockGrid(n, m), _injector(refresh), seed=5,
                                batch_size=7)
        assert runner.run_reference(20).as_dict() == \
            runner.run(20).as_dict()

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_batch_size_invisible(self, small_grid, batch_size):
        reference = CampaignRunner(small_grid, _injector(), seed=2,
                                   batch_size=5).run(18).as_dict()
        other = CampaignRunner(small_grid, _injector(), seed=2,
                               batch_size=batch_size).run(18).as_dict()
        assert reference == other

    def test_survival_entrypoint_matches_reference(self, small_grid):
        kwargs = dict(model=HOT, window_hours=24.0,
                      refresh_period_hours=4.0, trials=25, seed=11)
        reference = CampaignRunner(small_grid, _injector(), seed=11) \
            .run_reference(25)
        assert simulate_drift_survival(small_grid, **kwargs).as_dict() == \
            reference.as_dict()
        assert simulate_drift_survival(small_grid, batch_size=6,
                                       **kwargs).as_dict() == \
            reference.as_dict()


class TestPerTrialSeeding:
    def test_matches_scalar_replay(self, small_grid):
        runner = CampaignRunner(small_grid, _injector(), seed=77,
                                seeding="per-trial", batch_size=6)
        assert runner.run(20).as_dict() == runner.run_reference(20).as_dict()

    @pytest.mark.parametrize("splits", [[(0, 20)], [(0, 9), (9, 20)],
                                        [(0, 1), (1, 2), (2, 20)]])
    def test_shard_layout_invariant(self, small_grid, splits):
        def engine():
            return BatchCampaign(small_grid, _injector(), batch_size=4)
        whole = engine().run_range_seeded(entropy=31, lo=0, hi=20)
        sharded = merge_results([engine().run_range_seeded(31, lo, hi)
                                 for lo, hi in splits])
        assert whole.as_dict() == sharded.as_dict()

    def test_worker_count_invariant(self, small_grid):
        one = simulate_drift_survival(small_grid, HOT, 24.0, 4.0, trials=16,
                                      seed=8, workers=1, batch_size=5)
        two = simulate_drift_survival(small_grid, HOT, 24.0, 4.0, trials=16,
                                      seed=8, workers=2, batch_size=5)
        assert one.as_dict() == two.as_dict()


class TestAgainstClosedForm:
    @pytest.mark.parametrize("seed", [19, 0x5EED_D21F7, 2 ** 100 + 3])
    def test_campaign_consistent_with_analytic_binomial(self, seed):
        report = validate_drift_model(BlockGrid(15, 5), HOT, 24.0, 4.0,
                                      trials=400, seed=seed)
        assert report["consistent"], report

    def test_refresh_improves_empirical_survival(self, small_grid):
        no_refresh = simulate_drift_survival(
            small_grid, DriftModel(tau_hours=100.0, beta=3.0,
                                   abrupt_fit_per_bit=0.0),
            window_hours=48.0, refresh_period_hours=None, trials=150,
            seed=3)
        refreshed = simulate_drift_survival(
            small_grid, DriftModel(tau_hours=100.0, beta=3.0,
                                   abrupt_fit_per_bit=0.0),
            window_hours=48.0, refresh_period_hours=4.0, trials=150,
            seed=3)
        assert refreshed.failure_rate < no_refresh.failure_rate
