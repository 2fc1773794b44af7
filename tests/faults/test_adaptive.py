"""Tests for adaptive (CI-early-stopped) campaign sampling."""

import pytest

from repro.faults import CampaignRunner, UniformInjector
from repro.utils.stats import wilson_halfwidth


def _runner(p=0.02, workers=1, **kwargs):
    from repro.core.blocks import BlockGrid
    return CampaignRunner(BlockGrid(15, 5), UniformInjector(p),
                          seed=33, workers=workers, **kwargs)


class TestAdaptiveSampling:
    def test_stops_when_tolerance_met(self):
        out = _runner().run_adaptive(tolerance=0.06, initial_trials=64,
                                     max_trials=8192)
        assert out.converged
        assert out.halfwidth <= 0.06
        assert out.trials < 8192

    def test_halfwidth_matches_wilson(self):
        out = _runner().run_adaptive(tolerance=0.05, initial_trials=64,
                                     max_trials=4096)
        failures = out.result.detected + out.result.silent
        assert out.halfwidth == pytest.approx(
            wilson_halfwidth(failures, out.trials, out.confidence))
        assert out.ci_low <= out.failure_rate <= out.ci_high

    def test_hits_cap_without_convergence(self):
        out = _runner().run_adaptive(tolerance=1e-6, initial_trials=32,
                                     max_trials=128)
        assert not out.converged
        assert out.trials == 128

    def test_deterministic_schedule(self):
        a = _runner().run_adaptive(tolerance=0.05, initial_trials=64,
                                   max_trials=4096)
        b = _runner().run_adaptive(tolerance=0.05, initial_trials=64,
                                   max_trials=4096)
        assert a.result.as_dict() == b.result.as_dict()
        assert a.rounds == b.rounds

    def test_prefix_equals_plain_run(self):
        """Stopping early never changes the tallies of the trials run."""
        out = _runner().run_adaptive(tolerance=0.05, initial_trials=64,
                                     max_trials=4096)
        plain = _runner().run(out.trials)
        assert out.result.as_dict() == plain.as_dict()

    def test_scalar_replay_of_the_rounds(self):
        """``run_reference`` replays every round of an adaptive run."""
        out = _runner().run_adaptive(tolerance=0.2, initial_trials=16,
                                     max_trials=64)
        assert out.trials >= 16
        assert out.result.as_dict() == \
            _runner().run_reference(out.trials).as_dict()

    def test_worker_invariance(self):
        one = _runner(workers=1).run_adaptive(
            tolerance=0.08, initial_trials=48, max_trials=1024)
        two = _runner(workers=2).run_adaptive(
            tolerance=0.08, initial_trials=48, max_trials=1024)
        assert one.result.as_dict() == two.result.as_dict()

    def test_growth_one_is_fixed_rounds(self):
        out = _runner().run_adaptive(tolerance=1e-9, initial_trials=50,
                                     max_trials=200, growth=1.0)
        assert out.trials == 200
        assert out.rounds == 4

    def test_validation(self):
        runner = _runner()
        with pytest.raises(ValueError):
            runner.run_adaptive(tolerance=0.0)
        with pytest.raises(ValueError):
            runner.run_adaptive(tolerance=0.1, confidence=1.0)
        with pytest.raises(ValueError):
            runner.run_adaptive(tolerance=0.1, max_trials=0)
        with pytest.raises(ValueError):
            runner.run_adaptive(tolerance=0.1, initial_trials=0)
        with pytest.raises(ValueError):
            runner.run_adaptive(tolerance=0.1, growth=0.5)
