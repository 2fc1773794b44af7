"""Unit tests for the scrub-bandwidth analysis."""

import pytest

from repro.analysis.scrub import (
    minimum_negligible_period,
    scrub_bandwidth,
)
from repro.arch.config import ArchConfig
from repro.devices.models import DEFAULT_DEVICE


class TestEmpiricalScrubWindow:
    """Monte-Carlo window-failure statistics via the batched engine."""

    def test_realistic_ser_is_all_clean(self):
        from repro.core.blocks import BlockGrid
        from repro.analysis.scrub import empirical_scrub_failure
        report = empirical_scrub_failure(BlockGrid(15, 5),
                                         ser_fit_per_bit=1e-3,
                                         period_hours=24, trials=20, seed=1)
        assert report["trials"] == 20
        assert report["failure_rate"] == 0.0
        assert report["per_bit_probability"] < 1e-10

    def test_exaggerated_ser_fails(self):
        from repro.core.blocks import BlockGrid
        from repro.analysis.scrub import empirical_scrub_failure
        report = empirical_scrub_failure(BlockGrid(15, 5),
                                         ser_fit_per_bit=5e6,
                                         period_hours=24, trials=20, seed=2)
        assert report["failure_rate"] > 0.5
        assert report["period_hours"] == 24

    def test_rejects_nonpositive_period(self):
        from repro.core.blocks import BlockGrid
        from repro.analysis.scrub import empirical_scrub_failure
        with pytest.raises(ValueError):
            empirical_scrub_failure(BlockGrid(9, 3), 1.0, 0.0, 5)

    def test_adaptive_mode_reports_interval(self):
        from repro.core.blocks import BlockGrid
        from repro.analysis.scrub import empirical_scrub_failure
        report = empirical_scrub_failure(BlockGrid(15, 5),
                                         ser_fit_per_bit=5e6,
                                         period_hours=24, trials=2048,
                                         seed=3, tolerance=0.08)
        assert report["converged"]
        assert report["trials"] < 2048  # stopped early
        assert report["ci_low"] <= report["failure_rate"] <= report["ci_high"]
        assert report["ci_halfwidth"] <= 0.08

    def test_worker_count_invariant(self):
        """Per-trial seeding: the report is the same whether the trials
        run in this process or across a two-worker pool."""
        from repro.core.blocks import BlockGrid
        from repro.analysis.scrub import empirical_scrub_failure
        solo = empirical_scrub_failure(BlockGrid(9, 3), 5e6, 24, 160,
                                       seed=4)
        pooled = empirical_scrub_failure(BlockGrid(9, 3), 5e6, 24, 160,
                                         seed=4, workers=2)
        assert pooled == solo


class TestPaperClaim:
    def test_24h_period_is_negligible(self):
        """Sec. V-A: T = 24 h 'chosen to have negligible performance
        impact' — quantified, the sweep uses far below 0.01% of cycles."""
        report = scrub_bandwidth()
        assert report.negligible
        assert report.bandwidth_fraction < 1e-8  # measured ~1e-9

    def test_sweep_cycle_count(self):
        report = scrub_bandwidth()
        assert report.blocks_per_crossbar == 68 * 68
        assert report.sweep_mem_cycles == 68 * 68 * 15

    def test_even_seconds_scale_periods_are_negligible(self):
        """There is enormous headroom: checking every few seconds would
        still be cheap, which is why reliability (not bandwidth) sets T."""
        report = scrub_bandwidth(period_hours=1 / 360)  # every 10 s
        assert report.bandwidth_fraction < 1e-2

    def test_minimum_negligible_period_tiny(self):
        period = minimum_negligible_period()
        assert period < 1e-3  # hours: well under 4 seconds

    def test_fraction_scales_inverse_with_period(self):
        day = scrub_bandwidth(period_hours=24.0)
        hour = scrub_bandwidth(period_hours=1.0)
        assert hour.bandwidth_fraction == pytest.approx(
            24 * day.bandwidth_fraction)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            scrub_bandwidth(period_hours=0)

    def test_custom_geometry(self):
        report = scrub_bandwidth(ArchConfig(n=105, m=5, pc_count=2))
        assert report.blocks_per_crossbar == 21 * 21
        assert report.sweep_mem_cycles == 21 * 21 * 5
