"""Scrub-bandwidth analysis: the cost of the periodic full-memory check.

Paper Sec. V-A chooses ``T = 24 h`` "to have negligible performance
impact while still providing adequate reliability" — a claim stated
without numbers. This module computes the numbers: what fraction of MEM
cycles does a full periodic sweep consume at a given check period, and —
via the batched campaign engine — what failure rate a crossbar actually
accumulates over one scrub window?

Per crossbar, one sweep checks ``(n/m)^2`` blocks; each block costs
``m`` MEM copy cycles (the CMEM-side XOR tree runs off the MEM critical
path, pipelined across blocks). At device cycle time ``t_c`` a period of
``T`` hours offers ``3600e9 T / t_c[ns]`` cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.config import ArchConfig
from repro.core.blocks import BlockGrid
from repro.devices.models import DEFAULT_DEVICE, DeviceParameters
from repro.faults.batch import CampaignRunner
from repro.faults.injector import UniformInjector
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class ScrubReport:
    """Bandwidth accounting of the periodic sweep."""

    blocks_per_crossbar: int
    sweep_mem_cycles: int
    period_hours: float
    cycles_per_period: float
    bandwidth_fraction: float

    @property
    def negligible(self) -> bool:
        """The paper's qualitative claim, quantified: < 0.01%."""
        return self.bandwidth_fraction < 1e-4


def scrub_bandwidth(config: Optional[ArchConfig] = None,
                    device: Optional[DeviceParameters] = None,
                    period_hours: Optional[float] = None) -> ScrubReport:
    """Fraction of MEM cycles a full periodic check consumes."""
    config = config or ArchConfig.paper_case_study()
    device = device or DEFAULT_DEVICE
    period = period_hours if period_hours is not None \
        else config.check_period_hours
    if period <= 0:
        raise ValueError(f"period must be positive: {period}")

    blocks = config.blocks_per_side ** 2
    sweep_cycles = blocks * config.m  # m copy cycles per block
    cycles_per_period = period * 3600.0 / device.cycle_time_s()
    return ScrubReport(
        blocks_per_crossbar=blocks,
        sweep_mem_cycles=sweep_cycles,
        period_hours=period,
        cycles_per_period=cycles_per_period,
        bandwidth_fraction=sweep_cycles / cycles_per_period,
    )


def empirical_scrub_failure(grid: BlockGrid, ser_fit_per_bit: float,
                            period_hours: float, trials: int,
                            seed: SeedLike = 0, workers: int = 1,
                            include_check_bits: bool = True,
                            tolerance: Optional[float] = None) -> dict:
    """Monte-Carlo failure statistics of one scrub window.

    Exposes a protected crossbar to uniform upsets for ``period_hours``
    at the given SER, then runs the full check sweep — the empirical
    counterpart of the analytic window-survival term that picks ``T``.
    Runs on the batched campaign engine (sharded across ``workers``
    processes when asked), so realistic trial counts are feasible.

    ``tolerance`` switches to adaptive sampling: ``trials`` becomes the
    cap and the sweep stops early once the failure-rate Wilson CI
    half-width drops below the tolerance (the report then carries the
    ``ci_low``/``ci_high``/``converged`` fields).
    """
    if period_hours <= 0:
        raise ValueError(f"period must be positive: {period_hours}")
    injector = UniformInjector.from_ser(ser_fit_per_bit, period_hours,
                                        include_check_bits=include_check_bits)
    runner = CampaignRunner(grid, injector, seed=seed,
                            include_check_bits=include_check_bits,
                            workers=workers, seeding="per-trial")
    if tolerance is None:
        report = runner.run(trials).as_dict()
    else:
        adaptive = runner.run_adaptive(tolerance, max_trials=trials)
        report = adaptive.result.as_dict()
        report.update({
            "ci_low": adaptive.ci_low,
            "ci_high": adaptive.ci_high,
            "ci_halfwidth": adaptive.halfwidth,
            "converged": adaptive.converged,
        })
    report.update({
        "ser_fit_per_bit": ser_fit_per_bit,
        "period_hours": period_hours,
        "per_bit_probability": injector.probability,
    })
    return report


def minimum_negligible_period(config: Optional[ArchConfig] = None,
                              device: Optional[DeviceParameters] = None,
                              threshold: float = 1e-4) -> float:
    """Shortest check period (hours) keeping scrub bandwidth below the
    threshold — i.e. how much reliability headroom the paper's 24 h
    choice leaves on the table."""
    config = config or ArchConfig.paper_case_study()
    device = device or DEFAULT_DEVICE
    blocks = config.blocks_per_side ** 2
    sweep_cycles = blocks * config.m
    # fraction = sweep / (T * 3600 / t_c) <= threshold
    return sweep_cycles * device.cycle_time_s() / (3600.0 * threshold)
