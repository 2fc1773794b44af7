"""Refresh-vs-ECC comparison (paper Sec. II-B claim, quantified).

The paper notes that the prior-work refresh mechanism (Tosson et al.)
"can still be used in conjunction with the mechanism proposed in this
paper": refresh suppresses *accumulating drift* but cannot address
abrupt upsets or the drift flips occurring between refreshes, while the
diagonal ECC corrects any single error per block regardless of cause.
This module evaluates the four protection configurations on the same
1 GB memory model, demonstrating:

* refresh alone leaves the abrupt-upset floor;
* ECC alone already dominates refresh alone;
* refresh + ECC is the strongest — refresh shrinks the per-window bit
  flip probability that the block-level binomial then squares.

The empirical side (:func:`simulate_drift_survival`,
:func:`validate_drift_model`) runs drift campaigns through
:class:`repro.faults.batch.CampaignRunner` under the campaign seeding
contract: the ``seed`` is the root entropy of the keyed streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.blocks import BlockGrid
from repro.faults.batch import CampaignRunner
from repro.faults.campaign import CampaignResult
from repro.faults.drift import DriftInjector, DriftModel
from repro.reliability.model import MemoryOrganization, \
    window_failure_probability
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class ProtectionConfig:
    """One row of the comparison: which mechanisms are active."""

    name: str
    use_ecc: bool
    refresh_period_hours: Optional[float]


@dataclass(frozen=True)
class DriftComparisonRow:
    """Evaluated MTTF of one protection configuration."""

    config: ProtectionConfig
    bit_flip_probability: float
    mttf_hours: float


def _mttf_no_ecc(p_bit: float, org: MemoryOrganization) -> float:
    """Unprotected memory: any flip within the window is failure."""
    log_ok = org.total_data_bits * math.log1p(-p_bit)
    p_fail = -math.expm1(log_ok)
    if p_fail <= 0:
        return float("inf")
    return org.check_period_hours / p_fail


def _mttf_with_ecc(p_bit: float, org: MemoryOrganization) -> float:
    """Diagonal-ECC memory: any block with >= 2 flips fails."""
    p_fail = window_failure_probability(p_bit, org.cells_per_block,
                                        org.total_blocks)
    if p_fail <= 0:
        return float("inf")
    return org.check_period_hours / p_fail


def compare_protections(model: Optional[DriftModel] = None,
                        organization: Optional[MemoryOrganization] = None,
                        refresh_period_hours: float = 1.0,
                        ) -> List[DriftComparisonRow]:
    """Evaluate none / refresh-only / ECC-only / refresh+ECC.

    The window is the organization's check period (paper: 24 h); the
    refresh runs every ``refresh_period_hours`` within it.
    """
    model = model or DriftModel()
    org = organization or MemoryOrganization()
    window = org.check_period_hours

    configs = [
        ProtectionConfig("none", False, None),
        ProtectionConfig("refresh only", False, refresh_period_hours),
        ProtectionConfig("ECC only", True, None),
        ProtectionConfig("refresh + ECC", True, refresh_period_hours),
    ]
    rows = []
    for cfg in configs:
        p_bit = model.flip_probability(window, cfg.refresh_period_hours)
        mttf = (_mttf_with_ecc if cfg.use_ecc else _mttf_no_ecc)(p_bit, org)
        rows.append(DriftComparisonRow(cfg, p_bit, mttf))
    return rows


def simulate_drift_survival(grid: BlockGrid,
                            model: Optional[DriftModel] = None,
                            window_hours: float = 24.0,
                            refresh_period_hours: Optional[float] = None,
                            trials: int = 256,
                            seed: SeedLike = 0,
                            batch_size: Optional[int] = None,
                            workers: int = 1,
                            include_check_bits: bool = True,
                            packing: str = "u8",
                            ) -> CampaignResult:
    """Grid-level drift survival through the real ECC machinery.

    Each trial samples one drift + abrupt exposure window over a fresh
    protected ``n x n`` crossbar (:class:`repro.faults.drift
    .DriftInjector`), runs the full check sweep, and classifies the trial
    — the empirical counterpart of the closed-form composition the rows
    of :func:`compare_protections` are built from.

    Dispatches through :class:`repro.faults.batch.CampaignRunner`, so
    drift sweeps get the fault-centric batched engine and process-pool
    sharding under the campaign seeding contract: ``seed`` is the root
    entropy (an integer, or ``None`` for fresh entropy), and the tallies
    depend on it alone, not on ``batch_size``, ``workers`` or
    ``packing``.
    """
    model = model or DriftModel()
    runner = CampaignRunner(
        grid,
        DriftInjector(model, window_hours, refresh_period_hours,
                      include_check_bits=include_check_bits),
        seed=seed, include_check_bits=include_check_bits,
        batch_size=batch_size, workers=workers, packing=packing)
    return runner.run(trials)


def validate_drift_model(grid: BlockGrid, model: DriftModel,
                         window_hours: float,
                         refresh_period_hours: Optional[float] = None,
                         trials: int = 256, seed: SeedLike = 0,
                         tolerance_sigmas: float = 5.0) -> dict:
    """Empirical drift campaign vs the closed-form block binomial.

    The analytic side converts the model's per-bit window flip
    probability into P(some block of the crossbar catches >= 2 upsets) —
    the same composition as :func:`compare_protections` but for one
    crossbar, counting each block's codeword (``m^2 + 2m`` cells). The
    empirical side is :func:`simulate_drift_survival`'s failure rate
    (trials not fully restored). They agree within sampling error except
    for the rare aliasing cases (a multi-upset block that happens to
    restore), so ``consistent`` uses a one-sided-friendly sigma band.
    """
    n_cells = grid.cells_per_block + grid.check_bits_per_block
    p_bit = model.flip_probability(window_hours, refresh_period_hours)
    analytic = window_failure_probability(p_bit, n_cells, grid.block_count)

    mc = simulate_drift_survival(
        grid, model, window_hours, refresh_period_hours, trials=trials,
        seed=seed)
    sigma = math.sqrt(max(analytic * (1 - analytic), 1e-300) / trials)
    diff = abs(mc.failure_rate - analytic)
    return {
        "analytic": analytic,
        "empirical": mc.failure_rate,
        "sigma": sigma,
        "difference": diff,
        "consistent": diff <= tolerance_sigmas * sigma + 1e-12,
        "silent": mc.silent,
        "trials": trials,
        "bit_flip_probability": p_bit,
    }


def refresh_period_sweep(model: Optional[DriftModel] = None,
                         organization: Optional[MemoryOrganization] = None,
                         periods_hours: tuple = (0.25, 1.0, 4.0, 12.0, 24.0),
                         ) -> List[dict]:
    """MTTF of refresh+ECC across refresh periods (diminishing returns:
    once drift is suppressed below the abrupt floor, refreshing harder
    buys nothing — only ECC addresses the remainder)."""
    model = model or DriftModel()
    org = organization or MemoryOrganization()
    window = org.check_period_hours
    rows = []
    for r in periods_hours:
        p_bit = model.flip_probability(window, r)
        rows.append({
            "refresh_period_hours": r,
            "bit_flip_probability": p_bit,
            "mttf_hours": _mttf_with_ecc(p_bit, org),
            "drift_share": model.drift_exposure(window, r)
            / max(model.drift_exposure(window, r)
                  + model.abrupt_exposure(window), 1e-300),
        })
    return rows
