"""Soft-error models and fault-injection machinery (paper Sec. II-B, V-A).

Soft errors in memristors arise from oxygen-vacancy drift (gradual state
drift), ion strikes (abrupt single/multi-bit upsets), and environmental
variation. The paper's quantitative model reduces all of these to a single
Soft Error Rate (SER) ``lambda`` in FIT/bit — one expected upset per
``10^9 / lambda`` device-hours — with errors uniform and independent
across cells. This subpackage implements that model plus richer injection
patterns (bursts, clustered upsets) used in the extended test campaigns.
"""

from repro.faults.ser import (
    HOURS_PER_FIT_UNIT,
    error_probability,
    expected_errors,
    fit_from_probability,
    mttf_hours_from_fit,
    probability_from_fit,
)
from repro.faults.injector import (
    BatchInjectionResult,
    BernoulliFieldInjector,
    BurstInjector,
    CheckBitInjector,
    DeterministicInjector,
    FaultInjector,
    InjectionResult,
    LinearBurstInjector,
    UniformInjector,
)
from repro.faults.campaign import CampaignResult, FaultCampaign
from repro.faults.batch import (
    AdaptiveRunResult,
    BatchCampaign,
    CampaignRunner,
    ShardTask,
    merge_results,
    run_reference,
    run_shard_task,
)
from repro.faults.drift import (
    DriftInjector,
    DriftModel,
    DriftSimulator,
    window_flip_mask,
)

__all__ = [
    "HOURS_PER_FIT_UNIT",
    "error_probability",
    "expected_errors",
    "fit_from_probability",
    "probability_from_fit",
    "mttf_hours_from_fit",
    "FaultInjector",
    "BernoulliFieldInjector",
    "UniformInjector",
    "DeterministicInjector",
    "BurstInjector",
    "CheckBitInjector",
    "InjectionResult",
    "BatchInjectionResult",
    "LinearBurstInjector",
    "FaultCampaign",
    "CampaignResult",
    "AdaptiveRunResult",
    "BatchCampaign",
    "CampaignRunner",
    "ShardTask",
    "merge_results",
    "run_reference",
    "run_shard_task",
    "DriftModel",
    "DriftSimulator",
    "DriftInjector",
    "window_flip_mask",
]
