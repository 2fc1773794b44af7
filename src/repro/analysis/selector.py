"""Scenario-driven code selection: the paper's Fig. 2 argument, measured.

The paper's case for the diagonal placement is comparative: rival codes
correct the same single errors but pay more to *maintain* their check
bits under parallel MAGIC writes, or spend more area on check memory.
This module turns that argument into a measurement. A
:class:`Scenario` fixes a workload (crossbar geometry, raw bit-error
rate, and the mix of row- vs column-parallel operations); every
registered block code (:mod:`repro.core.registry`) is then scored on
four axes:

=========================  ============================================
``coverage``               Fraction of Monte-Carlo trials the code left
                           the array fault-free (clean or corrected) —
                           a :class:`repro.faults.batch.CampaignRunner`
                           run under the per-trial seeding contract, so
                           the number is reproducible from the scenario
                           seed alone.
``update_cost``            Mix-weighted sequential XOR3 gate issues per
                           block per MAGIC op:
                           ``f * row_parallel + (1-f) * col_parallel``
                           of the code's :class:`repro.core.altcodes
                           .UpdateCost` (lower is better).
``area_overhead``          Check-bit storage overhead as a fraction of
                           the data array (plus the absolute cell count
                           via :meth:`BlockCode.check_overhead_cells`);
                           lower is better.
``throughput``             Measured campaign trials/second of this
                           build's batched engine for the code's
                           kernels (higher is better; the only
                           non-deterministic axis).
=========================  ============================================

:func:`pareto_front` keeps the non-dominated codes per scenario —
a code is dropped only when some other code is at least as good on
every axis and strictly better on one. :func:`select` sweeps a list of
scenarios and emits one JSON-ready report; ``repro select`` is the CLI
wrapper. For any *mixed* workload (``0 < row_fraction < 1``) the
diagonal code's Theta(1)/Theta(1) maintenance makes it the unique
update-cost minimum — the measured form of the paper's Fig. 2 gradient.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.blocks import BlockGrid
from repro.core.registry import build_code, code_names
from repro.faults.batch import CampaignRunner
from repro.faults.injector import UniformInjector

#: Objective direction per metric key: +1 maximize, -1 minimize.
OBJECTIVES = {
    "coverage": +1,
    "update_cost": -1,
    "area_overhead": -1,
    "throughput": +1,
}


@dataclass(frozen=True)
class Scenario:
    """One workload point of the selector sweep.

    ``row_fraction`` is the fraction of MAGIC operations that are
    row-parallel (write a column of the array); the remainder are
    column-parallel. ``ber`` is the per-bit upset probability per
    exposure window (the :class:`UniformInjector` model).
    """

    name: str
    n: int
    m: int
    ber: float
    row_fraction: float
    trials: int = 512
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber must be in [0,1], got {self.ber}")
        if not 0.0 <= self.row_fraction <= 1.0:
            raise ValueError(f"row_fraction must be in [0,1], "
                             f"got {self.row_fraction}")
        if self.trials <= 0:
            raise ValueError(f"trials must be positive, got {self.trials}")

    def grid(self) -> BlockGrid:
        return BlockGrid(self.n, self.m)


def default_scenarios(trials: int = 512, seed: int = 0) -> List[Scenario]:
    """A small sweep over op mix, BER, and block size.

    Kept deliberately light (seconds, not minutes): two block sizes on
    a 15-cell crossbar, two BER decades, and row-heavy / balanced /
    column-heavy op mixes.
    """
    scenarios = []
    for m in (3, 5):
        for ber in (1e-3, 1e-2):
            for frac in (0.9, 0.5, 0.1):
                scenarios.append(Scenario(
                    name=f"m{m}-ber{ber:g}-row{frac:g}",
                    n=15, m=m, ber=ber, row_fraction=frac,
                    trials=trials, seed=seed))
    return scenarios


def evaluate_code(scenario: Scenario, code: str,
                  packing: str = "u8") -> dict:
    """Score one code on one scenario (see the module docstring axes)."""
    grid = scenario.grid()
    blockcode = build_code(code, grid)
    cost = blockcode.update_cost()
    mixed_cost = (scenario.row_fraction * cost.row_parallel_xor_ops
                  + (1.0 - scenario.row_fraction)
                  * cost.col_parallel_xor_ops)

    runner = CampaignRunner(
        grid, UniformInjector(scenario.ber), seed=scenario.seed,
        packing=packing, code=code)
    start = time.perf_counter()
    result = runner.run(scenario.trials)
    elapsed = time.perf_counter() - start

    return {
        "code": code,
        "coverage": (result.clean + result.corrected) / result.trials,
        "update_cost": mixed_cost,
        "row_parallel_xor_ops": cost.row_parallel_xor_ops,
        "col_parallel_xor_ops": cost.col_parallel_xor_ops,
        "area_overhead": blockcode.overhead_fraction,
        "check_cells": blockcode.check_overhead_cells(),
        "check_bits_per_block": blockcode.check_bits_per_block,
        "throughput": (result.trials / elapsed) if elapsed > 0
        else float("inf"),
        "trials": result.trials,
        "corrected": result.corrected,
        "detected": result.detected,
        "silent": result.silent,
    }


def _dominates(a: dict, b: dict) -> bool:
    """Whether evaluation ``a`` Pareto-dominates ``b``."""
    at_least_as_good = all(
        sign * a[key] >= sign * b[key] for key, sign in OBJECTIVES.items())
    strictly_better = any(
        sign * a[key] > sign * b[key] for key, sign in OBJECTIVES.items())
    return at_least_as_good and strictly_better


def pareto_front(evaluations: Sequence[dict]) -> List[str]:
    """Names of the non-dominated codes, in input order."""
    return [e["code"] for e in evaluations
            if not any(_dominates(other, e) for other in evaluations
                       if other is not e)]


def select(scenarios: Optional[Sequence[Scenario]] = None,
           codes: Optional[Sequence[str]] = None,
           packing: str = "u8") -> dict:
    """Sweep scenarios x codes; return the JSON-ready selector report.

    The report carries, per scenario, every code's evaluation plus the
    Pareto-front membership, and a top-level ``update_cost_winner`` per
    scenario (the measured Fig. 2 claim: for mixed workloads this is
    always ``"diagonal"``).
    """
    if scenarios is None:
        scenarios = default_scenarios()
    if codes is None:
        codes = code_names()
    unknown = sorted(set(codes) - set(code_names()))
    if unknown:
        raise ValueError(f"unknown codes {unknown}; registered: "
                         f"{', '.join(code_names())}")
    out: Dict[str, object] = {"codes": list(codes), "scenarios": []}
    for scenario in scenarios:
        evaluations = [evaluate_code(scenario, code, packing=packing)
                       for code in codes]
        best_cost = min(e["update_cost"] for e in evaluations)
        winners = [e["code"] for e in evaluations
                   if e["update_cost"] == best_cost]
        out["scenarios"].append({
            "scenario": asdict(scenario),
            "evaluations": evaluations,
            "pareto_front": pareto_front(evaluations),
            "update_cost_winner": winners[0] if len(winners) == 1
            else winners,
        })
    return out
