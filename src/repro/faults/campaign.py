"""Monte-Carlo fault campaigns: the tallies and the scalar reference trial.

A campaign trial (1) fills a protected crossbar with random data,
(2) injects one round of faults, (3) runs a full ECC check sweep, and
(4) compares the corrected memory against the golden copy, classifying
the trial as:

* ``clean`` — no fault injected, nothing to do;
* ``corrected`` — memory restored exactly and no uncorrectable report;
* ``detected`` — at least one block reported uncorrectable (the system
  knows it failed: detected-uncorrectable);
* ``silent`` — memory differs from golden yet no block complained
  (miscorrection / silent data corruption).

:class:`FaultCampaign` runs one such trial on the diagonal code's own
encoder and checker, from the two streams it is handed. It is the
diagonal engine of :func:`repro.faults.batch.run_reference`, the scalar
oracle of the batched engine; campaigns themselves run through
:class:`repro.faults.batch.CampaignRunner`. The reliability benches use
campaigns to validate the analytic binomial model of Sec. V-A
empirically (DESIGN.md experiment E7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import BlockGrid
from repro.core.checker import BlockChecker
from repro.core.checkstore import CheckStore
from repro.core.code import DecodeStatus, DiagonalParityCode
from repro.faults.injector import FaultInjector
from repro.utils.rng import TrialStreams
from repro.xbar.crossbar import CrossbarArray


@dataclass
class CampaignResult:
    """Aggregated tallies of a fault campaign."""

    trials: int = 0
    clean: int = 0
    corrected: int = 0
    detected: int = 0
    silent: int = 0
    injected_faults: int = 0
    blocks_with_multi_faults: int = 0

    @property
    def failure_rate(self) -> float:
        """Fraction of trials the memory was not fully restored."""
        if self.trials == 0:
            return 0.0
        return (self.detected + self.silent) / self.trials

    @property
    def silent_rate(self) -> float:
        """Fraction of trials with silent corruption (the dangerous kind)."""
        if self.trials == 0:
            return 0.0
        return self.silent / self.trials

    def as_dict(self) -> dict:
        """Plain-dict view for reports."""
        return {
            "trials": self.trials,
            "clean": self.clean,
            "corrected": self.corrected,
            "detected": self.detected,
            "silent": self.silent,
            "failure_rate": self.failure_rate,
            "silent_rate": self.silent_rate,
            "injected_faults": self.injected_faults,
            "blocks_with_multi_faults": self.blocks_with_multi_faults,
        }


class FaultCampaign:
    """Runs inject-check-verify trials of the diagonal code on one geometry."""

    def __init__(self, grid: BlockGrid, injector: FaultInjector,
                 include_check_bits: bool = True):
        self.grid = grid
        self.injector = injector
        self.include_check_bits = include_check_bits
        self.code = DiagonalParityCode(grid)

    def run_trial(self, data_rng: np.random.Generator,
                  inject_streams: TrialStreams) -> tuple[str, int, int]:
        """One trial; returns (classification, faults, multi_fault_blocks).

        ``data_rng`` fills the trial's random data; ``inject_streams``
        is the one-trial range its faults are drawn from (as
        :meth:`FaultInjector.inject` takes it). :func:`repro.faults.batch
        .run_reference` hands trial ``i``'s keyed streams in, replaying a
        batched run through this scalar implementation.
        """
        n = self.grid.n
        mem = CrossbarArray(n, n, "campaign-mem")
        data = data_rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        mem.write_region(0, 0, data)
        store = self.code.encode(mem.snapshot())
        golden = mem.snapshot()
        golden_store = store.copy()

        result = self.injector.inject(
            mem, store if self.include_check_bits else None,
            streams=inject_streams)

        checker = BlockChecker(self.grid, self.code, store)
        sweep = checker.check_all(mem)

        multi = self._count_multi_fault_blocks(result)
        if result.total == 0:
            return "clean", 0, multi
        restored = (mem.snapshot() == golden).all() and \
            (store.lead == golden_store.lead).all() and \
            (store.ctr == golden_store.ctr).all()
        if restored:
            return "corrected", result.total, multi
        if sweep.uncorrectable:
            return "detected", result.total, multi
        return "silent", result.total, multi

    def _count_multi_fault_blocks(self, result) -> int:
        """Blocks hit by >= 2 upsets (data or their own check-bits)."""
        counts: dict[tuple[int, int], int] = {}
        for r, c in result.data_flips:
            key = self.grid.block_of(r, c)
            counts[key] = counts.get(key, 0) + 1
        for _plane, _d, br, bc in result.check_flips:
            counts[(br, bc)] = counts.get((br, bc), 0) + 1
        return sum(1 for v in counts.values() if v >= 2)
