"""Monte-Carlo validation of the analytic reliability model (E7).

The binomial block-success term is the load-bearing part of Figure 6's
derivation; these routines check it *empirically* against the actual
machinery: inject uniform upsets into a protected crossbar, run the real
checker/decoder, and classify blocks. At simulation-feasible error
probabilities (``p ~ 1e-2``, far above Flash-like rates) the empirical
block failure rate must match ``1 - (1-p)^(N-1) (1 + (N-1)p)`` within
sampling error, and every block hit by at most one upset must be restored
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import BlockGrid
from repro.core.checker import check_all_batched
from repro.core.code import DiagonalParityCode
from repro.utils.rng import SeedLike, make_rng

#: Trials per stacked block of the vectorized estimator (memory bound).
_BATCH = 64


@dataclass
class BlockTrialResult:
    """Tallies of a block-level Monte-Carlo run."""

    trials: int
    blocks_per_trial: int
    blocks_failed: int          # >= 2 upsets (ground truth)
    blocks_restored: int        # memory identical to golden after check
    miscorrections: int         # <= 1 upset yet NOT restored (must be 0)
    silent_multi: int           # >= 2 upsets with clean decode (aliasing)

    @property
    def total_blocks(self) -> int:
        return self.trials * self.blocks_per_trial

    @property
    def empirical_failure_rate(self) -> float:
        """Fraction of blocks with two or more upsets."""
        return self.blocks_failed / self.total_blocks


def estimate_block_failure_rate(grid: BlockGrid, p: float, trials: int,
                                seed: SeedLike = 0,
                                include_check_bits: bool = False,
                                ) -> BlockTrialResult:
    """Empirical block-failure statistics under i.i.d. upsets.

    Each trial builds a random protected crossbar, injects upsets with
    per-cell probability ``p`` (optionally into check-bits as well), runs
    the full checker, and compares every block against the golden data.
    """
    rng = make_rng(seed)
    code = DiagonalParityCode(grid)
    n, m = grid.n, grid.m
    b = grid.blocks_per_side
    result = BlockTrialResult(trials, grid.block_count, 0, 0, 0, 0)

    # Trials are stacked into (B, n, n) blocks and swept through the
    # vectorized batch checker. Random fields are still drawn one trial
    # at a time, in the original order (data, flip mask, leading plane,
    # counter plane), so tallies are bit-identical to the historical
    # scalar loop for any seed.
    done = 0
    while done < trials:
        batch = min(_BATCH, trials - done)
        data = np.empty((batch, n, n), dtype=np.uint8)
        flip_mask = np.empty((batch, n, n), dtype=bool)
        cmask_lead = np.zeros((batch, m, b, b), dtype=bool)
        cmask_ctr = np.zeros((batch, m, b, b), dtype=bool)
        for i in range(batch):
            data[i] = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
            flip_mask[i] = rng.random((n, n)) < p
            if include_check_bits:
                cmask_lead[i] = rng.random((m, b, b)) < p
                cmask_ctr[i] = rng.random((m, b, b)) < p

        lead, ctr = code.encode_batch(data)
        golden = data.copy()
        data ^= flip_mask
        lead ^= cmask_lead
        ctr ^= cmask_ctr

        # Ground-truth upsets per block (data plus its own check-bits).
        per_block = flip_mask.reshape(batch, b, m, b, m).sum(axis=(2, 4)) \
            + cmask_lead.sum(axis=1) + cmask_ctr.sum(axis=1)

        check_all_batched(grid, code, data, lead, ctr, correct=True)
        restored = (data == golden).reshape(batch, b, m, b, m) \
            .all(axis=(2, 4))

        multi = per_block >= 2
        result.blocks_failed += int(multi.sum())
        result.blocks_restored += int(restored.sum())
        result.miscorrections += int((~restored & ~multi).sum())
        # Aliasing: multi-upset block whose post-check content matches
        # golden anyway (even number of flips on the same cells corrected
        # by luck) — counted for completeness.
        result.silent_multi += int((restored & multi).sum())
        done += batch
    return result


def validate_against_model(grid: BlockGrid, p: float, trials: int,
                           seed: SeedLike = 0,
                           tolerance_sigmas: float = 4.0) -> dict:
    """Compare empirical block failure rate with the binomial model.

    Returns a dict with both rates, the binomial-sampling standard error,
    and a boolean ``consistent`` flag (|diff| within the given sigmas).
    """
    import math

    from repro.reliability.model import window_failure_probability

    analytic = window_failure_probability(p, grid.cells_per_block, 1.0)

    mc = estimate_block_failure_rate(grid, p, trials, seed)
    total = mc.total_blocks
    sigma = math.sqrt(max(analytic * (1 - analytic), 1e-300) / total)
    diff = abs(mc.empirical_failure_rate - analytic)
    return {
        "analytic": analytic,
        "empirical": mc.empirical_failure_rate,
        "sigma": sigma,
        "difference": diff,
        "consistent": diff <= tolerance_sigmas * sigma + 1e-12,
        "miscorrections": mc.miscorrections,
        "trials": trials,
        "blocks": total,
    }
