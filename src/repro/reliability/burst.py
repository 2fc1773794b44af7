"""Spatial multi-bit upset (burst) analysis.

The paper motivates soft-error protection partly with crossbar MBU
studies (Liu et al., TNS 2015: single *and multiple* bit upsets from ion
strikes). The diagonal code corrects one error per block, so a spatial
burst survives iff **no block receives more than one of its flips** —
bursts confined to one m x m block are detected-uncorrectable, bursts
straddling a block boundary split into independently-correctable single
errors.

Closed forms for linear bursts (all cells in one row or one column, the
dominant MBU geometry along wordlines/bitlines):

* a burst of length ``L <= m`` starting uniformly at random survives iff
  a block boundary falls strictly inside it, and the two fragments have
  length <= 1... more precisely each block must get at most one cell, so
  only ``L <= 2`` can survive: ``P(survive | L=2) = 1/m`` (the boundary
  position), ``P(survive | L=1) = 1``, ``P = 0`` for ``L >= 3``.
* diagonal bursts (cells at (r+i, c+i)) are the interesting case: the
  cells share a *counter* diagonal index but occupy distinct leading
  diagonals, yet within one block two cells on the same counter diagonal
  alias the syndrome — again at most one cell per block may land, giving
  the same fragment rule.

:func:`linear_burst_survival` provides the closed form and
:func:`simulate_burst_survival` validates it through the full machinery.
The Monte-Carlo side is a thin classification layer over the unified
campaign engine: each trial drives one
:class:`repro.faults.injector.LinearBurstInjector` round through
:class:`repro.faults.batch.CampaignRunner`, so burst sweeps inherit the
fault-centric batched engine, process-pool sharding and both campaign
seeding contracts (``engine="scalar"`` is
the per-block Python reference; sequential batched runs are bit-identical
to it, per-trial runs are shard-layout invariant).

Seeding: the single ``seed`` is split into independent data-fill and
injection streams with :func:`repro.utils.rng.spawn_rngs` (sequential
modes) or used as the root entropy of the keyed per-trial streams
(per-trial mode, :func:`repro.utils.rng.trial_stream`) — no ad-hoc
single-stream consumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.blocks import BlockGrid
from repro.faults.batch import (
    DEFAULT_BATCH_SIZE,
    CampaignRunner,
    derive_campaign_seeds,
)
from repro.faults.injector import LinearBurstInjector
from repro.utils.rng import SeedLike


def linear_burst_survival(m: int, length: int) -> float:
    """P(an in-row burst of ``length`` adjacent flips is fully corrected).

    The burst start is uniform over in-row positions (wrap-around across
    block boundaries within one crossbar row). Survival requires every
    block to catch at most one flip; adjacent cells are in the same block
    unless a boundary separates them, and a block boundary occurs between
    a specific adjacent pair with probability ``1/m``. Only L=1 (always)
    and L=2 (boundary between the two cells) can survive; L>=3 always
    leaves some block with two or more flips since blocks are m >= 3
    wide.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 3, got {m}")
    if length < 1:
        raise ValueError(f"burst length must be >= 1, got {length}")
    if length == 1:
        return 1.0
    if length == 2:
        return 1.0 / m
    return 0.0


@dataclass
class BurstSurvivalResult:
    """Monte-Carlo burst-survival tallies."""

    trials: int
    survived: int
    detected: int

    @property
    def survival_rate(self) -> float:
        return self.survived / self.trials if self.trials else 0.0


def simulate_burst_survival(grid: BlockGrid, length: int, trials: int,
                            orientation: str = "row",
                            seed: SeedLike = 0,
                            engine: str = "batched",
                            batch_size: int = DEFAULT_BATCH_SIZE,
                            workers: int = 1,
                            seeding: Optional[str] = None,
                            packing: str = "u8",
                            ) -> BurstSurvivalResult:
    """Empirical burst survival through the real checker.

    Each trial: random data, one linear burst of ``length`` adjacent
    flips at a random position (``orientation`` 'row' or 'col'), full
    check sweep, classify as survived (memory restored exactly) or
    detected (uncorrectable reports — never silent corruption, which is
    asserted).

    ``engine``/``batch_size``/``workers``/``seeding``/``packing`` are
    the :class:`repro.faults.batch.CampaignRunner` knobs: the default
    batched engine runs trials in blocks and, with the same
    ``seed``, reproduces the scalar reference (``engine="scalar"``)
    bit-for-bit in sequential mode; ``workers > 1`` (or
    ``seeding="per-trial"``) switches to the shard-invariant per-trial
    contract, which requires an integer seed.
    """
    if length > grid.n:
        raise ValueError(f"burst length {length} exceeds the {grid.n}-cell "
                         f"crossbar lane")
    campaign_seed, injector_seed = derive_campaign_seeds(seed, seeding,
                                                         workers)
    runner = CampaignRunner(
        grid, LinearBurstInjector(length, orientation, seed=injector_seed),
        seed=campaign_seed, include_check_bits=True, engine=engine,
        batch_size=batch_size, workers=workers, seeding=seeding,
        packing=packing)
    result = runner.run(trials)
    # A linear burst can never alias to a correctable syndrome: within a
    # block its cells occupy distinct diagonals, so any block catching
    # >= 2 flips reports uncorrectable. Silent corruption would mean the
    # machinery (not the model) is broken.
    assert result.silent == 0, "silent burst corruption"
    return BurstSurvivalResult(
        trials=result.trials,
        survived=result.clean + result.corrected,
        detected=result.detected)


def interleaving_distance(m: int) -> int:
    """Minimum spatial separation between burst flips for guaranteed
    correction: cells at distance >= m (in the same row/column) are
    always in different blocks, hence independently correctable. This is
    the quantity a system architect uses to decide whether physical MBU
    cluster sizes are covered by block size m."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 3, got {m}")
    return m
