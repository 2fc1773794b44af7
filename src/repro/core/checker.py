"""ECC checking and correction flows (paper Sec. III / IV).

Two check triggers exist in the proposed design:

* **specific checks** on the blocks holding a function's inputs, performed
  before the function executes;
* **periodic full-memory checks** (every ``T = 24 h`` in the paper's
  analysis) to cover rarely-accessed data.

The checker operates on the behavioral state (crossbar contents + check
store); :mod:`repro.arch` charges the corresponding cycles. Corrections are
written back with observers suspended — the check-bits of a block with a
single *data* error are already the parity of the corrected content, and a
faulty *check-bit* is simply rewritten in the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.blocks import BlockGrid
from repro.core.checkstore import CheckStore
from repro.core.code import (
    BATCH_CTR_CHECK_ERROR,
    BATCH_DATA_ERROR,
    BATCH_LEAD_CHECK_ERROR,
    BATCH_NO_ERROR,
    BATCH_UNCORRECTABLE,
    CheckBitError,
    DataError,
    DecodeOutcome,
    DecodeStatus,
    DiagonalParityCode,
    NoError,
    Uncorrectable,
)
from repro.core.code import PackedBatchDecode
from repro.errors import UncorrectableError
from repro.utils.bitpack import or_reduce_words, unpack_batch
from repro.utils.kernels import KernelsLike
from repro.xbar.crossbar import CrossbarArray


@dataclass
class CheckReport:
    """Outcome of checking one block."""

    block_row: int
    block_col: int
    outcome: DecodeOutcome
    corrected: bool = False

    @property
    def status(self) -> DecodeStatus:
        """Decode status of this block's syndrome."""
        return self.outcome.status


@dataclass
class SweepReport:
    """Aggregate of a multi-block check sweep."""

    reports: List[CheckReport] = field(default_factory=list)

    @property
    def blocks_checked(self) -> int:
        return len(self.reports)

    @property
    def data_corrections(self) -> int:
        return sum(1 for r in self.reports
                   if r.status is DecodeStatus.DATA_ERROR and r.corrected)

    @property
    def check_bit_corrections(self) -> int:
        return sum(1 for r in self.reports
                   if r.status is DecodeStatus.CHECK_BIT_ERROR and r.corrected)

    @property
    def uncorrectable(self) -> List[CheckReport]:
        return [r for r in self.reports
                if r.status is DecodeStatus.UNCORRECTABLE]

    @property
    def clean(self) -> bool:
        """True when every checked block decoded to NO_ERROR."""
        return all(r.status is DecodeStatus.NO_ERROR for r in self.reports)


class BlockChecker:
    """Verifies and corrects blocks of a protected crossbar."""

    def __init__(self, grid: BlockGrid, code: DiagonalParityCode,
                 store: CheckStore, raise_on_uncorrectable: bool = False):
        self.grid = grid
        self.code = code
        self.store = store
        self.raise_on_uncorrectable = raise_on_uncorrectable

    # ------------------------------------------------------------------ #
    # Single block
    # ------------------------------------------------------------------ #

    def check_block(self, mem: CrossbarArray, block_row: int, block_col: int,
                    correct: bool = True) -> CheckReport:
        """Check (and by default correct) a single block."""
        rs, cs = self.grid.block_slice(block_row, block_col)
        block = mem.snapshot()[rs, cs]
        lead_bits, ctr_bits = self.store.block_bits(block_row, block_col)
        outcome = self.code.decode_block(block, lead_bits, ctr_bits)
        report = CheckReport(block_row, block_col, outcome)
        if isinstance(outcome, Uncorrectable) and self.raise_on_uncorrectable:
            raise UncorrectableError(
                f"block ({block_row},{block_col}) has an uncorrectable "
                f"multi-bit error", syndrome=outcome)
        if correct:
            report.corrected = self._apply_correction(mem, block_row,
                                                      block_col, outcome)
        return report

    def _apply_correction(self, mem: CrossbarArray, block_row: int,
                          block_col: int, outcome: DecodeOutcome) -> bool:
        if isinstance(outcome, DataError):
            row, col = self.grid.global_of(block_row, block_col,
                                           outcome.row, outcome.col)
            current = mem.read_bit(row, col)
            # The check-bits already encode the corrected value; suspend
            # observers so the continuous updater does not double-count.
            with mem.observers_suspended():
                mem.write_bit(row, col, 1 - current)
            return True
        if isinstance(outcome, CheckBitError):
            self.store.toggle(outcome.plane, outcome.index,
                              block_row, block_col)
            return True
        return False

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #

    def check_blocks(self, mem: CrossbarArray,
                     blocks: Sequence[tuple[int, int]],
                     correct: bool = True) -> SweepReport:
        """Check an explicit list of ``(block_row, block_col)`` pairs."""
        sweep = SweepReport()
        for br, bc in blocks:
            sweep.reports.append(self.check_block(mem, br, bc, correct))
        return sweep

    def check_block_row(self, mem: CrossbarArray, block_row: int,
                        block_cols: Optional[Sequence[int]] = None,
                        correct: bool = True) -> SweepReport:
        """Check a row of blocks (the function-input check of Sec. IV).

        ``block_cols`` restricts the sweep to the block-columns actually
        containing inputs; ``None`` checks the entire row of blocks.
        """
        if block_cols is None:
            block_cols = range(self.grid.blocks_per_side)
        return self.check_blocks(mem, [(block_row, bc) for bc in block_cols],
                                 correct)

    def check_all(self, mem: CrossbarArray, correct: bool = True) -> SweepReport:
        """Full-memory periodic check (paper: every ``T = 24`` hours)."""
        return self.check_blocks(mem, list(self.grid.iter_blocks()), correct)


@dataclass
class BatchSweepReport:
    """Vectorized analogue of :class:`SweepReport` for ``B`` stacked trials.

    ``status`` is ``(B, b, b)`` of ``repro.core.code.BATCH_*`` codes, one
    per block of each trial; ``corrected`` records whether the sweep ran
    with corrections enabled (like ``CheckReport.corrected``, a
    read-only sweep reports zero corrections).
    """

    status: np.ndarray
    corrected: bool = True

    @property
    def trials(self) -> int:
        return int(self.status.shape[0])

    @property
    def blocks_checked(self) -> int:
        """Blocks checked across the whole batch."""
        return int(self.status.size)

    @property
    def data_corrections(self) -> np.ndarray:
        """Per-trial count of single-data-error corrections."""
        if not self.corrected:
            return np.zeros(self.trials, dtype=np.int64)
        return (self.status == BATCH_DATA_ERROR).sum(axis=(1, 2))

    @property
    def check_bit_corrections(self) -> np.ndarray:
        """Per-trial count of check-bit rewrites."""
        if not self.corrected:
            return np.zeros(self.trials, dtype=np.int64)
        return ((self.status == BATCH_LEAD_CHECK_ERROR)
                | (self.status == BATCH_CTR_CHECK_ERROR)).sum(axis=(1, 2))

    @property
    def uncorrectable_any(self) -> np.ndarray:
        """Per-trial flag: at least one block reported uncorrectable."""
        return (self.status == BATCH_UNCORRECTABLE).any(axis=(1, 2))

    @property
    def clean(self) -> np.ndarray:
        """Per-trial flag: every block decoded to NO_ERROR."""
        return (self.status == BATCH_NO_ERROR).all(axis=(1, 2))


def check_all_batched(grid: BlockGrid, code: DiagonalParityCode,
                      data, lead, ctr, correct: bool = True
                      ) -> BatchSweepReport:
    """Full-memory check of ``B`` stacked crossbars in one vectorized pass.

    ``data`` is ``(B, n, n)`` uint8; ``lead``/``ctr`` are the stored
    check-bit planes ``(B, m, b, b)``. With ``correct=True`` (the default)
    corrections are applied **in place**: single data errors are flipped in
    ``data``, single check-bit errors rewritten in ``lead``/``ctr`` —
    mirroring :meth:`BlockChecker.check_all` block by block. Blocks are
    independent (disjoint data cells and check-bits), so the vectorized
    all-at-once correction is equivalent to the scalar row-major sweep.
    """
    m = grid.m
    syn_lead, syn_ctr = code.syndrome_batch(data, lead, ctr)
    decoded = code.decode_batch(syn_lead, syn_ctr)
    if correct:
        # Single data errors: flip the located cell of each flagged block.
        t, br, bc = np.nonzero(decoded.status == BATCH_DATA_ERROR)
        if t.size:
            local_r, local_c = decoded.data_error_positions()
            rows = br * m + local_r[t, br, bc]
            cols = bc * m + local_c[t, br, bc]
            data[t, rows, cols] ^= 1
        # Single check-bit errors: rewrite the faulty stored bit.
        t, br, bc = np.nonzero(decoded.status == BATCH_LEAD_CHECK_ERROR)
        if t.size:
            lead[t, decoded.lead_index[t, br, bc], br, bc] ^= 1
        t, br, bc = np.nonzero(decoded.status == BATCH_CTR_CHECK_ERROR)
        if t.size:
            ctr[t, decoded.ctr_index[t, br, bc], br, bc] ^= 1
    return BatchSweepReport(status=decoded.status, corrected=correct)


@dataclass
class PackedSweepReport:
    """Bit-sliced analogue of :class:`BatchSweepReport`.

    ``decode`` holds the word-level status masks
    (:class:`repro.core.code.PackedBatchDecode`); ``batch`` is the true
    trial count (the packed word tensors cover ``ceil(batch/64) * 64``
    bit lanes, the tail being padding). Per-trial views unpack on demand
    and always trim to ``batch``, so tail garbage never leaks out.
    """

    batch: int
    decode: PackedBatchDecode
    corrected: bool = True

    @property
    def trials(self) -> int:
        return int(self.batch)

    @property
    def blocks_checked(self) -> int:
        """Blocks checked across the whole batch."""
        shape = self.decode.no_error.shape
        return int(self.batch * shape[1] * shape[2])

    def _mask(self, words) -> np.ndarray:
        return unpack_batch(words, self.batch)

    @property
    def data_corrections(self) -> np.ndarray:
        """Per-trial count of single-data-error corrections."""
        if not self.corrected:
            return np.zeros(self.batch, dtype=np.int64)
        return self._mask(self.decode.data_error).sum(
            axis=(1, 2), dtype=np.int64)

    @property
    def check_bit_corrections(self) -> np.ndarray:
        """Per-trial count of check-bit rewrites."""
        if not self.corrected:
            return np.zeros(self.batch, dtype=np.int64)
        return (self._mask(self.decode.lead_check)
                + self._mask(self.decode.ctr_check)).sum(
            axis=(1, 2), dtype=np.int64)

    @property
    def uncorrectable_any(self) -> np.ndarray:
        """Per-trial flag: at least one block reported uncorrectable."""
        words = or_reduce_words(self.decode.uncorrectable, axis=(1, 2))
        return self._mask(words).astype(bool)

    @property
    def clean(self) -> np.ndarray:
        """Per-trial flag: every block decoded to NO_ERROR."""
        words = or_reduce_words(~self.decode.no_error, axis=(1, 2))
        return ~self._mask(words).astype(bool)

    def status_codes(self) -> np.ndarray:
        """``(B, b, b)`` uint8 ``BATCH_*`` codes (differential bridge)."""
        return self.decode.status_codes(self.batch)


def check_all_batched_packed(grid: BlockGrid, code: DiagonalParityCode,
                             words, lead, ctr, batch: int,
                             correct: bool = True,
                             kernels: KernelsLike = None
                             ) -> PackedSweepReport:
    """Full-memory check of a packed word stack, 64 trials per word.

    The bit-sliced analogue of :func:`check_all_batched`: ``words`` is
    the ``(W, n, n)`` uint64 data stack and ``lead``/``ctr`` the stored
    ``(W, m, b, b)`` check-bit words (:mod:`repro.utils.bitpack`
    layout); ``batch`` is the true trial count. With ``correct=True``
    corrections are applied **in place**, entirely bit-parallel:

    * a single data error at diagonal pair ``(dl, dc)`` resolves to one
      block-local cell, so for each of the ``m^2`` pairs the mask
      ``data_error & lead_syn[dl] & ctr_syn[dc]`` selects exactly the
      trials/blocks to flip at that cell — one strided XOR per pair;
    * a single check-bit error sits on the one set syndrome diagonal, so
      ``lead[:, d] ^= lead_check & lead_syn[:, d]`` rewrites it.

    Tail bits stay zero throughout (every correction mask is an AND of
    zero-padded syndromes), so padding lanes are never written.
    """
    m = grid.m
    syn_lead, syn_ctr = code.syndrome_batch_packed(words, lead, ctr)
    decoded = code.decode_batch_packed(syn_lead, syn_ctr, kernels=kernels)
    if correct:
        inv2 = (m + 1) // 2
        for dl in range(m):
            for dc in range(m):
                mask = decoded.data_error \
                    & syn_lead[:, dl] & syn_ctr[:, dc]
                r = ((dl + dc) * inv2) % m
                c = ((dl - dc) * inv2) % m
                # words[:, r::m, c::m] is the (W, b, b) strided view of
                # block-local cell (r, c) across every block — a basic
                # slice, so the XOR lands in place.
                words[:, r::m, c::m] ^= mask
        for d in range(m):
            lead[:, d] ^= decoded.lead_check & syn_lead[:, d]
            ctr[:, d] ^= decoded.ctr_check & syn_ctr[:, d]
    return PackedSweepReport(batch=batch, decode=decoded, corrected=correct)
