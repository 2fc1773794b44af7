"""The diagonal parity code: encode, syndrome, decode.

Per block, the code stores ``2m`` parity bits (one per leading and counter
wrap-around diagonal). A single bit error anywhere in the *codeword*
(``m^2`` data cells + ``2m`` check cells) is correctable:

* a data error at block-local ``(r, c)`` flips exactly one leading
  syndrome bit (``(r+c) mod m``) and one counter syndrome bit
  (``(r-c) mod m``) — the pair inverts uniquely because ``m`` is odd;
* a check-bit error flips exactly one syndrome bit in one plane and none
  in the other, identifying the faulty check-bit itself.

Any other non-zero signature indicates at least two errors and is reported
as :class:`Uncorrectable` (detected-uncorrectable). Like every
single-error-correcting code, three-or-more errors can alias to a
correctable signature; the reliability model (Sec. V-A) accounts for this
by counting any block with two or more errors as failed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.blocks import BlockGrid
from repro.core.checkstore import CheckStore
from repro.core.diagonals import solve_position
from repro.core.parity import parity_along_counter, parity_along_leading
from repro.utils.bitpack import decode_status_masks, unpack_batch
from repro.utils.kernels import KernelsLike


class DecodeStatus(enum.Enum):
    """Classification of a block syndrome."""

    NO_ERROR = "no_error"
    DATA_ERROR = "data_error"
    CHECK_BIT_ERROR = "check_bit_error"
    UNCORRECTABLE = "uncorrectable"


@dataclass(frozen=True)
class NoError:
    """Zero syndrome: the block is consistent."""

    status: DecodeStatus = DecodeStatus.NO_ERROR


@dataclass(frozen=True)
class DataError:
    """Single data-cell error at block-local ``(row, col)``."""

    row: int
    col: int
    status: DecodeStatus = DecodeStatus.DATA_ERROR


@dataclass(frozen=True)
class CheckBitError:
    """Single check-bit error: ``plane`` is 'leading' or 'counter'."""

    plane: str
    index: int
    status: DecodeStatus = DecodeStatus.CHECK_BIT_ERROR


@dataclass(frozen=True)
class Uncorrectable:
    """Two or more errors detected; the syndrome pair is attached."""

    lead_syndrome: Tuple[int, ...]
    ctr_syndrome: Tuple[int, ...]
    status: DecodeStatus = DecodeStatus.UNCORRECTABLE


DecodeOutcome = Union[NoError, DataError, CheckBitError, Uncorrectable]


#: Per-block status codes used by the vectorized batch decoder. The two
#: check-bit planes get distinct codes (the scalar decoder distinguishes
#: them via ``CheckBitError.plane``).
BATCH_NO_ERROR = 0
BATCH_DATA_ERROR = 1
BATCH_LEAD_CHECK_ERROR = 2
BATCH_CTR_CHECK_ERROR = 3
BATCH_UNCORRECTABLE = 4


@dataclass(frozen=True)
class BatchDecode:
    """Vectorized decode of every block of a ``(B, n, n)`` stack.

    ``status`` is ``(B, b, b)`` of ``BATCH_*`` codes; ``lead_index`` and
    ``ctr_index`` are the argmax positions of each syndrome plane — only
    meaningful where the corresponding status consumes them (the data
    position for ``BATCH_DATA_ERROR``, the faulty check-bit diagonal for
    the two check-error codes).
    """

    m: int
    status: np.ndarray
    lead_index: np.ndarray
    ctr_index: np.ndarray

    def data_error_positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Block-local ``(rows, cols)`` planes solving the diagonal pair.

        Valid only where ``status == BATCH_DATA_ERROR``; elsewhere the
        values are meaningless (computed from zero syndromes). Uses the
        same modular inverse of 2 as :func:`repro.core.diagonals
        .solve_position`.
        """
        inv2 = (self.m + 1) // 2
        rows = ((self.lead_index + self.ctr_index) * inv2) % self.m
        cols = ((self.lead_index - self.ctr_index) * inv2) % self.m
        return rows, cols


@dataclass(frozen=True)
class PackedBatchDecode:
    """Bit-parallel decode of packed ``uint64`` syndrome planes.

    Every field is a word tensor in the bit-slice layout of
    :mod:`repro.utils.bitpack` (trial ``i`` -> word ``i // 64``, bit
    ``i % 64``). ``lead_syndrome``/``ctr_syndrome`` are ``(W, m, b, b)``;
    the five status masks are ``(W, b, b)`` with a bit set iff that
    trial's block carries the status — one mask per ``BATCH_*`` code,
    with the two check planes separated like :class:`BatchDecode`.

    Tail rule: ``no_error`` is computed with complements, so its padding
    bits (trials beyond the true batch size) are *set*; the other four
    masks derive from AND/OR of zero-padded syndromes and keep zero
    tails. Consumers unpacking any mask must trim to the true batch
    (:meth:`status_codes` does).
    """

    m: int
    lead_syndrome: np.ndarray
    ctr_syndrome: np.ndarray
    no_error: np.ndarray
    data_error: np.ndarray
    lead_check: np.ndarray
    ctr_check: np.ndarray
    uncorrectable: np.ndarray

    def status_codes(self, batch: int) -> np.ndarray:
        """Unpack to the ``(B, b, b)`` uint8 ``BATCH_*`` code tensor.

        The differential bridge to :class:`BatchDecode.status`; the hot
        path never calls it.
        """
        status = np.full((batch,) + tuple(self.no_error.shape[1:]),
                         BATCH_UNCORRECTABLE, dtype=np.uint8)
        for code, mask in ((BATCH_NO_ERROR, self.no_error),
                           (BATCH_DATA_ERROR, self.data_error),
                           (BATCH_LEAD_CHECK_ERROR, self.lead_check),
                           (BATCH_CTR_CHECK_ERROR, self.ctr_check)):
            status[unpack_batch(mask, batch) != 0] = code
        return status


class DiagonalParityCode:
    """Encoder/decoder for the per-block diagonal parity code."""

    def __init__(self, grid: BlockGrid):
        self.grid = grid

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #

    def encode_block(self, block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(leading[m], counter[m])`` parity vectors of an ``m x m`` block."""
        m = self.grid.m
        block = np.asarray(block, dtype=np.uint8)
        if block.shape != (m, m):
            raise ValueError(f"expected {m}x{m} block, got {block.shape}")
        return parity_along_leading(block), parity_along_counter(block)

    def encode(self, data: np.ndarray) -> CheckStore:
        """Compute a full :class:`CheckStore` for ``n x n`` data.

        This is the from-scratch encoding used on bulk writes; steady-state
        operation maintains the store incrementally via
        :class:`repro.core.updater.ContinuousUpdater`.
        """
        n, m = self.grid.n, self.grid.m
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (n, n):
            raise ValueError(f"expected {n}x{n} data, got {data.shape}")
        store = CheckStore(self.grid)
        b = self.grid.blocks_per_side
        # Vectorized over all blocks: reshape to (b, m, b, m) and reduce
        # each diagonal with an index-add per block.
        tiles = data.reshape(b, m, b, m)
        r = np.arange(m)[:, None]
        c = np.arange(m)[None, :]
        lead_idx = (r + c) % m
        ctr_idx = (r - c) % m
        for d in range(m):
            # Gather the m cells of diagonal d from every block at once:
            # tiles[:, rs, :, cs] has shape (m, b, b) — one gathered cell
            # per (local position, block_row, block_col) — then XOR-reduce
            # over the gathered axis.
            rs, cs = np.nonzero(lead_idx == d)
            store.lead[d] = np.bitwise_xor.reduce(tiles[:, rs, :, cs], axis=0)
            rs, cs = np.nonzero(ctr_idx == d)
            store.ctr[d] = np.bitwise_xor.reduce(tiles[:, rs, :, cs], axis=0)
        return store

    def encode_batch(self, data) -> Tuple:
        """Parity planes for a stack of ``B`` crossbars at once.

        ``data`` is ``(B, n, n)``; returns ``(lead, ctr)`` planes of shape
        ``(B, m, n/m, n/m)`` — the per-trial analogue of the
        :class:`CheckStore` layout: one gather + XOR-reduce per diagonal
        covers every block of every trial simultaneously.
        """
        return self._encode_batch_impl(data, np.uint8)

    def encode_batch_packed(self, words) -> Tuple:
        """Parity planes of a packed ``(W, n, n)`` ``uint64`` word stack.

        The bit-sliced analogue of :meth:`encode_batch`: ``words`` packs
        the batch dimension 64 trials per word (:mod:`repro.utils
        .bitpack` layout), and the returned ``(lead, ctr)`` planes are
        ``(W, m, n/m, n/m)`` words. XOR is bitwise, so the exact same
        gather + XOR-reduce per diagonal computes 64 trials per machine
        word.
        """
        return self._encode_batch_impl(words, np.uint64)

    def _encode_batch_impl(self, data, dtype) -> Tuple:
        n, m = self.grid.n, self.grid.m
        data = np.asarray(data, dtype=dtype)
        if data.ndim != 3 or data.shape[1:] != (n, n):
            raise ValueError(f"expected (B, {n}, {n}) data, got {data.shape}")
        b = self.grid.blocks_per_side
        batch = data.shape[0]
        tiles = data.reshape(batch, b, m, b, m)
        r = np.arange(m)[:, None]
        c = np.arange(m)[None, :]
        lead_idx = (r + c) % m
        ctr_idx = (r - c) % m
        lead = np.empty((batch, m, b, b), dtype=dtype)
        ctr = np.empty((batch, m, b, b), dtype=dtype)
        for d in range(m):
            # tiles[:, :, rs, :, cs] gathers the m cells of diagonal d from
            # every block of every trial: shape (m, B, b, b) with the
            # advanced axis first; XOR-reduce over the gathered cells.
            rs, cs = np.nonzero(lead_idx == d)
            lead[:, d] = np.bitwise_xor.reduce(tiles[:, :, rs, :, cs], axis=0)
            rs, cs = np.nonzero(ctr_idx == d)
            ctr[:, d] = np.bitwise_xor.reduce(tiles[:, :, rs, :, cs], axis=0)
        return lead, ctr

    # ------------------------------------------------------------------ #
    # Syndromes and decoding
    # ------------------------------------------------------------------ #

    def syndrome_block(self, block: np.ndarray, lead_bits: np.ndarray,
                       ctr_bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Syndrome = stored check-bits XOR freshly computed parity."""
        lead, ctr = self.encode_block(block)
        return (lead ^ np.asarray(lead_bits, dtype=np.uint8),
                ctr ^ np.asarray(ctr_bits, dtype=np.uint8))

    def decode(self, lead_syndrome: np.ndarray,
               ctr_syndrome: np.ndarray) -> DecodeOutcome:
        """Classify a syndrome pair (see module docstring)."""
        lead_syndrome = np.asarray(lead_syndrome, dtype=np.uint8)
        ctr_syndrome = np.asarray(ctr_syndrome, dtype=np.uint8)
        lead_ones = np.flatnonzero(lead_syndrome)
        ctr_ones = np.flatnonzero(ctr_syndrome)
        if lead_ones.size == 0 and ctr_ones.size == 0:
            return NoError()
        if lead_ones.size == 1 and ctr_ones.size == 1:
            r, c = solve_position(int(lead_ones[0]), int(ctr_ones[0]),
                                  self.grid.m)
            return DataError(r, c)
        if lead_ones.size == 1 and ctr_ones.size == 0:
            return CheckBitError("leading", int(lead_ones[0]))
        if ctr_ones.size == 1 and lead_ones.size == 0:
            return CheckBitError("counter", int(ctr_ones[0]))
        return Uncorrectable(tuple(int(x) for x in lead_syndrome),
                             tuple(int(x) for x in ctr_syndrome))

    def decode_block(self, block: np.ndarray, lead_bits: np.ndarray,
                     ctr_bits: np.ndarray) -> DecodeOutcome:
        """Syndrome + decode in one call."""
        lead_s, ctr_s = self.syndrome_block(block, lead_bits, ctr_bits)
        return self.decode(lead_s, ctr_s)

    def syndrome_batch(self, data, lead_bits, ctr_bits) -> Tuple:
        """Syndrome planes for a ``(B, n, n)`` stack of crossbars.

        ``lead_bits``/``ctr_bits`` are ``(B, m, n/m, n/m)`` stored
        check-bit planes (e.g. from :meth:`encode_batch` on golden data);
        the result has the same shape.
        """
        lead, ctr = self.encode_batch(data)
        return (lead ^ np.asarray(lead_bits, dtype=np.uint8),
                ctr ^ np.asarray(ctr_bits, dtype=np.uint8))

    def decode_batch(self, lead_syndrome, ctr_syndrome) -> "BatchDecode":
        """Classify every block of every trial in one vectorized pass.

        Input planes are ``(B, m, b, b)``; the result holds one status
        code per ``(trial, block_row, block_col)`` plus the syndrome
        positions needed to apply corrections (see :class:`BatchDecode`).
        """
        lead_syndrome = np.asarray(lead_syndrome, dtype=np.uint8)
        ctr_syndrome = np.asarray(ctr_syndrome, dtype=np.uint8)
        lead_ones = lead_syndrome.sum(axis=1, dtype=np.int64)
        ctr_ones = ctr_syndrome.sum(axis=1, dtype=np.int64)
        status = np.full(lead_ones.shape, BATCH_UNCORRECTABLE, dtype=np.uint8)
        status[(lead_ones == 0) & (ctr_ones == 0)] = BATCH_NO_ERROR
        status[(lead_ones == 1) & (ctr_ones == 1)] = BATCH_DATA_ERROR
        status[(lead_ones == 1) & (ctr_ones == 0)] = BATCH_LEAD_CHECK_ERROR
        status[(lead_ones == 0) & (ctr_ones == 1)] = BATCH_CTR_CHECK_ERROR
        return BatchDecode(
            m=self.grid.m,
            status=status,
            lead_index=np.argmax(lead_syndrome, axis=1),
            ctr_index=np.argmax(ctr_syndrome, axis=1),
        )

    def syndrome_batch_packed(self, words, lead_words, ctr_words) -> Tuple:
        """Packed syndrome planes: stored words XOR fresh packed parity.

        ``words`` is the ``(W, n, n)`` packed data stack; ``lead_words``
        / ``ctr_words`` are ``(W, m, b, b)`` stored check-bit words. The
        result has the check-plane shape, 64 trials per word.
        """
        lead, ctr = self.encode_batch_packed(words)
        return (lead ^ np.asarray(lead_words, dtype=np.uint64),
                ctr ^ np.asarray(ctr_words, dtype=np.uint64))

    def decode_batch_packed(self, lead_syndrome, ctr_syndrome,
                            kernels: KernelsLike = None
                            ) -> "PackedBatchDecode":
        """Bit-parallel classification of packed syndrome planes.

        Where :meth:`decode_batch` counts syndrome ones with an integer
        ``sum`` per trial, the packed decoder runs a carry-save sideways
        counter over the ``m`` diagonal planes
        (:func:`repro.utils.bitpack.decode_status_masks`, fused on the
        compiled kernel tier), classifying 64 trials per word:

        * count 0 in both planes          -> ``no_error``
        * exactly 1 in both               -> ``data_error``
        * exactly 1 leading / 0 counter   -> ``lead_check``
        * 0 leading / exactly 1 counter   -> ``ctr_check``
        * 2+ anywhere                     -> ``uncorrectable``

        See :class:`PackedBatchDecode` for the tail-padding rule.
        """
        lead_syndrome = np.asarray(lead_syndrome, dtype=np.uint64)
        ctr_syndrome = np.asarray(ctr_syndrome, dtype=np.uint64)
        no_error, data_error, lead_check, ctr_check, uncorrectable = \
            decode_status_masks(lead_syndrome, ctr_syndrome, kernels=kernels)
        return PackedBatchDecode(
            m=self.grid.m,
            lead_syndrome=lead_syndrome,
            ctr_syndrome=ctr_syndrome,
            no_error=no_error,
            data_error=data_error,
            lead_check=lead_check,
            ctr_check=ctr_check,
            uncorrectable=uncorrectable,
        )

    # ------------------------------------------------------------------ #
    # Code parameters
    # ------------------------------------------------------------------ #

    @property
    def data_bits_per_block(self) -> int:
        """m^2 protected data bits per block."""
        return self.grid.cells_per_block

    @property
    def check_bits_per_block(self) -> int:
        """2m check-bits per block."""
        return self.grid.check_bits_per_block

    @property
    def overhead_fraction(self) -> float:
        """Storage overhead 2m / m^2 = 2/m (paper Sec. III trade-off)."""
        return self.check_bits_per_block / self.data_bits_per_block
