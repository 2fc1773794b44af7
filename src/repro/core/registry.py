"""Pluggable per-block ECC code registry.

The paper's central claim is *comparative*: the diagonal placement beats
rival single-error-correcting codes on MAGIC update cost while paying a
modest storage overhead. Measuring that claim needs the rivals in-tree
and drivable through the same batched campaign machinery. This module
defines the :class:`BlockCode` interface the campaign engine consumes
(:mod:`repro.faults.batch`), lifts the existing codes onto it, adds two
algebraic SEC-DED codes (Hsiao and extended Hamming, the families the
PIM-ECC literature evaluates), and registers everything under string
names — mirroring the injector registry of
:mod:`repro.faults.serialize`, so a code crosses process and host
boundaries as a plain string in a :class:`repro.faults.batch.ShardTask`.

Code geometry
=============

Every code protects the same ``m x m`` data blocks of an ``n x n``
crossbar and stores its check bits in one or more *planes*, each a
``(rk, b, b)`` tensor (``rk`` check bits per block per plane, ``b =
n/m`` blocks per side) — the :class:`repro.core.checkstore.CheckStore`
layout generalized to code-defined plane counts and depths:

* ``diagonal`` — two ``(m, b, b)`` planes (leading, counter);
* ``rowcol`` — two ``(m, b, b)`` planes (row, column parities);
* ``hsiao`` / ``hamming_ext`` — one ``(r, b, b)`` plane of algebraic
  check bits (``r ~ log2(m^2)``, far below ``2m``).

Every code is linear, block-local, and decodes by column matching: a
block's syndrome is the XOR of its faulty cells' columns, the decoder
corrects exactly the syndromes equal to one column (so every single-cell
error of the codeword is restored), and it flags every other nonzero
syndrome uncorrectable. The fault-centric campaign engine
(:mod:`repro.faults.batch`) rests on that premise, and
:func:`build_code` checks it (linearity, and that every single-cell
error is restored). It is not double-error detection: ``hsiao`` and
``hamming_ext`` detect every double error, but ``diagonal`` and
``rowcol`` do not — a data error plus the check bit of its own diagonal
(or row) leaves a syndrome equal to one check-bit column, which decodes
as a single check-bit error, and the trial ends silent. Campaign
outcomes are comparable one-to-one; the differences the selector
(:mod:`repro.analysis.selector`) trades off are storage overhead, MAGIC
update cost, and kernel throughput.

Matrix codes as difference equations
====================================

The algebraic codes are defined by an ``r x k`` binary generator matrix
``G`` (``k = m^2``): stored check bit ``j`` is the parity of the data
cells whose column pattern has bit ``j`` set. After a write, the
*syndrome difference* ``diff = fresh_checks XOR stored_checks`` is the
zero vector for a clean block, equals ``G``'s column for a single data
error, and equals the unit vector ``e_j`` for a single check-bit error.
Because every data column has odd weight >= 3 and every check column
(unit vector) weight 1, any double error produces an even-weight
``diff`` matching no column — the classic Hsiao odd-weight-column
argument, which makes ``diff``-matching an exact SEC-DED decode. (For
extended Hamming the standard parity-check matrix ``H`` has a
non-trivial check submatrix ``Hc``; ``diff = Hc^-1 . syndrome`` is a
bijection, so matching ``diff`` against ``Hc^-1 . H``'s columns is
equivalent to syndrome decoding — and those transformed columns are
again odd-weight, see :func:`_extended_hamming_patterns`.)

Update-cost model
=================

Per-code MAGIC maintenance costs use the *sequential XOR3 gate issue*
metric of :func:`repro.core.altcodes.update_cost` (see the corrected
definition there): one gate issue covers all check bits that each
absorb a single delta, and a parity absorbing ``w`` deltas needs a
``ceil(w/2)``-gate serialized fold. For the matrix codes no geometric
alignment exists between a MAGIC-written vector and the check
equations, so each check bit's fold serializes after the others —
the per-block cost is the *sum* of ``ceil(w_j/2)`` over affected check
bits ``j``, maximized over the written block-local vector. That lands
the gradient the paper argues: ``diagonal (1) << rowcol (ceil(m/2)) <<
hsiao/hamming_ext``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.altcodes import RowColParityCode, UpdateCost, update_cost
from repro.core.blocks import BlockGrid
from repro.core.checker import (
    BatchSweepReport,
    PackedSweepReport,
    check_all_batched,
    check_all_batched_packed,
)
from repro.core.code import (
    BATCH_CTR_CHECK_ERROR,
    BATCH_DATA_ERROR,
    BATCH_LEAD_CHECK_ERROR,
    BATCH_NO_ERROR,
    BATCH_UNCORRECTABLE,
    CheckBitError,
    DataError,
    DecodeOutcome,
    DiagonalParityCode,
    NoError,
    PackedBatchDecode,
    Uncorrectable,
)
from repro.utils.bitpack import decode_status_masks, or_reduce_words
from repro.utils.kernels import KernelsLike, get_kernels

__all__ = [
    "BlockCode",
    "DiagonalBlockCode",
    "RowColBlockCode",
    "MatrixBlockCode",
    "hsiao_patterns",
    "extended_hamming_patterns",
    "register_code",
    "build_code",
    "check_linear",
    "check_single_errors",
    "code_names",
    "CODE_KINDS",
]


class BlockCode:
    """Interface every registered per-block code implements.

    The campaign engine touches only the plane geometry and the scalar
    per-block ``encode_block`` (its syndrome columns);
    :func:`build_code` checks ``decode_block`` against the engine's
    premise, and the scalar reference replays both. The batched encode
    and check-and-correct kernels (u8 and u64-packed, with a sweep
    report carrying per-trial ``uncorrectable_any``) are the
    differential suites' reference. Storage and update-cost accessors
    feed the selector and the area model.
    """

    #: Registered name (set by subclasses).
    name: str = ""

    def __init__(self, grid: BlockGrid):
        self.grid = grid

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #

    @property
    def plane_names(self) -> Tuple[str, ...]:
        """Code-ordered check-plane labels (scalar flip-event names)."""
        raise NotImplementedError

    @property
    def plane_depths(self) -> Tuple[int, ...]:
        """Per-plane check bits per block (``rk`` of each plane)."""
        raise NotImplementedError

    @property
    def plane_shapes(self) -> Tuple[Tuple[int, int, int], ...]:
        """Per-trial plane shapes ``(rk, b, b)``, in code order."""
        b = self.grid.blocks_per_side
        return tuple((rk, b, b) for rk in self.plane_depths)

    @property
    def data_bits_per_block(self) -> int:
        return self.grid.cells_per_block

    @property
    def check_bits_per_block(self) -> int:
        return sum(self.plane_depths)

    @property
    def overhead_fraction(self) -> float:
        """Storage overhead: check bits per protected data bit."""
        return self.check_bits_per_block / self.data_bits_per_block

    def check_overhead_cells(self) -> int:
        """Total check memristors across the grid (area accounting)."""
        return self.check_bits_per_block * self.grid.block_count

    # ------------------------------------------------------------------ #
    # Scalar path (differential reference)
    # ------------------------------------------------------------------ #

    def encode_block(self, block: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Per-plane check-bit vectors of one ``m x m`` block."""
        raise NotImplementedError

    def decode_block(self, block: np.ndarray,
                     *plane_bits: np.ndarray) -> DecodeOutcome:
        """Syndrome + classify one block against its stored check bits."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Batched path
    # ------------------------------------------------------------------ #

    def encode_batch(self, data) -> Tuple:
        """Check planes of a ``(B, n, n)`` uint8 stack, in code order."""
        raise NotImplementedError

    def encode_batch_packed(self, words) -> Tuple:
        """Check planes of a packed ``(W, n, n)`` uint64 word stack."""
        raise NotImplementedError

    def check_batched(self, data, planes: Sequence,
                      correct: bool = True) -> BatchSweepReport:
        """Check-and-correct every block of a u8 stack, in place."""
        raise NotImplementedError

    def check_batched_packed(self, words, planes: Sequence, batch: int,
                             correct: bool = True,
                             kernels: KernelsLike = None
                             ) -> PackedSweepReport:
        """Check-and-correct every block of a packed word stack."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Cost models
    # ------------------------------------------------------------------ #

    def update_cost(self) -> UpdateCost:
        """Per-block MAGIC check-update cost (see module docstring)."""
        raise NotImplementedError


class DiagonalBlockCode(BlockCode):
    """The paper's diagonal parity code on the registry interface.

    A thin adapter over :class:`repro.core.code.DiagonalParityCode` and
    the batched checkers of :mod:`repro.core.checker` — every kernel is
    the existing one, so registry-driven campaigns with
    ``code="diagonal"`` are bit-identical to the historical path.
    """

    name = "diagonal"

    def __init__(self, grid: BlockGrid):
        super().__init__(grid)
        self.inner = DiagonalParityCode(grid)

    @property
    def plane_names(self) -> Tuple[str, ...]:
        return ("leading", "counter")

    @property
    def plane_depths(self) -> Tuple[int, ...]:
        return (self.grid.m, self.grid.m)

    def encode_block(self, block: np.ndarray) -> Tuple[np.ndarray, ...]:
        return self.inner.encode_block(block)

    def decode_block(self, block: np.ndarray,
                     *plane_bits: np.ndarray) -> DecodeOutcome:
        lead_bits, ctr_bits = plane_bits
        return self.inner.decode_block(block, lead_bits, ctr_bits)

    def encode_batch(self, data) -> Tuple:
        return self.inner.encode_batch(data)

    def encode_batch_packed(self, words) -> Tuple:
        return self.inner.encode_batch_packed(words)

    def check_batched(self, data, planes: Sequence,
                      correct: bool = True) -> BatchSweepReport:
        lead, ctr = planes
        return check_all_batched(self.grid, self.inner, data, lead, ctr,
                                 correct=correct)

    def check_batched_packed(self, words, planes: Sequence, batch: int,
                             correct: bool = True,
                             kernels: KernelsLike = None
                             ) -> PackedSweepReport:
        lead, ctr = planes
        return check_all_batched_packed(self.grid, self.inner, words, lead,
                                        ctr, batch, correct=correct,
                                        kernels=kernels)

    def update_cost(self) -> UpdateCost:
        return update_cost("diagonal", self.grid.n, self.grid.m)


class RowColBlockCode(BlockCode):
    """Row+column product parity lifted onto the batched path.

    Scalar semantics are exactly :class:`repro.core.altcodes
    .RowColParityCode`; the batched kernels mirror the diagonal code's
    (syndrome one-counts classify, argmax locates) with the trivial
    position solve — row syndrome index IS the row, column index IS the
    column.
    """

    name = "rowcol"

    def __init__(self, grid: BlockGrid):
        super().__init__(grid)
        self.inner = RowColParityCode(grid)

    @property
    def plane_names(self) -> Tuple[str, ...]:
        return ("row", "col")

    @property
    def plane_depths(self) -> Tuple[int, ...]:
        return (self.grid.m, self.grid.m)

    def encode_block(self, block: np.ndarray) -> Tuple[np.ndarray, ...]:
        return self.inner.encode_block(block)

    def decode_block(self, block: np.ndarray,
                     *plane_bits: np.ndarray) -> DecodeOutcome:
        row_bits, col_bits = plane_bits
        return self.inner.decode_block(block, row_bits, col_bits)

    def _encode_impl(self, data, dtype) -> Tuple:
        n, m = self.grid.n, self.grid.m
        data = np.asarray(data, dtype=dtype)
        if data.ndim != 3 or data.shape[1:] != (n, n):
            raise ValueError(f"expected (B, {n}, {n}) data, got {data.shape}")
        b = self.grid.blocks_per_side
        batch = data.shape[0]
        tiles = data.reshape(batch, b, m, b, m)
        rows = np.empty((batch, m, b, b), dtype=dtype)
        cols = np.empty((batch, m, b, b), dtype=dtype)
        for d in range(m):
            # Row parity d of every block: reduce over that row's m cells.
            rows[:, d] = np.bitwise_xor.reduce(tiles[:, :, d, :, :], axis=3)
            cols[:, d] = np.bitwise_xor.reduce(tiles[:, :, :, :, d], axis=2)
        return rows, cols

    def encode_batch(self, data) -> Tuple:
        return self._encode_impl(data, np.uint8)

    def encode_batch_packed(self, words) -> Tuple:
        return self._encode_impl(words, np.uint64)

    def check_batched(self, data, planes: Sequence,
                      correct: bool = True) -> BatchSweepReport:
        m = self.grid.m
        row_bits, col_bits = planes
        fresh_r, fresh_c = self.encode_batch(data)
        syn_r = fresh_r ^ np.asarray(row_bits, dtype=np.uint8)
        syn_c = fresh_c ^ np.asarray(col_bits, dtype=np.uint8)
        r_ones = syn_r.sum(axis=1, dtype=np.int64)
        c_ones = syn_c.sum(axis=1, dtype=np.int64)
        status = np.full(r_ones.shape, BATCH_UNCORRECTABLE, dtype=np.uint8)
        status[(r_ones == 0) & (c_ones == 0)] = BATCH_NO_ERROR
        status[(r_ones == 1) & (c_ones == 1)] = BATCH_DATA_ERROR
        status[(r_ones == 1) & (c_ones == 0)] = BATCH_LEAD_CHECK_ERROR
        status[(r_ones == 0) & (c_ones == 1)] = BATCH_CTR_CHECK_ERROR
        row_idx = np.argmax(syn_r, axis=1)
        col_idx = np.argmax(syn_c, axis=1)
        if correct:
            t, br, bc = np.nonzero(status == BATCH_DATA_ERROR)
            if t.size:
                data[t, br * m + row_idx[t, br, bc],
                     bc * m + col_idx[t, br, bc]] ^= 1
            t, br, bc = np.nonzero(status == BATCH_LEAD_CHECK_ERROR)
            if t.size:
                row_bits[t, row_idx[t, br, bc], br, bc] ^= 1
            t, br, bc = np.nonzero(status == BATCH_CTR_CHECK_ERROR)
            if t.size:
                col_bits[t, col_idx[t, br, bc], br, bc] ^= 1
        return BatchSweepReport(status=status, corrected=correct)

    def check_batched_packed(self, words, planes: Sequence, batch: int,
                             correct: bool = True,
                             kernels: KernelsLike = None
                             ) -> PackedSweepReport:
        m = self.grid.m
        row_bits, col_bits = planes
        fresh_r, fresh_c = self.encode_batch_packed(words)
        syn_r = fresh_r ^ np.asarray(row_bits, dtype=np.uint64)
        syn_c = fresh_c ^ np.asarray(col_bits, dtype=np.uint64)
        no_error, data_error, row_check, col_check, uncorrectable = \
            decode_status_masks(syn_r, syn_c, kernels=kernels)
        decoded = PackedBatchDecode(
            m=m,
            lead_syndrome=syn_r,
            ctr_syndrome=syn_c,
            no_error=no_error,
            data_error=data_error,
            lead_check=row_check,
            ctr_check=col_check,
            uncorrectable=uncorrectable,
        )
        if correct:
            for dr in range(m):
                for dc in range(m):
                    mask = decoded.data_error & syn_r[:, dr] & syn_c[:, dc]
                    words[:, dr::m, dc::m] ^= mask
            for d in range(m):
                row_bits[:, d] ^= decoded.lead_check & syn_r[:, d]
                col_bits[:, d] ^= decoded.ctr_check & syn_c[:, d]
        return PackedSweepReport(batch=batch, decode=decoded,
                                 corrected=correct)

    def update_cost(self) -> UpdateCost:
        return update_cost("rowcol", self.grid.n, self.grid.m)


def _popcount(v: int) -> int:
    return bin(v).count("1")


def hsiao_patterns(k: int) -> Tuple[int, np.ndarray]:
    """Hsiao SEC-DED column patterns for ``k`` data bits.

    ``r`` is the smallest check-bit count with enough odd-weight->=3
    ``r``-bit values (``2^(r-1) - r >= k``); data columns take the
    minimum-weight such values in ``(weight, value)`` order — Hsiao's
    minimum-total-weight choice, which also minimizes encoder fan-in.
    Returns ``(r, patterns)`` with ``patterns`` the ``k`` column values.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    r = 3
    while (1 << (r - 1)) - r < k:
        r += 1
    cands = sorted((v for v in range(1 << r)
                    if _popcount(v) % 2 == 1 and _popcount(v) >= 3),
                   key=lambda v: (_popcount(v), v))
    return r, np.asarray(cands[:k], dtype=np.int64)


def extended_hamming_patterns(k: int) -> Tuple[int, np.ndarray]:
    """Extended Hamming (SEC-DED) column patterns for ``k`` data bits.

    The textbook construction: ``p`` Hamming check bits with
    ``2^p - p - 1 >= k`` plus one overall parity bit (``r = p + 1``).
    Data position columns are the non-power-of-two values ``v >= 3`` in
    increasing order with the overall-parity row set. Returned patterns
    are pre-transformed into *syndrome-difference* space (``Hc^-1 . H``
    columns, see the module docstring): bits ``0..p-1`` carry ``v`` and
    bit ``p`` complements ``v``'s parity, so every pattern has odd
    weight >= 3 — the same decoding invariant as :func:`hsiao_patterns`,
    but with the heavier average column weight (~``p/2``) that makes the
    code's MAGIC update cost worse than Hsiao's.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    p = 2
    while (1 << p) - p - 1 < k:
        p += 1
    r = p + 1
    pats: List[int] = []
    for v in range(3, 1 << p):
        if v & (v - 1) == 0:
            continue
        pats.append(v | ((1 ^ (_popcount(v) & 1)) << p))
        if len(pats) == k:
            break
    return r, np.asarray(pats, dtype=np.int64)


class MatrixBlockCode(BlockCode):
    """Generic algebraic SEC-DED block code from odd-weight columns.

    ``patterns`` are the ``k = m^2`` data-column values (row-major block
    positions) of the syndrome-difference matrix; stored check bit ``j``
    is the parity of the data cells whose pattern has bit ``j`` set, and
    a check-bit error matches the unit pattern ``1 << j``. The odd-
    weight->=3 invariant (validated here) makes ``diff``-matching an
    exact SEC-DED decode — see the module docstring.

    The u8 decode classifies through a ``2^r`` lookup table on the
    syndrome integer; the packed decode tests each pattern with an AND
    of (possibly complemented) syndrome planes. Every pattern has at
    least one *non-complemented* term, so packed match masks keep zero
    tail bits and corrections never write padding lanes.
    """

    def __init__(self, grid: BlockGrid, name: str, r: int,
                 patterns: np.ndarray):
        super().__init__(grid)
        self.name = name
        k = grid.cells_per_block
        patterns = np.asarray(patterns, dtype=np.int64)
        if patterns.shape != (k,):
            raise ValueError(f"need {k} data patterns, got {patterns.shape}")
        ints = [int(v) for v in patterns]
        if len(set(ints)) != k:
            raise ValueError(f"{name}: data patterns must be distinct")
        for v in ints:
            if not 0 < v < (1 << r):
                raise ValueError(f"{name}: pattern {v} outside {r} bits")
            if _popcount(v) % 2 == 0 or _popcount(v) < 3:
                raise ValueError(
                    f"{name}: pattern {v:#x} violates the odd-weight->=3 "
                    f"SEC-DED invariant")
        self.r = r
        self.patterns = patterns
        # Encoder gather lists: flat data positions feeding check bit j.
        self._positions_by_check = tuple(
            np.flatnonzero((patterns >> j) & 1).astype(np.int64)
            for j in range(r))
        # Decode LUT on the syndrome-difference integer: status plus the
        # located data position / check index (dual-use, keyed by status).
        size = 1 << r
        lut_status = np.full(size, BATCH_UNCORRECTABLE, dtype=np.uint8)
        lut_pos = np.zeros(size, dtype=np.int64)
        lut_status[0] = BATCH_NO_ERROR
        for j in range(r):
            lut_status[1 << j] = BATCH_LEAD_CHECK_ERROR
            lut_pos[1 << j] = j
        for pos, pat in enumerate(ints):
            lut_status[pat] = BATCH_DATA_ERROR
            lut_pos[pat] = pos
        self._lut_status = lut_status
        self._lut_pos = lut_pos

    @property
    def plane_names(self) -> Tuple[str, ...]:
        return ("check",)

    @property
    def plane_depths(self) -> Tuple[int, ...]:
        return (self.r,)

    # ------------------------------------------------------------------ #
    # Scalar path
    # ------------------------------------------------------------------ #

    def encode_block(self, block: np.ndarray) -> Tuple[np.ndarray, ...]:
        m = self.grid.m
        block = np.asarray(block, dtype=np.uint8)
        if block.shape != (m, m):
            raise ValueError(f"expected {m}x{m} block, got {block.shape}")
        flat = block.reshape(-1)
        vec = np.empty(self.r, dtype=np.uint8)
        for j, ps in enumerate(self._positions_by_check):
            vec[j] = np.bitwise_xor.reduce(flat[ps]) if ps.size else 0
        return (vec,)

    def decode_block(self, block: np.ndarray,
                     *plane_bits: np.ndarray) -> DecodeOutcome:
        (stored,) = plane_bits
        (fresh,) = self.encode_block(block)
        diff = fresh ^ np.asarray(stored, dtype=np.uint8)
        synint = int(sum(int(diff[j]) << j for j in range(self.r)))
        status = int(self._lut_status[synint])
        if status == BATCH_NO_ERROR:
            return NoError()
        if status == BATCH_DATA_ERROR:
            pos = int(self._lut_pos[synint])
            return DataError(pos // self.grid.m, pos % self.grid.m)
        if status == BATCH_LEAD_CHECK_ERROR:
            return CheckBitError("check", int(self._lut_pos[synint]))
        return Uncorrectable(tuple(int(x) for x in diff), ())

    # ------------------------------------------------------------------ #
    # Batched path
    # ------------------------------------------------------------------ #

    def _encode_impl(self, data, dtype) -> Tuple:
        n, m = self.grid.n, self.grid.m
        data = np.asarray(data, dtype=dtype)
        if data.ndim != 3 or data.shape[1:] != (n, n):
            raise ValueError(f"expected (B, {n}, {n}) data, got {data.shape}")
        b = self.grid.blocks_per_side
        batch = data.shape[0]
        tiles = data.reshape(batch, b, m, b, m)
        plane = np.zeros((batch, self.r, b, b), dtype=dtype)
        for j, ps in enumerate(self._positions_by_check):
            if not ps.size:
                continue
            rs, cs = ps // m, ps % m
            # tiles[:, :, rs, :, cs] gathers check bit j's data cells from
            # every block of every trial: (w_j, B, b, b), advanced axis
            # first — the same gather the diagonal encoder uses.
            plane[:, j] = np.bitwise_xor.reduce(tiles[:, :, rs, :, cs], axis=0)
        return (plane,)

    def encode_batch(self, data) -> Tuple:
        return self._encode_impl(data, np.uint8)

    def encode_batch_packed(self, words) -> Tuple:
        return self._encode_impl(words, np.uint64)

    def check_batched(self, data, planes: Sequence,
                      correct: bool = True) -> BatchSweepReport:
        m = self.grid.m
        (stored,) = planes
        (fresh,) = self.encode_batch(data)
        diff = fresh ^ np.asarray(stored, dtype=np.uint8)
        synint = np.zeros((diff.shape[0],) + tuple(diff.shape[2:]),
                          dtype=np.int64)
        for j in range(self.r):
            synint = synint + diff[:, j].astype(np.int64) * (1 << j)
        status = self._lut_status[synint]
        if correct:
            t, br, bc = np.nonzero(status == BATCH_DATA_ERROR)
            if t.size:
                pos = self._lut_pos[synint[t, br, bc]]
                data[t, br * m + pos // m, bc * m + pos % m] ^= 1
            t, br, bc = np.nonzero(status == BATCH_LEAD_CHECK_ERROR)
            if t.size:
                stored[t, self._lut_pos[synint[t, br, bc]], br, bc] ^= 1
        return BatchSweepReport(status=status, corrected=correct)

    def check_batched_packed(self, words, planes: Sequence, batch: int,
                             correct: bool = True,
                             kernels: KernelsLike = None
                             ) -> PackedSweepReport:
        m = self.grid.m
        (stored,) = planes
        (fresh,) = self.encode_batch_packed(words)
        diff = fresh ^ np.asarray(stored, dtype=np.uint64)
        nonzero = or_reduce_words(diff, axis=1)
        # A pattern matches where the AND of syndrome planes
        # (complemented where its bit is clear) is set. Every pattern
        # has a non-complemented term, so tail bits stay zero.
        kern = get_kernels(kernels)

        data_error = np.zeros_like(nonzero)
        for pos, pat in enumerate(int(v) for v in self.patterns):
            mask = kern.match_pattern(diff, pat)
            data_error = data_error | mask
            if correct:
                words[:, (pos // m)::m, (pos % m)::m] ^= mask
        check_error = np.zeros_like(nonzero)
        for j in range(self.r):
            mask = kern.match_pattern(diff, 1 << j)
            check_error = check_error | mask
            if correct:
                stored[:, j] ^= mask
        decoded = PackedBatchDecode(
            m=m,
            lead_syndrome=diff,
            ctr_syndrome=diff[:, :0],
            no_error=~nonzero,
            data_error=data_error,
            lead_check=check_error,
            ctr_check=np.zeros_like(nonzero),
            uncorrectable=nonzero & ~(data_error | check_error),
        )
        return PackedSweepReport(batch=batch, decode=decoded,
                                 corrected=correct)

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #

    def update_cost(self) -> UpdateCost:
        """MAGIC update cost from the generator matrix itself.

        A row-parallel op writes one block-local *column* (``m`` cells),
        a column-parallel op one block-local *row*. Check bit ``j``
        absorbs ``w_j`` deltas with a ``ceil(w_j/2)``-gate serialized
        fold (:func:`repro.core.altcodes.update_cost` definition); with
        no geometric alignment between written vectors and check
        equations the folds serialize, so the block cost is the sum over
        affected check bits, maximized over written vectors.
        """
        m = self.grid.m

        def issues(positions: np.ndarray) -> int:
            total = 0
            for ps in self._positions_by_check:
                w = int(np.isin(ps, positions).sum())
                if w:
                    total += math.ceil(w / 2)
            return total

        row_cost = max(
            issues(np.arange(m, dtype=np.int64) * m + c) for c in range(m))
        col_cost = max(
            issues(r * m + np.arange(m, dtype=np.int64)) for r in range(m))
        return UpdateCost(self.name, row_cost, col_cost)


def _build_hsiao(grid: BlockGrid) -> MatrixBlockCode:
    r, pats = hsiao_patterns(grid.cells_per_block)
    return MatrixBlockCode(grid, "hsiao", r, pats)


def _build_hamming_ext(grid: BlockGrid) -> MatrixBlockCode:
    r, pats = extended_hamming_patterns(grid.cells_per_block)
    return MatrixBlockCode(grid, "hamming_ext", r, pats)


#: Registered code kinds: name -> builder(grid). Mirrors the injector
#: registry (:data:`repro.faults.serialize.INJECTOR_KINDS`) so campaign
#: specs and shard tasks can carry a code by name across hosts.
CODE_KINDS: Dict[str, Callable[[BlockGrid], BlockCode]] = {
    "diagonal": DiagonalBlockCode,
    "rowcol": RowColBlockCode,
    "hsiao": _build_hsiao,
    "hamming_ext": _build_hamming_ext,
}


def register_code(name: str, builder: Callable[[BlockGrid], BlockCode],
                  overwrite: bool = False) -> None:
    """Register a code builder under ``name`` (extension hook)."""
    if not overwrite and name in CODE_KINDS:
        raise ValueError(f"code kind {name!r} already registered")
    CODE_KINDS[name] = builder


def code_names() -> Tuple[str, ...]:
    """Sorted names of every registered code."""
    return tuple(sorted(CODE_KINDS))


#: ``(name, builder, n, m)`` combinations that passed the linearity and
#: single-error checks.
_PREMISE_CHECKED: set = set()

#: Seeded random block pairs the linearity check encodes.
_LINEARITY_PAIRS = 8


def check_linear(code: BlockCode, m: int) -> None:
    """Refuse ``code`` unless its ``m x m`` block encoder is linear.

    The batched campaign engine simulates only the error pattern on
    all-zero data (:mod:`repro.faults.batch`), which is exact only for
    codes linear over GF(2). Checks ``encode_block(0) == 0`` and, on a
    few seeded random block pairs, ``encode_block(a ^ b) ==
    encode_block(a) ^ encode_block(b)``; raises ``ValueError`` on the
    first failure.
    """

    def encode(block: np.ndarray) -> List[np.ndarray]:
        return [np.asarray(bits, dtype=np.uint8)
                for bits in code.encode_block(block)]

    zero = np.zeros((m, m), dtype=np.uint8)
    if any(bits.any() for bits in encode(zero)):
        raise ValueError(f"code {code.name!r} is not linear: the all-zero "
                         f"block encodes to nonzero check bits")
    rng = np.random.default_rng(0)
    for _ in range(_LINEARITY_PAIRS):
        a, b = rng.integers(0, 2, size=(2, m, m), dtype=np.uint8)
        both = encode(a ^ b)
        split = [x ^ y for x, y in zip(encode(a), encode(b))]
        if any(not np.array_equal(x, y) for x, y in zip(both, split)):
            raise ValueError(f"code {code.name!r} is not linear: "
                             f"encode(a ^ b) != encode(a) ^ encode(b)")


def check_single_errors(code: BlockCode, m: int) -> None:
    """Refuse ``code`` unless it restores every single-cell error.

    The campaign engine counts a block with one faulty cell as restored
    without decoding it (:mod:`repro.faults.batch`). On one seeded
    random ``m x m`` block, flips each data cell and each check bit in
    turn, decodes with ``decode_block``, applies the correction and
    requires the block and its check bits back; raises ``ValueError``
    on the first failure.
    """
    rng = np.random.default_rng(0)
    block = rng.integers(0, 2, size=(m, m), dtype=np.uint8)
    planes = [np.asarray(bits, dtype=np.uint8)
              for bits in code.encode_block(block)]

    def restores(data: np.ndarray, stored: List[np.ndarray]) -> bool:
        outcome = code.decode_block(data, *stored)
        if isinstance(outcome, DataError):
            data[outcome.row, outcome.col] ^= 1
        elif isinstance(outcome, CheckBitError):
            stored[code.plane_names.index(outcome.plane)][outcome.index] ^= 1
        return np.array_equal(data, block) and all(
            np.array_equal(x, y) for x, y in zip(stored, planes))

    for r in range(m):
        for c in range(m):
            data = block.copy()
            data[r, c] ^= 1
            if not restores(data, [p.copy() for p in planes]):
                raise ValueError(
                    f"code {code.name!r} does not restore a single data "
                    f"error at block cell ({r}, {c})")
    for p, bits in enumerate(planes):
        for j in range(bits.size):
            stored = [x.copy() for x in planes]
            stored[p][j] ^= 1
            if not restores(block.copy(), stored):
                raise ValueError(
                    f"code {code.name!r} does not restore a single error "
                    f"of check bit {j} in plane {code.plane_names[p]!r}")


def build_code(name: str, grid: BlockGrid) -> BlockCode:
    """Instantiate a registered code for ``grid``.

    The first build of each (code, geometry) runs :func:`check_linear`
    on the code's block encoder and :func:`check_single_errors` on its
    block decoder; a builder result without an encoder cannot run a
    campaign and is returned unchecked.
    """
    try:
        builder = CODE_KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown code {name!r}; registered kinds: "
            f"{', '.join(code_names())}") from None
    code = builder(grid)
    checked = (name, builder, grid.n, grid.m)
    if hasattr(code, "encode_block") and checked not in _PREMISE_CHECKED:
        check_linear(code, grid.m)
        check_single_errors(code, grid.m)
        _PREMISE_CHECKED.add(checked)
    return code
