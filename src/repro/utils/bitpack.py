"""Bit-packed (bit-sliced) ``uint64`` kernel layer.

The paper's premise is bulk-bitwise SIMD over crossbar rows; the batched
simulation engine mirrors that on the host, but its ``(B, n, n)`` uint8
tensors still spend one full byte per simulated bit. This module packs
the **batch dimension 64-wide** instead: a stack of ``B`` trials becomes
``ceil(B / 64)`` ``uint64`` *word* tensors of the same trailing shape,
so one XOR/AND/OR machine word processes 64 trials at once and the
memory traffic of every campaign kernel drops 8x versus uint8.

Layout contract
===============

* Trial ``i`` lives in word ``i // 64`` at bit ``i % 64``, little-endian
  within the word (bit ``j`` of a word is ``(word >> j) & 1``) — the
  :func:`repro.utils.bitops.pack_words_axis0` convention, which this
  module reuses as its packing primitive.
* **Tail padding:** when ``B % 64 != 0`` the trailing bits of the last
  word are zero in every *state* tensor (data words, check planes).
  Kernels may leave garbage in those bits of *derived* masks (anything
  computed with a complement, e.g. the ``no_error`` plane of the packed
  decoder); every consumer therefore trims to the true batch size when
  unpacking — :func:`unpack_batch` takes ``batch`` explicitly.

The host-side hot loops (pack/unpack, the saturating counters, the
fused decoder sweep, popcount) dispatch through the kernel-tier
registry (:mod:`repro.utils.kernels`), whose optional compiled tier is
bit-identical to the numpy one, so the choice is invisible outside of
throughput.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.utils.bitops import (
    WORD_BITS,
    pack_words_axis0,
    unpack_words_axis0,
    words_for,
)
from repro.utils.kernels import KernelsLike, get_kernels

__all__ = [
    "WORD_BITS",
    "words_for",
    "pack_batch",
    "unpack_batch",
    "batch_tail_mask",
    "saturating_count2",
    "decode_status_masks",
    "or_reduce_words",
    "and_reduce_words",
    "popcount_words",
]


def pack_batch(bits: np.ndarray, kernels: KernelsLike = None) -> np.ndarray:
    """Pack a ``(B, ...)`` 0/1 array into ``(W, ...)`` uint64 words."""
    return pack_words_axis0(bits, kernels=kernels)


def unpack_batch(words, batch: int,
                 kernels: KernelsLike = None) -> np.ndarray:
    """Unpack ``(W, ...)`` words to a ``(batch, ...)`` uint8 array.

    Trims tail-padding bits (and any kernel garbage in them) beyond
    ``batch``.
    """
    return unpack_words_axis0(words, batch, kernels=kernels)


def batch_tail_mask(batch: int) -> np.ndarray:
    """``(W,)`` uint64 mask with exactly the ``batch`` valid bits set.

    AND a derived mask with this (broadcast over trailing axes) to clear
    tail garbage without unpacking.
    """
    nwords = words_for(batch)
    mask = np.full(nwords, ~np.uint64(0), dtype=np.uint64)
    tail = batch % WORD_BITS
    if tail and nwords:
        mask[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
    return mask


def saturating_count2(planes, axis: int,
                      kernels: KernelsLike = None) -> Tuple:
    """Per-bit count of set bits along ``axis``, saturated at two.

    Returns ``(ones, twos)`` word tensors with ``axis`` removed:
    ``ones`` holds bit 0 of each lane's count and ``twos`` is a sticky
    "count >= 2" flag — the carry-save sideways counter. A lane's count
    is 0 iff ``~ones & ~twos``, exactly 1 iff ``ones & ~twos``, and 2+
    iff ``twos``. This is the bit-parallel core of the packed syndrome
    decoder (the uint8 path's ``sum(axis=1)`` over diagonals).
    """
    return get_kernels(kernels).saturating_count2(planes, axis)


def decode_status_masks(lead_syndrome, ctr_syndrome,
                        kernels: KernelsLike = None) -> Tuple:
    """Fused packed-decoder classification of two syndrome plane stacks.

    ``lead_syndrome``/``ctr_syndrome`` are ``(W, depth, ...)`` word
    tensors (plane axis 1); returns the five status masks ``(no_error,
    data_error, lead_check, ctr_check, uncorrectable)`` of
    :class:`repro.core.code.PackedBatchDecode`:

    * count 0 in both plane stacks  -> ``no_error``
    * exactly 1 in both             -> ``data_error``
    * exactly 1 lead / 0 counter    -> ``lead_check``
    * 0 lead / exactly 1 counter    -> ``ctr_check``
    * 2+ anywhere                   -> ``uncorrectable``

    Both tiers evaluate the dual carry-save count of
    :func:`saturating_count2` and the combo expressions, the compiled
    one as one C pass. Complement-derived masks may carry tail
    garbage — the usual rule, consumers trim to the true batch.
    """
    return get_kernels(kernels).decode_sweep(lead_syndrome, ctr_syndrome)


def or_reduce_words(arr, axis: Union[int, Tuple[int, ...]]):
    """Bitwise-OR reduction of word tensors along ``axis`` (int or tuple).

    The packed analogue of ``mask.any(axis)``: a result bit is set iff
    that trial's bit is set anywhere along the reduced axes.
    """
    return np.bitwise_or.reduce(arr, axis=axis)


def and_reduce_words(arr, axis: Union[int, Tuple[int, ...]]):
    """Bitwise-AND reduction of word tensors along ``axis`` (int or tuple).

    The packed analogue of ``mask.all(axis)``.
    """
    return np.bitwise_and.reduce(arr, axis=axis)


def popcount_words(words, kernels: KernelsLike = None):
    """Per-word set-bit counts (``int64``), via the kernel tier.

    Summing popcounts of a state tensor's words gives the total set bits
    across all trials in one pass — 64 trials per word, no unpacking.
    """
    return get_kernels(kernels).popcount_words(words)
