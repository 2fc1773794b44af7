"""Shared helpers: bits, validation, RNG, kernel tiers."""

from repro.utils.bitops import (
    WORD_BITS,
    bits_to_int,
    bools_to_bits,
    int_to_bits,
    pack_bits,
    pack_words,
    pack_words_axis0,
    parity,
    popcount,
    unpack_bits,
    unpack_words,
    unpack_words_axis0,
    words_for,
)
from repro.utils.bitpack import (
    and_reduce_words,
    batch_tail_mask,
    decode_status_masks,
    or_reduce_words,
    pack_batch,
    popcount_words,
    saturating_count2,
    unpack_batch,
)
from repro.utils.canonical import canonical_json, content_hash
from repro.utils.kernels import (
    KernelTier,
    KernelUnavailableError,
    available_kernels,
    get_kernels,
    native_available,
    register_kernels,
)
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.stats import wilson_halfwidth, wilson_interval
from repro.utils.validation import (
    check_index,
    check_odd,
    check_positive,
    check_power_compatible,
)

__all__ = [
    "wilson_interval",
    "wilson_halfwidth",
    "WORD_BITS",
    "bits_to_int",
    "bools_to_bits",
    "int_to_bits",
    "pack_bits",
    "pack_words",
    "pack_words_axis0",
    "parity",
    "popcount",
    "unpack_bits",
    "unpack_words",
    "unpack_words_axis0",
    "words_for",
    "and_reduce_words",
    "batch_tail_mask",
    "decode_status_masks",
    "or_reduce_words",
    "pack_batch",
    "popcount_words",
    "saturating_count2",
    "unpack_batch",
    "KernelTier",
    "KernelUnavailableError",
    "available_kernels",
    "get_kernels",
    "native_available",
    "register_kernels",
    "canonical_json",
    "content_hash",
    "make_rng",
    "spawn_rngs",
    "check_index",
    "check_odd",
    "check_positive",
    "check_power_compatible",
]
