"""Kernel-tier registry: pluggable host-side word-level kernels.

This module abstracts *how the host-side word-level hot loops run*.
The ``uint64`` bit-slice layout (:mod:`repro.utils.bitpack`) of the
per-code reference kernels spends most of its time in a handful of
loops — the axis-0 bit transpose (``pack_words_axis0``), the
saturating carry-save counter of the packed decoder, the fused decode
sweep, per-word popcounts, and the matrix codes' syndrome-difference
pattern match. Each has a pure-numpy implementation and, when the
optional C extension :mod:`repro._native._kernels` is built, a compiled
one that is **bit-identical** (same expressions, same order, same
tail-garbage behaviour).

Tier-selection contract:

1. An explicit handle wins: pass a :class:`KernelTier` instance (used
   verbatim) or a registered tier name (``str``) to any ``kernels=``
   parameter in the library.
2. With ``kernels=None`` (the default everywhere), the environment
   variable ``REPRO_KERNELS`` selects a tier by name.
3. With no environment override, ``"auto"`` is used.

Registered tiers:

``"numpy"``
    The pure-numpy reference implementations — always available, and
    the tier every differential contract is stated against.
``"native"``
    The compiled C extension. Requesting it explicitly (argument or
    ``REPRO_KERNELS=native``) when the extension is not built raises
    :class:`KernelUnavailableError` with a build hint — never a silent
    fallback.
``"auto"``
    Resolves to ``"native"`` when the extension imported, else
    ``"numpy"``; :func:`get_kernels` returns the *concrete* tier, so
    a resolved name is always one of the two.

Kernel tiers take and return numpy arrays. The campaign engine
(:mod:`repro.faults.batch`) calls none of them: the tier serves the
per-code tensor kernels the differential suites compare against and
the packed logic evaluation of :mod:`repro.logic.eval`.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Tuple, Union

import numpy as np

from repro.utils import bitops

#: Environment variable naming the default kernel tier.
KERNELS_ENV_VAR = "REPRO_KERNELS"

__all__ = [
    "KERNELS_ENV_VAR",
    "KernelUnavailableError",
    "KernelTier",
    "KernelsLike",
    "register_kernels",
    "available_kernels",
    "native_available",
    "get_kernels",
]


class KernelUnavailableError(RuntimeError):
    """A registered kernel tier's implementation is not importable."""


def _native_module():
    """The compiled extension module, or ``None`` (test seam)."""
    from repro import _native
    return _native.load()


def native_available() -> bool:
    """Whether the compiled ``repro._native._kernels`` extension built."""
    return _native_module() is not None


class KernelTier:
    """Handle over one implementation set of the word-level kernels.

    All methods take and return host ``numpy`` arrays. Shapes follow the
    :mod:`repro.utils.bitops` / :mod:`repro.utils.bitpack` conventions:
    the packed axis is axis 0 for pack/unpack, an explicit ``axis`` for
    the counters, and axis 1 (the plane axis) for the decode sweep and
    pattern match.
    """

    #: Registered tier name (shard payloads carry this).
    name: str = ""
    #: Whether this tier runs the compiled extension.
    native: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelTier({self.name!r})"

    # ------------------------------------------------------------------ #
    # Pack / unpack (axis-0 bit transpose)
    # ------------------------------------------------------------------ #

    def pack_words_axis0(self, bits: np.ndarray) -> np.ndarray:
        """``(B, ...)`` 0/1 array -> ``(ceil(B/64), ...)`` uint64 words."""
        raise NotImplementedError

    def unpack_words_axis0(self, words: np.ndarray,
                           count: int) -> np.ndarray:
        """``(W, ...)`` words -> ``(count, ...)`` uint8 bits."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Word-level reductions
    # ------------------------------------------------------------------ #

    def popcount_words(self, words: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts (``int64``, same shape)."""
        raise NotImplementedError

    def saturating_count2(self, planes: np.ndarray,
                          axis: int) -> Tuple[np.ndarray, np.ndarray]:
        """Carry-save ``(ones, twos)`` along ``axis`` (see bitpack)."""
        raise NotImplementedError

    def decode_sweep(self, lead: np.ndarray, ctr: np.ndarray) -> Tuple:
        """Fused packed-decoder classification over plane axis 1.

        ``lead``/``ctr`` are ``(W, depth, ...)`` syndrome word planes;
        returns the five ``(W, ...)`` status masks ``(no_error,
        data_error, lead_check, ctr_check, uncorrectable)`` of
        :class:`repro.core.code.PackedBatchDecode`, bit-identical to the
        two-counter numpy expression (including tail garbage from the
        complements).
        """
        raise NotImplementedError

    def match_pattern(self, diff: np.ndarray, pattern: int) -> np.ndarray:
        """AND of ``(W, r, ...)`` planes, complemented where bit clear.

        The matrix codes' packed syndrome-difference column match;
        returns the ``(W, ...)`` match mask.
        """
        raise NotImplementedError


class _NumpyKernels(KernelTier):
    """Pure-numpy reference tier (always available)."""

    name = "numpy"
    native = False

    def pack_words_axis0(self, bits: np.ndarray) -> np.ndarray:
        return bitops.pack_words_axis0_numpy(bits)

    def unpack_words_axis0(self, words: np.ndarray,
                           count: int) -> np.ndarray:
        return bitops.unpack_words_axis0_numpy(words, count)

    def popcount_words(self, words: np.ndarray) -> np.ndarray:
        return np.bitwise_count(words).astype(np.int64)

    def saturating_count2(self, planes: np.ndarray,
                          axis: int) -> Tuple[np.ndarray, np.ndarray]:
        planes = np.asarray(planes)
        length = planes.shape[axis]
        head = (slice(None),) * (axis % planes.ndim)
        ones = np.zeros_like(planes[head + (0,)])
        twos = np.zeros_like(ones)
        for d in range(length):
            lane = planes[head + (d,)]
            twos = twos | (ones & lane)
            ones = ones ^ lane
        return ones, twos

    def decode_sweep(self, lead: np.ndarray, ctr: np.ndarray) -> Tuple:
        l_ones, l_twos = self.saturating_count2(lead, axis=1)
        c_ones, c_twos = self.saturating_count2(ctr, axis=1)
        l0 = ~l_ones & ~l_twos
        l1 = l_ones & ~l_twos
        c0 = ~c_ones & ~c_twos
        c1 = c_ones & ~c_twos
        return (l0 & c0, l1 & c1, l1 & c0, l0 & c1, l_twos | c_twos)

    def match_pattern(self, diff: np.ndarray, pattern: int) -> np.ndarray:
        diff = np.asarray(diff)
        mask = None
        for j in range(diff.shape[1]):
            term = diff[:, j] if (pattern >> j) & 1 else ~diff[:, j]
            mask = term if mask is None else mask & term
        if mask is None:
            raise ValueError("diff must have at least one plane")
        return mask


class _NativeKernels(KernelTier):
    """Compiled tier over :mod:`repro._native._kernels`.

    Wrappers normalise to the canonical contiguous 2-D/3-D forms the C
    functions expect (collapsing trailing/surrounding axes) and fall
    back to the numpy tier for inputs outside the compiled fast path
    (exotic dtypes, >64 match planes), so behaviour is uniformly
    bit-identical.
    """

    name = "native"
    native = True

    def __init__(self, mod):
        self._mod = mod
        self._numpy = _NumpyKernels()

    def pack_words_axis0(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits)
        if bits.dtype == np.bool_:
            bits = bits.view(np.uint8)
        if bits.dtype != np.uint8 or bits.ndim < 1:
            # Casting wider ints to uint8 could wrap a nonzero value to
            # zero; only the reference path handles those faithfully.
            return self._numpy.pack_words_axis0(bits)
        tail_shape = bits.shape[1:]
        k = 1
        for dim in tail_shape:
            k *= dim
        flat = np.ascontiguousarray(bits.reshape(bits.shape[0], k))
        words = self._mod.pack_words_axis0(flat)
        return words.reshape((words.shape[0],) + tail_shape)

    def unpack_words_axis0(self, words: np.ndarray,
                           count: int) -> np.ndarray:
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim < 1:
            return self._numpy.unpack_words_axis0(words, count)
        tail_shape = words.shape[1:]
        k = 1
        for dim in tail_shape:
            k *= dim
        flat = np.ascontiguousarray(words.reshape(words.shape[0], k))
        bits = self._mod.unpack_words_axis0(flat, count)
        return bits.reshape((count,) + tail_shape)

    def popcount_words(self, words: np.ndarray) -> np.ndarray:
        words = np.asarray(words)
        if words.dtype != np.uint64:
            # Width-dependent: popcount of an int32 must count 32 bits.
            return self._numpy.popcount_words(words)
        flat = np.ascontiguousarray(words.reshape(-1))
        return self._mod.popcount_words(flat).reshape(words.shape)

    @staticmethod
    def _as3d(arr: np.ndarray, axis: int):
        axis = axis % arr.ndim
        outer = 1
        for dim in arr.shape[:axis]:
            outer *= dim
        inner = 1
        for dim in arr.shape[axis + 1:]:
            inner *= dim
        return (np.ascontiguousarray(
            arr.reshape(outer, arr.shape[axis], inner)),
            arr.shape[:axis] + arr.shape[axis + 1:])

    def saturating_count2(self, planes: np.ndarray,
                          axis: int) -> Tuple[np.ndarray, np.ndarray]:
        planes = np.asarray(planes)
        if planes.dtype != np.uint64 or planes.shape[axis % planes.ndim] < 1:
            return self._numpy.saturating_count2(planes, axis)
        flat, out_shape = self._as3d(planes, axis)
        ones, twos = self._mod.saturating_count2(flat)
        return ones.reshape(out_shape), twos.reshape(out_shape)

    def decode_sweep(self, lead: np.ndarray, ctr: np.ndarray) -> Tuple:
        lead = np.asarray(lead)
        ctr = np.asarray(ctr)
        if (lead.dtype != np.uint64 or ctr.dtype != np.uint64
                or lead.ndim < 2 or ctr.ndim < 2
                or lead.shape[0] != ctr.shape[0]
                or lead.shape[2:] != ctr.shape[2:]
                or lead.shape[1] < 1 or ctr.shape[1] < 1):
            return self._numpy.decode_sweep(lead, ctr)
        lead3, out_shape = self._as3d(lead, 1)
        ctr3, _ = self._as3d(ctr, 1)
        masks = self._mod.decode_sweep(lead3, ctr3)
        return tuple(m.reshape(out_shape) for m in masks)

    def match_pattern(self, diff: np.ndarray, pattern: int) -> np.ndarray:
        diff = np.asarray(diff)
        if (diff.dtype != np.uint64 or diff.ndim < 2
                or not 1 <= diff.shape[1] <= 64
                or not 0 <= pattern < (1 << 64)):
            return self._numpy.match_pattern(diff, pattern)
        flat, out_shape = self._as3d(diff, 1)
        return self._mod.match_pattern(flat, pattern).reshape(out_shape)


def _make_numpy() -> KernelTier:
    return _NumpyKernels()


def _make_native() -> KernelTier:
    mod = _native_module()
    if mod is None:
        raise KernelUnavailableError(
            "the 'native' kernel tier requires the compiled "
            "repro._native._kernels extension; build it with "
            "'python setup.py build_ext --inplace' (or 'pip install -e .' "
            "with a C compiler and numpy headers); falling back is "
            "automatic only when REPRO_KERNELS is unset")
    return _NativeKernels(mod)


_FACTORIES: Dict[str, Callable[[], KernelTier]] = {
    "numpy": _make_numpy,
    "native": _make_native,
}

#: Instantiated tiers, one per registry name.
_CACHE: Dict[str, KernelTier] = {}

KernelsLike = Union[KernelTier, str, None]


def register_kernels(name: str, factory: Callable[[], KernelTier],
                     overwrite: bool = False) -> None:
    """Register a kernel-tier factory under ``name``.

    ``factory`` is a zero-argument callable returning a
    :class:`KernelTier`; it runs lazily on first :func:`get_kernels`
    lookup (optional imports belong inside it). Re-registering an
    existing name requires ``overwrite=True``. ``"auto"`` is reserved.
    """
    if name == "auto":
        raise ValueError("'auto' is a reserved tier name")
    if name in _FACTORIES and not overwrite:
        raise ValueError(f"kernel tier {name!r} is already registered "
                         f"(pass overwrite=True to replace it)")
    _FACTORIES[name] = factory
    _CACHE.pop(name, None)


def available_kernels() -> Tuple[str, ...]:
    """Registered tier names (availability of imports not checked)."""
    return tuple(sorted(_FACTORIES))


def get_kernels(kernels: KernelsLike = None) -> KernelTier:
    """Resolve a ``kernels=`` argument to a concrete :class:`KernelTier`.

    See the module docstring for the full resolution contract:
    instance > name > ``$REPRO_KERNELS`` > ``"auto"`` (which picks
    ``"native"`` when the extension imported, else ``"numpy"``).
    """
    if isinstance(kernels, KernelTier):
        return kernels
    if kernels is None:
        kernels = os.environ.get(KERNELS_ENV_VAR) or "auto"
    if not isinstance(kernels, str):
        raise TypeError(f"kernels must be a KernelTier, a registered "
                        f"name, or None; got {type(kernels).__name__}")
    if kernels == "auto":
        kernels = "native" if native_available() else "numpy"
    if kernels not in _FACTORIES:
        raise ValueError(f"unknown kernel tier {kernels!r}; registered: "
                         f"{', '.join(available_kernels())}")
    if kernels not in _CACHE:
        _CACHE[kernels] = _FACTORIES[kernels]()
    return _CACHE[kernels]
