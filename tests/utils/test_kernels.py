"""Kernel-tier registry + native/numpy differential contract.

The compiled tier is optional; the contract is that when it *is* built
it is bit-identical to the numpy reference on every kernel it
implements — including the tail-garbage behaviour of complement-derived
masks — and that tier resolution follows explicit handle > name >
``$REPRO_KERNELS`` > auto. Native-vs-numpy differentials skip cleanly
when the extension is absent; everything else runs everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import kernels as kernels_mod
from repro.utils.bitops import (
    pack_words_axis0,
    pack_words_axis0_numpy,
    unpack_words_axis0,
    words_for,
)
from repro.utils.bitops import _pack_words_axis0_generic
from repro.utils.kernels import (
    KERNELS_ENV_VAR,
    KernelTier,
    KernelUnavailableError,
    available_kernels,
    get_kernels,
    native_available,
    register_kernels,
)

needs_native = pytest.mark.skipif(
    not native_available(),
    reason="compiled repro._native._kernels extension not built")


@pytest.fixture
def clean_cache():
    """Isolate tier-cache mutations (monkeypatched seams) per test."""
    kernels_mod._CACHE.clear()
    yield
    kernels_mod._CACHE.clear()


# ---------------------------------------------------------------------- #
# Registry / resolution
# ---------------------------------------------------------------------- #


class TestResolution:
    def test_numpy_always_registered(self):
        assert "numpy" in available_kernels()
        assert "native" in available_kernels()
        assert get_kernels("numpy").name == "numpy"

    def test_instance_passes_through(self):
        tier = get_kernels("numpy")
        assert get_kernels(tier) is tier

    def test_auto_resolves_to_concrete_name(self, monkeypatch):
        monkeypatch.delenv(KERNELS_ENV_VAR, raising=False)
        name = get_kernels(None).name
        assert name in ("numpy", "native")
        assert name == ("native" if native_available() else "numpy")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "numpy")
        assert get_kernels(None).name == "numpy"

    def test_empty_env_means_auto(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "")
        assert get_kernels(None).name in ("numpy", "native")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            get_kernels("fpga")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError, match="kernels must be"):
            get_kernels(3.14)

    def test_auto_reserved_for_registration(self):
        with pytest.raises(ValueError, match="reserved"):
            register_kernels("auto", lambda: None)

    def test_reregistration_needs_overwrite(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernels("numpy", lambda: None)

    def test_custom_tier_registers_and_resolves(self, clean_cache):
        class Echo(KernelTier):
            name = "echo-test"

        register_kernels("echo-test", Echo)
        try:
            assert get_kernels("echo-test").name == "echo-test"
        finally:
            kernels_mod._FACTORIES.pop("echo-test", None)


class TestUnavailableNative:
    def test_explicit_native_without_extension_raises(self, monkeypatch,
                                                       clean_cache):
        monkeypatch.setattr(kernels_mod, "_native_module", lambda: None)
        with pytest.raises(KernelUnavailableError, match="build_ext"):
            get_kernels("native")

    def test_auto_degrades_to_numpy_without_extension(self, monkeypatch,
                                                      clean_cache):
        monkeypatch.setattr(kernels_mod, "_native_module", lambda: None)
        monkeypatch.delenv(KERNELS_ENV_VAR, raising=False)
        assert not native_available()
        assert get_kernels(None).name == "numpy"

    def test_env_native_without_extension_raises(self, monkeypatch,
                                                 clean_cache):
        monkeypatch.setattr(kernels_mod, "_native_module", lambda: None)
        monkeypatch.setenv(KERNELS_ENV_VAR, "native")
        with pytest.raises(KernelUnavailableError):
            get_kernels(None)


# ---------------------------------------------------------------------- #
# numpy tier: fast pack path == generic path
# ---------------------------------------------------------------------- #


class TestNumpyPackFastPath:
    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64])
    @pytest.mark.parametrize("shape", [(64,), (128, 3), (192, 2, 5)])
    def test_aligned_matches_generic(self, dtype, shape):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, size=shape).astype(dtype)
        assert np.array_equal(pack_words_axis0_numpy(bits),
                              _pack_words_axis0_generic(bits))

    def test_nonzero_uint8_values_pack_as_one(self):
        """packbits treats any nonzero byte as set — same as ``!= 0``."""
        bits = np.array([0, 1, 2, 255, 0, 7] + [0] * 58, dtype=np.uint8)
        words = pack_words_axis0_numpy(bits)
        assert words[0] == np.uint64(0b101110)
        assert np.array_equal(words, _pack_words_axis0_generic(bits))

    @pytest.mark.parametrize("batch", [1, 63, 65, 127, 130])
    def test_ragged_tail_still_generic_equivalent(self, batch):
        rng = np.random.default_rng(batch)
        bits = rng.integers(0, 2, size=(batch, 4), dtype=np.uint8)
        assert np.array_equal(pack_words_axis0_numpy(bits),
                              _pack_words_axis0_generic(bits))


# ---------------------------------------------------------------------- #
# native tier differentials (skip cleanly when not built)
# ---------------------------------------------------------------------- #


def _tiers():
    return get_kernels("numpy"), get_kernels("native")


@needs_native
class TestNativeDifferential:
    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 200), k=st.integers(1, 7),
           seed=st.integers(0, 2**32 - 1))
    def test_pack_roundtrip_matches_numpy(self, batch, k, seed):
        numpy_k, native_k = _tiers()
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(batch, k), dtype=np.uint8)
        ref = numpy_k.pack_words_axis0(bits)
        got = native_k.pack_words_axis0(bits)
        assert got.dtype == np.uint64
        assert np.array_equal(got, ref)
        assert np.array_equal(native_k.unpack_words_axis0(got, batch), bits)
        assert np.array_equal(numpy_k.unpack_words_axis0(got, batch), bits)

    def test_pack_multidim_and_bool(self):
        numpy_k, native_k = _tiers()
        rng = np.random.default_rng(0)
        for arr in (rng.integers(0, 2, size=(130, 3, 5), dtype=np.uint8),
                    rng.integers(0, 2, size=(70,)).astype(bool),
                    rng.integers(0, 2, size=(64, 2), dtype=np.int32)):
            assert np.array_equal(native_k.pack_words_axis0(arr),
                                  numpy_k.pack_words_axis0(arr))

    def test_pack_values_above_one(self):
        numpy_k, native_k = _tiers()
        bits = np.array([[0, 2], [255, 0], [1, 9]], dtype=np.uint8)
        assert np.array_equal(native_k.pack_words_axis0(bits),
                              numpy_k.pack_words_axis0(bits))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_popcount_matches(self, n, seed):
        numpy_k, native_k = _tiers()
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        ref = numpy_k.popcount_words(words)
        got = native_k.popcount_words(words)
        assert got.dtype == ref.dtype == np.int64
        assert np.array_equal(got, ref)

    @settings(max_examples=25, deadline=None)
    @given(depth=st.integers(1, 9), w=st.integers(1, 5),
           inner=st.integers(1, 8), axis=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_saturating_count2_matches(self, depth, w, inner, axis, seed):
        numpy_k, native_k = _tiers()
        rng = np.random.default_rng(seed)
        shape = [w, w, inner]
        shape[axis] = depth
        planes = rng.integers(0, 2**64, size=tuple(shape), dtype=np.uint64)
        ref = numpy_k.saturating_count2(planes, axis)
        got = native_k.saturating_count2(planes, axis)
        for r, g in zip(ref, got):
            assert np.array_equal(r, g)

    @settings(max_examples=25, deadline=None)
    @given(w=st.integers(1, 4), l1=st.integers(1, 6), l2=st.integers(1, 6),
           inner=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_decode_sweep_matches(self, w, l1, l2, inner, seed):
        """Bit-for-bit — including complement tail garbage."""
        numpy_k, native_k = _tiers()
        rng = np.random.default_rng(seed)
        lead = rng.integers(0, 2**64, size=(w, l1, inner), dtype=np.uint64)
        ctr = rng.integers(0, 2**64, size=(w, l2, inner), dtype=np.uint64)
        ref = numpy_k.decode_sweep(lead, ctr)
        got = native_k.decode_sweep(lead, ctr)
        assert len(ref) == len(got) == 5
        for r, g in zip(ref, got):
            assert np.array_equal(r, g)

    @settings(max_examples=25, deadline=None)
    @given(w=st.integers(1, 4), r=st.integers(1, 12),
           inner=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           pattern=st.integers(0, 2**12 - 1))
    def test_match_pattern_matches(self, w, r, inner, seed, pattern):
        numpy_k, native_k = _tiers()
        rng = np.random.default_rng(seed)
        diff = rng.integers(0, 2**64, size=(w, r, inner), dtype=np.uint64)
        assert np.array_equal(native_k.match_pattern(diff, pattern),
                              numpy_k.match_pattern(diff, pattern))

    def test_dispatch_sites_bit_identical(self):
        """Public pack/unpack entry points agree across kernels= handles."""
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(131, 6), dtype=np.uint8)
        ref = pack_words_axis0(bits, kernels="numpy")
        got = pack_words_axis0(bits, kernels="native")
        assert np.array_equal(ref, got)
        assert got.shape == (words_for(131), 6)
        assert np.array_equal(unpack_words_axis0(got, 131, kernels="native"),
                              unpack_words_axis0(ref, 131, kernels="numpy"))
