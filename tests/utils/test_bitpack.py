"""Unit tests for the bit-packed uint64 kernel layer."""

import numpy as np
import pytest

from repro.utils.bitpack import (
    WORD_BITS,
    and_reduce_words,
    batch_tail_mask,
    or_reduce_words,
    pack_batch,
    popcount_words,
    saturating_count2,
    unpack_batch,
    words_for,
)


class TestPackUnpack:
    @pytest.mark.parametrize("shape", [(1,), (63,), (64,), (65,), (130, 3),
                                       (5, 4, 7), (200, 9, 9)])
    def test_roundtrip(self, shape):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=shape, dtype=np.uint8)
        words = pack_batch(bits)
        assert words.dtype == np.uint64
        assert words.shape == (words_for(shape[0]),) + shape[1:]
        assert np.array_equal(unpack_batch(words, shape[0]), bits)

    def test_word_layout_little_endian(self):
        bits = np.zeros(70, dtype=np.uint8)
        bits[0] = bits[3] = bits[65] = 1
        words = pack_batch(bits)
        assert words[0] == np.uint64((1 << 0) | (1 << 3))
        assert words[1] == np.uint64(1 << 1)

    def test_tail_padding_is_zero(self):
        """Bits beyond the batch in the last word must be zero."""
        bits = np.ones((70, 2), dtype=np.uint8)
        words = np.asarray(pack_batch(bits))
        tail = np.uint64(words[1, 0]) >> np.uint64(70 % WORD_BITS)
        assert tail == 0

    def test_unpack_trims_tail_garbage(self):
        """Kernel garbage in padding bits must not leak out of unpack."""
        words = np.full(1, ~np.uint64(0), dtype=np.uint64)
        assert unpack_batch(words, 3).tolist() == [1, 1, 1]

    def test_unpack_too_few_words(self):
        with pytest.raises(ValueError):
            unpack_batch(np.zeros(1, dtype=np.uint64), 65)


class TestTailMask:
    def test_exact_multiple(self):
        mask = batch_tail_mask(128)
        assert mask.shape == (2,)
        assert (mask == ~np.uint64(0)).all()

    def test_remainder(self):
        mask = batch_tail_mask(70)
        assert mask[0] == ~np.uint64(0)
        assert mask[1] == np.uint64((1 << 6) - 1)


class TestSaturatingCount2:
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_matches_integer_counts(self, m):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(100, m, 4), dtype=np.uint8)
        planes = pack_batch(bits)
        ones, twos = saturating_count2(planes, axis=1)
        counts = bits.sum(axis=1)
        got_one = unpack_batch(ones & ~twos, 100)
        got_zero = unpack_batch(~ones & ~twos, 100)
        got_two = unpack_batch(twos, 100)
        assert np.array_equal(got_zero != 0, counts == 0)
        assert np.array_equal(got_one != 0, counts == 1)
        assert np.array_equal(got_two != 0, counts >= 2)


class TestWordReductions:
    def test_or_reduce_matches_any(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(70, 3, 4), dtype=np.uint8)
        words = pack_batch(bits)
        reduced = or_reduce_words(words, axis=(1, 2))
        assert np.array_equal(unpack_batch(reduced, 70) != 0,
                              bits.any(axis=(1, 2)))

    def test_and_reduce_matches_all(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, size=(70, 3, 4), dtype=np.uint8)
        words = pack_batch(bits)
        reduced = and_reduce_words(words, axis=(1, 2))
        assert np.array_equal(unpack_batch(reduced, 70) != 0,
                              bits.all(axis=(1, 2)))

    def test_single_axis(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=(65, 5), dtype=np.uint8)
        words = pack_batch(bits)
        reduced = or_reduce_words(words, axis=1)
        assert np.array_equal(unpack_batch(reduced, 65) != 0,
                              bits.any(axis=1))

    @pytest.mark.parametrize("axis", [-1, -2, (-2, -1)])
    def test_negative_axes(self, axis):
        """Negative axes count from the end, as on the unpacked tensor
        (the word axis 0 stays; the packed shape only replaces it)."""
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2, size=(70, 3, 4), dtype=np.uint8)
        words = pack_batch(bits)
        assert np.array_equal(
            unpack_batch(or_reduce_words(words, axis=axis), 70) != 0,
            bits.any(axis=axis))
        assert np.array_equal(
            unpack_batch(and_reduce_words(words, axis=axis), 70) != 0,
            bits.all(axis=axis))


class TestPopcount:
    def test_matches_unpacked_sum(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=(200, 6), dtype=np.uint8)
        words = pack_batch(bits)
        assert int(popcount_words(words).sum()) == int(bits.sum())

    def test_extremes(self):
        words = np.asarray([0, ~np.uint64(0), np.uint64(1)], dtype=np.uint64)
        assert popcount_words(words).tolist() == [0, 64, 1]
