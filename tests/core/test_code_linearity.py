"""The code registry refuses codes the fault-centric engine cannot simulate.

The batched campaign engine runs every trial on all-zero data, which is
exact only for linear codes, and counts a block with one faulty cell as
restored without decoding it (:mod:`repro.faults.batch`). ``build_code``
checks both premises on seeded random blocks and refuses a code that
fails either.
"""

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.core.code import NoError
from repro.core.registry import (
    CODE_KINDS,
    DiagonalBlockCode,
    build_code,
    check_linear,
    check_single_errors,
    code_names,
    register_code,
)


class ComplementedParity(DiagonalBlockCode):
    """Affine: stores the complement of the diagonal parities."""

    name = "toy_complemented"

    def encode_block(self, block):
        return tuple(1 - bits for bits in super().encode_block(block))


class RowOr(DiagonalBlockCode):
    """Non-linear with ``encode(0) == 0``: row ORs replace the leading
    parities."""

    name = "toy_row_or"

    def encode_block(self, block):
        _, counter = super().encode_block(block)
        return (np.asarray(block, dtype=np.uint8).max(axis=1), counter)


class BlindDecoder(DiagonalBlockCode):
    """Linear, but its decoder answers ``NoError`` to every syndrome."""

    name = "toy_blind"

    def decode_block(self, block, *plane_bits):
        return NoError()


@pytest.fixture
def toy_code():
    registered = []

    def register(cls):
        register_code(cls.name, cls)
        registered.append(cls.name)
        return cls.name

    yield register
    for name in registered:
        CODE_KINDS.pop(name, None)


class TestLinearityGuard:
    @pytest.mark.parametrize("name", code_names())
    def test_registered_codes_are_linear(self, name):
        check_linear(build_code(name, BlockGrid(15, 3)), 3)

    @pytest.mark.parametrize("cls", [ComplementedParity, RowOr])
    def test_nonlinear_code_is_refused(self, toy_code, cls):
        name = toy_code(cls)
        with pytest.raises(ValueError, match="not linear"):
            build_code(name, BlockGrid(15, 3))

    def test_refusal_is_not_cached(self, toy_code):
        name = toy_code(RowOr)
        for _ in range(2):
            with pytest.raises(ValueError, match="not linear"):
                build_code(name, BlockGrid(9, 3))


class TestSingleErrorGuard:
    @pytest.mark.parametrize("name", code_names())
    @pytest.mark.parametrize("m", [3, 5])
    def test_registered_codes_restore_single_errors(self, name, m):
        check_single_errors(build_code(name, BlockGrid(3 * m, m)), m)

    def test_blind_decoder_is_refused(self, toy_code):
        name = toy_code(BlindDecoder)
        for _ in range(2):  # a refusal is never cached
            with pytest.raises(ValueError, match="does not restore"):
                build_code(name, BlockGrid(9, 3))
