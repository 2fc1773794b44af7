"""Differential suite: the fault-centric engine == the full check sweep.

:class:`repro.faults.batch.BatchCampaign` tallies each trial from its
fault events and decodes only the blocks left with two or more faulty
cells. The reference here is the sweep it replaced, built from the kept
kernels: zero packed stacks, the injector's
``inject_batch_planes_packed`` and the code's ``check_batched_packed``
over every block. Every trial's outcome, fault count and multi-fault
block count must agree — not only the totals — across the codes, the
injector family, check-bit exposure on the engine and on the injector,
ragged blocks and spans that start inside a 64-trial group.

The premise half checks the premise itself at ``m = 3``: for the error
patterns of one block, the engine's column-table classification
(:func:`repro.faults.batch.block_table`) must match the code's own
``decode_block`` plus correction on real random data — every pattern
of weight <= 4 plus 2,000 seeded heavier ones in tier-1, and every one
of the 2^15 (2^14 for the matrix codes) in the slow lane.
"""

import math

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.core.code import CheckBitError, DataError, Uncorrectable
from repro.core.registry import DiagonalBlockCode, build_code
from repro.faults.batch import BatchCampaign, block_table
from repro.faults.drift import DriftInjector, DriftModel
from repro.faults.injector import (
    BurstInjector,
    CheckBitInjector,
    DeterministicInjector,
    LinearBurstInjector,
    UniformInjector,
)
from repro.utils.bitops import words_for
from repro.utils.bitpack import or_reduce_words, unpack_batch
from repro.utils.rng import INJECT_STREAM, TrialStreams

ALL_CODES = ("diagonal", "rowcol", "hsiao", "hamming_ext")
RATES = (0.0, 2e-4, 1e-2, 5e-2, 0.5)
KINDS = ("clean", "corrected", "detected", "silent")
GRID = BlockGrid(15, 3)
ENTROPY = 0x5EED_F00D
#: A span that starts inside group 0 and ends inside group 2, so its
#: blocks are ragged (B % 64 != 0) and straddle group boundaries.
LO, HI = 40, 170


def kind_of(result) -> str:
    (kind,) = [k for k in KINDS if getattr(result, k)]
    return kind


def sweep_outcomes(grid, injector, code_name, streams, batch,
                   include_check_bits=True):
    """Per-trial ``(kind, faults, multi)`` from the full packed sweep."""
    code = build_code(code_name, grid)
    nwords = words_for(batch)
    words = np.zeros((nwords, grid.n, grid.n), dtype=np.uint64)
    planes = tuple(np.zeros((nwords,) + shape, dtype=np.uint64)
                   for shape in code.plane_shapes)
    injection = injector.inject_batch_planes_packed(
        batch, words, planes if include_check_bits else (), streams=streams)
    sweep = code.check_batched_packed(words, planes, batch, correct=True)
    damaged = unpack_batch(or_reduce_words(words, axis=(1, 2)),
                           batch).astype(bool)
    for plane in planes:
        damaged |= unpack_batch(or_reduce_words(plane, axis=(1, 2, 3)),
                                batch).astype(bool)
    flagged = sweep.uncorrectable_any
    totals = injection.totals
    kinds = np.where(totals == 0, "clean",
                     np.where(~damaged, "corrected",
                              np.where(flagged, "detected", "silent")))
    return list(zip(kinds.tolist(), totals.tolist(),
                    injection.multi_fault_blocks(grid).tolist()))


def engine_outcomes(engine, entropy, lo, hi):
    """Per-trial ``(kind, faults, multi)`` from one-trial engine spans."""
    out = []
    for i in range(lo, hi):
        r = engine.run_range_seeded(entropy, i, i + 1)
        assert r.trials == 1
        out.append((kind_of(r), r.injected_faults,
                    r.blocks_with_multi_faults))
    return out


def totals_of(outcomes) -> dict:
    tally = {k: 0 for k in KINDS}
    for kind, _, _ in outcomes:
        tally[kind] += 1
    tally["injected_faults"] = sum(f for _, f, _ in outcomes)
    tally["blocks_with_multi_faults"] = sum(m for _, _, m in outcomes)
    tally["trials"] = len(outcomes)
    return tally


def assert_per_trial_equal(grid, injector, code, include_check_bits=True,
                           lo=LO, hi=HI, batch_size=50):
    """Per-trial and whole-span engine runs both match the sweep."""
    engine = BatchCampaign(grid, injector, code=code,
                           include_check_bits=include_check_bits,
                           batch_size=batch_size)
    expected = sweep_outcomes(
        grid, injector, code, TrialStreams(ENTROPY, lo, hi, INJECT_STREAM),
        hi - lo, include_check_bits)
    assert engine_outcomes(engine, ENTROPY, lo, hi) == expected
    whole = engine.run_range_seeded(ENTROPY, lo, hi).as_dict()
    assert {k: whole[k] for k in totals_of(expected)} \
        == totals_of(expected)
    return expected


class TestUniformRates:
    @pytest.mark.parametrize("code", ALL_CODES)
    @pytest.mark.parametrize("p", RATES)
    def test_per_trial_outcomes_match_sweep(self, code, p):
        expected = assert_per_trial_equal(GRID, UniformInjector(p), code)
        kinds = {kind for kind, _, _ in expected}
        if p == 0.0:
            assert kinds == {"clean"}
        if p == 1e-2:
            # The mix this rate exists for: restored, flagged and
            # silently wrong trials side by side.
            assert {"corrected", "detected"} <= kinds

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_perfbench_shape_sparse(self, code):
        """n=129, m=3 at p=2e-4: ~5.6 faults per trial."""
        assert_per_trial_equal(BlockGrid(129, 3), UniformInjector(2e-4),
                               code, lo=0, hi=96, batch_size=64)

    def test_all_outcomes_occur(self):
        seen = set()
        for code in ALL_CODES:
            seen |= {kind for kind, _, _ in assert_per_trial_equal(
                BlockGrid(15, 5), UniformInjector(2e-2), code)}
        assert seen == set(KINDS)


class TestExposure:
    @pytest.mark.parametrize("code", ALL_CODES)
    @pytest.mark.parametrize("engine_checks,injector_checks",
                             [(True, False), (False, True), (False, False)])
    def test_check_bit_exposure(self, code, engine_checks,
                                injector_checks):
        injector = UniformInjector(3e-2, include_check_bits=injector_checks)
        assert_per_trial_equal(GRID, injector, code,
                               include_check_bits=engine_checks)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_check_bit_injector(self, code):
        expected = assert_per_trial_equal(GRID, CheckBitInjector(5e-2), code)
        assert any(kind != "clean" for kind, _, _ in expected)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_check_bit_injector_without_exposed_checks(self, code):
        expected = assert_per_trial_equal(GRID, CheckBitInjector(5e-2), code,
                                          include_check_bits=False)
        assert {kind for kind, _, _ in expected} == {"clean"}

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_drift_injector(self, code):
        model = DriftModel(tau_hours=150.0, beta=2.0,
                           abrupt_fit_per_bit=5e5)
        assert_per_trial_equal(GRID, DriftInjector(model, 24.0), code)


class TestBursts:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_overlapping_bursts(self, code):
        injector = BurstInjector(strikes=3, radius=1,
                                 neighbor_probability=0.1)
        expected = assert_per_trial_equal(GRID, injector, code)
        kinds = {kind for kind, _, _ in expected}
        assert "corrected" in kinds and kinds & {"detected", "silent"}

    @pytest.mark.parametrize("code", ALL_CODES)
    @pytest.mark.parametrize("orientation", ["row", "col"])
    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_linear_bursts(self, code, orientation, length):
        assert_per_trial_equal(GRID, LinearBurstInjector(length, orientation),
                               code)


class TestDeterministic:
    @pytest.mark.parametrize("code", ALL_CODES)
    @pytest.mark.parametrize("data_flips,expected_kind", [
        ([(4, 4), (4, 4)], "corrected"),          # cancels outright
        ([(4, 4), (4, 4), (4, 4)], "corrected"),  # one flip survives
        ([(4, 4), (4, 4), (5, 5)], "corrected"),  # one cell left
        ([(0, 0), (0, 0), (1, 1), (2, 2)], None),  # two cells left
    ])
    def test_duplicated_cells_cancel(self, code, data_flips,
                                     expected_kind):
        names = build_code(code, GRID).plane_names
        injector = DeterministicInjector(data_flips, [(names[0], 0, 2, 2)],
                                         plane_names=names)
        expected = assert_per_trial_equal(GRID, injector, code, lo=0, hi=3)
        kinds = {kind for kind, _, _ in expected}
        if expected_kind is not None:
            assert kinds == {expected_kind}
        else:
            assert kinds <= {"detected", "silent"}

    @pytest.mark.parametrize("code,kind", [
        ("diagonal", "silent"), ("rowcol", "silent"),
        ("hsiao", "detected"), ("hamming_ext", "detected")])
    def test_data_plus_own_check_bit(self, code, kind):
        """A data error plus the check bit of its own diagonal (row)
        decodes as one check-bit error on diagonal and rowcol: silent
        there, detected on the double-error-detecting matrix codes."""
        grid = BlockGrid(3, 3)
        names = build_code(code, grid).plane_names
        injector = DeterministicInjector([(0, 0)], [(names[0], 0, 0, 0)],
                                         plane_names=names)
        (outcome,) = assert_per_trial_equal(grid, injector, code, lo=0,
                                            hi=1)
        assert outcome[0] == kind


class TestBlockSizes:
    """From trial 0, one-trial blocks, whole-group blocks and the
    planned blocks all tally like the sweep."""

    @pytest.mark.parametrize("code", ALL_CODES)
    @pytest.mark.parametrize("make", [
        lambda: UniformInjector(2e-2),
        lambda: BurstInjector(strikes=2),
        lambda: LinearBurstInjector(3, "col"),
    ], ids=["uniform", "burst", "linear_burst"])
    def test_block_size_changes_no_outcome(self, code, make):
        trials = 70
        expected = sweep_outcomes(
            GRID, make(), code, TrialStreams(ENTROPY, 0, trials,
                                             INJECT_STREAM), trials)
        engine = BatchCampaign(GRID, make(), code=code, batch_size=1)
        assert engine_outcomes(engine, ENTROPY, 0, trials) == expected
        for batch_size in (1, 64, None):
            whole = BatchCampaign(GRID, make(), code=code,
                                  batch_size=batch_size) \
                .run_range_seeded(ENTROPY, 0, trials).as_dict()
            assert {k: whole[k] for k in totals_of(expected)} \
                == totals_of(expected), batch_size


# ---------------------------------------------------------------------- #
# The premise, at m = 3: every error pattern of one block
# ---------------------------------------------------------------------- #

#: Error patterns of every weight up to this one run in tier-1, plus
#: :data:`HEAVY_PATTERNS` seeded heavier ones; the slow lane runs all.
FULL_WEIGHT = 4
HEAVY_PATTERNS = 2000


def premise_patterns(cells: int, exhaustive: bool) -> np.ndarray:
    """Error patterns (bit ``i`` = local cell ``i`` flipped) to check."""
    patterns = np.arange(1 << cells, dtype=np.int64)
    if exhaustive:
        return patterns
    weight = np.bitwise_count(patterns)
    heavy = patterns[weight > FULL_WEIGHT]
    picked = np.random.default_rng(7).choice(heavy, HEAVY_PATTERNS,
                                             replace=False)
    return np.concatenate([patterns[weight <= FULL_WEIGHT], picked])


def table_verdicts(table, patterns: np.ndarray) -> np.ndarray:
    """``(restored, flagged)`` per pattern, as the engine decides them
    from the column table: fewer than two cells restore, and two or
    more are flagged iff their syndrome is nonzero and no column."""
    syndrome = np.zeros(patterns.size, dtype=np.uint64)
    for i, column in enumerate(table.column):
        syndrome ^= np.where(patterns >> i & 1, column, np.uint64(0))
    several = np.bitwise_count(patterns) >= 2
    flagged = several & (syndrome != 0) & ~np.isin(syndrome, table.columns)
    return np.stack([~several, flagged], axis=1)


def decoder_verdicts(code, patterns: np.ndarray) -> np.ndarray:
    """``(restored, flagged)`` per pattern on real random data, through
    the code's ``decode_block`` plus correction."""
    m = code.grid.m
    k = m * m
    rng = np.random.default_rng(3)
    blocks = rng.integers(0, 2, size=(8, m, m), dtype=np.uint8)
    encoded = [np.concatenate([np.asarray(p, dtype=np.uint8)
                               for p in code.encode_block(b)])
               for b in blocks]
    bounds = np.cumsum((0,) + tuple(code.plane_depths))
    bits = (patterns[:, None] >> np.arange(k + bounds[-1])) & 1
    out = np.empty((patterns.size, 2), dtype=bool)
    for row, flips in enumerate(bits.astype(np.uint8)):
        block, checks = blocks[row % 8], encoded[row % 8]
        data = block ^ flips[:k].reshape(m, m)
        stored = [(checks ^ flips[k:])[a:b]
                  for a, b in zip(bounds[:-1], bounds[1:])]
        outcome = code.decode_block(data, *stored)
        if isinstance(outcome, DataError):
            data[outcome.row, outcome.col] ^= 1
        elif isinstance(outcome, CheckBitError):
            stored[code.plane_names.index(outcome.plane)][outcome.index] ^= 1
        out[row] = (np.array_equal(data, block)
                    and np.array_equal(np.concatenate(stored), checks),
                    isinstance(outcome, Uncorrectable))
    return out


PREMISE_CODES = [("diagonal", 15), ("rowcol", 15), ("hsiao", 14),
                 ("hamming_ext", 14)]


def check_premise(code_name: str, cells: int, exhaustive: bool) -> None:
    code = build_code(code_name, BlockGrid(3, 3))
    table = block_table(code)
    assert table.cells_per_block == cells
    patterns = premise_patterns(cells, exhaustive)
    expected = decoder_verdicts(code, patterns)
    got = table_verdicts(table, patterns)
    wrong = np.flatnonzero((got != expected).any(axis=1))
    assert not wrong.size, \
        f"{code_name}: patterns {patterns[wrong[:5]].tolist()} differ"
    # both verdicts occur among the multi-cell patterns
    several = np.bitwise_count(patterns) >= 2
    assert expected[several, 1].any() and not expected[several, 1].all()


class TestColumnPremise:
    @pytest.mark.parametrize("code_name,cells", PREMISE_CODES)
    def test_low_weight_and_seeded_heavy_patterns(self, code_name, cells):
        check_premise(code_name, cells, exhaustive=False)

    @pytest.mark.slow
    @pytest.mark.parametrize("code_name,cells", PREMISE_CODES)
    def test_every_error_pattern_of_one_block(self, code_name, cells):
        check_premise(code_name, cells, exhaustive=True)

    def test_columns_are_the_unit_encodings(self):
        code = build_code("hsiao", BlockGrid(3, 3))
        table = block_table(code)
        assert table.column.size == 14
        assert len(set(table.column.tolist())) == 14
        assert table.column[9:].tolist() == [1 << j for j in range(5)]
        assert all(bin(int(c)).count("1") % 2 == 1
                   for c in table.column[:9])

    def test_too_many_check_bits_is_refused(self):
        # 2 x 33 check bits per block: over one uint64 syndrome
        with pytest.raises(ValueError, match="uint64"):
            block_table(DiagonalBlockCode(BlockGrid(99, 33)))

    def test_table_maps_every_exposed_cell_once(self):
        code = build_code("diagonal", BlockGrid(15, 5))
        table = block_table(code)
        exposed = 15 * 15 + sum(math.prod(s) for s in code.plane_shapes)
        assert table.key.size == exposed
        assert np.array_equal(np.sort(table.key),
                              np.arange(table.blocks
                                        * table.cells_per_block))
