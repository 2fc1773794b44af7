"""Differential suite: every registered code, packed == u8 == scalar.

The CI tier-1 matrix runs this file (plus the registry unit tests) in a
second leg with pytest's slow filter cleared.
"""

import pytest

from repro.core.blocks import BlockGrid
from repro.faults.batch import (
    CampaignRunner,
    ShardTask,
    run_reference,
    run_shard_task,
)
from repro.faults.injector import BurstInjector, UniformInjector

NON_DIAGONAL = ("rowcol", "hsiao", "hamming_ext")
ALL_CODES = ("diagonal",) + NON_DIAGONAL


def _runner(code, m=5, p=0.02, seed=1234, **kwargs):
    kwargs.setdefault("seeding", "per-trial")
    return CampaignRunner(BlockGrid(15, m), UniformInjector(p),
                          seed=seed, code=code, **kwargs)


class TestScalarVsBatched:
    @pytest.mark.parametrize("code", NON_DIAGONAL)
    @pytest.mark.parametrize("include_check_bits", [True, False])
    def test_u8_matches_scalar_reference(self, code, include_check_bits):
        grid = BlockGrid(15, 5)
        injector = UniformInjector(0.02)
        expected = run_reference(grid, injector, entropy=1234, trials=96,
                                 include_check_bits=include_check_bits,
                                 code=code)
        got = _runner(code,
                      include_check_bits=include_check_bits).run(96)
        assert got.as_dict() == expected.as_dict()

    @pytest.mark.parametrize("code", NON_DIAGONAL)
    def test_packed_matches_u8(self, code):
        u8 = _runner(code).run(96)
        packed = _runner(code, packing="u64").run(96)
        assert packed.as_dict() == u8.as_dict()

    @pytest.mark.parametrize("code", NON_DIAGONAL)
    def test_packed_non_multiple_of_64_trials(self, code):
        """Tail-lane masking: 70 trials needs a partial second word."""
        u8 = _runner(code).run(70)
        packed = _runner(code, packing="u64").run(70)
        assert packed.as_dict() == u8.as_dict()

    @pytest.mark.parametrize("code", NON_DIAGONAL)
    def test_batch_size_invariance(self, code):
        a = _runner(code, batch_size=17).run(100)
        b = _runner(code, batch_size=70).run(100)
        assert a.as_dict() == b.as_dict()

    @pytest.mark.parametrize("code", NON_DIAGONAL)
    def test_m3_geometry(self, code):
        """Second block size: r and plane shapes differ from m=5."""
        grid = BlockGrid(15, 3)
        injector = UniformInjector(0.02)
        expected = run_reference(grid, injector, entropy=9, trials=64,
                                 code=code)
        got = CampaignRunner(grid, injector, seed=9, seeding="per-trial",
                             code=code).run(64)
        assert got.as_dict() == expected.as_dict()

    def test_burst_injector_cross_code(self):
        """Non-uniform injectors ride the same generic plane path."""
        grid = BlockGrid(15, 5)
        injector = BurstInjector(strikes=1, radius=1,
                                 neighbor_probability=0.5)
        for code in NON_DIAGONAL:
            expected = run_reference(grid, injector, entropy=5, trials=48,
                                     code=code)
            got = CampaignRunner(grid, injector, seed=5,
                                 seeding="per-trial", code=code).run(48)
            assert got.as_dict() == expected.as_dict(), code


class TestDiagonalUnchanged:
    def test_default_code_is_diagonal(self):
        runner = CampaignRunner(BlockGrid(15, 5), UniformInjector(0.02),
                                seed=1, seeding="per-trial")
        assert runner.code == "diagonal"

    def test_registry_diagonal_bit_identical_to_default(self):
        base = CampaignRunner(BlockGrid(15, 5), UniformInjector(0.02),
                              seed=1, seeding="per-trial").run(96)
        via_registry = _runner("diagonal", seed=1, p=0.02).run(96)
        assert via_registry.as_dict() == base.as_dict()


class TestValidation:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="not registered|unknown"):
            _runner("nope")


class TestShardTasks:
    @pytest.mark.parametrize("code", NON_DIAGONAL)
    def test_round_trip_and_execution(self, code):
        runner = _runner(code)
        task = runner.shard_task(0, 64)
        assert task.code == code
        revived = ShardTask.from_dict(task.to_dict())
        assert revived.code == code
        expected = run_reference(runner.grid, runner.injector,
                                 entropy=runner.entropy, trials=64,
                                 code=code)
        assert run_shard_task(revived).as_dict() == expected.as_dict()

    def test_missing_code_field_is_malformed(self):
        task = _runner("hsiao").shard_task(0, 8)
        data = task.to_dict()
        del data["code"]
        with pytest.raises(ValueError, match="malformed shard task"):
            ShardTask.from_dict(data)

    def test_sharded_run_matches_reference(self):
        """Multi-process spans of a non-diagonal code merge exactly."""
        runner = _runner("hsiao", seed=7, workers=2)
        expected = run_reference(runner.grid, runner.injector,
                                 entropy=7, trials=200, code="hsiao")
        assert runner.run(200).as_dict() == expected.as_dict()
