"""The engine's block plan: blocks sized by expected fault events.

``batch_size=None`` (the default) lets :meth:`BatchCampaign.plan_blocks`
cut a trial range into whole, aligned 64-trial groups holding about
``BLOCK_EVENTS`` expected fault events each. The plan may change only
how fast a run is, never what it tallies: planned runs equal fixed
``batch_size=64`` runs and the scalar ``run_reference`` for every
injector kind and code, over aligned and unaligned spans, and a spec's
cache key does not see ``batch_size``.

The CI ``differential`` leg runs this file with the slow filter
cleared, which adds the exhaustive split-point check.
"""

import math

import pytest

from repro.core.blocks import BlockGrid
from repro.distributed.wire import (
    WIRE_VERSION,
    WireFormatError,
    decode_task,
    encode_task,
    task_from_wire_dict,
    task_wire_dict,
)
from repro.faults.batch import (
    BLOCK_EVENTS,
    MAX_BLOCK_GROUPS,
    BatchCampaign,
    CampaignRunner,
    ShardTask,
    merge_results,
    planned_groups,
    run_reference,
    run_shard_task,
)
from repro.faults.drift import DriftInjector, DriftModel
from repro.faults.injector import (
    BurstInjector,
    CheckBitInjector,
    DeterministicInjector,
    LinearBurstInjector,
    UniformInjector,
)
from repro.service import CampaignJobSpec, InjectorSpec
from repro.utils.rng import GROUP_TRIALS

ENTROPY = 0x5EED_B10C
GRID = BlockGrid(15, 5)
CODES = ("diagonal", "rowcol", "hsiao", "hamming_ext")
PERFBENCH_GRID = BlockGrid(129, 3)
PERFBENCH_RATES = (2e-4, 1e-2)


def drift(p):
    """A drift injector whose per-cell flip probability is ``p``."""
    tau = 100.0
    return DriftInjector(DriftModel(tau_hours=tau, beta=2.0,
                                    abrupt_fit_per_bit=0.0),
                         window_hours=tau * math.sqrt(-math.log1p(-p)))


INJECTORS = {
    "uniform": UniformInjector,
    "check_bit": CheckBitInjector,
    "drift": drift,
    "burst": lambda p: BurstInjector(
        strikes=2, radius=1, neighbor_probability=0.5),
    "linear_burst": lambda p: LinearBurstInjector(3),
    # Two flips in one block, and a pair that cancels.
    "deterministic": lambda p: DeterministicInjector(
        [(0, 0), (2, 3), (7, 7), (7, 7)]),
}


def tallies(result):
    return result.as_dict()


def check_plan(engine, lo, hi, groups):
    """``plan_blocks(lo, hi)`` tiles the range with non-empty blocks of
    whole, aligned groups (cut only at the range's edges), each of at
    most ``groups`` groups."""
    blocks = engine.plan_blocks(lo, hi)
    assert blocks[0][0] == lo and blocks[-1][1] == hi
    assert all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))
    for a, b in blocks:
        assert a < b
        assert a == lo or a % GROUP_TRIALS == 0
        assert b == hi or b % GROUP_TRIALS == 0
        assert (b - 1) // GROUP_TRIALS - a // GROUP_TRIALS + 1 <= groups
    return blocks


class TestPlanner:
    @pytest.mark.parametrize("p", [0.0, 1e-11, 2e-4, 1e-3, 1e-2, 0.3])
    @pytest.mark.parametrize("lo,hi", [(0, 512), (5, 300), (64, 129),
                                       (63, 65), (1000, 70_000)])
    def test_blocks_are_whole_aligned_groups_under_the_cap(self, p, lo,
                                                           hi):
        injector = UniformInjector(p)
        engine = BatchCampaign(PERFBENCH_GRID, injector)
        rate = injector.events_per_trial(engine._data_shape,
                                         engine._plane_shapes)
        groups = planned_groups(rate)
        assert 1 <= groups <= MAX_BLOCK_GROUPS
        # About BLOCK_EVENTS expected events per block, or one group.
        assert groups == 1 or groups * GROUP_TRIALS * rate <= BLOCK_EVENTS
        check_plan(engine, lo, hi, groups)

    def test_events_per_trial_is_p_times_exposed_cells(self):
        engine = BatchCampaign(PERFBENCH_GRID, UniformInjector(2e-4))
        rate = engine.injector.events_per_trial(engine._data_shape,
                                                engine._plane_shapes)
        assert rate == pytest.approx(2e-4 * 27_735)

    def test_sparse_perfbench_job_is_one_block(self):
        engine = BatchCampaign(PERFBENCH_GRID, UniformInjector(2e-4))
        assert engine.plan_blocks(0, 512) == [(0, 512)]

    def test_dense_block_is_one_group(self):
        engine = BatchCampaign(PERFBENCH_GRID, UniformInjector(1e-2))
        assert engine.plan_blocks(0, 512) == [
            (a, a + GROUP_TRIALS) for a in range(0, 512, GROUP_TRIALS)]
        assert engine.plan_blocks(5, 130) == [(5, 64), (64, 128),
                                              (128, 130)]

    @pytest.mark.parametrize("kind", ["burst", "linear_burst"])
    def test_burst_injectors_plan_one_group(self, kind):
        engine = BatchCampaign(GRID, INJECTORS[kind](0.0))
        check_plan(engine, 5, 300, 1)

    def test_tiny_rates_stop_at_the_cap(self):
        """At the paper's SER a block would otherwise span ~3.5e8
        trials; the cap keeps it at MAX_BLOCK_GROUPS groups."""
        engine = BatchCampaign(BlockGrid(1020, 15), UniformInjector(1e-11))
        blocks = check_plan(engine, 0, 10**8, MAX_BLOCK_GROUPS)
        assert max(b - a for a, b in blocks) == \
            MAX_BLOCK_GROUPS * GROUP_TRIALS
        assert planned_groups(0.0) == MAX_BLOCK_GROUPS
        assert planned_groups(None) == 1

    def test_cap_block_matches_fixed_blocks(self):
        """A full-cap block tallies like fixed blocks without any
        per-trial array."""
        trials = MAX_BLOCK_GROUPS * GROUP_TRIALS + 70
        injector = UniformInjector(2e-4)
        planned = BatchCampaign(BlockGrid(9, 3), injector)
        assert len(planned.plan_blocks(0, trials)) == 2
        fixed = BatchCampaign(BlockGrid(9, 3), injector, batch_size=4096)
        assert tallies(planned.run_range_seeded(ENTROPY, 0, trials)) == \
            tallies(fixed.run_range_seeded(ENTROPY, 0, trials))

    def test_explicit_batch_size_keeps_fixed_chunks(self):
        engine = BatchCampaign(GRID, UniformInjector(0.02), batch_size=10)
        assert engine.plan_blocks(5, 38) == [(5, 15), (15, 25), (25, 35),
                                             (35, 38)]
        assert engine.plan_blocks(7, 7) == []

    def test_nonpositive_batch_size_refused(self):
        with pytest.raises(ValueError, match="batch_size"):
            BatchCampaign(GRID, UniformInjector(0.02), batch_size=0)


# ---------------------------------------------------------------------- #
# Differential: planned == fixed == scalar reference
# ---------------------------------------------------------------------- #

def engines(injector, code, include_check_bits=True):
    return [BatchCampaign(GRID, injector, code=code, batch_size=size,
                          include_check_bits=include_check_bits)
            for size in (None, 64)]


def spans_run(engine, spans):
    return merge_results([engine.run_range_seeded(ENTROPY, a, b)
                          for a, b in spans])


class TestPlannedTalliesPerTrial:
    @pytest.mark.parametrize("code", CODES)
    @pytest.mark.parametrize("kind", sorted(INJECTORS))
    def test_planned_equals_fixed_and_reference(self, kind, code):
        injector = INJECTORS[kind](0.02)
        planned, fixed = engines(injector, code)
        for lo, hi in [(5, 300), (64, 129), (0, 300)]:
            assert tallies(planned.run_range_seeded(ENTROPY, lo, hi)) == \
                tallies(fixed.run_range_seeded(ENTROPY, lo, hi))
        reference = tallies(run_reference(GRID, injector, ENTROPY, 300,
                                          code=code))
        assert tallies(spans_run(planned, [(0, 5), (5, 300)])) == reference
        assert tallies(spans_run(planned, [(0, 64), (64, 129),
                                           (129, 300)])) == reference

    @pytest.mark.parametrize("code", CODES)
    @pytest.mark.parametrize("kind,p", [("uniform", 0.3), ("drift", 0.3),
                                        ("check_bit", 0.9)])
    def test_multi_block_plans_at_a_dense_rate(self, kind, p, code):
        """At these rates a plan holds several multi-group blocks."""
        injector = INJECTORS[kind](p)
        planned, fixed = engines(injector, code)
        assert len(planned.plan_blocks(5, 400)) > 1
        for lo, hi in [(5, 400), (64, 129)]:
            assert tallies(planned.run_range_seeded(ENTROPY, lo, hi)) == \
                tallies(fixed.run_range_seeded(ENTROPY, lo, hi))
        if code == "diagonal":
            assert tallies(spans_run(planned, [(0, 5), (5, 400)])) == \
                tallies(run_reference(GRID, injector, ENTROPY, 400))

    def test_data_only_exposure(self):
        injector = UniformInjector(0.02, include_check_bits=False)
        planned, fixed = engines(injector, "hsiao", include_check_bits=False)
        assert tallies(planned.run_range_seeded(ENTROPY, 5, 300)) == \
            tallies(fixed.run_range_seeded(ENTROPY, 5, 300))

    def test_runner_default_is_planned_and_shard_invariant(self):
        def runner(**kwargs):
            return CampaignRunner(GRID, UniformInjector(0.02), seed=ENTROPY,
                                  seeding="per-trial", **kwargs)

        assert runner().batch_size is None
        expected = tallies(runner(batch_size=64).run(300))
        assert tallies(runner().run(300)) == expected
        assert tallies(runner(workers=2).run(300)) == expected
        assert runner().shard_task(5, 300).batch_size is None


class TestPlannedTalliesRunner:
    """A default ``CampaignRunner`` (no ``batch_size``, no ``seeding``)
    hands every injector kind and code to the planned engine."""

    @pytest.mark.parametrize("code", CODES)
    @pytest.mark.parametrize("kind", sorted(INJECTORS))
    def test_planned_equals_fixed(self, kind, code):
        def run(batch_size):
            return CampaignRunner(GRID, INJECTORS[kind](0.02), seed=7,
                                  batch_size=batch_size,
                                  code=code).run(300)

        assert tallies(run(None)) == tallies(run(64))

    @pytest.mark.parametrize("kind", sorted(INJECTORS))
    def test_default_run_equals_reference(self, kind):
        runner = CampaignRunner(GRID, INJECTORS[kind](0.02), seed=7)
        assert tallies(runner.run(64)) == tallies(runner.run_reference(64))


# ---------------------------------------------------------------------- #
# Split points of one range
# ---------------------------------------------------------------------- #

def check_splits(p, splits, trials=256):
    injector = UniformInjector(p)
    planned = BatchCampaign(PERFBENCH_GRID, injector)
    whole = tallies(planned.run_range_seeded(ENTROPY, 0, trials))
    fixed = BatchCampaign(PERFBENCH_GRID, injector, batch_size=64)
    assert whole == tallies(fixed.run_range_seeded(ENTROPY, 0, trials))
    for split in splits:
        assert tallies(spans_run(planned, [(0, split), (split, trials)])) \
            == whole, split
    return whole


class TestSplitPoints:
    @pytest.mark.parametrize("p", PERFBENCH_RATES)
    def test_selected_split_points(self, p):
        check_splits(p, [1, 5, 63, 64, 65, 128, 200, 255])

    @pytest.mark.slow
    @pytest.mark.parametrize("p", PERFBENCH_RATES)
    def test_every_split_point(self, p):
        whole = check_splits(p, range(1, 256))
        reference = run_reference(PERFBENCH_GRID, UniformInjector(p),
                                  ENTROPY, 256)
        assert whole == tallies(reference)


# ---------------------------------------------------------------------- #
# Spec and wire
# ---------------------------------------------------------------------- #

def campaign_spec(**overrides):
    fields = dict(n=15, m=5, trials=300, seed=12,
                  injector=InjectorSpec("uniform", {"probability": 0.02}))
    fields.update(overrides)
    return CampaignJobSpec(**fields)


class TestSpecAndWire:
    def test_batch_size_is_not_in_the_cache_key(self):
        keys = {campaign_spec(batch_size=size).normalized().cache_key()
                for size in (None, 64, 17)}
        assert len(keys) == 1
        assert campaign_spec().batch_size is None

    def test_planned_spec_runs_like_a_fixed_one(self):
        planned = campaign_spec().normalized().build_runner().run(300)
        fixed = campaign_spec(batch_size=64).normalized() \
            .build_runner().run(300)
        assert tallies(planned) == tallies(fixed)

    def test_null_batch_size_round_trips_the_wire(self):
        task = ShardTask(n=15, m=5, injector=UniformInjector(0.02),
                         entropy=ENTROPY, lo=5, hi=300, code="rowcol")
        assert task.batch_size is None
        envelope = task_wire_dict(task)
        assert WIRE_VERSION == 8
        assert envelope["version"] == WIRE_VERSION
        assert envelope["task"]["batch_size"] is None
        decoded = decode_task(encode_task(task))
        assert decoded.batch_size is None
        assert decoded.to_dict() == task.to_dict()
        fixed = ShardTask(**{**vars(task), "batch_size": 64})
        assert tallies(run_shard_task(decoded)) == \
            tallies(run_shard_task(task)) == tallies(run_shard_task(fixed))

    def test_version_7_worker_envelope_refused(self):
        task = ShardTask(n=15, m=5, injector=UniformInjector(0.02),
                         entropy=ENTROPY, lo=0, hi=64)
        envelope = task_wire_dict(task)
        envelope["version"] = 7
        with pytest.raises(WireFormatError, match="wire version"):
            task_from_wire_dict(envelope)
