"""Differential suite: campaign tallies do not depend on a kernel tier.

The kernel tier (:mod:`repro.utils.kernels`) serves the per-code
reference kernels and the packed logic evaluation; the fault-centric
campaign engine calls none of it. So a worker whose tier cannot resolve
at all (one built without the compiled extension its dispatcher has,
say) must produce bit-identical tallies for every registered code,
packing and simulator family, through every execution surface:
in-process engines, the estimators that ride them, shard tasks and
their wire form. Shard tasks carry no tier name; a task body that still
names one (a field dropped at wire version 7) is malformed.
"""

import json
import sys

import numpy as np
import pytest

from repro.analysis.scrub import empirical_scrub_failure
from repro.core.blocks import BlockGrid
from repro.distributed.wire import decode_task, encode_task
from repro.faults import DriftInjector, DriftModel
from repro.faults.batch import (
    CampaignRunner,
    ShardTask,
    run_reference,
    run_shard_task,
)
from repro.faults.injector import (
    BurstInjector,
    CheckBitInjector,
    LinearBurstInjector,
    UniformInjector,
)
from repro.obs import metrics
from repro.reliability import (
    estimate_block_failure_rate,
    simulate_burst_survival,
    simulate_drift_survival,
)
from repro.utils.bitpack import popcount_words
from repro.utils.kernels import KernelUnavailableError

ALL_CODES = ("diagonal", "rowcol", "hsiao", "hamming_ext")

INJECTORS = {
    "uniform": lambda: UniformInjector(0.02),
    "burst": lambda: BurstInjector(strikes=2, radius=1,
                                   neighbor_probability=0.25),
    "linear_burst": lambda: LinearBurstInjector(3, orientation="col"),
    "check_bit": lambda: CheckBitInjector(0.01),
    "drift": lambda: DriftInjector(
        DriftModel(tau_hours=200.0, beta=2.0, abrupt_fit_per_bit=1e5),
        24.0, refresh_period_hours=6.0),
}

_DRIFT = DriftModel(tau_hours=150.0, beta=2.0, abrupt_fit_per_bit=5e5)

#: The estimators that ride the campaign engine, each as a thunk.
ESTIMATORS = {
    "montecarlo": lambda: estimate_block_failure_rate(
        BlockGrid(15, 5), 0.02, trials=40, seed=5),
    "drift": lambda: simulate_drift_survival(
        BlockGrid(15, 5), _DRIFT, 24.0, 4.0, trials=20, seed=3).as_dict(),
    "burst": lambda: simulate_burst_survival(BlockGrid(15, 5), 2, 30,
                                             seed=4),
    "scrub": lambda: empirical_scrub_failure(BlockGrid(9, 3), 5e6, 24, 16,
                                             seed=4),
}


def _unavailable(*args, **kwargs):
    raise KernelUnavailableError("no kernel tier on this worker")


@pytest.fixture
def drop_tier(monkeypatch):
    """A switch that makes every ``get_kernels`` of the package raise.

    Tests compute their reference first, then throw the switch; the
    patch ends with the test.
    """
    def drop():
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and hasattr(module, "get_kernels"):
                monkeypatch.setattr(module, "get_kernels", _unavailable)
    return drop


def _runner(code, packing="u64", injector=None, seed=4321, **kwargs):
    kwargs.setdefault("seeding", "per-trial")
    return CampaignRunner(BlockGrid(15, 5),
                          injector or UniformInjector(0.02),
                          seed=seed, code=code, packing=packing, **kwargs)


def test_switch_removes_the_tier(drop_tier):
    """Guard against a vacuous suite: kernel users really fail."""
    words = np.arange(4, dtype=np.uint64)
    assert popcount_words(words).tolist() == [0, 1, 1, 2]
    drop_tier()
    with pytest.raises(KernelUnavailableError):
        popcount_words(words)


class TestTierFreeTallies:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_packed_campaign_matches_tiered_run(self, code, drop_tier):
        expected = _runner(code).run(96).as_dict()
        drop_tier()
        assert _runner(code).run(96).as_dict() == expected

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_ragged_tail_trials(self, code, drop_tier):
        """70 trials: the last word's tail lanes are padding."""
        expected = _runner(code).run(70).as_dict()
        drop_tier()
        assert _runner(code).run(70).as_dict() == expected

    def test_u8_path_matches_scalar_reference(self, drop_tier):
        grid = BlockGrid(15, 5)
        expected = run_reference(grid, UniformInjector(0.02), entropy=4321,
                                 trials=96)
        drop_tier()
        got = _runner("diagonal", packing="u8").run(96)
        assert got.as_dict() == expected.as_dict()

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_scalar_reference_needs_no_tier(self, code, drop_tier):
        """The scalar replay checks tier-free workers too."""
        expected = _runner(code).run(64).as_dict()
        drop_tier()
        assert _runner(code).run_reference(64).as_dict() == expected

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_shard_task_executes_identically(self, code, drop_tier):
        task = _runner(code).shard_task(0, 96)
        expected = run_shard_task(task).as_dict()
        drop_tier()
        assert run_shard_task(task).as_dict() == expected

    @pytest.mark.parametrize("kind", sorted(INJECTORS))
    def test_every_injector_kind_runs_without_a_tier(self, kind,
                                                      drop_tier):
        task = _runner("diagonal",
                       injector=INJECTORS[kind]()).shard_task(32, 96)
        expected = run_shard_task(task).as_dict()
        drop_tier()
        assert run_shard_task(decode_task(encode_task(task))).as_dict() \
            == expected

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_estimators_match_tiered_run(self, name, drop_tier):
        expected = ESTIMATORS[name]()
        drop_tier()
        assert ESTIMATORS[name]() == expected


class TestTierPlumbing:
    def test_task_dict_round_trip(self):
        task = _runner("diagonal").shard_task(0, 32)
        data = task.to_dict()
        assert not {"kernels_name", "backend_name"} & set(data)
        assert ShardTask.from_dict(json.loads(json.dumps(data))).to_dict() \
            == data

    def test_unknown_tier_on_task_fails_loudly(self):
        data = _runner("diagonal").shard_task(0, 8).to_dict()
        data["kernels_name"] = "fpga"
        with pytest.raises(ValueError,
                           match="malformed shard task.*kernels_name"):
            ShardTask.from_dict(data)

    def test_backend_name_on_task_fails_loudly(self):
        data = _runner("diagonal").shard_task(0, 8).to_dict()
        data["backend_name"] = "cupy"
        with pytest.raises(ValueError,
                           match="malformed shard task.*backend_name"):
            ShardTask.from_dict(data)

    def test_shard_metrics_carry_no_tier_label(self):
        previous = metrics.set_enabled(True)
        try:
            run_shard_task(_runner("hsiao").shard_task(0, 8))
        finally:
            metrics.set_enabled(previous)
        samples = [line for line in metrics.render_prometheus().splitlines()
                   if line.startswith(("repro_shard_tasks_total{",
                                       "repro_shard_seconds_count{"))]
        assert any('code="hsiao"' in line for line in samples)
        assert samples and not any("kernels=" in line for line in samples)
