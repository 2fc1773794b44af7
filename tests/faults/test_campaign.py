"""Unit tests for Monte-Carlo fault campaigns."""

from repro.faults.batch import run_reference
from repro.faults.campaign import FaultCampaign
from repro.faults.injector import DeterministicInjector, UniformInjector
from repro.utils.rng import (
    DATA_STREAM,
    INJECT_STREAM,
    TrialStreams,
    trial_stream,
)


def one_trial(campaign, entropy=1, trial=0):
    """``campaign.run_trial`` on trial ``trial``'s keyed streams."""
    return campaign.run_trial(
        trial_stream(entropy, trial, DATA_STREAM),
        TrialStreams(entropy, trial, trial + 1, INJECT_STREAM))


class TestSingleTrials:
    def test_no_faults_clean(self, small_grid):
        campaign = FaultCampaign(small_grid, UniformInjector(0.0))
        kind, faults, multi = one_trial(campaign)
        assert kind == "clean" and faults == 0 and multi == 0

    def test_single_fault_corrected(self, small_grid):
        campaign = FaultCampaign(small_grid,
                                 DeterministicInjector([(7, 7)]))
        kind, faults, _ = one_trial(campaign)
        assert kind == "corrected" and faults == 1

    def test_one_fault_per_block_all_corrected(self, small_grid):
        flips = [(br * 5 + 2, bc * 5 + 3) for br in range(3)
                 for bc in range(3)]
        campaign = FaultCampaign(small_grid, DeterministicInjector(flips))
        kind, faults, multi = one_trial(campaign)
        assert kind == "corrected" and faults == 9 and multi == 0

    def test_double_fault_detected(self, small_grid):
        campaign = FaultCampaign(
            small_grid, DeterministicInjector([(0, 0), (2, 3)]))
        kind, _, multi = one_trial(campaign)
        assert kind == "detected"
        assert multi == 1

    def test_check_bit_fault_corrected(self, small_grid):
        campaign = FaultCampaign(
            small_grid,
            DeterministicInjector(check_flips=[("counter", 2, 1, 1)]))
        kind, faults, _ = one_trial(campaign)
        assert kind == "corrected" and faults == 1


class TestMultiFaultBlockCounting:
    """``_count_multi_fault_blocks`` with check-bit flips in and out."""

    def test_data_plus_own_check_bit_counts_as_multi(self, small_grid):
        """A data flip and a check-bit flip in the same block are two
        upsets of one codeword."""
        campaign = FaultCampaign(
            small_grid,
            DeterministicInjector([(7, 7)],
                                  check_flips=[("leading", 0, 1, 1)]),
            include_check_bits=True)
        kind, faults, multi = one_trial(campaign)
        assert faults == 2
        assert multi == 1
        assert kind == "detected"

    def test_exclude_check_bits_suppresses_check_flips(self, small_grid):
        """With ``include_check_bits=False`` the store is never exposed:
        the check flip does not happen, so the block has one upset."""
        campaign = FaultCampaign(
            small_grid,
            DeterministicInjector([(7, 7)],
                                  check_flips=[("leading", 0, 1, 1)]),
            include_check_bits=False)
        kind, faults, multi = one_trial(campaign)
        assert faults == 1
        assert multi == 0
        assert kind == "corrected"

    def test_two_check_bits_same_block(self, small_grid):
        campaign = FaultCampaign(
            small_grid,
            DeterministicInjector(check_flips=[("leading", 0, 2, 2),
                                               ("counter", 1, 2, 2)]),
            include_check_bits=True)
        _, faults, multi = one_trial(campaign)
        assert faults == 2
        assert multi == 1

    def test_flips_in_distinct_blocks_are_not_multi(self, small_grid):
        campaign = FaultCampaign(
            small_grid,
            DeterministicInjector([(0, 0)],
                                  check_flips=[("counter", 2, 2, 2)]),
            include_check_bits=True)
        kind, faults, multi = one_trial(campaign)
        assert faults == 2
        assert multi == 0
        assert kind == "corrected"


class TestAggregation:
    def test_run_counts_sum(self, small_grid):
        result = run_reference(small_grid, UniformInjector(0.002), 5, 20)
        assert result.trials == 20
        assert result.clean + result.corrected + result.detected + \
            result.silent == 20

    def test_failure_rate_definition(self, small_grid):
        result = run_reference(
            small_grid, DeterministicInjector([(0, 0), (1, 1)]), 2, 5)
        assert result.failure_rate == 1.0
        assert result.silent_rate == 0.0

    def test_as_dict_keys(self, small_grid):
        d = run_reference(small_grid, UniformInjector(0.0), 0, 1).as_dict()
        assert {"trials", "failure_rate", "silent_rate"} <= set(d)

    def test_empty_result_rates(self, small_grid):
        from repro.faults.campaign import CampaignResult
        empty = CampaignResult()
        assert empty.failure_rate == 0.0
        assert empty.silent_rate == 0.0
