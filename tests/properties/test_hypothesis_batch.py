"""Property-based tests (hypothesis) for the batched campaign engine.

Invariants pinned here:

* batched encode agrees with the scalar per-block encoder, and a batched
  syndrome of uncorrupted data decodes to all-NO_ERROR (encode∘decode
  round-trip);
* single-bit corruption anywhere in a stacked codeword is located and
  repaired by the batched sweep;
* campaign classification is a partition: clean + corrected + detected +
  silent == trials, always;
* per-trial seeding is deterministic and invariant under shard layout
  and batch size — for the uniform-SER, drift-window, and linear-burst
  injectors alike (the whole simulator family rides one engine);
* the packed (u64) layout gives the u8 layout's tallies, trial for
  trial, across the family.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockGrid
from repro.core.checker import check_all_batched
from repro.core.code import BATCH_NO_ERROR, DiagonalParityCode
from repro.faults import (
    BatchCampaign,
    DriftInjector,
    DriftModel,
    LinearBurstInjector,
    UniformInjector,
    merge_results,
)
from repro.utils.rng import shard_bounds

#: Small geometries: (n, m) with n a multiple of odd m.
geometries = st.sampled_from([(9, 3), (15, 3), (15, 5), (25, 5)])


@st.composite
def stacked_data(draw, max_batch=5):
    n, m = draw(geometries)
    batch = draw(st.integers(1, max_batch))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, (batch, n, n)).astype(np.uint8)
    return BlockGrid(n, m), data


class TestBatchedCode:
    @given(stacked_data())
    @settings(max_examples=40)
    def test_encode_batch_matches_scalar_encode(self, gd):
        grid, data = gd
        code = DiagonalParityCode(grid)
        lead, ctr = code.encode_batch(data)
        for i in range(data.shape[0]):
            store = code.encode(data[i])
            assert (lead[i] == store.lead).all()
            assert (ctr[i] == store.ctr).all()

    @given(stacked_data())
    @settings(max_examples=40)
    def test_clean_syndrome_roundtrip(self, gd):
        """encode∘decode round-trip: uncorrupted stacks decode clean."""
        grid, data = gd
        code = DiagonalParityCode(grid)
        lead, ctr = code.encode_batch(data)
        sweep = check_all_batched(grid, code, data.copy(), lead.copy(),
                                  ctr.copy())
        assert (sweep.status == BATCH_NO_ERROR).all()
        assert sweep.clean.all()

    @given(stacked_data(), st.data())
    @settings(max_examples=40)
    def test_single_flip_always_repaired(self, gd, payload):
        """One upset per stacked trial is located and reversed exactly."""
        grid, data = gd
        batch, n = data.shape[0], grid.n
        code = DiagonalParityCode(grid)
        lead, ctr = code.encode_batch(data)
        golden = data.copy()
        for i in range(batch):
            r = payload.draw(st.integers(0, n - 1))
            c = payload.draw(st.integers(0, n - 1))
            data[i, r, c] ^= 1
        sweep = check_all_batched(grid, code, data, lead, ctr)
        assert (data == golden).all()
        assert not sweep.uncorrectable_any.any()

    @given(stacked_data(), st.data())
    @settings(max_examples=40)
    def test_single_check_bit_flip_always_repaired(self, gd, payload):
        grid, data = gd
        code = DiagonalParityCode(grid)
        lead, ctr = code.encode_batch(data)
        golden_lead, golden_ctr = lead.copy(), ctr.copy()
        b = grid.blocks_per_side
        for i in range(data.shape[0]):
            plane = lead if payload.draw(st.booleans()) else ctr
            d = payload.draw(st.integers(0, grid.m - 1))
            br = payload.draw(st.integers(0, b - 1))
            bc = payload.draw(st.integers(0, b - 1))
            plane[i, d, br, bc] ^= 1
        check_all_batched(grid, code, data, lead, ctr)
        assert (lead == golden_lead).all()
        assert (ctr == golden_ctr).all()


class TestCampaignProperties:
    @given(geometries,
           st.floats(0.0, 0.2),
           st.integers(0, 2 ** 31 - 1),
           st.integers(1, 30),
           st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_classification_partitions_trials(self, nm, p, seed, trials,
                                              batch_size):
        n, m = nm
        result = BatchCampaign(BlockGrid(n, m),
                               UniformInjector(p, seed=seed),
                               seed=seed + 1,
                               batch_size=batch_size).run(trials)
        assert result.trials == trials
        assert (result.clean + result.corrected + result.detected
                + result.silent) == trials
        assert result.clean >= 0 and result.corrected >= 0
        assert result.detected >= 0 and result.silent >= 0
        assert result.injected_faults >= 0

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 20),
           st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_shard_count_determinism(self, entropy, trials, shards,
                                     batch_size):
        """Per-trial seeding: any shard layout, same tallies."""
        grid = BlockGrid(9, 3)

        def engine(bs):
            return BatchCampaign(grid, UniformInjector(0.05, seed=0),
                                 batch_size=bs)
        whole = engine(batch_size).run_range_seeded(entropy, 0, trials)
        sharded = merge_results([
            engine(2).run_range_seeded(entropy, lo, hi)
            for lo, hi in shard_bounds(trials, shards)])
        assert whole.as_dict() == sharded.as_dict()



#: Injector factories spanning the whole simulator family; each takes a
#: seed so sequential campaigns are reconstructible.
INJECTOR_FAMILY = [
    lambda seed: UniformInjector(0.05, seed=seed),
    lambda seed: DriftInjector(
        DriftModel(tau_hours=150.0, beta=2.0, abrupt_fit_per_bit=5e5),
        window_hours=24.0, refresh_period_hours=6.0, seed=seed),
    lambda seed: LinearBurstInjector(2, "row", seed=seed),
]


class TestUnifiedEngineProperties:
    """The drift and burst paths obey the same engine invariants as the
    uniform-SER campaigns — one vectorized engine, one contract."""

    @given(st.integers(0, len(INJECTOR_FAMILY) - 1),
           st.integers(0, 2 ** 31 - 1), st.integers(1, 16),
           st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_shard_layout_invariance_across_family(self, which, entropy,
                                                   trials, shards,
                                                   batch_size):
        grid = BlockGrid(9, 3)
        make = INJECTOR_FAMILY[which]

        def engine(bs):
            return BatchCampaign(grid, make(0), batch_size=bs)
        whole = engine(batch_size).run_range_seeded(entropy, 0, trials)
        sharded = merge_results([
            engine(2).run_range_seeded(entropy, lo, hi)
            for lo, hi in shard_bounds(trials, shards)])
        assert whole.as_dict() == sharded.as_dict()

    @given(st.integers(0, len(INJECTOR_FAMILY) - 1),
           st.integers(0, 2 ** 31 - 1), st.integers(1, 140),
           st.integers(1, 130))
    @settings(max_examples=15, deadline=None)
    def test_packing_invariance_across_family(self, which, entropy,
                                              trials, batch_size):
        """The bit-sliced layout is invisible in the tallies: one trial
        per lane of a uint64 word decodes exactly like one per uint8
        slab, ragged tail words and multi-word batches included."""
        grid = BlockGrid(9, 3)
        make = INJECTOR_FAMILY[which]

        def tallies(packing):
            return BatchCampaign(grid, make(0), batch_size=batch_size,
                                 packing=packing).run_range_seeded(
                entropy, 0, trials).as_dict()
        assert tallies("u64") == tallies("u8")

    @given(st.integers(0, len(INJECTOR_FAMILY) - 1),
           st.integers(0, 2 ** 31 - 1), st.integers(1, 20),
           st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_classification_partitions_across_family(self, which, seed,
                                                     trials, batch_size):
        grid = BlockGrid(9, 3)
        result = BatchCampaign(grid, INJECTOR_FAMILY[which](seed),
                               seed=seed + 1,
                               batch_size=batch_size).run(trials)
        assert result.trials == trials
        assert (result.clean + result.corrected + result.detected
                + result.silent) == trials
