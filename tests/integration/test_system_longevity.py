"""System-level longevity scenario: days of operation under soft errors.

Simulates the paper's operating model end to end on a small bank: every
"day" soft errors accumulate (uniform SER), the periodic sweep scrubs
them, and occasionally a SIMD function executes (whose input check
scrubs its operand blocks). The memory must survive for as long as no
block collects two errors within one check window — and must *detect*
(never silently corrupt) when one does.
"""

import numpy as np
import pytest

from repro.arch.config import ArchConfig
from repro.arch.memory import MemoryBank
from repro.circuits import BENCHMARKS
from repro.faults.injector import UniformInjector
from repro.utils.rng import INJECT_STREAM, TrialStreams
from repro.logic.nor_mapping import map_to_nor
from repro.synth.simpler import SimplerConfig, synthesize


class TestLongevity:
    def test_thirty_windows_of_scrubbed_operation(self, rng):
        bank = MemoryBank(crossbars=2, config=ArchConfig(n=15, m=5,
                                                         pc_count=2))
        goldens = []
        for pim in bank.crossbars:
            data = rng.integers(0, 2, (15, 15), dtype=np.uint8)
            pim.write_data(0, 0, data)
            goldens.append(pim.mem.snapshot())

        detected_windows = 0
        for day in range(30):
            injector = UniformInjector(0.004, include_check_bits=False)
            per_block = {}
            for ci, pim in enumerate(bank.crossbars):
                result = injector.inject(pim.mem, streams=TrialStreams(
                    100 + day, ci, ci + 1, INJECT_STREAM))
                for r, c in result.data_flips:
                    key = (ci, pim.grid.block_of(r, c))
                    per_block[key] = per_block.get(key, 0) + 1
            multi = [k for k, v in per_block.items() if v >= 2]

            reports = bank.periodic_check_all()
            uncorrectable = sum(len(rep.uncorrectable)
                                for rep in reports.values())
            if multi:
                # Ground truth says some block had >= 2 errors: it must
                # be *detected* (and this window's data may be lost).
                assert uncorrectable == len(multi)
                detected_windows += 1
                # Re-seed the damaged state to continue the campaign.
                for ci, pim in enumerate(bank.crossbars):
                    with pim.mem.observers_suspended():
                        pim.mem.write_region(0, 0, goldens[ci])
                    pim.store._lead[:] = pim.code.encode(
                        pim.mem.snapshot()).lead
                    pim.store._ctr[:] = pim.code.encode(
                        pim.mem.snapshot()).ctr
            else:
                assert uncorrectable == 0
                for pim, golden in zip(bank.crossbars, goldens):
                    assert (pim.mem.snapshot() == golden).all()
        # With p=0.004 per cell and 9 blocks of 25 cells per crossbar,
        # multi-error windows happen but stay the minority.
        assert detected_windows < 15

    def test_function_execution_interleaved_with_faults(self, rng):
        """A function's pre-execution check scrubs its operand blocks
        even when the periodic sweep hasn't run yet."""
        bank = MemoryBank(crossbars=1, config=ArchConfig(n=105, m=5,
                                                         pc_count=3))
        pim = bank.crossbars[0]
        pim.write_data(0, 0, rng.integers(0, 2, (105, 105), dtype=np.uint8))

        spec = BENCHMARKS["int2float"]
        nor = map_to_nor(spec.build())
        prog = synthesize(nor, SimplerConfig(row_size=105))

        corrected_total = 0
        for round_i in range(5):
            row = 20 * round_i
            pim.mem.flip(row, int(rng.integers(0, 11)))  # input-area fault
            vectors = {nm: rng.integers(0, 2, 1).astype(bool)
                       for nm in nor.input_names}
            outs, _ = pim.execute(prog, [row], vectors)
            assignment = {nm: int(vectors[nm][0]) for nm in nor.input_names}
            for name, val in spec.golden(assignment).items():
                assert int(outs[name][0]) == int(val)
        assert pim.stats.data_corrections == 5
