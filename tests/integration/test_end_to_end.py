"""Integration tests: the full pipeline on one protected crossbar.

These tests wire every subsystem together: circuit generators -> NOR
mapping -> SIMPLER -> ECC-protected execution on the simulated hardware
with fault injection, checking, and correction — the complete story of
the paper on a scaled-down geometry.
"""

import numpy as np
import pytest

from repro.arch.config import ArchConfig
from repro.arch.pim import ProtectedPIM
from repro.circuits import BENCHMARKS
from repro.faults.injector import UniformInjector
from repro.utils.rng import INJECT_STREAM, TrialStreams
from repro.logic.nor_mapping import map_to_nor
from repro.synth.ecc_scheduler import EccTimingModel
from repro.synth.simpler import SimplerConfig, synthesize


@pytest.fixture(scope="module")
def ctrl_parts():
    spec = BENCHMARKS["ctrl"]
    nor = map_to_nor(spec.build())
    prog = synthesize(nor, SimplerConfig(row_size=105))
    return spec, nor, prog


class TestProtectedExecutionPipeline:
    def test_simd_execution_with_injected_faults(self, ctrl_parts, rng):
        """Inject one error per input block, execute SIMD, verify both
        the corrections and the outputs."""
        spec, nor, prog = ctrl_parts
        pim = ProtectedPIM(ArchConfig(n=105, m=5, pc_count=3))
        pim.write_data(0, 0, rng.integers(0, 2, (105, 105), dtype=np.uint8))

        rows = [0, 1, 2, 3]
        # Errors inside the input blocks of the executing rows' block-row.
        pim.mem.flip(0, 2)
        pim.mem.flip(3, 6)
        vectors = {nm: rng.integers(0, 2, len(rows)).astype(bool)
                   for nm in nor.input_names}
        outs, sched = pim.execute(prog, rows, vectors)
        assert pim.stats.data_corrections == 2
        for lane in range(len(rows)):
            assignment = {nm: int(vectors[nm][lane])
                          for nm in nor.input_names}
            for name, val in spec.golden(assignment).items():
                assert int(outs[name][lane]) == int(val)

    def test_fault_during_idle_corrected_by_periodic_check(self, rng):
        pim = ProtectedPIM(ArchConfig(n=105, m=5, pc_count=3))
        data = rng.integers(0, 2, (105, 105), dtype=np.uint8)
        pim.write_data(0, 0, data)
        injector = UniformInjector(0.0005, include_check_bits=False)
        result = injector.inject(
            pim.mem, streams=TrialStreams(3, 0, 1, INJECT_STREAM))
        sweep = pim.periodic_check()
        # Every injected fault hit a distinct block at this rate/seed.
        assert sweep.data_corrections == len(result.data_flips)
        assert (pim.mem.snapshot() == data).all()

    def test_repeated_program_runs_keep_parity(self, ctrl_parts, rng):
        spec, nor, prog = ctrl_parts
        pim = ProtectedPIM(ArchConfig(n=105, m=5, pc_count=3))
        pim.write_data(0, 0, rng.integers(0, 2, (105, 105), dtype=np.uint8))
        for trial in range(4):
            vectors = {nm: rng.integers(0, 2, 2).astype(bool)
                       for nm in nor.input_names}
            pim.execute(prog, [10 * trial, 10 * trial + 5], vectors)
        fresh = pim.code.encode(pim.mem.snapshot())
        assert (fresh.lead == pim.store.lead).all()
        assert (fresh.ctr == pim.store.ctr).all()
        assert pim.periodic_check().clean

    def test_latency_decomposition_matches_arch_config(self, ctrl_parts):
        spec, nor, prog = ctrl_parts
        pim = ProtectedPIM(ArchConfig(n=105, m=5, pc_count=8))
        _, sched = pim.execute(prog, [0],
                               {nm: 0 for nm in nor.input_names})
        # ctrl: 7 inputs in one m=5 geometry -> ceil(7/5)=2 blocks.
        assert sched.check_blocks == 2
        assert sched.check_mem_cycles == 10
        # 26 control lines, but structurally identical ones (e.g. trap /
        # exception_enter) hash to the same node: 22 distinct output
        # cells, hence 22 critical operations.
        assert sched.critical_ops == 22


class TestScaledPaperScenario:
    """A 1020-wide run of the real geometry on one benchmark."""

    def test_dec_full_width(self, rng):
        spec = BENCHMARKS["dec"]
        nor = map_to_nor(spec.build())
        prog = synthesize(nor, SimplerConfig(row_size=1020))
        pim = ProtectedPIM(ArchConfig(n=1020, m=15, pc_count=8))
        vectors = {nm: rng.integers(0, 2, 2).astype(bool)
                   for nm in nor.input_names}
        outs, sched = pim.execute(prog, [0, 509], vectors)
        for lane in range(2):
            assignment = {nm: int(vectors[nm][lane])
                          for nm in nor.input_names}
            golden = spec.golden(assignment)
            hot = [k for k in range(256) if int(outs[f"d[{k}]"][lane])]
            expected_hot = [k for k in range(256) if golden[f"d[{k}]"]]
            assert hot == expected_hot
        assert sched.check_blocks == 1          # 8 inputs in one block
        assert sched.critical_ops == 256
        assert sched.overhead_pct > 100         # dec is the worst case
