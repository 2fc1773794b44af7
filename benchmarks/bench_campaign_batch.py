"""Throughput bench: the scalar ``run_reference`` vs the batched engine.

The batched campaign engine exists for one reason — trials/sec on the
Monte-Carlo hot path. This bench pins the claim: at the target geometry
(n=128 has no odd block divisor, so the closest valid geometry n=129,
m=3 is used) the batched engine must clear at least a 5x speedup over
the scalar replay of the same run (``run_reference``). Smaller
differential checks
re-assert that the engines agree bit-for-bit on the tallies while the
clock runs, and every claim is persisted both human-readable (``.txt``)
and machine-readable (``BENCH_*.json``). The packed-kernel pack-tax
gates (uint64 vs uint8, per kernel tier) live in
``bench_kernels.py::test_packed_kernel_pack_tax``.

Run:  pytest benchmarks/bench_campaign_batch.py
"""

from __future__ import annotations

import time

from repro.core.blocks import BlockGrid
from repro.faults import CampaignRunner, UniformInjector

#: Closest valid geometry to the n=128 target (128 = 2^7 has no odd
#: divisor except 1; 129 = 3 * 43 keeps blocks realistic).
GRID = BlockGrid(129, 3)
PROBABILITY = 2e-4
BATCH_TRIALS = 256
SCALAR_TRIALS = 4
REQUIRED_SPEEDUP = 5.0


def _trials_per_second(run, trials: int) -> float:
    t0 = time.perf_counter()
    run(trials)
    return trials / (time.perf_counter() - t0)


def test_batched_engine_speedup(benchmark, save_artifact, save_json):
    """Batched engine beats the scalar reference by >= 5x trials/sec."""
    runner = CampaignRunner(GRID, UniformInjector(PROBABILITY), seed=2,
                            batch_size=64)
    scalar_rate = _trials_per_second(runner.run_reference, SCALAR_TRIALS)
    batch_rate = BATCH_TRIALS / benchmark.pedantic(
        lambda: _measure(runner), rounds=1, iterations=1)

    speedup = batch_rate / scalar_rate
    save_artifact("campaign_batch_throughput.txt", "\n".join([
        f"geometry: n={GRID.n}, m={GRID.m} "
        f"({GRID.blocks_per_side}x{GRID.blocks_per_side} blocks)",
        f"scalar run_reference : {scalar_rate:10.1f} trials/s",
        f"batched engine (B={BATCH_TRIALS}): {batch_rate:10.1f} trials/s",
        f"speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)",
    ]))
    save_json("campaign_batch_throughput", {
        "bench": "campaign_batch_throughput",
        "n": GRID.n, "m": GRID.m, "B": BATCH_TRIALS,
        "backend": "numpy", "packing": "u8",
        "scalar_trials_per_s": scalar_rate,
        "batched_trials_per_s": batch_rate,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
    })
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched engine only {speedup:.1f}x over scalar "
        f"(required {REQUIRED_SPEEDUP}x)")


def test_packed_campaign_end_to_end(save_json):
    """Full packed campaign: tallies identical, throughput recorded.

    End-to-end trials/sec includes the host RNG draws (shared by both
    layouts per the seeding contract), so the gap here is narrower than
    the kernel gate above — the JSON keeps the trajectory honest across
    PRs.
    """
    def rate(packing):
        runner = CampaignRunner(GRID, UniformInjector(PROBABILITY), seed=2,
                                batch_size=256, packing=packing)
        t0 = time.perf_counter()
        result = runner.run(1024)
        return 1024 / (time.perf_counter() - t0), result

    u8_rate, u8_result = rate("u8")
    u64_rate, u64_result = rate("u64")
    assert u8_result.as_dict() == u64_result.as_dict()
    save_json("packed_campaign_end_to_end", {
        "bench": "packed_campaign_end_to_end",
        "n": GRID.n, "m": GRID.m, "B": 1024, "batch_size": 256,
        "backend": "numpy",
        "u8_trials_per_s": u8_rate,
        "u64_trials_per_s": u64_rate,
        "speedup": u64_rate / u8_rate,
    })


def _measure(runner: CampaignRunner) -> float:
    t0 = time.perf_counter()
    runner.run(BATCH_TRIALS)
    return time.perf_counter() - t0


def test_engines_agree_while_benched(benchmark):
    """Speed means nothing if the tallies drift: quick differential gate."""
    trials = 8

    def both():
        runner = CampaignRunner(GRID, UniformInjector(5e-4), seed=4,
                                batch_size=3)
        return runner.run_reference(trials), runner.run(trials)

    s, b = benchmark.pedantic(both, rounds=1, iterations=1)
    assert s.as_dict() == b.as_dict()
