"""Engine workloads: ``CampaignRunner.run`` in the benchmark's own process.

A job is one ``CampaignRunner.run`` call of ``JOB_TRIALS`` trials under
its own entropy, issued back to back, so ``jobs_per_s`` and the job
latencies mean the same thing here as on the serving workloads. The
jobs keep one CPU busy, so ``trials_per_s`` is host-calibrated
(:mod:`hostspeed`).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import astuple
from time import perf_counter, perf_counter_ns
from typing import Iterable, List, Optional, Sequence, Tuple

import repro.faults.batch as batch_mod
import repro.faults.injector as injector_mod
from repro.core.blocks import BlockGrid
from repro.core.registry import build_code
from repro.faults.batch import (DEFAULT_BATCH_SIZE, CampaignRunner,
                                merge_results)
from repro.faults.injector import UniformInjector
from repro.reliability.model import log_block_success_probability

import common
import hostspeed
import stats

RATES = {"campaign_sparse": 2e-4, "campaign_dense": 1e-2}

#: Trials per job: 8 engine blocks at the default batch size, about
#: 130 jobs in a 20-second window.
JOB_TRIALS = 512

#: Untimed jobs before the window; the first block runs slow.
WARMUP_JOBS = 2

#: Trials of the first job's entropy replayed through ``run_reference``.
ORACLE_TRIALS = 16

#: Largest |z| of a tally against the closed-form model.
MAX_Z = 5.0

#: Host-speed slices after each job (about 5 ms each).
REFERENCE_SLICES = 2


def make_runner(p: float, job_entropy: int) -> CampaignRunner:
    return CampaignRunner(
        BlockGrid(common.N, common.M),
        UniformInjector(p, include_check_bits=True),
        seed=job_entropy, seeding="per-trial", packing=common.PACKING,
        code=common.CODE)


def job_entropies(seed: int, workload: str, count: int) -> List[int]:
    return [common.entropy(seed, workload, k) for k in range(count)]


def run_jobs(p: float, entropies: Iterable[int],
             seconds: Optional[float] = None):
    """Run jobs back to back; stop after ``seconds`` if given.

    Each job is followed by a host-speed reference (:mod:`hostspeed`),
    timed apart from it. Returns ``(results, latencies_s, references_s)``.
    """
    results, latencies, references = [], [], []
    start = perf_counter()
    for job_entropy in entropies:
        t0 = perf_counter()
        results.append(make_runner(p, job_entropy).run(JOB_TRIALS))
        latencies.append(perf_counter() - t0)
        references.append(hostspeed.reference_s(REFERENCE_SLICES))
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return results, latencies, references


def probe(workload: str) -> None:
    """Set-up probe: run one warm-up block and print the wall clock.

    Runs in a fresh interpreter, so the time from its launch to the
    printed instant covers imports and the slow first block.
    """
    make_runner(RATES[workload], common.entropy(0, "warmup", workload)) \
        .run(DEFAULT_BATCH_SIZE)
    print(repr(time.time()), flush=True)


def measure_setups(workload: str) -> Tuple[List[float], List[float]]:
    """Seconds from launch to the first block of each set-up probe, and
    the launch reference timed before each."""
    code = "import engine, sys; engine.probe(sys.argv[1])"
    samples, references = [], []
    for _ in range(common.SETUPS):
        references.append(common.launch_reference())
        launched = time.time()
        out = subprocess.run([sys.executable, "-c", code, workload],
                             env=common.child_env(), cwd=str(common.ROOT),
                             capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(out.stdout.split()[-1]) - launched)
    return samples, references


# ---------------------------------------------------------------------- #
# Traced run: wrappers around the layers' public names
# ---------------------------------------------------------------------- #

class SpanRecorder:
    """Wraps named callables so each call records one span in memory.

    Each wrapper is installed where the engine looks the name up (a
    module global of ``repro.faults.batch``, or a class attribute) and
    removed on exit. A name the program no longer has is listed in
    :attr:`absent` rather than failing the run.
    """

    def __init__(self) -> None:
        #: ``(name, start_ns, end_ns, parent_index)``; parent -1 = root.
        self.spans: List[Tuple[str, int, int, int]] = []
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        target = getattr(owner, attr, None)
        if not callable(target):
            self.absent.append(name)
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0, 0, stack[-1] if stack else -1))
            stack.append(index)
            t0 = perf_counter_ns()
            try:
                return target(*args, **kwargs)
            finally:
                spans[index] = (name, t0, perf_counter_ns(),
                                spans[index][3])
                stack.pop()

        own = vars(owner).get(attr) if isinstance(owner, type) else target
        self._undo.append((owner, attr, own))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, own in reversed(self._undo):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


def traced_run(p: float, entropies: Sequence[int]):
    """The untraced run's jobs again, with every layer wrapped."""
    code_cls = type(build_code(common.CODE, BlockGrid(common.N, common.M)))
    with SpanRecorder() as rec:
        rec.wrap(CampaignRunner, "run", "runner.run")
        rec.wrap(batch_mod.BatchCampaign, "run_range_seeded", "engine.run")
        rec.wrap(batch_mod, "trial_rngs", "rng.trial_rngs")
        rec.wrap(batch_mod, "pack_batch", "bitpack.pack_batch")
        rec.wrap(UniformInjector, "inject_batch_planes_packed",
                 "injector.inject")
        rec.wrap(injector_mod.BatchInjectionResult, "apply_planes_packed",
                 "injector.apply")
        rec.wrap(code_cls, "encode_batch_packed", "code.encode")
        rec.wrap(code_cls, "check_batched_packed", "code.check")
        results, latencies, references = run_jobs(p, entropies)
    return results, latencies, references, rec


def layer_metrics(rec: SpanRecorder, trials: int, faults: int,
                  overhead: float) -> dict:
    """Per-layer metrics of a traced run, ``name -> (value, unit)``.

    A layer missing from the program, or never called, reads ``None``.
    """
    times = stats.self_times(rec.spans)

    def us(name: str, own: bool = False) -> Optional[float]:
        if name not in times:
            return None
        total, self_ns = times[name]
        return (self_ns if own else total) / 1e3 / trials

    runner_total, runner_self = times.get("runner.run", (0, 0))
    return {
        "rng.trial_rngs_us_per_trial": (us("rng.trial_rngs"), "us"),
        "injector.draw_us_per_trial": (us("injector.inject", True), "us"),
        "injector.apply_us_per_trial": (us("injector.apply"), "us"),
        "injector.faults_per_trial": (faults / trials, "count"),
        "bitpack.pack_us_per_trial": (us("bitpack.pack_batch"), "us"),
        "code.encode_us_per_trial": (us("code.encode"), "us"),
        "code.check_us_per_trial": (us("code.check"), "us"),
        "engine.self_us_per_trial": (us("engine.run", True), "us"),
        "runner.unattributed_share": (
            runner_self / runner_total if runner_total else None,
            "fraction"),
        "tracing.overhead_share": (overhead, "fraction"),
    }


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #

def check_model(out: common.Outcome, p: float, total) -> None:
    """Tallies against the paper's per-block binomial model.

    Independent of how faults are drawn, so these hold across changes
    to the draw contract.
    """
    grid = BlockGrid(common.N, common.M)
    blocks = grid.blocks_per_side ** 2
    cells_per_block = common.M ** 2 + 2 * common.M
    exposed = common.N ** 2 + sum(
        math.prod(shape) for shape in build_code(common.CODE, grid)
        .plane_shapes)
    out.check("exposed cells = blocks x (m^2 + 2m)",
              exposed == blocks * cells_per_block,
              f"{exposed} vs {blocks} x {cells_per_block}")
    z_faults = stats.binomial_z(total.injected_faults, total.trials,
                                exposed, p)
    q_multi = -math.expm1(log_block_success_probability(p, cells_per_block))
    z_multi = stats.binomial_z(total.blocks_with_multi_faults, total.trials,
                               blocks, q_multi)
    out.check("injected faults vs p x cells", abs(z_faults) <= MAX_Z,
              f"z={z_faults:+.2f}")
    out.check("multi-fault blocks vs closed form", abs(z_multi) <= MAX_Z,
              f"z={z_multi:+.2f}")


def check_oracle(out: common.Outcome, p: float, job_entropy: int) -> None:
    runner = make_runner(p, job_entropy)
    batched = runner.run(ORACLE_TRIALS)
    scalar = runner.run_reference(ORACLE_TRIALS)
    out.check(f"run_reference == batched on {ORACLE_TRIALS} trials",
              astuple(batched) == astuple(scalar),
              f"{astuple(batched)} vs {astuple(scalar)}")


# ---------------------------------------------------------------------- #
# The workload
# ---------------------------------------------------------------------- #

def run(workload: str, seed: int, seconds: float,
        trace: bool) -> common.Outcome:
    p = RATES[workload]
    out = common.Outcome()
    if not trace:
        setups, setup_references = measure_setups(workload)

    run_jobs(p, job_entropies(seed, "warmup", WARMUP_JOBS))
    endless = (common.entropy(seed, workload, k) for k in itertools.count())
    results, latencies, references = run_jobs(p, endless, seconds)
    peak_mb = common.vm_hwm_mb(os.getpid())
    jobs = len(results)
    total = merge_results(results)
    out.attempted = jobs
    # Jobs run back to back, so the program's window is their sum.
    out.metrics = common.closed_loop_metrics(
        latencies, total.trials, jobs, sum(latencies), JOB_TRIALS,
        references)
    out.metrics["peak_rss_mb"] = (peak_mb, "MB")
    if not trace:
        out.metrics.update(common.setup_metrics(setups, setup_references))
        out.notes["setup_samples_s"] = setups
    out.notes.update(job_trials=JOB_TRIALS,
                     tallies=dict(zip(("trials", "clean", "corrected",
                                       "detected", "silent",
                                       "injected_faults",
                                       "blocks_with_multi_faults"),
                                      astuple(total))))
    entropies = job_entropies(seed, workload, jobs)
    if trace:
        t_results, t_latencies, t_references, rec = traced_run(p, entropies)
        out.check("traced tallies == untraced tallies",
                  [astuple(r) for r in t_results]
                  == [astuple(r) for r in results])
        traced_rate = common.closed_loop_metrics(
            t_latencies, total.trials, jobs, sum(t_latencies), JOB_TRIALS,
            t_references)["trials_per_s"][0]
        out.notes["traced_trials_per_s"] = traced_rate
        out.layers = layer_metrics(
            rec, total.trials, total.injected_faults,
            1.0 - traced_rate / out.metrics["trials_per_s"][0])
        out.absent = [k for k, (v, _) in out.layers.items() if v is None]
        common.RUNS.mkdir(parents=True, exist_ok=True)
        rec.write(common.RUNS / f"spans-{workload}.jsonl")
    check_model(out, p, total)
    check_oracle(out, p, entropies[0])
    return out
