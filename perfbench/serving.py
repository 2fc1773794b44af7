"""Serving workloads: ``repro serve`` (and ``repro worker``) over HTTP.

The benchmark is the only client: one closed loop that submits a job,
waits for it the way ``repro submit --wait`` does, and only then
submits the next. Per-layer numbers come from the program's public
outputs, read outside the timed window: ``GET /trace/<id>``,
``GET /metrics`` scraped before and after the window, and the job
records' ``phases``.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import astuple, dataclass
from pathlib import Path
from time import perf_counter
from typing import List, Optional

from repro.service import CampaignJobSpec, InjectorSpec, ServiceClient
from repro.service.client import JobFailedError

import common
import engine
import hostspeed
import stats

#: Fault rate of every serving job (the ROADMAP's fixed workload).
RATE = 2e-4

#: Seconds a process gets to exit on SIGINT before it is killed.
STOP_TIMEOUT_S = 5.0

#: Deadline of one job, far above any healthy job's latency.
JOB_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Mix:
    """One serving workload's topology and traffic."""

    #: ``repro worker --url`` processes beside ``repro serve``; with
    #: none, the service executes on its local pool.
    workers: int
    job_trials: int
    #: Trials of the warm-up job that ends each set-up.
    warmup_trials: int
    #: Further untimed jobs before the window.
    warmup_jobs: int
    #: Every ``repeat_every``-th submission repeats an earlier spec
    #: (0: never).
    repeat_every: int


MIXES = {
    "service_mixed": Mix(workers=0, job_trials=64,
                         warmup_trials=64, warmup_jobs=4, repeat_every=4),
    # 8192 trials at the CLI's default 512-trial shards: 16 units.
    "fleet_http": Mix(workers=2, job_trials=8192,
                      warmup_trials=512, warmup_jobs=0, repeat_every=0),
}

#: Slices per helper in the round after each fleet job
#: (``hostspeed.NOMINAL_ROUND_S`` is set for ten).
REFERENCE_SLICES = 10


def make_spec(trials: int, job_entropy: int) -> CampaignJobSpec:
    return CampaignJobSpec(
        n=common.N, m=common.M,
        injector=InjectorSpec("uniform", {"probability": RATE,
                                          "include_check_bits": True}),
        trials=trials, seed=job_entropy, include_check_bits=True,
        packing=common.PACKING, code=common.CODE)


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #

def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def stop_process(proc: subprocess.Popen) -> None:
    """SIGINT, then SIGKILL to the whole process group, then wait.

    Each process leads its own group, so the pool children of
    ``repro serve`` go down with it.
    """
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
    # Pool children outlive a clean exit by a moment at most.
    deadline = time.monotonic() + 1.0
    while common.group_alive(proc.pid):
        if time.monotonic() > deadline:
            _kill_group(proc.pid)
        time.sleep(0.02)
    proc.wait(STOP_TIMEOUT_S)


class Deployment:
    """``repro serve`` plus its workers, with a fresh store and port."""

    def __init__(self, run_dir: Path, mix: Mix) -> None:
        self.run_dir = run_dir
        self.mix = mix
        self.procs: List[subprocess.Popen] = []
        self.client: Optional[ServiceClient] = None

    @property
    def store(self) -> Path:
        return self.run_dir / "store"

    def _spawn(self, name: str, argv: List[str]) -> subprocess.Popen:
        with open(self.run_dir / f"{name}.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro"] + argv, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=common.child_env(), cwd=str(common.ROOT),
                start_new_session=True)
        self.procs.append(proc)
        return proc

    def _await_url(self, proc: subprocess.Popen) -> str:
        log = self.run_dir / "serve.log"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            match = re.search(r"listening on (http://\S+)",
                              log.read_text(errors="replace"))
            if match:
                return match.group(1)
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not come up; see {log}")

    def start(self) -> "Deployment":
        self.run_dir.mkdir(parents=True)
        argv = ["serve", "--port", "0", "--store", str(self.store)]
        if self.mix.workers:
            argv += ["--execution", "distributed"]
        serve = self._spawn("serve", argv)
        url = self._await_url(serve)
        self.client = ServiceClient(url)
        self.client.wait_until_up(timeout=30.0)
        for i in range(self.mix.workers):
            self._spawn(f"worker{i}", ["worker", "--url", url,
                                       "--id", f"bench-worker-{i}"])
        return self

    @contextlib.contextmanager
    def paused(self):
        """Hold every process of the deployment stopped (SIGSTOP to each
        group), so host-speed references timed meanwhile do not include
        the program's own idle polling."""
        for proc in self.procs:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGSTOP)
        try:
            yield
        finally:
            for proc in self.procs:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGCONT)

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of serve, its pool children and the workers."""
        pids = [p.pid for p in self.procs] + \
            common.children_of(self.procs[0].pid)
        return sum(common.vm_hwm_mb(pid) for pid in pids)

    def close(self) -> None:
        # Workers first, so none is mid-claim when the service goes.
        for proc in reversed(self.procs):
            stop_process(proc)
        self.procs.clear()


def store_bytes(path: Path) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:
                pass
    return total


# ---------------------------------------------------------------------- #
# Client loop
# ---------------------------------------------------------------------- #

@dataclass
class Job:
    spec: CampaignJobSpec
    repeat: bool
    record: dict
    latency_s: float
    submit_s: float

    @property
    def done(self) -> bool:
        return self.record.get("state") == "done"


def submit_and_wait(client: ServiceClient, spec: CampaignJobSpec,
                    repeat: bool = False) -> Job:
    t0 = perf_counter()
    record = client.submit(spec)
    t_submit = perf_counter()
    if record["state"] not in ("done", "failed"):
        try:
            record = client.wait(record["id"], timeout=JOB_TIMEOUT_S)
        except (JobFailedError, TimeoutError):
            record = client.status(record["id"])
    return Job(spec, repeat, record, perf_counter() - t0, t_submit - t0)


def deploy(run_dir: Path, mix: Mix, warmup: CampaignJobSpec):
    """Start a deployment; return it with its set-up time, measured from
    launch until its first warm-up job is done."""
    t0 = perf_counter()
    dep = Deployment(run_dir, mix)
    try:
        dep.start()
        job = submit_and_wait(dep.client, warmup)
        if not job.done:
            raise RuntimeError(f"warm-up job did not finish: {job.record}")
    except BaseException:
        dep.close()
        raise
    return dep, perf_counter() - t0


def closed_loop(dep: Deployment, mix: Mix, seed: int, workload: str,
                seconds: float):
    """Submit until ``seconds`` have passed.

    Returns ``(window_s, jobs, references_s)``: after each job, the
    deployment is paused for a host-speed reference, and the window
    leaves that out. The reference is one slice in the benchmark's
    process where the service runs one job at a time, handed from
    process to process, and a :class:`hostspeed.ParallelReference`
    round where workers keep every CPU busy.
    """
    repeats = random.Random(common.entropy(seed, workload, "repeats"))
    jobs: List[Job] = []
    fresh: List[Job] = []
    references: List[float] = []
    paused_s = 0.0
    with (hostspeed.ParallelReference(mix.workers) if mix.workers
          else contextlib.nullcontext()) as helpers:
        start = perf_counter()
        i = 0
        while perf_counter() - start < seconds + paused_s:
            if mix.repeat_every and \
                    i % mix.repeat_every == mix.repeat_every - 1:
                job = submit_and_wait(dep.client,
                                      repeats.choice(fresh).spec, True)
            else:
                job = submit_and_wait(dep.client, make_spec(
                    mix.job_trials, common.entropy(seed, workload, i)))
                fresh.append(job)
            jobs.append(job)
            t0 = perf_counter()
            with dep.paused():
                references.append(hostspeed.slice_s() if helpers is None
                                  else helpers.round_s(REFERENCE_SLICES))
            paused_s += perf_counter() - t0
            i += 1
        return perf_counter() - start - paused_s, jobs, references


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #

def _p50(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_metrics(dep: Deployment, mix: Mix, fresh: List[Job],
                  hits: List[Job], deltas: dict, window: float,
                  store_growth: int) -> dict:
    traces = [dep.client.trace(job.record["id"]) for job in fresh]
    phase_ms = [sum((job.record.get("phases") or {}).values()) / 1e6
                for job in fresh]
    exec_ms = [stats.execute_ms(t) for t in traces]
    # The service tax: execution time not spent in the engine. Only
    # meaningful where units run one after another in the pool; on the
    # fleet the phases of parallel units add up past the wall time.
    overhead = [] if mix.workers else [
        e - p for e, p in zip(exec_ms, phase_ms) if e is not None]
    submissions = len(fresh) + len(hits)
    units = stats.counter_total(deltas,
                                "repro_dispatch_unit_publishes_total")
    unit_exec = [ms for t in traces for ms in stats.unit_execute_ms(t)]
    per_unit = (lambda x: x / units) if units else (lambda x: None)
    per_share = (lambda x: x / (mix.workers * window)) if mix.workers \
        else (lambda x: None)
    claims = stats.counter_by_label(deltas, "repro_broker_claims_total",
                                    "outcome")
    return {
        "client.submit_ms": (
            _p50(j.submit_s * 1e3 for j in fresh + hits), "ms"),
        "scheduler.queue_wait_ms": (
            _p50(stats.queue_wait_ms(t) for t in traces), "ms"),
        "scheduler.execute_ms": (_p50(exec_ms), "ms"),
        "engine.phase_ms_per_job": (_p50(phase_ms), "ms"),
        "scheduler.overhead_ms_per_job": (_p50(overhead), "ms"),
        "store.ops_per_job": (
            stats.counter_total(deltas, "repro_store_ops_total")
            / submissions, "count"),
        "store.bytes_per_job": (store_growth / len(fresh), "bytes"),
        "dispatch.publish_ms_per_job": (
            _p50(stats.publish_spread_ms(t) for t in traces)
            if mix.workers else None, "ms"),
        "broker.claim_wait_ms": (
            _p50(ms for t in traces for ms in stats.claim_waits_ms(t)),
            "ms"),
        "worker.execute_ms_per_unit": (_p50(unit_exec), "ms"),
        "worker.checkpoint_write_ms": (
            _p50(ms for t in traces for ms in stats.checkpoint_writes_ms(t)),
            "ms"),
        "worker.busy_share": (per_share(sum(unit_exec) / 1e3), "fraction"),
        "dispatch.notice_lag_ms": (
            _p50(stats.notice_lag_ms(t) for t in traces), "ms"),
        "dispatch.polls_per_job": (
            stats.counter_total(deltas, "repro_dispatch_polls_total")
            / len(fresh) if mix.workers else None, "count"),
        "broker.empty_claims_per_unit": (
            per_unit(claims.get("empty", 0.0)), "count"),
        "dispatch.requeues": (
            stats.counter_total(deltas,
                                "repro_dispatch_unit_requeues_total")
            if mix.workers else None, "count"),
        "broker.reclaims": (claims.get("reclaimed", 0.0)
                            if mix.workers else None, "count"),
    }


# ---------------------------------------------------------------------- #
# The workload
# ---------------------------------------------------------------------- #

def run(workload: str, seed: int, seconds: float,
        trace: bool) -> common.Outcome:
    mix = MIXES[workload]
    out = common.Outcome()
    base = common.RUNS / f"{workload}-{seed}-{os.getpid()}"
    warmup = make_spec(mix.warmup_trials,
                       common.entropy(seed, workload, "warmup"))
    setups, setup_references = [], []
    try:
        # Set up several times and time the last deployment; a traced
        # run deploys once.
        for k in range(common.SETUPS):
            last = trace or k == common.SETUPS - 1
            setup_references.append(common.launch_reference())
            dep, setup_s = deploy(base / (f"setup{k}" if not last
                                          else "timed"), mix, warmup)
            setups.append(setup_s)
            if last:
                break
            dep.close()
        try:
            _measure(out, dep, mix, workload, seed, seconds, trace)
            out.metrics.update(common.setup_metrics(setups,
                                                    setup_references))
            out.notes["setup_samples_s"] = setups
        finally:
            dep.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return out


def _measure(out: common.Outcome, dep: Deployment, mix: Mix, workload: str,
             seed: int, seconds: float, trace: bool) -> None:
    client = dep.client
    for k in range(mix.warmup_jobs):
        submit_and_wait(client, make_spec(
            mix.job_trials, common.entropy(seed, workload, "warmup", k)))

    before = client.metrics_text()
    bytes_before = store_bytes(dep.store)
    window, jobs, references = closed_loop(dep, mix, seed, workload,
                                           seconds)
    peak_mb = dep.peak_rss_mb()
    deltas = stats.counter_deltas(before, client.metrics_text())
    store_growth = store_bytes(dep.store) - bytes_before

    fresh = [j for j in jobs if not j.repeat]
    hits = [j for j in jobs if j.repeat]
    not_done = [j.record.get("id") for j in jobs if not j.done]
    units = stats.counter_total(deltas,
                                "repro_dispatch_unit_publishes_total")
    failed_units = stats.counter_total(deltas, "repro_broker_fails_total")
    failure_share = stats.failed_share(
        stats.counter_total(deltas, "repro_jobs_settled_total",
                            outcome="failed"),
        failed_units,
        stats.counter_total(deltas, "repro_dispatch_unit_requeues_total"),
        stats.counter_by_label(deltas, "repro_broker_claims_total",
                               "outcome").get("reclaimed", 0.0),
        len(jobs), units)
    out.attempted = len(jobs) + int(units)
    out.failed = len(not_done) + int(failed_units)

    latencies = [j.latency_s for j in fresh]
    fresh_trials = sum(j.spec.trials for j in fresh)
    out.metrics = common.closed_loop_metrics(latencies, fresh_trials,
                                             len(jobs), window)
    out.metrics.update({
        "trials_per_s": (common.pooled_rate(
            fresh_trials, latencies, references,
            hostspeed.NOMINAL_ROUND_S if mix.workers
            else hostspeed.NOMINAL_SLICE_S), "trials/s"),
        "host_reference_ms": (statistics.mean(references) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "cache_hit_latency_p50_s": (_p50(j.latency_s for j in hits), "s"),
        "failed_share": (failure_share, "fraction"),
    })
    out.notes.update(
        jobs=len(jobs), fresh_jobs=len(fresh), cache_hits=len(hits),
        units=units, window_s=window,
        job_samples=[(j.repeat, j.latency_s, ref)
                     for j, ref in zip(jobs, references)],
        store_ops_by_op=stats.counter_by_label(
            deltas, "repro_store_ops_total", "op"))

    out.check("every job settled done", not not_done,
              f"not done: {not_done[:5]}")
    mismatched = [j.record["id"] for j in hits
                  if j.record.get("result") != _original(fresh, j)]
    out.check("every cache hit returned its original's result",
              not mismatched, f"mismatched: {mismatched[:5]}")
    first = fresh[0]
    local = engine.make_runner(RATE, first.spec.seed).run(first.spec.trials)
    served = first.record.get("result") or {}
    out.check("a served job equals the in-process CampaignRunner",
              astuple(local) == tuple(served.get(f) for f in (
                  "trials", "clean", "corrected", "detected", "silent",
                  "injected_faults", "blocks_with_multi_faults")),
              f"{astuple(local)} vs {served}")

    if trace:
        out.layers = layer_metrics(dep, mix, fresh, hits, deltas, window,
                                   store_growth)


def _original(fresh: List[Job], hit: Job) -> Optional[dict]:
    for job in fresh:
        if job.spec == hit.spec:
            return job.record.get("result")
    return None
