"""One-span local jobs run in the service process, with no checkpoint.

A campaign job whose trials fit in one span (``trials <=
shard_trials``) and that has no checkpoint under its key runs that span
on a thread of the service process: the pool receives no work, no span
checkpoint is written, re-read or cleared, and the job record is
written twice (accepted, settled). Its phase profile is the one the
span returned, and its shard metrics land in the service's own
registry. Multi-span jobs, and one-span jobs with a checkpoint, keep
the pool path and its checkpoints.
"""

import asyncio
import multiprocessing
import threading

from repro.faults.batch import (
    PROFILE_PHASES,
    run_shard_task,
    run_shard_task_profiled,
)
from repro.obs import perf
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ResultStore,
    result_from_dict,
)

UNIFORM = InjectorSpec("uniform", {"probability": 2e-3})


def spec_for(seed, trials=64):
    return CampaignJobSpec(n=15, m=3, trials=trials, seed=seed,
                           injector=UNIFORM)


class CountingStore(ResultStore):
    """A store that logs its checkpoint calls, the profile stamped on
    each checkpoint, and job-record writes."""

    def __init__(self, root):
        super().__init__(root)
        self.calls = []       # list.append is atomic across threads
        self.job_states = []
        self.profiles = {}    # span -> phases of its last checkpoint

    def put_shard(self, key, lo, hi, result, phases=None):
        self.calls.append("put_shard")
        self.profiles[(lo, hi)] = phases
        return super().put_shard(key, lo, hi, result, phases=phases)

    def shard_phases(self, key):
        self.calls.append("shard_phases")
        return super().shard_phases(key)

    def clear_shards(self, key):
        self.calls.append("clear_shards")
        return super().clear_shards(key)

    def put_job(self, job_id, record):
        self.job_states.append(record["state"])
        return super().put_job(job_id, record)


def run_one(store, spec, **service_kwargs):
    """``(job, pool submits, new child pids, shard-task runs)`` of one
    job through a fresh service (process pool unless overridden)."""
    service_kwargs.setdefault("executor", "process")
    service_kwargs.setdefault("workers", 2)
    service_kwargs.setdefault("shard_trials", 64)

    async def main():
        before = {p.pid for p in multiprocessing.active_children()}
        async with CampaignService(store, **service_kwargs) as service:
            submits = []
            pool_submit = service._pool.submit

            def counting_submit(fn, *args, **kwargs):
                submits.append(fn)
                return pool_submit(fn, *args, **kwargs)

            service._pool.submit = counting_submit
            runs = service.health()["metrics_snapshot"].get(
                "repro_shard_tasks_total", 0)
            job = await service.submit(spec)
            await service.wait(job.id, timeout=300)
            runs = service.health()["metrics_snapshot"].get(
                "repro_shard_tasks_total", 0) - runs
            children = {p.pid for p in multiprocessing.active_children()}
            return job, len(submits), children - before, runs

    return asyncio.run(main())


def assert_matches_reference(job, spec):
    got = result_from_dict(job.result).as_dict()
    runner = spec.normalized().build_runner()
    assert got == runner.run(spec.trials).as_dict()
    assert got == runner.run_reference(spec.trials).as_dict()


class TestFreshOneSpanJob:
    def test_runs_in_process_without_checkpoint(self, tmp_path):
        spec = spec_for(seed=5)
        store = CountingStore(tmp_path)
        job, submits, children, runs = run_one(store, spec)
        assert job.state == "done" and not job.cached
        assert (job.shards_total, job.shards_done,
                job.shards_cached) == (1, 1, 0)
        # the pool received no work and started no process
        assert submits == 0
        assert children == set()
        # no checkpoint round trip; the job record is written twice
        assert store.calls == []
        assert store.job_states == ["queued", "done"]
        assert not (tmp_path / "shards" / job.key).exists()
        assert_matches_reference(job, spec)
        # shard metrics land in the service's own registry
        assert runs == 1

    def test_phases_agree_across_record_store_and_perf_samples(
            self, tmp_path):
        spec = spec_for(seed=7)
        job, _, _, _ = run_one(tmp_path, spec)
        assert job.phases
        assert set(job.phases) <= set(PROFILE_PHASES)
        assert all(ns > 0 for ns in job.phases.values())
        store = ResultStore(tmp_path)
        assert store.get(job.key)["phases"] == job.phases
        persisted = store.get_job(job.id)
        assert persisted["phases"] == job.phases
        samples = perf.job_phase_samples(persisted)
        for phase, ns in job.phases.items():
            assert samples[f"phase.{phase}_s_per_trial"] == \
                ns / 1e9 / spec.trials

    def test_store_ops_of_a_fresh_job(self, tmp_path):
        """Besides its trace events, a fresh one-span job looks its
        result up twice (submit, execute start), writes its job record
        twice and its result once — and appends to no other
        namespace."""
        from repro.obs import metrics as obs_metrics

        ops = obs_metrics.counter("repro_store_ops_total", "",
                                  ("op", "namespace"))
        expected = {("get_miss", "results"): 2, ("put", "jobs"): 2,
                    ("put", "results"): 1, ("append", "perf"): 0}

        def counts():
            return {key: ops.value(op=key[0], namespace=key[1])
                    for key in expected}

        before = counts()
        job, _, _, _ = run_one(tmp_path, spec_for(seed=9),
                               executor="thread")
        assert job.state == "done" and not job.cached
        after = counts()
        assert {key: after[key] - before[key] for key in expected} == \
            expected
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["events", "jobs", "results", "shards"]

    def test_injected_runner_called_on_a_thread(self, tmp_path):
        """An injected shard_runner keeps its contract (a bare
        CampaignResult, no profile) and is still the function called,
        off the event loop's thread."""
        calls = []

        def runner(task):
            calls.append((task.span, threading.current_thread().name))
            return run_shard_task(task)

        spec = spec_for(seed=9)
        job, submits, _, _ = run_one(tmp_path, spec, executor="thread",
                                     shard_runner=runner)
        assert job.state == "done"
        assert submits == 0
        ((span, thread_name),) = calls
        assert span == (0, spec.trials)
        assert thread_name != "MainThread"
        assert job.phases is None
        assert_matches_reference(job, spec)


class TestPoolPathKept:
    def test_three_span_job_checkpoints_on_the_pool(self, tmp_path):
        spec = spec_for(seed=11, trials=96)
        store = CountingStore(tmp_path)
        job, submits, children, _ = run_one(store, spec, shard_trials=32)
        assert job.state == "done"
        assert (job.shards_total, job.shards_cached) == (3, 0)
        assert submits == 3
        assert children  # the pool started its processes
        assert sorted(store.calls) == ["clear_shards"] + \
            ["put_shard"] * 3 + ["shard_phases"]
        assert store.shard_spans(job.key) == {}
        assert store.job_states == ["queued", "done"]
        assert set(job.phases) <= set(PROFILE_PHASES)
        assert_matches_reference(job, spec)

    def test_existing_checkpoint_is_reused(self, tmp_path):
        spec = spec_for(seed=13)
        key = spec.normalized().cache_key()
        task = spec.normalized().build_runner().shard_task(0, spec.trials)
        store = CountingStore(tmp_path)
        store.put_shard(key, 0, spec.trials, run_shard_task(task))
        store.calls.clear()
        job, submits, _, runs = run_one(store, spec)
        assert job.state == "done"
        assert (job.shards_total, job.shards_cached) == (1, 1)
        assert submits == 0 and runs == 0  # reused, not re-executed
        assert store.calls == ["shard_phases", "clear_shards"]
        assert store.shard_spans(key) == {}
        assert_matches_reference(job, spec)

    def test_stale_checkpoints_take_the_pool_path(self, tmp_path):
        """Checkpoints of another shard plan cover no span of a
        one-span job; it runs on the pool, which clears them. Their
        profiles stay out of the job's: the record, the stored result
        and the perf samples carry the executed span's alone."""
        spec = spec_for(seed=17)
        key = spec.normalized().cache_key()
        runner = spec.normalized().build_runner()
        store = CountingStore(tmp_path)
        for lo, hi in ((0, 32), (32, 64)):
            tallies, phases = run_shard_task_profiled(
                runner.shard_task(lo, hi))
            store.put_shard(key, lo, hi, tallies, phases=phases)
        job, submits, _, _ = run_one(store, spec, executor="thread")
        assert job.state == "done"
        assert (job.shards_total, job.shards_cached) == (1, 0)
        assert submits == 1
        assert store.shard_spans(key) == {}
        assert_matches_reference(job, spec)
        executed = store.profiles[(0, spec.trials)]
        assert executed and job.phases == executed
        assert store.get(key)["phases"] == executed
        samples = perf.job_phase_samples(store.get_job(job.id))
        assert samples["phase.total_s_per_trial"] == \
            sum(executed.values()) / 1e9 / spec.trials
