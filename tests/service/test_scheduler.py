"""Differential suite: the service reproduces in-process results bit-for-bit.

The acceptance contract of the service layer: a submitted job — sharded,
scheduled asynchronously, executed on a pool, checkpointed through the
result store — returns a ``CampaignResult`` bit-identical to the
in-process per-trial-seeded :class:`CampaignRunner` for both tensor
layouts, and a resubmitted identical spec is served from cache without
re-execution.
"""

import asyncio
import threading

import pytest

from repro.faults.batch import run_shard_task
from repro.reliability.burst import simulate_burst_survival
from repro.reliability.drift_analysis import simulate_drift_survival
from repro.service import (
    AdaptiveCampaignJobSpec,
    BurstSurvivalJobSpec,
    CampaignJobSpec,
    CampaignService,
    DriftSurvivalJobSpec,
    InjectorSpec,
    JobRecord,
    LogicEquivalenceJobSpec,
    ResultStore,
    result_from_dict,
    result_to_dict,
)

UNIFORM = InjectorSpec("uniform", {"probability": 2e-3})


class CountingRunner:
    """run_shard_task wrapper recording executed spans (thread pool)."""

    def __init__(self):
        self.spans = []

    def __call__(self, task):
        result = run_shard_task(task)
        self.spans.append(task.span)
        return result


def run_jobs(store, specs, **service_kwargs):
    """Submit ``specs`` to a fresh service and wait for all of them."""
    service_kwargs.setdefault("executor", "thread")
    service_kwargs.setdefault("shard_trials", 64)

    async def main():
        async with CampaignService(store, **service_kwargs) as service:
            jobs = [await service.submit(spec) for spec in specs]
            for job in jobs:
                await service.wait(job.id, timeout=300)
            return jobs

    return asyncio.run(main())


class TestCampaignDifferential:
    @pytest.mark.parametrize("packing", ["u8", "u64"])
    def test_service_equals_in_process_runner(self, tmp_path, packing):
        spec = CampaignJobSpec(n=15, m=3, trials=300, seed=41,
                               injector=UNIFORM, packing=packing)
        (job,) = run_jobs(tmp_path, [spec], workers=3)
        assert job.state == "done" and not job.cached
        assert job.shards_total == 5  # 300 trials / 64-trial shards
        service_result = result_from_dict(job.result)
        in_process = spec.build_runner().run(spec.trials)
        assert service_result.as_dict() == in_process.as_dict()

    def test_packings_agree_through_the_service(self, tmp_path):
        results = {}
        for packing in ("u8", "u64"):
            spec = CampaignJobSpec(n=15, m=3, trials=200, seed=5,
                                   injector=UNIFORM, packing=packing)
            (job,) = run_jobs(tmp_path / packing, [spec])
            results[packing] = result_from_dict(job.result).as_dict()
        assert results["u8"] == results["u64"]

    def test_matches_scalar_reference(self, tmp_path):
        """Service -> batched per-trial -> scalar replay, one chain."""
        spec = CampaignJobSpec(n=9, m=3, trials=60, seed=13,
                               injector=UNIFORM)
        (job,) = run_jobs(tmp_path, [spec])
        reference = spec.build_runner().run_reference(spec.trials)
        assert result_from_dict(job.result).as_dict() == \
            reference.as_dict()

    def test_shard_size_is_invisible(self, tmp_path):
        spec = CampaignJobSpec(n=15, m=3, trials=250, seed=3,
                               injector=UNIFORM)
        (coarse,) = run_jobs(tmp_path / "a", [spec], shard_trials=200)
        (fine,) = run_jobs(tmp_path / "b", [spec], shard_trials=16)
        assert coarse.result == fine.result
        assert fine.shards_total > coarse.shards_total

    def test_process_pool_default_path(self, tmp_path):
        """The default process executor produces the same tallies."""
        spec = CampaignJobSpec(n=9, m=3, trials=120, seed=21,
                               injector=UNIFORM)
        (job,) = run_jobs(tmp_path, [spec], executor="process", workers=2)
        assert result_from_dict(job.result).as_dict() == \
            spec.build_runner().run(spec.trials).as_dict()


class TestWorkloadFamilies:
    def test_drift_survival_matches_entry_point(self, tmp_path):
        spec = DriftSurvivalJobSpec(
            n=15, m=3, trials=80, tau_hours=150.0, beta=2.0,
            abrupt_fit_per_bit=5e5, window_hours=24.0,
            refresh_period_hours=4.0, seed=17)
        (job,) = run_jobs(tmp_path, [spec])
        expected = simulate_drift_survival(
            spec.build_grid(), spec.build_injector().model,
            spec.window_hours, spec.refresh_period_hours,
            trials=spec.trials, seed=spec.seed)
        assert result_from_dict(job.result).as_dict() == expected.as_dict()

    def test_burst_survival_matches_entry_point(self, tmp_path):
        spec = BurstSurvivalJobSpec(n=15, m=3, length=2, trials=120,
                                    seed=29)
        (job,) = run_jobs(tmp_path, [spec])
        tallies = result_from_dict(job.result)
        expected = simulate_burst_survival(
            spec.build_grid(), spec.length, spec.trials,
            orientation=spec.orientation, seed=spec.seed)
        assert tallies.clean + tallies.corrected == expected.survived
        assert tallies.detected == expected.detected
        assert tallies.silent == 0

    def test_adaptive_campaign_matches_runner(self, tmp_path):
        spec = AdaptiveCampaignJobSpec(
            n=15, m=3, injector=InjectorSpec("uniform",
                                             {"probability": 5e-3}),
            tolerance=0.08, max_trials=2048, initial_trials=64, seed=37)
        (job,) = run_jobs(tmp_path, [spec])
        expected = spec.build_runner().run_adaptive(
            tolerance=spec.tolerance, confidence=spec.confidence,
            max_trials=spec.max_trials,
            initial_trials=spec.initial_trials, growth=spec.growth)
        assert job.result == result_to_dict(expected)

    @pytest.mark.parametrize("circuit,equivalent", [("ctrl", True),
                                                    ("int2float", True)])
    def test_logic_equivalence(self, tmp_path, circuit, equivalent):
        spec = LogicEquivalenceJobSpec(circuit=circuit, trials=16, seed=1)
        (job,) = run_jobs(tmp_path, [spec])
        assert job.result["type"] == "logic_equivalence_result"
        assert job.result["equivalent"] is equivalent
        assert job.result["circuit"] == circuit


class TestDedupe:
    def test_resubmission_served_from_cache(self, tmp_path):
        spec = CampaignJobSpec(n=15, m=3, trials=150, seed=7,
                               injector=UNIFORM)
        runner = CountingRunner()
        first, = run_jobs(tmp_path, [spec], shard_runner=runner)
        executed = list(runner.spans)
        second, = run_jobs(tmp_path, [spec], shard_runner=runner)
        assert first.state == second.state == "done"
        assert not first.cached and second.cached
        assert second.result == first.result
        assert runner.spans == executed  # nothing re-executed

    def test_different_entropy_is_different_work(self, tmp_path):
        a = CampaignJobSpec(n=9, m=3, trials=40, seed=1, injector=UNIFORM)
        b = CampaignJobSpec(n=9, m=3, trials=40, seed=2, injector=UNIFORM)
        jobs = run_jobs(tmp_path, [a, b])
        assert not any(j.cached for j in jobs)
        assert jobs[0].key != jobs[1].key

    def test_concurrent_identical_submissions_attach(self, tmp_path):
        spec = CampaignJobSpec(n=15, m=3, trials=200, seed=9,
                               injector=UNIFORM)
        runner = CountingRunner()
        leader, follower = run_jobs(tmp_path, [spec, spec],
                                    shard_runner=runner)
        assert leader.state == follower.state == "done"
        assert follower.cached and not leader.cached
        assert follower.result == leader.result
        # the trial range executed exactly once across both submissions
        assert sorted(runner.spans) == \
            [(0, 50), (50, 100), (100, 150), (150, 200)]


class TestFailurePaths:
    def test_invalid_spec_rejected_at_submit(self, tmp_path):
        async def main():
            async with CampaignService(tmp_path,
                                       executor="thread") as service:
                with pytest.raises(ValueError, match="probability"):
                    await service.submit(CampaignJobSpec(
                        n=9, m=3, trials=10, seed=1,
                        injector=InjectorSpec("uniform",
                                              {"probability": 7.0})))

        asyncio.run(main())

    def test_worker_failure_marks_job_failed(self, tmp_path):
        def explode(task):
            raise RuntimeError("worker lost")

        spec = CampaignJobSpec(n=9, m=3, trials=40, seed=1,
                               injector=UNIFORM)
        (job,) = run_jobs(tmp_path, [spec], shard_runner=explode)
        assert job.state == "failed"
        assert "worker lost" in job.error
        assert job.result is None

    def test_submit_requires_started_service(self, tmp_path):
        service = CampaignService(tmp_path)
        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(service.submit(CampaignJobSpec(
                n=9, m=3, trials=10, seed=1, injector=UNIFORM)))

    def test_store_failure_fails_the_job_not_the_scheduler(self, tmp_path):
        """A persistence error marks the job failed and the service
        keeps executing subsequent jobs (regression: it used to leave
        the job 'running' forever and kill the scheduler task)."""
        spec_a = CampaignJobSpec(n=9, m=3, trials=40, seed=1,
                                 injector=UNIFORM)
        spec_b = CampaignJobSpec(n=9, m=3, trials=40, seed=2,
                                 injector=UNIFORM)

        async def main():
            async with CampaignService(tmp_path, executor="thread",
                                       shard_trials=64,
                                       max_concurrent_jobs=1) as service:
                original_put = service.store.put

                def failing_put(key, record):
                    raise OSError("disk full")

                service.store.put = failing_put
                first = await service.submit(spec_a)
                await service.wait(first.id, timeout=120)
                assert first.state == "failed"
                assert "disk full" in first.error

                service.store.put = original_put
                second = await service.submit(spec_b)
                await service.wait(second.id, timeout=120)
                assert second.state == "done"

        asyncio.run(main())

    def test_malformed_injector_is_a_value_error(self, tmp_path):
        """An injector object missing 'params' is a spec error (400),
        not an internal KeyError (500)."""
        async def main():
            async with CampaignService(tmp_path,
                                       executor="thread") as service:
                with pytest.raises(ValueError, match="'kind' and 'params'"):
                    await service.submit({
                        "kind": "campaign", "n": 9, "m": 3, "trials": 10,
                        "seed": 1, "injector": {"kind": "uniform"}})

        asyncio.run(main())

    def test_settled_records_are_evicted_beyond_the_cap(self, tmp_path):
        async def main():
            async with CampaignService(tmp_path, executor="thread",
                                       shard_trials=64,
                                       max_job_records=3) as service:
                jobs = []
                for seed in range(5):
                    job = await service.submit(CampaignJobSpec(
                        n=9, m=3, trials=20, seed=seed, injector=UNIFORM))
                    await service.wait(job.id, timeout=120)
                    jobs.append(job)
                assert len(service.jobs()) <= 3
                with pytest.raises(KeyError):
                    service.status(jobs[0].id)  # evicted
                # the evicted job's result survives in the store
                assert service.store.has(jobs[0].key)

        asyncio.run(main())

    def test_unknown_job_id(self, tmp_path):
        async def main():
            async with CampaignService(tmp_path,
                                       executor="thread") as service:
                with pytest.raises(KeyError):
                    service.status("j999999-deadbeef")

        asyncio.run(main())


class TestIntrospection:
    def test_info_reports_capabilities_and_state(self, tmp_path):
        spec = CampaignJobSpec(n=9, m=3, trials=40, seed=1,
                               injector=UNIFORM)

        async def main():
            async with CampaignService(tmp_path, executor="thread",
                                       shard_trials=64) as service:
                job = await service.submit(spec)
                await service.wait(job.id, timeout=120)
                return service.info()

        info = asyncio.run(main())
        assert info["packings"] == ["u8", "u64"]
        assert "drift_survival" in info["job_kinds"]
        # one in-memory queue: nothing to choose or report
        assert [key for key in info if "queue" in key] == []
        assert info["jobs"]["done"] == 1
        assert info["stored_results"] == 1


class TestSchedulerQueue:
    """One in-process queue of job ids: FIFO, fed only by submit and
    the restart recovery, and gone with the service."""

    @staticmethod
    def held_runner():
        """``(runner, entered, release)``: a shard runner that blocks
        until ``release`` is set, signalling ``entered`` first."""
        entered, release = threading.Event(), threading.Event()

        def runner(task):
            entered.set()
            release.wait(60)
            return run_shard_task(task)

        return runner, entered, release

    def test_jobs_start_in_submission_order(self, tmp_path):
        runner, entered, release = self.held_runner()
        specs = [CampaignJobSpec(n=9, m=3, trials=40, seed=seed,
                                 injector=UNIFORM) for seed in range(4)]

        async def main():
            async with CampaignService(
                    tmp_path, executor="thread", shard_trials=64,
                    max_concurrent_jobs=1,
                    shard_runner=runner) as service:
                first = await service.submit(specs[0])
                assert await asyncio.to_thread(entered.wait, 30)
                # the only scheduler task is busy: these three queue up
                rest = [await service.submit(spec) for spec in specs[1:]]
                assert [job.state for job in rest] == ["queued"] * 3
                release.set()
                jobs = [first] + rest
                for job in jobs:
                    await service.wait(job.id, timeout=120)
                return jobs

        jobs = asyncio.run(main())
        assert [job.state for job in jobs] == ["done"] * 4
        starts = [job.started_at for job in jobs]
        assert starts == sorted(starts)

    def test_recovered_jobs_start_in_submission_order(self, tmp_path):
        store = ResultStore(tmp_path)
        ids = []
        for seq in (1, 2, 3):
            spec = CampaignJobSpec(n=9, m=3, trials=40, seed=40 + seq,
                                   injector=UNIFORM).normalized()
            job = JobRecord(id=f"j{seq:06d}-{seq:08x}", spec=spec,
                            key=spec.cache_key())
            store.put_job(job.id, job.to_dict())
            ids.append(job.id)

        async def main():
            async with CampaignService(
                    tmp_path, executor="thread", shard_trials=64,
                    max_concurrent_jobs=1) as service:
                return [await service.wait(job_id, timeout=120)
                        for job_id in ids]

        jobs = asyncio.run(main())
        assert [job.state for job in jobs] == ["done"] * 3
        starts = [job.started_at for job in jobs]
        assert starts == sorted(starts)

    def test_submit_after_close_is_refused(self, tmp_path):
        spec = CampaignJobSpec(n=9, m=3, trials=10, seed=1,
                               injector=UNIFORM)

        async def main():
            service = CampaignService(tmp_path, executor="thread")
            await service.start()
            await service.close()
            with pytest.raises(RuntimeError, match="not started"):
                await service.submit(spec)

        asyncio.run(main())

    def test_close_stops_idle_scheduler_tasks(self, tmp_path):
        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      max_concurrent_jobs=3)
            await service.start()
            tasks = list(service._scheduler_tasks)
            assert len(tasks) == 3 and not any(t.done() for t in tasks)
            await asyncio.wait_for(service.close(), 10)
            assert all(t.done() for t in tasks)
            await asyncio.wait_for(service.close(), 10)  # idempotent

        asyncio.run(main())
