"""Persisted job records: ids — not just results — survive a restart.

The ROADMAP gap this closes: the PR-4 scheduler kept ``JobRecord``s in
memory only, so a restarted server answered 404 for every pre-restart
job id even though the results were safely in the store. Now records
persist in the store's ``jobs/`` namespace on every transition, and a
fresh service (a) answers ``status`` for old ids, (b) re-enqueues
submissions that never settled, and (c) continues the id sequence
without collisions. The record is the only durable copy of a job (the
queue of ids is in memory), so a job still queued at ``close()`` runs
after a restart, and services sharing a store root never take each
other's jobs.
"""

import asyncio
import threading

import pytest

from repro.faults.batch import run_shard_task
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    JobRecord,
    ResultStore,
    result_from_dict,
)

UNIFORM = InjectorSpec("uniform", {"probability": 2e-3})


def spec_for(seed, trials=100):
    return CampaignJobSpec(n=9, m=3, trials=trials, seed=seed,
                           injector=UNIFORM)


def assert_matches_reference(record, spec):
    reference = spec.build_runner().run_reference(spec.trials)
    assert result_from_dict(record.result).as_dict() == \
        reference.as_dict()


def run_service(store, coro_fn, **kwargs):
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("shard_trials", 64)

    async def main():
        async with CampaignService(store, **kwargs) as service:
            return await coro_fn(service)

    return asyncio.run(main())


class TestRecordRoundTrip:
    def test_to_from_dict_is_lossless(self):
        job = JobRecord(id="j000004-deadbeef",
                        spec=spec_for(3).normalized(), key="k" * 8,
                        state="done", result={"type": "campaign_result"})
        rebuilt = JobRecord.from_dict(job.to_dict())
        assert rebuilt.to_dict() == job.to_dict()
        assert rebuilt.done_event.is_set()

    def test_nonterminal_rebuild_has_unset_event(self):
        job = JobRecord(id="j000001-aa", spec=spec_for(1).normalized(),
                        key="k")
        rebuilt = JobRecord.from_dict(job.to_dict())
        assert not rebuilt.done_event.is_set()


class TestRestart:
    def test_status_answers_for_pre_restart_ids(self, tmp_path):
        async def first(service):
            job = await service.submit(spec_for(1))
            await service.wait(job.id, timeout=120)
            return job

        done = run_service(tmp_path, first)
        assert done.state == "done"

        async def second(service):
            return service.status(done.id)

        reloaded = run_service(tmp_path, second)
        assert reloaded.state == "done"
        assert reloaded.result == done.result
        assert reloaded.key == done.key

    def test_unsettled_job_reenqueues_and_completes(self, tmp_path):
        """A job killed while queued/running finishes after restart,
        bit-identically to an uninterrupted run."""
        spec = spec_for(5, trials=200)
        store = ResultStore(tmp_path)

        # Simulate a service killed before execution: persist the
        # record exactly as submit() does, then never run it.
        job = JobRecord(id="j000009-feedc0de", spec=spec.normalized(),
                        key=spec.normalized().cache_key(), state="queued")
        store.put_job(job.id, job.to_dict())

        async def revived(service):
            record = await service.wait(job.id, timeout=120)
            return record

        record = run_service(tmp_path, revived)
        assert record.state == "done"
        expected = spec.build_runner().run(spec.trials)
        assert result_from_dict(record.result).as_dict() == \
            expected.as_dict()

    def test_id_sequence_continues_after_restart(self, tmp_path):
        async def first(service):
            job = await service.submit(spec_for(1))
            await service.wait(job.id, timeout=120)
            return job.id

        first_id = run_service(tmp_path, first)

        async def second(service):
            job = await service.submit(spec_for(2))
            await service.wait(job.id, timeout=120)
            return job.id

        second_id = run_service(tmp_path, second)
        assert second_id != first_id
        # ids embed a monotonic sequence: the restart continued it
        assert int(second_id[1:7]) > int(first_id[1:7])

    def test_duplicate_keys_reattach_as_followers(self, tmp_path):
        """Two persisted unsettled submissions of the same spec must
        execute once and both settle."""
        spec = spec_for(11, trials=120)
        store = ResultStore(tmp_path)
        normalized = spec.normalized()
        for seq in (1, 2):
            job = JobRecord(id=f"j{seq:06d}-cafecafe", spec=normalized,
                            key=normalized.cache_key(), state="queued")
            store.put_job(job.id, job.to_dict())

        async def revived(service):
            a = await service.wait("j000001-cafecafe", timeout=120)
            b = await service.wait("j000002-cafecafe", timeout=120)
            return a, b

        a, b = run_service(tmp_path, revived)
        assert a.state == b.state == "done"
        assert a.result == b.result

    def test_torn_job_file_is_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        (store.jobs_dir / "j000001-bad.json").write_text("{torn")

        async def boots(service):
            job = await service.submit(spec_for(3, trials=64))
            await service.wait(job.id, timeout=120)
            return job

        assert run_service(tmp_path, boots).state == "done"


async def close_with_queued_job(root, first, second):
    """Close a service whose only scheduler task a blocking shard
    runner holds, with ``first`` running and ``second`` queued; the
    runner is released after. Returns ``(service, running, queued)``."""
    entered, release = threading.Event(), threading.Event()

    def held_runner(task):
        entered.set()
        release.wait(60)
        return run_shard_task(task)

    service = CampaignService(root, executor="thread", shard_trials=64,
                              max_concurrent_jobs=1,
                              shard_runner=held_runner)
    await service.start()
    try:
        running = await service.submit(first)
        assert await asyncio.to_thread(entered.wait, 30)
        queued = await service.submit(second)
        assert running.state == "running"
        assert queued.state == "queued"
        await service.close()
    finally:
        release.set()
    return service, running, queued


class TestDurability:
    def test_job_queued_at_close_runs_after_restart(self, tmp_path):
        """close() with one job running and one queued: the persisted
        records alone bring both back, and a fresh service settles
        them bit-identical to the reference."""
        first, second = spec_for(31, trials=40), spec_for(32, trials=40)

        async def closed():
            _, running, queued = await close_with_queued_job(
                tmp_path, first, second)
            return running.id, queued.id

        ids = asyncio.run(closed())
        store = ResultStore(tmp_path)
        states = [store.get_job(i)["state"] for i in ids]
        assert set(states) <= {"queued", "running"}, states
        assert store.keys() == []

        async def revived(service):
            return [await service.wait(i, timeout=120) for i in ids]

        records = run_service(tmp_path, revived)
        for record, spec in zip(records, (first, second)):
            assert record.state == "done" and not record.cached
            assert_matches_reference(record, spec)
        assert [store.get_job(i)["state"] for i in ids] == ["done"] * 2

    def test_job_queued_at_close_runs_when_the_service_starts_again(
            self, tmp_path):
        """The same service object, closed with a job queued and
        started again, recovers the job from its record."""
        first, second = spec_for(33, trials=40), spec_for(34, trials=40)

        async def main():
            service, running, queued = await close_with_queued_job(
                tmp_path, first, second)
            async with service:
                return [await service.wait(job.id, timeout=120)
                        for job in (running, queued)]

        records = asyncio.run(main())
        for record, spec in zip(records, (first, second)):
            assert record.state == "done" and not record.cached
            assert_matches_reference(record, spec)

    @pytest.mark.parametrize("execution", ["local", "distributed"])
    def test_two_services_share_one_store_root(self, tmp_path, execution):
        """Each of two live services on one store root runs every job
        it accepted: job ids live in each service's own queue, so
        neither takes (and drops) the other's. Distributed, they share
        the root's broker file, and one shared-store worker runs the
        units of both."""
        from repro.distributed import BrokerWorkSource, ShardWorker, \
            SqliteBroker

        per_service = 10
        batches = [[spec_for(base + i, trials=40)
                    for i in range(per_service)] for base in (100, 200)]
        kwargs = dict(executor="thread", shard_trials=64,
                      execution=execution, dispatch_poll_s=0.02)

        async def main():
            async with CampaignService(tmp_path, **kwargs) as a, \
                    CampaignService(tmp_path, **kwargs) as b:
                stop = threading.Event()
                workers = []
                if execution == "distributed":
                    assert a.broker_path == b.broker_path
                    source = BrokerWorkSource(SqliteBroker(a.broker_path),
                                              ResultStore(tmp_path))
                    workers.append(threading.Thread(
                        target=ShardWorker(source, worker_id="shared",
                                           poll_interval_s=0.01).run,
                        kwargs={"stop": stop}, daemon=True))
                for worker in workers:
                    worker.start()
                try:
                    submitted = [
                        (service, await service.submit(spec), spec)
                        for service, batch in zip((a, b), batches)
                        for spec in batch]
                    settled = await asyncio.gather(*(
                        service.wait(job.id, timeout=60)
                        for service, job, _ in submitted))
                finally:
                    stop.set()
                    for worker in workers:
                        await asyncio.to_thread(worker.join, 10)
                return [(record, spec) for record, (_, _, spec)
                        in zip(settled, submitted)]

        settled = asyncio.run(main())
        assert len(settled) == 2 * per_service
        assert len({record.id for record, _ in settled}) == len(settled)
        store = ResultStore(tmp_path)
        for record, spec in settled:
            assert record.state == "done" and not record.cached
            assert_matches_reference(record, spec)
            assert store.get_job(record.id)["state"] == "done"


class TestCloseMidJob:
    def test_close_mid_job_is_not_a_settle(self, tmp_path):
        """close() while a job runs: no settle metric, event or waiter
        wake-up, and the record stays "queued"; a fresh service on the
        root then settles it bit-identical to the reference."""
        from repro.service.scheduler import _JOBS_SETTLED

        spec = spec_for(35, trials=40)
        entered, release = threading.Event(), threading.Event()

        def held_runner(task):
            entered.set()
            release.wait(60)
            return run_shard_task(task)

        settled_before = _JOBS_SETTLED.total()

        async def closed():
            service = CampaignService(tmp_path, executor="thread",
                                      shard_trials=16,
                                      shard_runner=held_runner)
            await service.start()
            try:
                job = await service.submit(spec)
                assert await asyncio.to_thread(entered.wait, 30)
                assert job.state == "running"
                await service.close()
            finally:
                release.set()
            return job

        job = asyncio.run(closed())
        assert not job.done_event.is_set()
        assert _JOBS_SETTLED.total() == settled_before
        store = ResultStore(tmp_path)
        names = [event["name"] for event in store.read_events(job.id)]
        assert "job.submit" in names and "job.settle" not in names
        record = store.get_job(job.id)
        assert record["state"] == "queued"
        assert record["finished_at"] is None

        async def revived(service):
            return await service.wait(job.id, timeout=120)

        settled = run_service(tmp_path, revived)
        assert settled.state == "done" and not settled.cached
        assert_matches_reference(settled, spec)
        assert store.get_job(job.id)["state"] == "done"


class TestSharedRootIds:
    def test_same_spec_on_two_services_gets_two_ids(self, tmp_path):
        """Both services count ids from the same persisted maximum; the
        exclusive create of the record makes the second take the next
        free id instead of sharing (and overwriting) the first's."""
        spec = spec_for(36, trials=400)

        async def main():
            kwargs = dict(executor="thread", shard_trials=64)
            async with CampaignService(tmp_path, **kwargs) as a, \
                    CampaignService(tmp_path, **kwargs) as b:
                jobs = [await a.submit(spec), await b.submit(spec)]
                return await asyncio.gather(
                    a.wait(jobs[0].id, timeout=120),
                    b.wait(jobs[1].id, timeout=120))

        records = asyncio.run(main())
        assert len({record.id for record in records}) == 2
        store = ResultStore(tmp_path)
        assert sorted(store.job_ids()) == sorted(r.id for r in records)
        for record in records:
            assert record.state == "done"
            assert_matches_reference(record, spec)
            assert store.get_job(record.id)["state"] == "done"

    def test_concurrent_submissions_mint_distinct_ids(self, tmp_path):
        """Many submissions of one spec at once on two services (ids are
        minted on executor threads, switching often): every id is
        distinct and has its own record."""
        import sys

        spec = spec_for(37, trials=40)

        async def main():
            kwargs = dict(executor="thread", shard_trials=64)
            async with CampaignService(tmp_path, **kwargs) as a, \
                    CampaignService(tmp_path, **kwargs) as b:
                jobs = await asyncio.gather(*(
                    service.submit(spec) for _ in range(12)
                    for service in (a, b)))
                for service, job in zip((a, b) * 12, jobs):
                    await service.wait(job.id, timeout=120)
                return jobs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            jobs = asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
        ids = [job.id for job in jobs]
        assert len(set(ids)) == 24
        assert sorted(ResultStore(tmp_path).job_ids()) == sorted(ids)
        assert all(job.state == "done" for job in jobs)

    def test_create_job_is_exclusive(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.create_job("j000001-aaaa", {"id": "first"})
        assert not store.create_job("j000001-aaaa", {"id": "second"})
        assert store.get_job("j000001-aaaa") == {"id": "first"}
        assert list(store.jobs_dir.iterdir()) == \
            [store.jobs_dir / "j000001-aaaa.json"]


class TestEviction:
    def test_eviction_forgets_persisted_ids_too(self, tmp_path):
        async def main(service):
            ids = []
            for seed in range(5):
                job = await service.submit(spec_for(seed, trials=40))
                await service.wait(job.id, timeout=120)
                ids.append(job.id)
            return ids

        ids = run_service(tmp_path, main, max_job_records=3)
        store = ResultStore(tmp_path)
        persisted = store.job_ids()
        assert len(persisted) <= 3
        assert ids[0] not in persisted  # oldest evicted from disk too

    def test_invalid_job_id_path_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="invalid job id"):
            store.put_job("../escape", {})
