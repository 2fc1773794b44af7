"""HTTP-topology wake-ups: no sleep-poll on a job's critical path.

Claims long-poll until units are published, unit completions and
failures wake the dispatcher, and idle workers stay cheap. Every test
sets the poll intervals (``dispatch_poll_s``, the worker's
``poll_interval_s``) far above the job's run time, so only the
wake-ups can make it settle quickly.
"""

import asyncio
import threading
import time

from repro.distributed import HttpWorkSource, ShardWorker
from repro.distributed.worker import CLAIM_WAIT_S
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ServiceClient,
    ServiceServer,
    result_from_dict,
)

#: Far above any run time here: a job that needs a poll to notice
#: progress would take ~seconds on average, not well under one.
POLL_S = 30.0

#: "Well under the poll intervals" for a few small units on 2 CPUs.
SETTLE_S = 5.0


def spec_for(seed=61, trials=256):
    return CampaignJobSpec(
        n=15, m=3, trials=trials, seed=seed,
        injector=InjectorSpec("uniform", {"probability": 2e-3}))


class CountingSource(HttpWorkSource):
    def __init__(self, client):
        super().__init__(client)
        self.claims = 0

    def claim(self, owner, ttl_s):
        self.claims += 1
        return super().claim(owner, ttl_s)


class WorkerThread:
    """One HTTP-topology ShardWorker on a daemon thread."""

    def __init__(self, url, poll_interval_s=POLL_S):
        self.source = CountingSource(ServiceClient(url))
        self.worker = ShardWorker(self.source, worker_id="wake-w",
                                  lease_ttl_s=30,
                                  poll_interval_s=poll_interval_s)
        self.stop = threading.Event()
        self.thread = threading.Thread(
            target=self.worker.run, kwargs={"stop": self.stop},
            daemon=True)
        self.thread.start()

    async def close(self):
        """Stop the worker; returns seconds until its loop exited."""
        self.stop.set()
        start = time.monotonic()
        # off the event loop: it must answer the in-flight claim
        await asyncio.to_thread(self.thread.join, 10)
        assert not self.thread.is_alive()
        return time.monotonic() - start


class TestSettlesWithoutPolls:
    def test_job_settles_well_under_the_poll_intervals(self, tmp_path):
        spec = spec_for()

        async def main():
            service = CampaignService(
                tmp_path, executor="thread", shard_trials=64,
                execution="distributed", dispatch_poll_s=POLL_S)
            async with ServiceServer(service, port=0) as server:
                worker = WorkerThread(server.url)
                try:
                    # the worker's first claim is already held
                    await asyncio.sleep(0.2)
                    start = time.monotonic()
                    job = await service.submit(spec)
                    await service.wait(job.id, timeout=120)
                    elapsed = time.monotonic() - start
                    # a second job reuses the idle worker's held claim
                    start = time.monotonic()
                    again = await service.submit(spec_for(seed=62))
                    await service.wait(again.id, timeout=120)
                    elapsed_again = time.monotonic() - start
                finally:
                    await worker.close()
                return job, elapsed, elapsed_again

        job, elapsed, elapsed_again = asyncio.run(main())
        assert job.state == "done"
        assert result_from_dict(job.result).as_dict() == \
            spec.build_runner().run(spec.trials).as_dict()
        assert elapsed < SETTLE_S
        assert elapsed_again < SETTLE_S

    def test_unit_failure_wakes_the_dispatcher(self, tmp_path):
        """A terminal failure reported over HTTP fails the job at once,
        not at the next store scan."""
        async def main():
            service = CampaignService(
                tmp_path, executor="thread", shard_trials=64,
                execution="distributed", dispatch_poll_s=POLL_S)
            async with ServiceServer(service, port=0) as server:
                client = ServiceClient(server.url)
                job = await service.submit(spec_for(seed=63))
                unit = await asyncio.to_thread(
                    client.claim_unit, "saboteur", 30.0, 5.0)
                start = time.monotonic()
                await asyncio.to_thread(
                    client.fail_unit, unit["unit_id"], "saboteur",
                    "poisoned", False)
                await service.wait(job.id, timeout=120)
                return job, time.monotonic() - start

        job, elapsed = asyncio.run(main())
        assert job.state == "failed"
        assert "poisoned" in job.error
        assert elapsed < SETTLE_S


#: Idle window; the old 0.2-s sleep-poll claimed ~10 times a second.
IDLE_S = 1.5


class TestIdleWorker:
    def test_idle_claims_are_paced_and_stop_lands(self, tmp_path):
        """An idle HTTP worker sends about one claim per claim wait (no
        more than the old jittered 0.2-s sleep-poll would), and a stop
        lands within one claim wait."""
        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      execution="distributed")
            async with ServiceServer(service, port=0) as server:
                worker = WorkerThread(server.url, poll_interval_s=0.2)
                await asyncio.sleep(IDLE_S)
                claims = worker.source.claims
                stopped_in = await worker.close()
                return claims, stopped_in

        claims, stopped_in = asyncio.run(main())
        assert 1 <= claims <= IDLE_S / CLAIM_WAIT_S + 1
        assert stopped_in < CLAIM_WAIT_S + 1.0
