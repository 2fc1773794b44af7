"""Differential suite: distributed execution is invisible in the tallies.

The acceptance contract of the worker-fleet subsystem: a campaign
dispatched to the broker and executed by N workers — including workers
killed mid-campaign, lease expiry/re-enqueue, and a service restart —
returns a ``CampaignResult`` bit-identical to the in-process
:class:`CampaignRunner`, for both tensor layouts, over both transports
(shared store and HTTP).
"""

import asyncio
import threading
import time

import pytest

from repro.distributed import (
    BrokerWorkSource,
    HttpWorkSource,
    ShardWorker,
    SqliteBroker,
    WIRE_VERSION,
)
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ResultStore,
    ServiceClient,
    ServiceServer,
    result_from_dict,
    service_info,
)
from repro.utils.rng import DRAW_CONTRACT

UNIFORM = InjectorSpec("uniform", {"probability": 2e-3})


def spec_for(packing="u8", seed=41, trials=300):
    return CampaignJobSpec(n=15, m=3, trials=trials, seed=seed,
                           injector=UNIFORM, packing=packing)


class Fleet:
    """N broker-topology workers on daemon threads."""

    def __init__(self, store_root, broker_path, n=2, lease_ttl_s=10.0):
        self.stop = threading.Event()
        self.workers = [
            ShardWorker(
                BrokerWorkSource(SqliteBroker(broker_path),
                                 ResultStore(store_root)),
                worker_id=f"fleet-{i}", lease_ttl_s=lease_ttl_s,
                poll_interval_s=0.02)
            for i in range(n)]
        self.threads = [
            threading.Thread(target=w.run, kwargs={"stop": self.stop},
                             daemon=True)
            for w in self.workers]

    def __enter__(self):
        for t in self.threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        for t in self.threads:
            t.join(timeout=10)


def run_distributed(store, spec, n_workers=2, **service_kwargs):
    service_kwargs.setdefault("executor", "thread")
    service_kwargs.setdefault("shard_trials", 64)
    service_kwargs.setdefault("execution", "distributed")

    async def main():
        async with CampaignService(store, **service_kwargs) as service:
            with Fleet(store, service.broker_path, n=n_workers):
                job = await service.submit(spec)
                await service.wait(job.id, timeout=300)
                return job

    return asyncio.run(main())


class TestDifferential:
    @pytest.mark.parametrize("packing", ["u8", "u64"])
    def test_distributed_equals_in_process_runner(self, tmp_path, packing):
        spec = spec_for(packing)
        job = run_distributed(tmp_path, spec, n_workers=2)
        assert job.state == "done" and not job.cached
        assert job.shards_total == 5
        got = result_from_dict(job.result)
        expected = spec.build_runner().run(spec.trials)
        assert got.as_dict() == expected.as_dict()

    def test_matches_scalar_reference(self, tmp_path):
        spec = spec_for(seed=13, trials=120)
        job = run_distributed(tmp_path, spec)
        reference = spec.build_runner().run_reference(spec.trials)
        assert result_from_dict(job.result).as_dict() == \
            reference.as_dict()

    def test_worker_count_is_invisible(self, tmp_path):
        results = [
            run_distributed(tmp_path / str(n), spec_for(seed=7), n).result
            for n in (1, 3)]
        assert results[0] == results[1]

    def test_single_unit_jobs_still_run_locally(self, tmp_path):
        """Adaptive jobs are not span-decomposable; distributed mode
        must execute them on the local pool, no fleet required."""
        from repro.service import AdaptiveCampaignJobSpec

        spec = AdaptiveCampaignJobSpec(
            n=15, m=3, injector=UNIFORM, tolerance=0.1,
            max_trials=1024, initial_trials=64, seed=37)

        async def main():
            async with CampaignService(
                    tmp_path, executor="thread",
                    execution="distributed") as service:
                job = await service.submit(spec)
                await service.wait(job.id, timeout=300)
                return job

        job = asyncio.run(main())
        assert job.state == "done"
        expected = spec.build_runner().run_adaptive(
            tolerance=spec.tolerance, confidence=spec.confidence,
            max_trials=spec.max_trials,
            initial_trials=spec.initial_trials, growth=spec.growth)
        from repro.service import result_to_dict
        assert job.result == result_to_dict(expected)


class TestWorkerLoss:
    def test_killed_worker_mid_campaign_resumes_bit_identically(
            self, tmp_path):
        """A worker claims a span and dies (never heartbeats, never
        acks). Its lease expires, the unit re-enqueues, a healthy
        worker finishes it — and the merged tallies are bit-identical
        to the in-process runner."""
        spec = spec_for(seed=23)

        async def main():
            async with CampaignService(
                    tmp_path, executor="thread", shard_trials=64,
                    execution="distributed",
                    dispatch_poll_s=0.02) as service:
                broker = SqliteBroker(service.broker_path)
                job = await service.submit(spec)

                # the doomed worker: claims the first published unit
                # with a tiny TTL and is never heard from again
                doomed = None
                deadline = time.monotonic() + 30
                while doomed is None and time.monotonic() < deadline:
                    doomed = await asyncio.to_thread(
                        broker.claim, "doomed-worker", 0.05)
                    await asyncio.sleep(0.01)
                assert doomed is not None
                await asyncio.sleep(0.1)  # let the lease expire

                with Fleet(tmp_path, service.broker_path, n=2):
                    await service.wait(job.id, timeout=300)
                return job, doomed

        job, doomed = asyncio.run(main())
        assert job.state == "done"
        got = result_from_dict(job.result)
        expected = spec_for(seed=23).build_runner().run(spec.trials)
        assert got.as_dict() == expected.as_dict()

    def test_service_restart_mid_campaign_resumes(self, tmp_path):
        """Kill the *service* after some spans completed; a fresh
        service over the same store re-enqueues the persisted job,
        reuses the checkpoints, and finishes bit-identically."""
        spec = spec_for(seed=29)

        async def first_service():
            async with CampaignService(
                    tmp_path, executor="thread", shard_trials=64,
                    execution="distributed",
                    dispatch_poll_s=0.02) as service:
                job = await service.submit(spec)
                # one worker executes exactly 2 of the 5 spans, then
                # the service dies (context exit without completion)
                source = BrokerWorkSource(
                    SqliteBroker(service.broker_path),
                    ResultStore(tmp_path))
                worker = ShardWorker(source, worker_id="partial",
                                     lease_ttl_s=5, poll_interval_s=0.02)
                await asyncio.to_thread(worker.run, 2)
                return job.id

        job_id = asyncio.run(first_service())
        store = ResultStore(tmp_path)
        key = spec.normalized().cache_key()
        assert not store.has(key)
        assert len(store.shard_spans(key)) == 2

        async def second_service():
            async with CampaignService(
                    tmp_path, executor="thread", shard_trials=64,
                    execution="distributed",
                    dispatch_poll_s=0.02) as service:
                # the persisted job re-enqueued itself at start(). Its
                # first checkpoint scan sets shards_total; the fleet
                # starts only after it, so no surviving unit of the
                # first service can land before the scan counts the
                # pre-restart checkpoints.
                async def scanned():
                    while service.status(job_id).shards_total == 0:
                        await asyncio.sleep(0.01)

                await asyncio.wait_for(scanned(), timeout=60)
                with Fleet(tmp_path, service.broker_path, n=2):
                    return await service.wait(job_id, timeout=300)

        job = asyncio.run(second_service())
        assert job.state == "done"
        assert job.shards_cached == 2  # the pre-restart checkpoints
        got = result_from_dict(job.result)
        expected = spec.build_runner().run(spec.trials)
        assert got.as_dict() == expected.as_dict()

    def test_poison_unit_fails_the_job_not_the_service(self, tmp_path):
        """A terminally failed unit surfaces as a failed job, and the
        service keeps executing subsequent jobs."""
        spec = spec_for(seed=31, trials=128)

        async def main():
            async with CampaignService(
                    tmp_path, executor="thread", shard_trials=64,
                    execution="distributed",
                    dispatch_poll_s=0.02) as service:
                broker = SqliteBroker(service.broker_path)
                job = await service.submit(spec)
                # sabotage: claim a unit and poison it terminally
                unit = None
                while unit is None:
                    unit = await asyncio.to_thread(broker.claim,
                                                   "saboteur", 30.0)
                    await asyncio.sleep(0.01)
                await asyncio.to_thread(broker.fail, unit.unit_id,
                                        "saboteur", "poisoned",
                                        False)
                await service.wait(job.id, timeout=300)
                assert job.state == "failed"
                assert "poisoned" in job.error
                # the job's surviving units were withdrawn — no worker
                # will burn cycles on an already-failed job
                counts = await asyncio.to_thread(broker.counts, job.key)
                assert counts == {"queued": 0, "leased": 0, "done": 0,
                                  "failed": 0}

                # the service survives: a fresh spec completes
                ok = await service.submit(spec_for(seed=32, trials=64))
                with Fleet(tmp_path, service.broker_path, n=1):
                    await service.wait(ok.id, timeout=300)
                return ok

        ok = asyncio.run(main())
        assert ok.state == "done"


class TestHttpTopology:
    def test_http_worker_end_to_end(self, tmp_path):
        """A worker that only knows the service URL produces the same
        bit-identical result (the server does the store writes)."""
        spec = spec_for(seed=47, trials=200)

        async def main():
            service = CampaignService(
                tmp_path, executor="thread", shard_trials=64,
                execution="distributed", dispatch_poll_s=0.02)
            async with ServiceServer(service, port=0) as server:
                client = ServiceClient(server.url)
                worker = ShardWorker(HttpWorkSource(client),
                                     worker_id="http-w", lease_ttl_s=10,
                                     poll_interval_s=0.02)
                stop = threading.Event()
                thread = threading.Thread(
                    target=worker.run, kwargs={"stop": stop}, daemon=True)
                thread.start()
                try:
                    job = await service.submit(spec)
                    await service.wait(job.id, timeout=300)
                finally:
                    stop.set()
                    await asyncio.to_thread(thread.join, 10)
                return job

        job = asyncio.run(main())
        assert job.state == "done"
        got = result_from_dict(job.result)
        expected = spec.build_runner().run(spec.trials)
        assert got.as_dict() == expected.as_dict()

    def test_traversal_job_key_rejected_over_http(self, tmp_path):
        """/units/complete forwards caller strings into store paths;
        a traversal key must bounce as a 400, never touch the disk."""
        async def main():
            service = CampaignService(
                tmp_path, executor="thread", execution="distributed")
            async with ServiceServer(service, port=0) as server:
                client = ServiceClient(server.url)
                with pytest.raises(ValueError, match="invalid key"):
                    await asyncio.to_thread(
                        client.complete_unit, "u", "w",
                        "../../escape", 0, 64,
                        {"type": "campaign_result", "trials": 64,
                         "clean": 64, "corrected": 0, "detected": 0,
                         "silent": 0, "injected_faults": 0,
                         "blocks_with_multi_faults": 0})

        asyncio.run(main())
        assert not (tmp_path.parent / "escape").exists()

    def test_claim_answer_flags_checkpointed_span(self, tmp_path):
        """HTTP workers get the same checkpoint-dedupe short-circuit
        as shared-store workers: the claim answer says whether the
        span is already checkpointed, and the source answers
        ``shard_done`` from it without a request."""
        from repro.distributed.wire import unit_envelope
        from repro.faults.campaign import CampaignResult

        runner = spec_for(trials=128).build_runner()
        key = "ab12" * 16

        async def main():
            service = CampaignService(
                tmp_path, executor="thread", execution="distributed")
            async with ServiceServer(service, port=0) as server:
                service.store.put_shard(key, 0, 64,
                                        CampaignResult(trials=64))
                service.broker.publish_many(
                    [(f"{key}:{lo}-{hi}",
                      unit_envelope(key, lo, hi, runner.shard_task(lo, hi)))
                     for lo, hi in ((0, 64), (64, 128))], group_key=key)
                source = HttpWorkSource(ServiceClient(server.url))

                def claim_and_ask():
                    unit_id, _, _ = source.claim("w", 10.0)
                    lo, hi = (int(x) for x in
                              unit_id.rpartition(":")[2].split("-"))
                    return (unit_id, source.shard_done(key, lo, hi),
                            source.shard_done(key, 0, 128))

                return [await asyncio.to_thread(claim_and_ask)
                        for _ in range(2)]

        assert asyncio.run(main()) == [(f"{key}:0-64", True, False),
                                       (f"{key}:64-128", False, False)]

    def test_units_endpoints_refused_in_local_mode(self, tmp_path):
        async def main():
            service = CampaignService(tmp_path, executor="thread")
            async with ServiceServer(service, port=0) as server:
                client = ServiceClient(server.url)
                with pytest.raises(ValueError,
                                   match="not running in distributed"):
                    # blocking client call off the server's event loop
                    await asyncio.to_thread(client.claim_unit, "w", 10.0)

        asyncio.run(main())


class TestIntrospection:
    def test_service_info_reports_modes_and_backends(self):
        info = service_info()
        assert info["execution_modes"] == ["local", "distributed"]
        assert "sqlite" in info["queue_backends"]
        assert "memory" in info["queue_backends"]
        assert info["draw_contract"] == DRAW_CONTRACT
        assert info["wire_version"] == WIRE_VERSION

    def test_instance_info_reports_broker_state(self, tmp_path):
        async def main():
            async with CampaignService(
                    tmp_path, executor="thread",
                    execution="distributed") as service:
                return service.info()

        info = asyncio.run(main())
        assert info["execution"] == "distributed"
        assert info["broker"].endswith("broker.sqlite3")
        assert info["work_units"] == {"queued": 0, "leased": 0,
                                      "done": 0, "failed": 0}
