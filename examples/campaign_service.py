"""Campaign service walkthrough: submit-and-poll reliability campaigns.

The service layer (:mod:`repro.service`) turns blocking campaign calls
into jobs: declarative JSON specs go in, results come back from an
async scheduler that shards trials onto a worker pool, checkpoints
every completed span (a one-span job runs on a thread of the service
and writes only its result), and dedupes identical submissions
through a content-addressed store. This example walks the whole surface in one
process:

1. job specs for every workload family (JSON round-trip included);
2. an embedded service: submit, poll, bit-identical results;
3. content-addressed caching — resubmission costs nothing;
4. crash recovery — a "killed" campaign resumes from checkpoints;
5. the HTTP server + client (what ``repro serve`` / ``repro submit``
   wrap).

Run:  python examples/campaign_service.py
"""

import asyncio
import os
import tempfile

from repro.faults.batch import run_shard_task
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    DriftSurvivalJobSpec,
    InjectorSpec,
    LogicEquivalenceJobSpec,
    ResultStore,
    ServiceClient,
    ServiceServer,
    result_from_dict,
)

CAMPAIGN = CampaignJobSpec(
    n=45, m=15,  # paper block size on a small crossbar
    injector=InjectorSpec("uniform", {"probability": 5e-3}),
    trials=2000, seed=7, packing="u64")


async def submit_and_poll(store_dir: str) -> None:
    print("== submit-and-poll ==")
    async with CampaignService(store_dir, workers=2,
                               shard_trials=256) as service:
        specs = {
            "uniform campaign (u64)": CAMPAIGN,
            "drift survival": DriftSurvivalJobSpec(
                n=45, m=15, trials=400, tau_hours=2e5, beta=2.0,
                abrupt_fit_per_bit=1e4, window_hours=24.0,
                refresh_period_hours=6.0, seed=11),
            "logic equivalence": LogicEquivalenceJobSpec(
                circuit="int2float", seed=1),
        }
        jobs = {}
        for label, spec in specs.items():
            job = await service.submit(spec)
            jobs[label] = job
            print(f"  submitted {label}: {job.id} "
                  f"(key {job.key[:12]}..., kind {spec.kind})")
        for label, job in jobs.items():
            await service.wait(job.id)
            print(f"  {label}: {job.state}, "
                  f"{job.shards_done}/{job.shards_total} shards -> "
                  f"{job.result}")

        # the differential contract: service == in-process runner
        in_process = CAMPAIGN.build_runner().run(CAMPAIGN.trials)
        service_side = result_from_dict(jobs["uniform campaign (u64)"]
                                        .result)
        print(f"  bit-identical to in-process CampaignRunner: "
              f"{service_side.as_dict() == in_process.as_dict()}")

        # content-addressed dedupe: same (spec, entropy) = cache hit
        again = await service.submit(CAMPAIGN)
        print(f"  resubmission: state={again.state} cached={again.cached} "
              f"(served from the store, zero trials executed)")


async def crash_and_resume(store_dir: str) -> None:
    print("\n== checkpoint / resume ==")
    spec = CampaignJobSpec(
        n=45, m=15, injector=InjectorSpec("uniform",
                                          {"probability": 5e-3}),
        trials=2000, seed=99)

    completed = []

    def dying_runner(task):
        if len(completed) >= 3:
            raise RuntimeError("simulated kill -9")
        result = run_shard_task(task)
        completed.append(task.span)
        return result

    async with CampaignService(store_dir, workers=1, shard_trials=256,
                               max_concurrent_jobs=1,
                               shard_runner=dying_runner,
                               executor="thread") as service:
        job = await service.submit(spec)
        await service.wait(job.id)
        print(f"  first attempt: {job.state} after "
              f"{len(completed)} checkpointed spans ({job.error})")

    spans = ResultStore(store_dir).shard_spans(
        spec.normalized().cache_key())
    print(f"  store kept {len(spans)} span checkpoints across the crash")

    async with CampaignService(store_dir, workers=2,
                               shard_trials=256) as service:
        job = await service.submit(spec)
        await service.wait(job.id)
        print(f"  restarted service: {job.state}, reused "
              f"{job.shards_cached}/{job.shards_total} spans, "
              f"result {job.result}")
        expected = spec.build_runner().run(spec.trials)
        print(f"  bit-identical to an uninterrupted run: "
              f"{result_from_dict(job.result).as_dict() == expected.as_dict()}")


async def over_http(store_dir: str) -> None:
    print("\n== HTTP surface (repro serve / submit / status) ==")
    service = CampaignService(store_dir, workers=2, shard_trials=256)
    async with ServiceServer(service, port=0) as server:
        print(f"  serving on {server.url}")

        def client_flow():
            client = ServiceClient(server.url)
            print(f"  /info -> kinds {client.info()['job_kinds']}")
            job = client.submit(CAMPAIGN)
            record = client.wait(job["id"])
            print(f"  /jobs -> {record['state']} "
                  f"(cached={record['cached']}) "
                  f"result {record['result']}")

        await asyncio.to_thread(client_flow)


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        store_dir = os.path.join(root, "store")
        asyncio.run(submit_and_poll(store_dir))
        asyncio.run(crash_and_resume(os.path.join(root, "crash-store")))
        asyncio.run(over_http(store_dir))


if __name__ == "__main__":
    main()
