"""A fault-free fleet does zero redundant work, on both topologies.

The dispatcher wakes on HTTP completions but still scans the store for
shared-store workers' checkpoints; neither path may send a finished
unit around again. For one fault-free job per topology: no dispatcher
requeue (``repro_dispatch_unit_requeues_total``), no ``reclaimed``
claim, and no ``unit.reattempt`` or ``unit.requeue`` trace event.
"""

import asyncio
import threading

import pytest

from repro.distributed import (
    BrokerWorkSource,
    HttpWorkSource,
    ShardWorker,
    SqliteBroker,
)
from repro.obs import metrics as obs_metrics
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ResultStore,
    ServiceClient,
    ServiceServer,
    result_from_dict,
)

SPEC = CampaignJobSpec(
    n=15, m=3, trials=384, seed=71,
    injector=InjectorSpec("uniform", {"probability": 2e-3}))


def counters():
    claims = obs_metrics.counter("repro_broker_claims_total",
                                 labelnames=("outcome",))
    requeues = obs_metrics.counter("repro_dispatch_unit_requeues_total")
    return {"granted": claims.value(outcome="granted"),
            "reclaimed": claims.value(outcome="reclaimed"),
            "requeues": requeues.total()}


async def run_fleet(tmp_path, topology, workers):
    service = CampaignService(tmp_path, executor="thread", shard_trials=64,
                              execution="distributed",
                              dispatch_poll_s=0.02)
    async with ServiceServer(service, port=0) as server:
        def source():
            if topology == "http":
                return HttpWorkSource(ServiceClient(server.url))
            return BrokerWorkSource(SqliteBroker(service.broker_path),
                                    ResultStore(tmp_path))

        stop = threading.Event()
        threads = [threading.Thread(
            target=ShardWorker(source(), worker_id=f"{topology}-{i}",
                               lease_ttl_s=30,
                               poll_interval_s=0.02).run,
            kwargs={"stop": stop}, daemon=True) for i in range(workers)]
        for thread in threads:
            thread.start()
        try:
            job = await service.submit(SPEC)
            await service.wait(job.id, timeout=300)
        finally:
            stop.set()
            for thread in threads:
                await asyncio.to_thread(thread.join, 10)
        assert not any(thread.is_alive() for thread in threads)
        return job


# Four HTTP workers (more than this host's cores) race each publish
# wake-up for the same units.
@pytest.mark.parametrize("topology, workers",
                         [("shared_store", 2), ("http", 4)])
def test_fault_free_job_does_no_redundant_work(tmp_path, topology,
                                               workers):
    before = counters()
    job = asyncio.run(run_fleet(tmp_path, topology, workers))
    after = counters()

    assert job.state == "done"
    assert result_from_dict(job.result).as_dict() == \
        SPEC.build_runner().run(SPEC.trials).as_dict()
    assert after["granted"] - before["granted"] == 6  # one claim a unit
    assert after["reclaimed"] == before["reclaimed"]
    assert after["requeues"] == before["requeues"]
    names = [e["name"] for e in ResultStore(tmp_path).read_events(job.id)]
    assert names.count("unit.claim") == 6
    assert "unit.reattempt" not in names
    assert "unit.requeue" not in names
