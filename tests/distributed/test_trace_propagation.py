"""Trace propagation across the distributed boundary.

The scheduler stamps a ``trace`` block into every unit dispatch
envelope (wire v4); workers attach their claim/execute/complete
telemetry under the scheduler's ``job.execute`` span and ship it back
through their work source. These tests pin the reconstructed
cross-process timeline on both fleet topologies, plus the
lease-expiry story: a worker killed after claiming leaves the resumed
attempt marked ``unit.reattempt``, and an acked-but-lost checkpoint
leaves a ``unit.requeue`` span from the dispatcher.
"""

import asyncio
import threading

from repro.distributed import (
    BrokerWorkSource,
    HttpWorkSource,
    ShardWorker,
    SqliteBroker,
)
from repro.obs.timeline import build_timeline, render_timeline
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ResultStore,
    ServiceClient,
    ServiceServer,
)

UNIFORM = InjectorSpec("uniform", {"probability": 2e-3})


def spec_for(seed=41, trials=96):
    return CampaignJobSpec(n=15, m=3, trials=trials, seed=seed,
                           injector=UNIFORM, packing="u8")


class Fleet:
    """N shared-store workers on daemon threads."""

    def __init__(self, store_root, broker_path, n=2, lease_ttl_s=30.0):
        self.stop = threading.Event()
        self.workers = [
            ShardWorker(
                BrokerWorkSource(SqliteBroker(broker_path),
                                 ResultStore(store_root)),
                worker_id=f"w{i}", lease_ttl_s=lease_ttl_s,
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


def assert_complete_timeline(events, job, n_units, worker_ids):
    """The cross-process invariant both topologies must satisfy."""
    names = [e["name"] for e in events]
    assert "job.submit" in names
    assert names.count("unit.publish") == n_units
    assert names.count("unit.claim") == n_units
    assert names.count("unit.execute") == n_units
    assert names.count("unit.complete") == n_units
    assert "job.execute" in names
    assert "job.settle" in names

    by_name = {}
    for e in events:
        by_name.setdefault(e["name"], []).append(e)

    # worker events name their emitting process; the service's half
    # stays on proc "service"
    worker_procs = {e["proc"] for e in by_name["unit.execute"]}
    assert worker_procs <= worker_ids and worker_procs
    assert by_name["job.execute"][0]["proc"] == "service"

    # cross-process parentage: every worker span/event hangs under the
    # scheduler's execute span, so the timeline nests without guessing
    execute_span = by_name["job.execute"][0]["span"]
    for name in ("unit.publish", "unit.claim", "unit.execute",
                 "unit.complete"):
        for e in by_name[name]:
            assert e["parent"] == execute_span, (name, e)

    # per-phase durations ride the execute spans...
    for e in by_name["unit.execute"]:
        phases = e["attrs"]["phases"]
        assert phases["decode_sweep"] > 0 and phases["tally"] > 0
    # ...and checkpoint write time rides the completion event
    for e in by_name["unit.complete"]:
        assert e["attrs"]["checkpoint_write_ns"] > 0

    # the reconstruction is renderable and nests worker work one
    # level under the execute span
    timeline = build_timeline(events)
    assert timeline["trace"] == job.id
    depths = timeline["depths"]
    for e in by_name["unit.execute"]:
        assert depths[e["span"]] == depths[execute_span] + 1
    text = render_timeline(events)
    assert f"trace {job.id}" in text
    for wid in worker_procs:
        assert f"({wid})" in text


class TestSharedStoreTopology:
    def test_two_worker_timeline_reconstructs(self, tmp_path):
        spec = spec_for()

        async def main():
            async with CampaignService(
                    tmp_path, executor="thread", shard_trials=48,
                    execution="distributed",
                    dispatch_poll_s=0.02) as service:
                with Fleet(tmp_path, service.broker_path, n=2):
                    job = await service.submit(spec)
                    await service.wait(job.id, timeout=300)
                    return job

        job = asyncio.run(main())
        assert job.state == "done"
        events = ResultStore(tmp_path).read_events(job.id)
        assert_complete_timeline(events, job, n_units=2,
                                 worker_ids={"w0", "w1"})
        # distributed phase profiles also aggregate onto the record
        assert job.phases and job.phases["tally"] > 0

    def test_killed_worker_resume_marks_reattempt(self, tmp_path):
        """A worker claims a unit and dies before doing anything (the
        harshest crash: no telemetry survives). The lease expires, a
        live worker reclaims, and its claim evidence carries
        ``attempts`` > 1 plus an explicit ``unit.reattempt`` event —
        the timeline shows the expiry-resume instead of hiding it."""
        spec = spec_for(seed=43)

        async def main():
            async with CampaignService(
                    tmp_path, executor="thread", shard_trials=48,
                    execution="distributed",
                    dispatch_poll_s=0.02) as service:
                job = await service.submit(spec)
                # let the dispatcher publish, then steal a claim with
                # a lease that expires before any real worker starts
                for _ in range(500):
                    if service.broker.counts()["queued"] == 2:
                        break
                    await asyncio.sleep(0.01)
                dead = await asyncio.to_thread(
                    service.broker.claim, "dead-worker", 0.05)
                assert dead is not None
                await asyncio.sleep(0.1)  # the lease expires
                with Fleet(tmp_path, service.broker_path, n=1):
                    await service.wait(job.id, timeout=300)
                return job, dead.unit_id

        job, stolen_unit = asyncio.run(main())
        assert job.state == "done"
        events = ResultStore(tmp_path).read_events(job.id)
        reattempts = [e for e in events
                      if e["name"] == "unit.reattempt"]
        assert len(reattempts) == 1
        assert reattempts[0]["attrs"]["unit"] == stolen_unit
        assert reattempts[0]["attrs"]["attempts"] == 2
        assert reattempts[0]["status"] == "error"
        assert reattempts[0]["proc"] == "w0"
        claims = {e["attrs"]["unit"]: e["attrs"]["attempts"]
                  for e in events if e["name"] == "unit.claim"}
        assert claims[stolen_unit] == 2

    def test_lost_checkpoint_requeue_is_traced(self, tmp_path):
        """The dispatcher's requeue of an acked-but-lost checkpoint
        leaves a ``unit.requeue`` error event naming the unit and
        reason. The first completion acks without ever writing the
        checkpoint (a lying transport); the dispatcher notices the
        hole, sends the unit around again, and the retry completes
        honestly."""
        spec = spec_for(seed=47)

        class AmnesiacSource(BrokerWorkSource):
            """Acks the first completion without its checkpoint."""

            def __init__(self, broker, store):
                super().__init__(broker, store)
                self.lied = False

            def complete(self, unit_id, owner, job_key, lo, hi,
                         tallies, phases=None):
                if not self.lied:
                    self.lied = True
                    self.broker.ack(unit_id, owner)
                    return
                super().complete(unit_id, owner, job_key, lo, hi,
                                 tallies, phases=phases)

        async def main():
            async with CampaignService(
                    tmp_path, executor="thread", shard_trials=48,
                    execution="distributed",
                    dispatch_poll_s=0.02) as service:
                worker = ShardWorker(
                    AmnesiacSource(
                        SqliteBroker(service.broker_path),
                        ResultStore(tmp_path)),
                    worker_id="amnesiac-w", lease_ttl_s=30,
                    poll_interval_s=0.02)
                stop = threading.Event()
                thread = threading.Thread(
                    target=worker.run, kwargs={"stop": stop},
                    daemon=True)
                thread.start()
                try:
                    job = await service.submit(spec)
                    await service.wait(job.id, timeout=300)
                finally:
                    stop.set()
                    thread.join(timeout=10)
                return job

        job = asyncio.run(main())
        assert job.state == "done"
        events = ResultStore(tmp_path).read_events(job.id)
        requeues = [e for e in events if e["name"] == "unit.requeue"]
        assert requeues, [e["name"] for e in events]
        assert requeues[0]["status"] == "error"
        assert "quarantined" in requeues[0]["attrs"]["reason"]
        assert requeues[0]["proc"] == "service"


class TestHttpTopology:
    def test_http_worker_timeline_reconstructs(self, tmp_path):
        """Same invariant over the HTTP topology: the worker's records
        ride the ``POST /units/complete`` body and the reconstructed
        timeline is served back by ``GET /trace/<id>``."""
        spec = spec_for(seed=53)

        async def main():
            service = CampaignService(
                tmp_path, executor="thread", shard_trials=48,
                execution="distributed", dispatch_poll_s=0.02)
            async with ServiceServer(service, port=0) as server:
                worker = ShardWorker(
                    HttpWorkSource(ServiceClient(server.url)),
                    worker_id="http-w", lease_ttl_s=30,
                    poll_interval_s=0.02)
                stop = threading.Event()
                thread = threading.Thread(
                    target=worker.run, kwargs={"stop": stop},
                    daemon=True)
                thread.start()
                try:
                    job = await service.submit(spec)
                    await service.wait(job.id, timeout=300)
                    events = await asyncio.to_thread(
                        ServiceClient(server.url).trace, job.id)
                finally:
                    stop.set()
                    await asyncio.to_thread(thread.join, 10)
                return job, events

        job, events = asyncio.run(main())
        assert job.state == "done"
        assert_complete_timeline(events, job, n_units=2,
                                 worker_ids={"http-w"})
