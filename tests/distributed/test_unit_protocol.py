"""The HTTP unit protocol: two requests per unit, and the broker under it.

A fault-free HTTP job of N units sends N claims that return a unit and
N completes, and no other ``/units/*`` request: the claim answer says
whether the span is already checkpointed, and the worker's trace
records ride the complete body. Under the endpoints, the broker
publishes a job's units in one transaction and keeps one WAL
connection per thread, and lease lengths must be finite and positive.
"""

import asyncio
import json
import os
import sqlite3
import sys
import threading
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.distributed import HttpWorkSource, ShardWorker, SqliteBroker
from repro.distributed.broker import WAL_SIZE_LIMIT_BYTES
from repro.distributed.wire import unit_envelope
from repro.faults.batch import run_shard_task
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
    n=15, m=3, trials=384, seed=73,
    injector=InjectorSpec("uniform", {"probability": 2e-3}))

#: Units of SPEC at 64-trial shards.
UNITS = 6


@pytest.fixture
def observability():
    """Yields a setter for the observability switch; restores it."""
    previous = obs_metrics.set_enabled(True)
    yield obs_metrics.set_enabled
    obs_metrics.set_enabled(previous)


class CountingClient(ServiceClient):
    """Counts ``/units/*`` requests by path; empty claims apart."""

    def __init__(self, url):
        super().__init__(url)
        self.requests = Counter()
        self.claimed = []
        self._lock = threading.Lock()

    def _request(self, method, path, payload=None):
        answer = super()._request(method, path, payload)
        if path.startswith("/units/"):
            kind = path
            if path == "/units/claim":
                if answer["unit"] is None:
                    kind = "/units/claim (empty)"
                else:
                    self.claimed.append(answer["unit"])
            with self._lock:
                self.requests[kind] += 1
        return answer


def units_metric(outcome):
    return obs_metrics.counter("repro_worker_units_total",
                               labelnames=("outcome",)).value(
        outcome=outcome)


def run_http_fleet(tmp_path, sources):
    """One SPEC job on a ShardWorker thread per source; the job."""
    async def main():
        service = CampaignService(tmp_path, executor="thread",
                                  shard_trials=64,
                                  execution="distributed",
                                  dispatch_poll_s=0.02)
        async with ServiceServer(service, port=0) as server:
            stop = threading.Event()
            threads = [threading.Thread(
                target=ShardWorker(source(server.url),
                                   worker_id=f"budget-{i}",
                                   lease_ttl_s=30,
                                   poll_interval_s=0.02).run,
                kwargs={"stop": stop}, daemon=True)
                for i, source in enumerate(sources)]
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

    job = asyncio.run(main())
    assert job.state == "done"
    assert result_from_dict(job.result).as_dict() == \
        SPEC.build_runner().run(SPEC.trials).as_dict()
    return job


def unit_requests(clients):
    requests = sum((c.requests for c in clients), Counter())
    requests.pop("/units/claim (empty)", None)  # idle long-polls
    return requests


class TestRequestBudget:
    @pytest.mark.parametrize("traced", [True, False])
    def test_two_requests_per_unit(self, tmp_path, observability,
                                   traced):
        observability(traced)
        clients = []

        def source(url):
            clients.append(CountingClient(url))
            return HttpWorkSource(clients[-1])

        job = run_http_fleet(tmp_path, [source, source])
        assert unit_requests(clients) == {"/units/claim": UNITS,
                                          "/units/complete": UNITS}
        names = [e["name"]
                 for e in ResultStore(tmp_path).read_events(job.id)]
        if traced:
            for name in ("unit.publish", "unit.claim", "unit.execute",
                         "unit.complete"):
                assert names.count(name) == UNITS, name
        else:
            assert names == []

    def test_one_source_shared_by_threads(self, tmp_path,
                                          observability):
        """The claim in hand and the pending records are per thread:
        four workers (more than this host's cores) sharing one source
        keep the budget, and each unit's records name one worker."""
        shared = {}

        def source(url):
            if not shared:
                shared["client"] = CountingClient(url)
                shared["source"] = HttpWorkSource(shared["client"])
            return shared["source"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            job = run_http_fleet(tmp_path, [source] * 4)
        finally:
            sys.setswitchinterval(interval)
        assert unit_requests([shared["client"]]) == {
            "/units/claim": UNITS, "/units/complete": UNITS}
        procs = {}
        for event in ResultStore(tmp_path).read_events(job.id):
            if event["name"] in ("unit.claim", "unit.execute",
                                 "unit.complete"):
                procs.setdefault(event["attrs"]["unit"], []).append(
                    event["proc"])
        assert len(procs) == UNITS
        for unit, names in procs.items():
            assert len(names) == 3 and len(set(names)) == 1, (unit,
                                                              names)


class TestClaimFlag:
    def test_checkpointed_span_acks_without_executing(self, tmp_path,
                                                      observability):
        runner = SPEC.build_runner()
        task = runner.shard_task(0, 64)
        key = "cd34" * 16
        unit_id = f"{key}:0-64"
        trace = {"id": "j000001-ab12cd34", "span": "exec01"}
        before = units_metric("dedupe_ack")

        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      execution="distributed")
            async with ServiceServer(service, port=0) as server:
                service.store.put_shard(key, 0, 64, run_shard_task(task))
                service.broker.publish(
                    unit_id, unit_envelope(key, 0, 64, task, trace=trace),
                    group_key=key)
                client = CountingClient(server.url)
                worker = ShardWorker(HttpWorkSource(client),
                                     worker_id="dedupe-w")
                assert await asyncio.to_thread(worker.run_once)
                return client, service.broker.unit(unit_id)

        client, unit = asyncio.run(main())
        (answer,) = client.claimed
        assert answer["checkpointed"] is True
        assert client.requests == {"/units/claim": 1, "/units/ack": 1}
        assert units_metric("dedupe_ack") - before == 1
        assert unit.state == "done"
        events = ResultStore(tmp_path).read_events(trace["id"])
        names = [e["name"] for e in events]
        assert "unit.execute" not in names
        assert names.count("unit.claim") == 1
        assert names.count("unit.dedupe_ack") == 1
        # the service stamped the claim for the worker, under the
        # payload's trace block
        (claim,) = [e for e in events if e["name"] == "unit.claim"]
        assert claim["proc"] == "dedupe-w"
        assert claim["parent"] == "exec01"


@pytest.fixture
def broker(tmp_path):
    return SqliteBroker(tmp_path / "broker.sqlite3")


class TestPublishMany:
    def test_failure_mid_batch_publishes_nothing(self, broker):
        with pytest.raises(sqlite3.IntegrityError):
            broker.publish_many([("a", "p"), ("b", None), ("c", "p")])
        assert broker.units() == []

    def test_idempotent_and_resets_failed_units(self, broker):
        broker.publish_many([("failed", "v1"), ("live", "v1")], "g")
        assert broker.claim("w").unit_id == "failed"
        broker.fail("failed", "w", "poison", requeue=False)
        assert broker.unit("failed").state == "failed"
        published = broker.publish_many(
            [("failed", "v2"), ("live", "v2"), ("new", "v2")], "g")
        assert published == 2
        failed = broker.unit("failed")
        assert (failed.state, failed.attempts, failed.payload,
                failed.error) == ("queued", 0, "v2", None)
        assert broker.unit("live").payload == "v1"  # a no-op
        assert broker.unit("new").group_key == "g"

    def test_claim_order_follows_publish_order(self, broker):
        broker.publish("first", "p")
        broker.publish_many([("z", "p"), ("a", "p"), ("m", "p")])
        claimed = [broker.claim("w").unit_id for _ in range(4)]
        assert claimed == ["first", "z", "a", "m"]
        assert broker.claim("w") is None


class TestConnection:
    def test_wal_with_full_sync(self, broker):
        with broker._connect() as conn:
            pragma = (lambda name:
                      conn.execute(f"PRAGMA {name}").fetchone()[0])
            assert pragma("journal_mode") == "wal"
            assert pragma("synchronous") == 2  # FULL
            assert pragma("journal_size_limit") == WAL_SIZE_LIMIT_BYTES
            assert pragma("wal_autocheckpoint") * \
                pragma("page_size") == WAL_SIZE_LIMIT_BYTES

    def test_thread_reuses_its_connection(self, broker):
        with broker._connect() as first:
            pass
        with broker._connect() as again:
            assert again is first
        seen = []

        def other_thread():
            with broker._connect() as conn:
                seen.append(conn)

        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join()
        assert seen and seen[0] is not first

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_opens_its_own(self, broker):
        with broker._connect() as parent_conn:
            pass
        pid = os.fork()
        if pid == 0:  # the child: never return into the test runner
            code = 1
            try:
                with broker._connect() as conn:
                    fresh = conn is not parent_conn
                broker.publish("from-child", "p")
                code = 0 if fresh else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        with broker._connect() as conn:
            assert conn is parent_conn
        assert broker.unit("from-child").state == "queued"


BAD_TTLS = [float("inf"), float("nan"), 0.0, -1.0]


class TestLeaseTtl:
    @pytest.mark.parametrize("ttl_s", BAD_TTLS)
    def test_broker_refuses(self, broker, ttl_s):
        broker.publish("u", "p")
        with pytest.raises(ValueError, match="ttl_s"):
            broker.claim("w", ttl_s)
        assert broker.unit("u").state == "queued"
        assert broker.claim("w", 30.0).unit_id == "u"
        with pytest.raises(ValueError, match="ttl_s"):
            broker.heartbeat("u", "w", ttl_s)

    @pytest.mark.parametrize("path", ["/units/claim", "/units/heartbeat"])
    @pytest.mark.parametrize("ttl_s", BAD_TTLS)
    def test_http_answers_400(self, tmp_path, path, ttl_s):
        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      execution="distributed")
            async with ServiceServer(service, port=0) as server:
                service.broker.publish("u", "p")

                def post():
                    # json.dumps writes Infinity and NaN, which
                    # Python's json also reads back
                    body = json.dumps({"worker": "w", "unit_id": "u",
                                       "ttl_s": ttl_s}).encode()
                    request = urllib.request.Request(
                        server.url + path, data=body, method="POST",
                        headers={"Content-Type": "application/json"})
                    try:
                        urllib.request.urlopen(request, timeout=10)
                    except urllib.error.HTTPError as exc:
                        return exc.code, json.loads(exc.read())
                    return 200, None

                return (await asyncio.to_thread(post),
                        service.broker.unit("u").state)

        (status, answer), state = asyncio.run(main())
        assert status == 400
        assert "ttl_s" in answer["error"]
        assert state == "queued"  # nothing was leased
