"""The observability plane end-to-end through the service.

Local mode: a submitted campaign leaves a complete trace in the
store's ``events/`` namespace and a merged per-phase profile on the
job record. HTTP mode: ``GET /metrics`` serves Prometheus text,
``GET /trace/<id>`` replays the events, ``POST /units/events``
appends worker telemetry, and the ``repro trace`` / ``repro metrics``
CLI commands drive both.
"""

import asyncio
import json
import urllib.request

import pytest

from repro.cli import main
from repro.faults.batch import PROFILE_PHASES
from repro.obs import metrics as obs_metrics
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ResultStore,
    ServiceClient,
    ServiceServer,
)

UNIFORM = InjectorSpec("uniform", {"probability": 2e-3})


def spec_for(seed=11, trials=64):
    return CampaignJobSpec(n=15, m=3, trials=trials, seed=seed,
                           injector=UNIFORM, packing="u8")


def run_local(tmp_path, spec, submits=1):
    async def main():
        async with CampaignService(tmp_path, executor="thread",
                                   shard_trials=32) as service:
            jobs = []
            for _ in range(submits):
                job = await service.submit(spec)
                await service.wait(job.id, timeout=300)
                jobs.append(job)
            return jobs

    return asyncio.run(main())


class TestLocalTrace:
    def test_submit_to_settle_timeline(self, tmp_path):
        (job,) = run_local(tmp_path, spec_for())
        assert job.state == "done"
        events = ResultStore(tmp_path).read_events(job.id)
        names = [e["name"] for e in events]
        assert "job.submit" in names
        assert "job.execute" in names
        assert "job.settle" in names
        execute = next(e for e in events if e["name"] == "job.execute")
        assert execute["kind"] == "span"
        assert execute["dur_ns"] > 0
        assert execute["trace"] == job.id
        settle = next(e for e in events if e["name"] == "job.settle")
        assert settle["status"] == "ok"
        assert settle["attrs"]["state"] == "done"
        assert all(e["proc"] == "service" for e in events)

    def test_phases_merged_onto_job_record(self, tmp_path):
        (job,) = run_local(tmp_path, spec_for())
        assert isinstance(job.phases, dict)
        # the engine reports every profiled phase it ran: it injects
        # into zero data, sweeps, and tallies
        for phase in ("inject", "decode_sweep", "tally"):
            assert phase in job.phases, job.phases
            assert job.phases[phase] > 0
        assert set(job.phases) <= set(PROFILE_PHASES)
        # and the persisted record round-trips them
        record = ResultStore(tmp_path).get(job.key)
        assert record["phases"] == job.phases

    def test_cache_hit_traced_and_phases_copied(self, tmp_path):
        first, second = run_local(tmp_path, spec_for(), submits=2)
        assert second.cached is True
        assert second.phases == first.phases
        events = ResultStore(tmp_path).read_events(second.id)
        assert [e["name"] for e in events] == ["job.submit",
                                               "job.cache_hit"]

    def test_tracing_off_leaves_no_events(self, tmp_path):
        previous = obs_metrics.set_enabled(False)
        try:
            (job,) = run_local(tmp_path, spec_for(seed=13))
        finally:
            obs_metrics.set_enabled(previous)
        assert job.state == "done"
        store = ResultStore(tmp_path)
        assert store.read_events(job.id) == []
        assert store.event_traces() == []


class TestMetricsEndpoint:
    def test_prometheus_text_and_content_type(self, tmp_path):
        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      shard_trials=32)
            async with ServiceServer(service, port=0) as server:
                job = await service.submit(spec_for(seed=17))
                await service.wait(job.id, timeout=300)

                def fetch():
                    with urllib.request.urlopen(
                            server.url + "/metrics", timeout=10) as resp:
                        return (resp.headers.get("Content-Type"),
                                resp.read().decode("utf-8"))

                return await asyncio.to_thread(fetch)

        content_type, text = asyncio.run(main())
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "# TYPE repro_jobs_submitted_total counter" in text
        assert 'repro_jobs_submitted_total{kind="campaign"}' in text
        assert "# TYPE repro_uptime_seconds gauge" in text
        assert 'repro_jobs{state="done"} 1' in text
        # every sample line parses as <name{labels}> <float>
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part
            float(value)  # must parse

    def test_client_metrics_text(self, tmp_path):
        async def main():
            service = CampaignService(tmp_path, executor="thread")
            async with ServiceServer(service, port=0) as server:
                client = ServiceClient(server.url)
                return await asyncio.to_thread(client.metrics_text)

        text = asyncio.run(main())
        assert "repro_" in text

    def test_metrics_rejects_post(self, tmp_path):
        async def main():
            service = CampaignService(tmp_path, executor="thread")
            async with ServiceServer(service, port=0) as server:
                def post():
                    request = urllib.request.Request(
                        server.url + "/metrics", data=b"{}",
                        method="POST")
                    try:
                        urllib.request.urlopen(request, timeout=10)
                    except urllib.error.HTTPError as exc:
                        return exc.code
                    return None

                return await asyncio.to_thread(post)

        assert asyncio.run(main()) == 405


class TestTraceEndpoint:
    def test_trace_route_and_404(self, tmp_path):
        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      shard_trials=32)
            async with ServiceServer(service, port=0) as server:
                job = await service.submit(spec_for(seed=19))
                await service.wait(job.id, timeout=300)
                client = ServiceClient(server.url)
                events = await asyncio.to_thread(client.trace, job.id)

                def missing():
                    try:
                        urllib.request.urlopen(
                            server.url + "/trace/j999999-deadbeef",
                            timeout=10)
                    except urllib.error.HTTPError as exc:
                        return exc.code
                    return None

                return events, await asyncio.to_thread(missing)

        events, missing_code = asyncio.run(main())
        assert {"job.submit", "job.execute",
                "job.settle"} <= {e["name"] for e in events}
        assert missing_code == 404

    def test_units_events_appends(self, tmp_path):
        record = {"trace": "j000001-ab12cd34", "span": "abc123",
                  "parent": None, "name": "unit.claim",
                  "kind": "event", "status": "ok", "proc": "w9",
                  "wall": 1.0, "dur_ns": 0, "attrs": {}}

        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      execution="distributed")
            async with ServiceServer(service, port=0) as server:
                client = ServiceClient(server.url)
                await asyncio.to_thread(
                    client.record_events, record["trace"],
                    [record, "not-a-dict"])
                return await asyncio.to_thread(
                    client.trace, record["trace"])

        events = asyncio.run(main())
        assert events == [record]  # non-dicts filtered

    def test_units_events_local_mode_conflict(self, tmp_path):
        async def main():
            service = CampaignService(tmp_path, executor="thread")
            async with ServiceServer(service, port=0) as server:
                def post():
                    request = urllib.request.Request(
                        server.url + "/units/events",
                        data=json.dumps({"trace": "t",
                                         "events": []}).encode(),
                        headers={"Content-Type": "application/json"},
                        method="POST")
                    try:
                        urllib.request.urlopen(request, timeout=10)
                    except urllib.error.HTTPError as exc:
                        return exc.code
                    return None

                return await asyncio.to_thread(post)

        assert asyncio.run(main()) == 409


class TestCli:
    def test_trace_from_store(self, tmp_path, capsys):
        (job,) = run_local(tmp_path, spec_for(seed=23))
        assert main(["trace", job.id, "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"trace {job.id}" in out
        assert "job.execute" in out and "job.settle" in out

    def test_trace_json_output(self, tmp_path, capsys):
        (job,) = run_local(tmp_path, spec_for(seed=29))
        assert main(["trace", job.id, "--store", str(tmp_path),
                     "--json"]) == 0
        events = json.loads(capsys.readouterr().out)
        assert any(e["name"] == "job.settle" for e in events)

    def test_trace_unknown_job_exits_1(self, tmp_path, capsys):
        assert main(["trace", "j000042-cafebabe",
                     "--store", str(tmp_path)]) == 1
        assert "no trace recorded" in capsys.readouterr().err

    def test_trace_needs_exactly_one_source(self, capsys):
        assert main(["trace", "j000001-ab12cd34"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_trace_and_metrics_over_http(self, tmp_path, capsys):
        async def serve():
            service = CampaignService(tmp_path, executor="thread",
                                      shard_trials=32)
            async with ServiceServer(service, port=0) as server:
                job = await service.submit(spec_for(seed=31))
                await service.wait(job.id, timeout=300)

                def drive():
                    assert main(["trace", job.id,
                                 "--url", server.url]) == 0
                    assert main(["metrics",
                                 "--url", server.url]) == 0

                await asyncio.to_thread(drive)
                return job

        job = asyncio.run(serve())
        out = capsys.readouterr().out
        assert f"trace {job.id}" in out
        assert "repro_jobs_submitted_total" in out
