"""HTTP surface: ServiceServer routes + ServiceClient end to end.

The server runs on the test's event loop (``port=0`` grabs a free
port); the blocking urllib client runs on worker threads via
``asyncio.to_thread`` so both sides exercise their real I/O paths.
"""

import asyncio
import json
import urllib.request

import pytest

from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ServiceClient,
    ServiceServer,
)
from repro.service.client import JobFailedError, ServiceUnavailableError
from repro.service.spec import result_from_dict

SPEC = CampaignJobSpec(
    n=15, m=3, trials=150, seed=77,
    injector=InjectorSpec("uniform", {"probability": 2e-3}))


def _serve(tmp_path, flow, **service_kwargs):
    """Run ``flow(client)`` on a thread against a live server."""
    service_kwargs.setdefault("executor", "thread")
    service_kwargs.setdefault("shard_trials", 64)

    async def main():
        service = CampaignService(tmp_path, **service_kwargs)
        async with ServiceServer(service, port=0) as server:
            return await asyncio.to_thread(flow,
                                           ServiceClient(server.url))

    return asyncio.run(main())


class TestEndToEnd:
    def test_submit_wait_status_roundtrip(self, tmp_path):
        def flow(client):
            assert client.health()
            job = client.submit(SPEC)
            assert job["state"] in ("queued", "running", "done")
            record = client.wait(job["id"], timeout=120)
            assert record["state"] == "done"
            assert record["kind"] == "campaign"
            again = client.status(job["id"])
            assert again["result"] == record["result"]
            assert [j["id"] for j in client.jobs()] == [job["id"]]
            return record

        record = _serve(tmp_path, flow)
        service_result = result_from_dict(record["result"])
        expected = SPEC.build_runner().run(SPEC.trials)
        assert service_result.as_dict() == expected.as_dict()

    def test_resubmit_over_http_hits_cache(self, tmp_path):
        def flow(client):
            first = client.wait(client.submit(SPEC)["id"], timeout=120)
            second = client.submit(SPEC)
            assert second["state"] == "done" and second["cached"]
            assert second["result"] == first["result"]

        _serve(tmp_path, flow)

    def test_dict_spec_submission(self, tmp_path):
        """Raw JSON dicts (what curl sends) submit like JobSpec objects."""
        def flow(client):
            record = client.wait(
                client.submit(json.loads(SPEC.to_json()))["id"],
                timeout=120)
            assert record["state"] == "done"

        _serve(tmp_path, flow)

    def test_info_endpoint(self, tmp_path):
        def flow(client):
            info = client.info()
            assert info["packings"] == ["u8", "u64"]
            assert "campaign" in info["job_kinds"]
            assert info["executor"] == "thread"
            assert info["wire_version"] == 8
            assert "backends" not in info

        _serve(tmp_path, flow)

    def test_failed_job_raises_on_wait(self, tmp_path):
        def explode(task):
            raise RuntimeError("no capacity")

        def flow(client):
            job = client.submit(SPEC)
            with pytest.raises(JobFailedError, match="no capacity"):
                client.wait(job["id"], timeout=120)

        _serve(tmp_path, flow, shard_runner=explode)


class TestErrorRoutes:
    def test_invalid_spec_is_a_client_error(self, tmp_path):
        def flow(client):
            with pytest.raises(ValueError, match="unknown job kind"):
                client.submit({"kind": "mystery"})
            with pytest.raises(ValueError, match="probability"):
                client.submit(CampaignJobSpec(
                    n=9, m=3, trials=10, seed=1,
                    injector=InjectorSpec("uniform",
                                          {"probability": 9.0})))

        _serve(tmp_path, flow)

    def test_unknown_job_and_route(self, tmp_path):
        def flow(client):
            with pytest.raises(ValueError, match="unknown job"):
                client.status("j999999-cafef00d")
            with pytest.raises(ValueError, match="no route"):
                client._request("GET", "/nope")
            with pytest.raises(ValueError, match="not allowed"):
                client._request("POST", "/info", {})

        _serve(tmp_path, flow)

    def test_dropped_backend_field_is_a_client_error(self, tmp_path):
        """A client still sending the ``backend`` field (dropped at wire
        version 7) gets a 400 that names it, and no job is queued."""
        def flow(client):
            data = json.loads(SPEC.to_json())
            data["backend"] = "numpy"
            with pytest.raises(ValueError,
                               match="does not accept fields .*backend"):
                client.submit(data)
            assert client.jobs() == []

        _serve(tmp_path, flow)

    def test_malformed_json_body(self, tmp_path):
        def flow(client):
            request = urllib.request.Request(
                client.url + "/jobs", data=b"{not json",
                method="POST",
                headers={"Content-Type": "application/json"})
            try:
                urllib.request.urlopen(request, timeout=10)
            except urllib.error.HTTPError as exc:
                assert exc.code == 400
                assert "invalid JSON" in json.loads(exc.read())["error"]
            else:  # pragma: no cover - the request must fail
                raise AssertionError("malformed body was accepted")

        _serve(tmp_path, flow)

    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        assert not client.health()
        with pytest.raises(ServiceUnavailableError):
            client.info()
