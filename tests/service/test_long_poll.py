"""Long-poll job waits: ``GET /jobs/<id>?wait=<s>`` answers on settle.

Pins the push half of the HTTP surface: a held status read answers as
soon as the job settles, ``wait`` is validated like any outside input,
``ServiceServer.close()`` answers held reads at once, and only reading
a request (not answering it) is bounded by ``READ_TIMEOUT_S``.
"""

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.faults.batch import run_shard_task
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ServiceClient,
    ServiceServer,
)
from repro.service import server as server_module

SPEC = CampaignJobSpec(
    n=15, m=3, trials=64, seed=91,
    injector=InjectorSpec("uniform", {"probability": 2e-3}))


def _get(url):
    """``(status code, JSON body)`` of a GET, error statuses included."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def gated(release):
    """A shard runner that holds every span until ``release`` is set."""
    def run(task):
        release.wait(30)
        return run_shard_task(task)
    return run


class Held:
    """A blocking call on a daemon thread, timed from start to answer."""

    def __init__(self, fn, *args, **kwargs):
        self.result = self.error = None
        self.answered_at = None
        self._thread = threading.Thread(
            target=self._run, args=(fn, args, kwargs), daemon=True)
        self._thread.start()

    def _run(self, fn, args, kwargs):
        try:
            self.result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            self.error = exc
        self.answered_at = time.time()

    @property
    def pending(self):
        return self._thread.is_alive()

    async def join(self, timeout=10.0):
        await asyncio.to_thread(self._thread.join, timeout)
        assert not self._thread.is_alive(), "no answer"
        if self.error is not None:
            raise self.error
        return self.result


class TestJobWait:
    def test_held_wait_answers_on_settle(self, tmp_path):
        """A ``?wait=5`` read held while its job settles answers with
        the terminal record within 0.5 s of the settle."""
        release = threading.Event()

        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      shard_runner=gated(release))
            async with ServiceServer(service, port=0) as server:
                client = ServiceClient(server.url)
                job = await asyncio.to_thread(client.submit, SPEC)
                held = Held(client.status, job["id"], wait_s=5.0)
                await asyncio.sleep(0.3)
                assert held.pending, "the read was not held"
                release.set()
                record = await held.join()
                settled = service.status(job["id"])
                return record, settled, held.answered_at

        record, settled, answered_at = asyncio.run(main())
        assert record["state"] == "done"
        assert record["result"] == settled.result
        assert answered_at - settled.finished_at < 0.5

    def test_wait_returns_as_soon_as_done(self, tmp_path):
        """ServiceClient.wait long-polls: the record of a job that
        settles mid-wait arrives without a poll-interval sleep."""
        release = threading.Event()

        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      shard_runner=gated(release))
            async with ServiceServer(service, port=0) as server:
                client = ServiceClient(server.url)
                job = await asyncio.to_thread(client.submit, SPEC)
                # a 20-s poll interval: only a long-poll answers fast
                held = Held(client.wait, job["id"], 60.0, 20.0)
                await asyncio.sleep(0.3)
                release.set()
                record = await held.join()
                return record, service.status(job["id"]), held.answered_at

        record, settled, answered_at = asyncio.run(main())
        assert record["state"] == "done"
        assert answered_at - settled.finished_at < 0.5

    def test_settled_job_answers_at_once(self, tmp_path):
        async def main():
            service = CampaignService(tmp_path, executor="thread")
            async with ServiceServer(service, port=0) as server:
                client = ServiceClient(server.url)
                job = await asyncio.to_thread(client.submit, SPEC)
                await service.wait(job["id"], timeout=60)
                start = time.monotonic()
                record = await asyncio.to_thread(
                    client.status, job["id"], 5.0)
                return record, time.monotonic() - start

        record, elapsed = asyncio.run(main())
        assert record["state"] == "done"
        assert elapsed < 1.0


class TestWaitValidation:
    @pytest.mark.parametrize("wait", ["abc", "nan", "inf", "-inf", ""])
    def test_malformed_wait_is_400(self, tmp_path, wait):
        async def main():
            service = CampaignService(tmp_path, executor="thread")
            async with ServiceServer(service, port=0) as server:
                job = await service.submit(SPEC)
                return await asyncio.to_thread(
                    _get, f"{server.url}/jobs/{job.id}?wait={wait}")

        status, body = asyncio.run(main())
        assert status == 400
        assert "wait" in body["error"]

    @pytest.mark.parametrize("wait_s", ["abc", "NaN", "Infinity", None])
    def test_malformed_claim_wait_is_400(self, tmp_path, wait_s):
        def post(url):
            body = json.dumps({"worker": "w", "wait_s": wait_s}).encode()
            request = urllib.request.Request(
                url, data=body, method="POST",
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request, timeout=10):
                    return 200
            except urllib.error.HTTPError as exc:
                return exc.code

        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      execution="distributed")
            async with ServiceServer(service, port=0) as server:
                return await asyncio.to_thread(
                    post, f"{server.url}/units/claim")

        assert asyncio.run(main()) == 400

    def test_unknown_job_is_404_at_once(self, tmp_path):
        async def main():
            service = CampaignService(tmp_path, executor="thread")
            async with ServiceServer(service, port=0) as server:
                start = time.monotonic()
                status, body = await asyncio.to_thread(
                    _get, f"{server.url}/jobs/j999999-deadbeef?wait=5")
                return status, body, time.monotonic() - start

        status, body, elapsed = asyncio.run(main())
        assert status == 404
        assert "unknown job" in body["error"]
        assert elapsed < 1.0

    def test_wait_is_clamped(self, tmp_path, monkeypatch):
        """Negative waits answer at once; huge ones hold only up to the
        server's cap."""
        monkeypatch.setattr(server_module, "MAX_WAIT_S", 0.3)

        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      execution="distributed")
            async with ServiceServer(service, port=0) as server:
                # no workers: the job stays running
                job = await service.submit(SPEC)
                url = f"{server.url}/jobs/{job.id}"
                times = []
                for wait in ("-3", "1e9"):
                    start = time.monotonic()
                    status, body = await asyncio.to_thread(
                        _get, f"{url}?wait={wait}")
                    assert status == 200 and body["state"] != "done"
                    times.append(time.monotonic() - start)
                return times

        negative, huge = asyncio.run(main())
        assert negative < 0.25
        assert 0.25 <= huge < 2.0


class TestClose:
    @pytest.mark.parametrize("held_call", ["job_wait", "claim"])
    def test_close_answers_held_long_polls(self, tmp_path, held_call):
        """close() returns in under 1 s with a long-poll in flight, and
        the held request is answered, not dropped."""
        async def main():
            service = CampaignService(tmp_path, executor="thread",
                                      execution="distributed")
            server = await ServiceServer(service, port=0).start()
            client = ServiceClient(server.url)
            if held_call == "claim":
                held = Held(client.claim_unit, "w", 30.0, wait_s=10.0)
            else:
                job = await service.submit(SPEC)  # no workers: unsettled
                held = Held(client.status, job.id, wait_s=10.0)
            await asyncio.sleep(0.3)
            assert held.pending, "the request was not held"
            start = time.time()
            await server.close()
            closed_in = time.time() - start
            answer = await held.join(timeout=5.0)
            return closed_in, answer, held.answered_at - start

        closed_in, answer, answered_in = asyncio.run(main())
        assert closed_in < 1.0
        assert answered_in < 1.0
        if held_call == "claim":
            assert answer is None
        else:
            assert answer["state"] == "running"


class TestReadTimeout:
    """READ_TIMEOUT_S bounds reading a request, never answering it."""

    def test_slow_route_answers_and_stalled_read_times_out(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)

        def slow_info():
            time.sleep(0.5)
            return {"slow": True}

        def stalled_request(port):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                # half a request: the request line, no end of headers
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                chunks = []
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    chunks.append(chunk)
            return b"".join(chunks).decode("latin-1")

        async def main():
            service = CampaignService(tmp_path, executor="thread")
            service.info = slow_info
            async with ServiceServer(service, port=0) as server:
                client = ServiceClient(server.url)
                info = await asyncio.to_thread(client.info)
                stalled = await asyncio.to_thread(stalled_request,
                                                  server.port)
                return info, stalled

        info, stalled = asyncio.run(main())
        assert info == {"slow": True}
        assert stalled.startswith("HTTP/1.1 400")
        assert "request read timed out" in stalled
