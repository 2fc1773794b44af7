"""Python client for the campaign service's HTTP surface.

Thin, blocking, stdlib-only (``urllib``): the shape a user script or a
CI smoke test wants. Submit a spec, wait until it settles (status
long-polls that the service answers the moment the job settles), read
the result::

    from repro.service import CampaignJobSpec, InjectorSpec, ServiceClient

    client = ServiceClient("http://127.0.0.1:8937")
    job = client.submit(CampaignJobSpec(
        n=45, m=15, trials=2048, seed=7,
        injector=InjectorSpec("uniform", {"probability": 5e-3})))
    record = client.wait(job["id"])
    print(record["result"])

``repro submit`` / ``repro status`` are CLI wrappers over this class.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import List, Optional, Union

from repro.service.spec import JobSpec
from repro.utils.retry import Deadline, RetryPolicy, note_giveup, \
    poll_policy


#: Longest hold one :meth:`ServiceClient.wait` long-poll asks for. It
#: stays under the HTTP timeout (and under half of a shorter one), so a
#: held request never reads as an unreachable service.
LONG_POLL_S = 10.0


class ServiceUnavailableError(ConnectionError):
    """The service did not answer (not running / wrong URL)."""


class JobFailedError(RuntimeError):
    """A waited-on job reached the ``failed`` state."""


class ServiceClient:
    """Blocking JSON-over-HTTP client (see the module docstring)."""

    def __init__(self, url: str = "http://127.0.0.1:8937",
                 timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        body = None if payload is None \
            else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.url + path, data=body, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                detail = {}
            raise ValueError(
                detail.get("error", f"HTTP {exc.code} from {path}")
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceUnavailableError(
                f"campaign service unreachable at {self.url}: "
                f"{exc.reason}") from None

    def _request_text(self, path: str) -> str:
        """GET a non-JSON endpoint (``/metrics``) as raw text."""
        request = urllib.request.Request(self.url + path, method="GET")
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ValueError(f"HTTP {exc.code} from {path}") from None
        except urllib.error.URLError as exc:
            raise ServiceUnavailableError(
                f"campaign service unreachable at {self.url}: "
                f"{exc.reason}") from None

    # ------------------------------------------------------------------ #
    # API
    # ------------------------------------------------------------------ #

    def health(self) -> bool:
        """True when the service answers its liveness probe."""
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except ServiceUnavailableError:
            return False

    def health_report(self) -> dict:
        """The service's detailed ``/health`` payload: job-state
        counts, broker depth and inflight leases, open circuit
        breakers, store quarantine counts, service ``uptime_s``, and a
        compact ``metrics_snapshot`` of label-summed counters (unlike
        :meth:`health`, transport errors propagate — an unreachable
        service has no health report)."""
        return self._request("GET", "/health")

    def info(self) -> dict:
        """Service introspection (:func:`repro.service.service_info`)."""
        return self._request("GET", "/info")

    def metrics_text(self) -> str:
        """The raw Prometheus text exposition from ``GET /metrics``."""
        return self._request_text("/metrics")

    def perf_report(self) -> dict:
        """The service's per-phase drift report from ``GET /perf``
        (see :meth:`CampaignService.perf_report`)."""
        return self._request("GET", "/perf")

    def trace(self, job_id: str) -> List[dict]:
        """The job's raw trace events (``ValueError`` when unknown)."""
        return self._request("GET", f"/trace/{job_id}")["events"]

    def submit(self, spec: Union[JobSpec, dict]) -> dict:
        """Submit a job spec; returns the initial job record."""
        if isinstance(spec, JobSpec):
            spec = spec.to_dict()
        return self._request("POST", "/jobs", spec)

    def status(self, job_id: str, wait_s: float = 0.0) -> dict:
        """The record of ``job_id``; with ``wait_s``, a long-poll the
        service answers once the job settles or ``wait_s`` passes."""
        query = f"?wait={wait_s:.3f}" if wait_s > 0 else ""
        return self._request("GET", f"/jobs/{job_id}{query}")

    def jobs(self) -> List[dict]:
        """Every job record the service instance has accepted."""
        return self._request("GET", "/jobs")["jobs"]

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_interval: float = 0.1) -> dict:
        """Wait until ``job_id`` settles; return its terminal record.

        Each status read is a long-poll (:meth:`status` with
        ``wait_s``) in slices of at most :data:`LONG_POLL_S`, so the
        answer arrives as the job settles. A read answered early and
        unsettled (a server that ignores ``wait``, or one shutting
        down) falls back to a jittered ``poll_interval`` sleep, so the
        loop never spins.

        Raises :class:`JobFailedError` when the job fails and
        :class:`TimeoutError` when ``timeout`` elapses first. The two
        timeout flavours are distinguishable from the message — and
        both report the last job state this client observed — so an
        operator can tell a *dead service* (transport unreachable on
        the final poll) from a *slow job* (service answering, job
        simply not terminal yet).

        A poll that hits a transient connection error (service
        restarting between checks, socket briefly refused) does not
        abort the wait: unreachability is retried on the shared
        :class:`RetryPolicy` (capped exponential, full jitter) until
        the deadline — the same transport-error policy the worker
        daemon's claim loop uses
        (:meth:`repro.distributed.worker.ShardWorker.run`), starting at
        ``poll_interval``. Only the deadline turns persistent
        unreachability into an error.
        """
        deadline = Deadline.after(timeout)
        backoff = RetryPolicy(initial_s=poll_interval, cap_s=5.0)
        steady = poll_policy(poll_interval)
        errors = 0
        last_state: Optional[str] = None
        while True:
            asked = min(LONG_POLL_S, self.timeout / 2, deadline.remaining())
            sent = time.monotonic()
            try:
                record = self.status(job_id, wait_s=asked)
            except ServiceUnavailableError as exc:
                errors += 1
                if deadline.expired():
                    note_giveup("client.wait.unreachable")
                    observed = (
                        f"last observed job state: {last_state!r}"
                        if last_state is not None else
                        "the job's state was never observed")
                    raise TimeoutError(
                        f"job {job_id} unsettled after {timeout:.1f}s; "
                        f"service unreachable on the last poll "
                        f"({exc}); {observed} — this looks like a dead "
                        f"or unreachable service, not a slow job"
                    ) from exc
                backoff.sleep(errors - 1, deadline=deadline)
                continue
            errors = 0
            last_state = record["state"]
            if record["state"] == "done":
                return record
            if record["state"] == "failed":
                raise JobFailedError(
                    f"job {job_id} failed: {record.get('error')}")
            if deadline.expired():
                note_giveup("client.wait.slow_job")
                raise TimeoutError(
                    f"job {job_id} still {record['state']!r} after "
                    f"{timeout:.1f}s; the service is reachable — this "
                    f"is a slow or stuck job, not a dead service")
            if time.monotonic() - sent < asked / 2:
                steady.sleep(0, deadline=deadline)

    # ------------------------------------------------------------------ #
    # Worker transport (the HTTP half of repro.distributed.worker)
    # ------------------------------------------------------------------ #

    def claim_unit(self, worker: str, ttl_s: float = 30.0,
                   wait_s: float = 0.0) -> Optional[dict]:
        """Claim one work unit under a TTL lease (``None`` when idle).

        With ``wait_s``, an empty claim holds at the service until
        units are published or ``wait_s`` passes. Only answered by
        services running ``execution="distributed"``; otherwise the
        server returns 409, surfaced as ``ValueError``.
        """
        payload = {"worker": worker, "ttl_s": ttl_s}
        if wait_s > 0:
            payload["wait_s"] = wait_s
        return self._request("POST", "/units/claim", payload)["unit"]

    def heartbeat_unit(self, unit_id: str, worker: str,
                       ttl_s: float = 30.0) -> bool:
        """Extend a lease; ``False`` means the lease was lost."""
        return bool(self._request(
            "POST", "/units/heartbeat",
            {"unit_id": unit_id, "worker": worker, "ttl_s": ttl_s})["ok"])

    def ack_unit(self, unit_id: str, worker: str) -> bool:
        """Ack a unit whose checkpoint already exists server-side."""
        return bool(self._request(
            "POST", "/units/ack",
            {"unit_id": unit_id, "worker": worker})["ok"])

    def complete_unit(self, unit_id: str, worker: str, job_key: str,
                      lo: int, hi: int, result: dict,
                      phases: Optional[dict] = None) -> bool:
        """Upload span tallies; the server checkpoints, then acks.

        ``phases`` is the optional ``{phase: ns}`` execution profile
        stamped onto the server-side checkpoint record."""
        payload = {"unit_id": unit_id, "worker": worker,
                   "job_key": job_key, "lo": lo, "hi": hi,
                   "result": result}
        if phases:
            payload["phases"] = phases
        return bool(self._request("POST", "/units/complete",
                                  payload)["ok"])

    def record_events(self, trace_id: str, events: List[dict]) -> None:
        """Append worker trace events to the service's event log."""
        if not events:
            return
        self._request("POST", "/units/events",
                      {"trace": trace_id, "events": events})

    def fail_unit(self, unit_id: str, worker: str, error: str,
                  requeue: bool = True) -> bool:
        """Report a unit failure (requeue or terminal poison)."""
        return bool(self._request(
            "POST", "/units/fail",
            {"unit_id": unit_id, "worker": worker, "error": error,
             "requeue": requeue})["ok"])

    def shard_done(self, job_key: str, lo: int, hi: int) -> bool:
        """Whether the span's checkpoint already exists server-side
        (the dedupe short-circuit after a lease-expiry race)."""
        return bool(self._request(
            "POST", "/units/shard_done",
            {"job_key": job_key, "lo": lo, "hi": hi})["done"])

    def wait_until_up(self, timeout: float = 10.0,
                      poll_interval: float = 0.1) -> None:
        """Block until the service answers (for just-started servers).

        Polls :meth:`health` with capped exponential backoff while the
        service is unreachable (:meth:`health` swallows the transport
        error itself, so a restarting service reads as ``False``, never
        as an exception); raises :class:`ServiceUnavailableError` only
        when the deadline passes first.
        """
        deadline = Deadline.after(timeout)
        # Cap lower than wait(): come-up latency is the whole point
        # here, so never doze past a second at a time.
        backoff = RetryPolicy(initial_s=poll_interval, cap_s=1.0)
        misses = 0
        while not self.health():
            if deadline.expired():
                raise ServiceUnavailableError(
                    f"campaign service at {self.url} did not come up "
                    f"within {timeout:.1f}s")
            backoff.sleep(misses, deadline=deadline)
            misses += 1
