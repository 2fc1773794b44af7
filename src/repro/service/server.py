"""Minimal stdlib HTTP front-end for the campaign service.

A deliberately small JSON-over-HTTP surface (no third-party web stack;
the container bakes in numpy + pytest and nothing else) that exposes a
:class:`repro.service.scheduler.CampaignService` on localhost:

==========================  ============================================
``GET  /healthz``           liveness probe -> ``{"ok": true}``
``GET  /health``            operational report
                            (:meth:`CampaignService.health`): job
                            counts, broker depth/leases, circuit
                            breakers, store quarantine
``GET  /info``              :meth:`CampaignService.info`
``POST /jobs``              submit a :class:`JobSpec` (the JSON body is
                            the spec's ``to_dict`` form) -> job record
``GET  /jobs``              every job record this instance accepted
``GET  /jobs/<id>``         one job record (404 when unknown);
                            ``?wait=<s>`` long-polls: the answer comes
                            when the job settles or after
                            ``min(s, MAX_WAIT_S)`` seconds
``POST /units/claim``       claim one work unit under a TTL lease; the
                            answer says whether the span is already
                            ``checkpointed``, and the server records
                            the claim in the job's trace first. An
                            empty claim with ``wait_s`` holds until
                            units are published (at most
                            ``MAX_WAIT_S``)
``POST /units/heartbeat``   extend a worker's lease
``POST /units/ack``         ack a unit whose checkpoint already exists
``POST /units/complete``    upload span tallies + ack (the server
                            writes the shard checkpoint and records
                            ``unit.complete``)
``POST /units/fail``        report a unit failure (requeue | terminal)
``GET  /metrics``           Prometheus text exposition (version 0.0.4)
                            of the service process's metrics registry
                            plus point-in-time gauges
``GET  /trace/<job-id>``    the job's raw trace events (404 when the
                            trace is unknown)
``GET  /perf``              per-phase drift report over the store's
                            job records (:meth:`CampaignService.
                            perf_report`)
==========================  ============================================

The ``/units/*`` family is the multi-host worker transport
(:class:`repro.distributed.worker.HttpWorkSource`): workers that
cannot reach the service's store path speak these endpoints instead,
and the *server* performs the store writes — so the atomic-checkpoint
and bit-identity guarantees are the server's regardless of where
workers run. A unit costs two requests, claim and complete. Ack,
complete and fail bodies may carry the worker's trace records as
``events``, appended to their traces. Lease lengths (``ttl_s``) must be
finite and positive. They answer 409 unless the service runs
``execution="distributed"``.

The server speaks just enough HTTP/1.1 for ``urllib`` and ``curl``
(request line + headers + ``Content-Length`` body, one request per
connection); it is an operator surface for submit-and-wait clients,
not a general web server. :meth:`ServiceServer.close` answers
in-flight long-polls at once. Responses are JSON — except
``/metrics``, which serves the Prometheus text format — and errors use
``{"error": ...}`` with the matching status code.
"""

from __future__ import annotations

import asyncio
import json
import math
import urllib.parse
from typing import Optional, Set, Tuple

from repro.service.scheduler import CampaignService

#: Request bodies larger than this are rejected (a job spec is tiny).
MAX_BODY_BYTES = 1 << 20

#: Seconds a client gets to deliver its whole request; a stalled or
#: half-open connection must not pin a handler coroutine forever.
#: Answering may take longer (long-polls, ``/trace`` of a big job).
READ_TIMEOUT_S = 30.0

#: Cap on a long-poll's hold (``?wait=`` and ``wait_s``); below
#: :data:`ServiceClient`'s default 30-s HTTP timeout.
MAX_WAIT_S = 15.0

#: Seconds :meth:`ServiceServer.close` lets in-flight answers finish.
CLOSE_GRACE_S = 1.0

#: Header lines accepted before the request is rejected as malformed.
MAX_HEADER_LINES = 100

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 500: "Internal Server Error"}

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _BadRequest(Exception):
    """A request rejected while it is read (answered 4xx)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _lease_seconds(value) -> float:
    """A worker's lease length: finite and positive (400 otherwise)."""
    from repro.distributed.broker import check_ttl
    try:
        return check_ttl(float(value))
    except (TypeError, ValueError):
        raise ValueError(f"ttl_s must be a finite, positive number of "
                         f"seconds, got {value!r}") from None


def _events(payload: dict) -> list:
    """The trace records a unit request carries. Telemetry: anything
    that is not a list of objects is dropped, never refused."""
    events = payload.get("events")
    if not isinstance(events, list):
        return []
    return [event for event in events if isinstance(event, dict)]


def _wait_seconds(value) -> float:
    """A client's long-poll wait, clamped to ``[0, MAX_WAIT_S]``."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"wait must be a number of seconds, "
                         f"got {value!r}") from None
    if not math.isfinite(seconds):
        raise ValueError(f"wait must be finite, got {value!r}")
    return min(max(seconds, 0.0), MAX_WAIT_S)


class PlainText:
    """Marker return value for non-JSON responses (``/metrics``)."""

    def __init__(self, text: str,
                 content_type: str = "text/plain; charset=utf-8") -> None:
        self.text = text
        self.content_type = content_type


class ServiceServer:
    """Asyncio HTTP wrapper around one :class:`CampaignService`."""

    def __init__(self, service: CampaignService, host: str = "127.0.0.1",
                 port: int = 8937) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        # Set by close(): in-flight long-polls answer at once.
        self._closing = asyncio.Event()
        self._handlers: Set[asyncio.Task] = set()

    @property
    def url(self) -> str:
        """Base URL of the running server (resolves ``port=0``)."""
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "ServiceServer":
        await self.service.start()
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        # port=0 asks the OS for a free port; reflect the real one.
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            # Held long-polls answer now, and close waits (briefly) for
            # every answer to be written: from Python 3.12.1
            # wait_closed() would wait for open connections anyway,
            # and before it the loop's shutdown would cancel them.
            self._closing.set()
            if self._handlers:
                await asyncio.wait(set(self._handlers),
                                   timeout=CLOSE_GRACE_S)
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    async def serve_forever(self) -> None:
        """Serve until cancelled, then :meth:`close`. (asyncio's own
        ``serve_forever`` would wait out the long-polls on cancel.)"""
        if self._server is None:
            await self.start()
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            await self.close()

    async def __aenter__(self) -> "ServiceServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._answer(reader, writer)
        finally:
            self._handlers.discard(task)

    async def _answer(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            # Only reading is bounded: routes may take longer.
            try:
                method, target, body = await asyncio.wait_for(
                    self._read_request(reader), timeout=READ_TIMEOUT_S)
            except asyncio.TimeoutError:
                raise _BadRequest(400, "request read timed out") from None
            status, payload = await self._route(method, target, body)
        except _BadRequest as exc:
            status, payload = exc.status, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - connection boundary
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(payload, PlainText):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader
                            ) -> Tuple[str, str, bytes]:
        """``(method, target, body)`` of one request (:class:`_BadRequest`
        when malformed)."""
        request = await reader.readline()
        parts = request.decode("latin-1").split()
        if len(parts) < 2:
            raise _BadRequest(400, "malformed request line")
        length = 0
        for _ in range(MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _BadRequest(400, "bad Content-Length") from None
        else:
            raise _BadRequest(400, f"more than {MAX_HEADER_LINES} "
                                   f"header lines")
        if length < 0:
            raise _BadRequest(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return parts[0].upper(), parts[1], body

    async def _route(self, method: str, target: str,
                     body: bytes) -> Tuple[int, dict]:
        url = urllib.parse.urlsplit(target)
        path = url.path
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True}
        if path == "/health" and method == "GET":
            # The operational report (job counts, broker depth and
            # leases, breakers, quarantine) — store/broker I/O, so off
            # the event loop like /info.
            return 200, await asyncio.to_thread(self.service.health)
        if path == "/info" and method == "GET":
            # info() walks store directories and queries the broker —
            # disk work that must not stall the event loop (and the
            # worker heartbeat endpoints riding on it).
            return 200, await asyncio.to_thread(self.service.info)
        if path == "/metrics" and method == "GET":
            # metrics_text() refreshes point-in-time gauges from the
            # broker file and store directories — disk I/O, so off the
            # event loop like /health.
            text = await asyncio.to_thread(self.service.metrics_text)
            return 200, PlainText(text, PROMETHEUS_CONTENT_TYPE)
        if path == "/perf" and method == "GET":
            # perf_report() reads the store's job records — disk I/O,
            # off the event loop like /health.
            return 200, await asyncio.to_thread(self.service.perf_report)
        if path.startswith("/trace/") and method == "GET":
            trace_id = path[len("/trace/"):]
            events = await asyncio.to_thread(
                self.service.store.read_events, trace_id)
            if not events:
                return 404, {"error": f"no trace recorded for "
                                      f"{trace_id!r}"}
            return 200, {"trace": trace_id, "events": events}
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": [j.to_dict() for j in self.service.jobs()]}
        if path == "/jobs" and method == "POST":
            try:
                spec = json.loads(body.decode("utf-8")) if body else None
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {"error": f"invalid JSON body: {exc}"}
            if not isinstance(spec, dict):
                return 400, {"error": "body must be a JSON job spec object"}
            try:
                job = await self.service.submit(spec)
            except (TypeError, ValueError) as exc:
                return 400, {"error": str(exc)}
            return 200, job.to_dict()
        if path.startswith("/jobs/") and method == "GET":
            job_id = path[len("/jobs/"):]
            wait = urllib.parse.parse_qs(
                url.query, keep_blank_values=True).get("wait")
            try:
                wait_s = _wait_seconds(wait[-1]) if wait else 0.0
            except ValueError as exc:
                return 400, {"error": str(exc)}
            try:
                job = await self.service.wait_status(
                    job_id, wait_s, stop=self._closing)
            except KeyError:
                return 404, {"error": f"unknown job {job_id!r}"}
            return 200, job.to_dict()
        if path.startswith("/units/") and method == "POST":
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {"error": f"invalid JSON body: {exc}"}
            if not isinstance(payload, dict):
                return 400, {"error": "body must be a JSON object"}
            return await self._route_units(path, payload)
        if path in ("/healthz", "/health", "/info", "/jobs",
                    "/metrics", "/perf") or \
                path.startswith(("/jobs/", "/units/", "/trace/")):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no route for {path}"}

    async def _route_units(self, path: str,
                           payload: dict) -> Tuple[int, dict]:
        """The worker transport (see the module docstring)."""
        broker = self.service.broker
        if self.service.execution != "distributed" or broker is None:
            return 409, {"error": "service is not running in distributed "
                                  "execution mode; /units/* endpoints "
                                  "are unavailable"}
        try:
            if path == "/units/claim":
                claimed = await self.service.claim_unit(
                    str(payload["worker"]),
                    _lease_seconds(payload.get("ttl_s", 30.0)),
                    _wait_seconds(payload.get("wait_s", 0.0)),
                    stop=self._closing)
                if claimed is None:
                    return 200, {"unit": None}
                unit, checkpointed = claimed
                return 200, {"unit": {"unit_id": unit.unit_id,
                                      "payload": unit.payload,
                                      "attempts": unit.attempts,
                                      "checkpointed": checkpointed}}
            if path == "/units/heartbeat":
                ok = await asyncio.to_thread(
                    broker.heartbeat, str(payload["unit_id"]),
                    str(payload["worker"]),
                    _lease_seconds(payload.get("ttl_s", 30.0)))
                return 200, {"ok": ok}
            if path == "/units/ack":
                ok = await self.service.ack_unit(
                    str(payload["unit_id"]), str(payload["worker"]),
                    events=_events(payload))
                return 200, {"ok": ok}
            if path == "/units/complete":
                from repro.service.spec import result_from_dict
                phases = payload.get("phases")
                trace = payload.get("trace")
                ok = await self.service.complete_unit(
                    str(payload["unit_id"]), str(payload["worker"]),
                    str(payload["job_key"]), int(payload["lo"]),
                    int(payload["hi"]),
                    result_from_dict(dict(payload["result"])),
                    phases=dict(phases) if isinstance(phases, dict)
                    else None,
                    trace=trace if isinstance(trace, dict) else None,
                    events=_events(payload))
                return 200, {"ok": ok}
            if path == "/units/fail":
                ok = await self.service.fail_unit(
                    str(payload["unit_id"]), str(payload["worker"]),
                    str(payload.get("error", "worker failure")),
                    bool(payload.get("requeue", True)),
                    events=_events(payload))
                return 200, {"ok": ok}
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": f"malformed unit request: "
                                  f"{type(exc).__name__}: {exc}"}
        return 404, {"error": f"no route for {path}"}
