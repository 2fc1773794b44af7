"""Standalone shard worker: claim, execute, checkpoint, ack, repeat.

The execution half of distributed campaign mode (`repro worker` on the
CLI). A worker is deliberately dumb: it holds no job state, knows no
spec semantics, and can be killed at any instant without corrupting a
campaign — every guarantee it participates in comes from three shared
contracts:

* the **wire format** (:mod:`repro.distributed.wire`): a payload that
  fails to decode is poisoned once, terminally, never retried;
* the **lease protocol** (:class:`repro.distributed.broker`): claims
  carry a TTL and a background thread heartbeats at ``ttl/3`` while
  the span runs, so only a *dead* worker's lease expires — and expiry
  alone re-enqueues its unit for the rest of the fleet;
* the **checkpoint path** (:meth:`ResultStore.put_shard`): tallies are
  written with the same atomic rename the in-process scheduler uses,
  making completion idempotent — two workers racing one span (possible
  after a lease expiry) write byte-identical files.

Two transports implement :class:`WorkSource`:

=========================  ============================================
:class:`BrokerWorkSource`  Shared-store topology: the worker opens the
                           service's broker file and result store
                           directly (same host: the broker runs in
                           WAL mode).
:class:`HttpWorkSource`    Multi-host topology: the worker speaks to
                           the service's ``/units/*`` HTTP endpoints;
                           the service performs store writes, so only
                           the URL crosses hosts. A unit costs two
                           requests, claim and complete: the claim
                           answer says whether the span is already
                           checkpointed, and the worker's trace records
                           ride the next complete, fail or ack body.
                           An empty claim holds at the service (up to
                           :data:`CLAIM_WAIT_S`) until units are
                           published, so an idle worker needs no
                           sleep-poll.
=========================  ============================================

Who records which trace record of a unit (all under the job's
``job.execute`` span, named by the worker's id as ``proc``):

=====================  ================================================
``unit.claim``         the transport, before the worker sees the unit
                       (over HTTP, the service before it answers), so
                       a worker killed mid-span still leaves its claim;
                       plus ``unit.reattempt`` when ``attempts > 1``
``unit.execute``       the worker: the span around the engine run,
                       with the per-phase profile
``unit.dedupe_ack``,   the worker: a span found already checkpointed,
``unit.fail``          or an execution failure
``unit.complete``      the transport, after the checkpoint write and
                       the ack: ``checkpoint_write_ns`` times both,
                       ``lease_lost`` is a refused ack
=====================  ================================================
"""

from __future__ import annotations

import os
import socket
import threading
import time
from time import perf_counter_ns
from typing import Dict, Iterable, List, Optional, Tuple
import uuid

from repro.distributed.broker import DEFAULT_LEASE_TTL_S, SqliteBroker
from repro.distributed.wire import (
    WireFormatError,
    decode_unit_envelope,
    task_from_wire_dict,
    unit_routing,
)
from repro.faults.batch import run_shard_task_profiled
from repro.faults.campaign import CampaignResult
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger
from repro.obs.trace import Tracer
from repro.service.client import ServiceClient
from repro.service.spec import result_to_dict
from repro.service.store import ResultStore
from repro.utils.retry import RetryPolicy, poll_policy

_LOG = get_logger("distributed.worker")

_WORKER_UNITS = obs_metrics.counter(
    "repro_worker_units_total",
    "Units processed by this worker process, by outcome.", ("outcome",))
_CHECKPOINT_SECONDS = obs_metrics.histogram(
    "repro_checkpoint_write_seconds",
    "Wall seconds spent persisting a span checkpoint (complete call).")

#: Seconds an HTTP worker's empty claim asks the service to hold while
#: waiting for units (the long-poll claim); also how soon a ``stop``
#: lands while the worker is idle.
CLAIM_WAIT_S = 1.0


def default_worker_id() -> str:
    """A fleet-unique worker identity: host, pid, and a random tail."""
    return (f"{socket.gethostname()}-{os.getpid()}-"
            f"{uuid.uuid4().hex[:6]}")


def claim_records(tracer: Tracer, trace: Optional[dict], unit_id: str,
                  lo: int, hi: int, attempts: int,
                  owner: str) -> List[dict]:
    """The claim evidence of one unit, stamped for worker ``owner``.

    ``unit.claim``, plus ``unit.reattempt`` (error status) when an
    earlier attempt was lost to a lease expiry or a requeue. Empty
    when the unit is untraced or ``tracer`` is inactive.
    """
    trace_id = (trace or {}).get("id")
    if not trace_id or not tracer.active:
        return []
    attrs = {"unit": unit_id, "lo": lo, "hi": hi, "attempts": attempts}
    records = [tracer.event_record(trace_id, "unit.claim",
                                   parent=trace.get("span"), attrs=attrs,
                                   proc=owner)]
    if attempts > 1:
        records.append(tracer.event_record(
            trace_id, "unit.reattempt", parent=trace.get("span"),
            attrs=attrs, status="error", proc=owner))
    return records


def complete_records(tracer: Tracer, trace: Optional[dict],
                     unit_id: str, checkpoint_write_ns: int,
                     acked: bool, owner: str) -> List[dict]:
    """The ``unit.complete`` record of one unit, stamped for ``owner``
    (empty when the unit is untraced or ``tracer`` is inactive)."""
    trace_id = (trace or {}).get("id")
    if not trace_id or not tracer.active:
        return []
    return [tracer.event_record(
        trace_id, "unit.complete", parent=trace.get("span"),
        attrs={"unit": unit_id, "checkpoint_write_ns": checkpoint_write_ns,
               "lease_lost": not acked}, proc=owner)]


def append_records(store: ResultStore, records: Iterable[dict]) -> None:
    """Append trace records to ``store``, one batch per trace id.

    Telemetry: records without a string trace id are dropped, and a
    failed append is swallowed, never raised into a unit's lifecycle.
    """
    by_trace: Dict[str, List[dict]] = {}
    for record in records:
        trace_id = record.get("trace") if isinstance(record, dict) \
            else None
        if isinstance(trace_id, str):
            by_trace.setdefault(trace_id, []).append(record)
    for trace_id, batch in by_trace.items():
        try:
            store.append_events(trace_id, batch)
        except Exception:  # noqa: BLE001 - telemetry must never raise
            pass


class _ClaimInHand(threading.local):
    """Per worker thread: the unit a source last handed out.

    Its id and routing (``(job_key, lo, hi, trace)``, or ``None`` for a
    payload that does not decode); over HTTP also the claim answer's
    ``checkpointed`` flag, and the trace records waiting for the next
    request body.
    """

    unit_id: Optional[str] = None
    routing: Optional[tuple] = None
    checkpointed = False

    def __init__(self) -> None:
        self.events: List[dict] = []

    def hold(self, unit_id: str, payload: str,
             checkpointed: bool = False) -> Optional[tuple]:
        self.unit_id = unit_id
        self.routing = unit_routing(payload)
        self.checkpointed = checkpointed
        return self.routing

    def trace(self, unit_id: str) -> Optional[dict]:
        """The trace block of ``unit_id`` if it is the unit in hand."""
        if unit_id != self.unit_id or self.routing is None:
            return None
        return self.routing[3]


class WorkSource:
    """Transport abstraction between a worker and its dispatcher."""

    #: Seconds an empty :meth:`claim` may block waiting for work (0:
    #: it answers at once and the worker sleep-polls between claims).
    claim_wait_s = 0.0

    def claim(self, owner: str,
              ttl_s: float) -> Optional[Tuple[str, str, int]]:
        """``(unit_id, payload_text, attempts)`` of a claimed unit, or
        ``None``. ``attempts`` counts this claim too, so a value above
        1 means the unit was retried or reclaimed after a lease expiry
        — the claim evidence surfaces that in the trace."""
        raise NotImplementedError

    def heartbeat(self, unit_id: str, owner: str, ttl_s: float) -> bool:
        raise NotImplementedError

    def complete(self, unit_id: str, owner: str, job_key: str, lo: int,
                 hi: int, tallies: CampaignResult,
                 phases: Optional[Dict[str, int]] = None) -> None:
        """Persist ``tallies`` as the span checkpoint, then ack.

        ``phases`` is the optional per-phase timing profile stamped
        onto the checkpoint record (observability metadata only)."""
        raise NotImplementedError

    def ack(self, unit_id: str, owner: str) -> bool:
        """Ack without a result (the checkpoint already exists)."""
        raise NotImplementedError

    def fail(self, unit_id: str, owner: str, error: str,
             requeue: bool) -> None:
        raise NotImplementedError

    def shard_done(self, job_key: str, lo: int, hi: int) -> bool:
        """True when the span's checkpoint already exists (dedupe)."""
        return False

    def record_events(self, trace_id: str, events: List[dict]) -> None:
        """Take a batch of the worker's trace records (default: drop).

        Telemetry only: implementations must never let a failure here
        propagate into the unit lifecycle."""


class BrokerWorkSource(WorkSource):
    """Direct broker + store access (shared-store topology).

    Records the claim and completion evidence itself, straight into
    the store it holds; the worker's own records append as they come.
    """

    def __init__(self, broker: SqliteBroker, store: ResultStore) -> None:
        self.broker = broker
        self.store = store
        self.tracer = Tracer(store.append_events)
        self._held = _ClaimInHand()

    def claim(self, owner, ttl_s):
        unit = self.broker.claim(owner, ttl_s)
        if unit is None:
            return None
        routing = self._held.hold(unit.unit_id, unit.payload)
        if routing is not None:
            _job_key, lo, hi, trace = routing
            append_records(self.store, claim_records(
                self.tracer, trace, unit.unit_id, lo, hi, unit.attempts,
                owner))
        return unit.unit_id, unit.payload, unit.attempts

    def heartbeat(self, unit_id, owner, ttl_s):
        return self.broker.heartbeat(unit_id, owner, ttl_s)

    def complete(self, unit_id, owner, job_key, lo, hi, tallies,
                 phases=None):
        # Checkpoint first, ack second: a crash in between leaves a
        # leased unit whose span is already durable — the next claimer
        # sees the checkpoint and acks without recomputing.
        t0 = perf_counter_ns()
        self.store.put_shard(job_key, lo, hi, tallies, phases=phases)
        acked = self.broker.ack(unit_id, owner)
        append_records(self.store, complete_records(
            self.tracer, self._held.trace(unit_id), unit_id,
            perf_counter_ns() - t0, acked, owner))

    def ack(self, unit_id, owner):
        return self.broker.ack(unit_id, owner)

    def fail(self, unit_id, owner, error, requeue):
        self.broker.fail(unit_id, owner, error, requeue=requeue)

    def shard_done(self, job_key, lo, hi):
        return self.store.get_shard(job_key, lo, hi) is not None

    def record_events(self, trace_id, events):
        self.store.append_events(trace_id, events)


class HttpWorkSource(WorkSource):
    """The service's ``/units/*`` endpoints (multi-host topology).

    Two requests per unit: the claim answer carries the dedupe flag
    (the service reads the checkpoint and records the claim before it
    answers), and the worker's trace records wait in a per-thread
    buffer for the next complete, fail or ack body, where the service
    appends them next to the ``unit.complete`` record it stamps.
    """

    def __init__(self, client: ServiceClient) -> None:
        self.client = client
        # Well inside the HTTP timeout, or a held claim reads as a
        # dead service.
        self.claim_wait_s = min(CLAIM_WAIT_S, client.timeout / 2)
        self._held = _ClaimInHand()

    def claim(self, owner, ttl_s):
        unit = self.client.claim_unit(owner, ttl_s,
                                      wait_s=self.claim_wait_s)
        if unit is None:
            return None
        self._held.hold(unit["unit_id"], unit["payload"],
                        bool(unit.get("checkpointed")))
        return (unit["unit_id"], unit["payload"],
                int(unit.get("attempts") or 1))

    def heartbeat(self, unit_id, owner, ttl_s):
        return self.client.heartbeat_unit(unit_id, owner, ttl_s)

    def complete(self, unit_id, owner, job_key, lo, hi, tallies,
                 phases=None):
        self.client.complete_unit(unit_id, owner, job_key, lo, hi,
                                  result_to_dict(tallies), phases=phases,
                                  trace=self._held.trace(unit_id),
                                  events=self._take_events())

    def ack(self, unit_id, owner):
        return self.client.ack_unit(unit_id, owner,
                                    events=self._take_events())

    def fail(self, unit_id, owner, error, requeue):
        self.client.fail_unit(unit_id, owner, error, requeue,
                              events=self._take_events())

    def shard_done(self, job_key, lo, hi):
        # Answered by the claim: the service read the checkpoint first.
        held = self._held
        return held.checkpointed and held.routing is not None and \
            held.routing[:3] == (job_key, lo, hi)

    def record_events(self, trace_id, events):
        self._held.events.extend(events)

    def _take_events(self) -> List[dict]:
        events, self._held.events = self._held.events, []
        return events


class HeartbeatThread:
    """Background lease extension while a span executes.

    Beats every ``ttl/3``; a beat answered ``False`` means the lease
    was lost (the worker was presumed dead and its unit re-enqueued),
    recorded in :attr:`lost` so the worker can demote its completion
    to best-effort.

    Shutdown is prompt: the beat loop blocks on
    :meth:`threading.Event.wait` (never a bare ``time.sleep``), so
    :meth:`stop` — and ``with``-exit — returns as soon as the current
    beat RPC (if any) finishes, not up to a full ``ttl/3`` later.
    """

    def __init__(self, source: WorkSource, unit_id: str, owner: str,
                 ttl_s: float) -> None:
        self.source = source
        self.unit_id = unit_id
        self.owner = owner
        self.ttl_s = ttl_s
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "HeartbeatThread":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self.ttl_s)

    def __enter__(self) -> "HeartbeatThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        interval = self.ttl_s / 3.0
        while not self._stop.wait(interval):
            try:
                if not self.source.heartbeat(self.unit_id, self.owner,
                                             self.ttl_s):
                    self.lost = True
                    return
            except Exception:  # noqa: BLE001 - transient transport error
                # Missing one beat is survivable (TTL is 3 intervals);
                # the next beat retries.
                pass


#: Backwards-compatible alias (the class was private before it grew a
#: public start/stop surface).
_Heartbeat = HeartbeatThread


class ShardWorker:
    """Pull-execute-checkpoint loop over one :class:`WorkSource`.

    Parameters
    ----------
    source:
        Where work comes from and results go.
    worker_id:
        Fleet-unique identity (defaults to host-pid-random).
    lease_ttl_s:
        Seconds a claim survives without heartbeat. The re-enqueue
        latency after ``kill -9``, traded against heartbeat traffic.
    poll_interval_s:
        Envelope of the jittered idle sleep between empty claims, and
        of the first claim-error backoff. There is no idle sleep after
        a claim that itself held for work (the HTTP topology's
        long-poll claim, :attr:`WorkSource.claim_wait_s`).
    """

    def __init__(self, source: WorkSource,
                 worker_id: Optional[str] = None,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
                 poll_interval_s: float = 0.2) -> None:
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be positive, "
                             f"got {lease_ttl_s}")
        if poll_interval_s <= 0:
            raise ValueError(f"poll_interval_s must be positive, "
                             f"got {poll_interval_s}")
        self.source = source
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl_s = lease_ttl_s
        self.poll_interval_s = poll_interval_s
        self.units_done = 0
        self.units_failed = 0
        # The worker's own trace records flow back through the work
        # source (a store append on the shared-store topology, the next
        # request body over HTTP) and never fail the unit. The getattr
        # keeps duck-typed sources without the telemetry hook (test
        # fakes, minimal adapters) working — they just run untraced.
        self.tracer = Tracer(getattr(source, "record_events", None),
                             proc=self.worker_id)

    def run_once(self) -> bool:
        """Claim and process at most one unit; ``True`` if one ran."""
        claimed = self.source.claim(self.worker_id, self.lease_ttl_s)
        if claimed is None:
            return False
        self._process(*claimed)
        return True

    def run(self, max_units: Optional[int] = None,
            stop: Optional[threading.Event] = None,
            idle_exit_s: Optional[float] = None) -> int:
        """Work until stopped; returns the number of processed units.

        Stops on ``max_units`` processed, ``stop`` set, or — when
        ``idle_exit_s`` is given — that many consecutive seconds
        without available work (the batch-fleet pattern: drain and
        exit).

        A transport error on claim (service restarting, broker file
        briefly locked) must not kill the daemon: it is treated as an
        idle poll backed off on the shared :class:`RetryPolicy`
        (capped exponential, full jitter — a restarted fleet must not
        thunder back in lockstep), so an HTTP-topology fleet rides out
        the very service restarts the store's resume semantics are
        built for. Such error time counts toward ``idle_exit_s``.
        Empty-queue idle polls are jittered too, decorrelating claim
        traffic across the fleet — except after a claim that already
        held for :attr:`WorkSource.claim_wait_s` (long-poll claims):
        it paced the loop itself.

        Sleeps block on ``stop.wait`` when a ``stop`` event is given,
        so a shutdown request interrupts the wait immediately instead
        of lingering up to a full poll/backoff interval.
        """
        backoff = RetryPolicy(initial_s=self.poll_interval_s, cap_s=5.0)
        idle_poll = poll_policy(self.poll_interval_s)
        claim_wait_s = getattr(self.source, "claim_wait_s", 0.0)
        processed = 0
        idle_since: Optional[float] = None
        claim_errors = 0
        while True:
            if stop is not None and stop.is_set():
                return processed
            if max_units is not None and processed >= max_units:
                return processed
            claimed_at = time.monotonic()
            try:
                ran = self.run_once()
            except Exception as exc:  # noqa: BLE001 - daemon must outlive claims
                claim_errors += 1
                ran = False
                _LOG.warning("claim/processing error, backing off",
                             extra={"event": "worker.claim_error",
                                    "worker": self.worker_id,
                                    "consecutive": claim_errors,
                                    "error": f"{type(exc).__name__}: "
                                             f"{exc}"})
            else:
                claim_errors = 0
            if ran:
                processed += 1
                idle_since = None
                continue
            now = time.monotonic()
            idle_since = idle_since if idle_since is not None else now
            if idle_exit_s is not None and now - idle_since >= idle_exit_s:
                return processed
            if claim_errors:
                interrupted = not backoff.sleep(claim_errors - 1,
                                                stop=stop)
            elif claim_wait_s > 0 and now - claimed_at >= claim_wait_s / 2:
                continue  # the claim held for work: no idle sleep
            else:
                interrupted = not idle_poll.sleep(0, stop=stop)
            if interrupted:
                return processed

    # ------------------------------------------------------------------ #
    # One unit
    # ------------------------------------------------------------------ #

    def _process(self, unit_id: str, payload_text: str,
                 attempts: Optional[int] = None) -> None:
        try:
            job_key, lo, hi, task, trace = self._decode(payload_text)
        except (WireFormatError, ValueError) as exc:
            # Poison payload: no retry can fix a revision/digest
            # mismatch, so fail terminally and let the dispatcher
            # surface it instead of bouncing the unit forever.
            self.units_failed += 1
            _WORKER_UNITS.inc(outcome="poison")
            # Terminal with no exception propagating: without this
            # line the daemon drops the unit in silence.
            _LOG.error("poison payload: failing unit terminally",
                       extra={"event": "unit.poison", "unit": unit_id,
                              "attempts": attempts,
                              "worker": self.worker_id,
                              "error": f"{type(exc).__name__}: {exc}"})
            self.source.fail(unit_id, self.worker_id,
                             f"{type(exc).__name__}: {exc}",
                             requeue=False)
            return
        # The transport has already recorded the claim evidence.
        trace_id = (trace or {}).get("id")
        parent = (trace or {}).get("span")
        tracer = self.tracer
        try:
            if self.source.shard_done(job_key, lo, hi):
                # Another worker finished this span after a lease
                # expiry race; the checkpoint is the truth — just ack
                # (the record first, so it rides the ack over HTTP).
                if trace_id:
                    tracer.event(trace_id, "unit.dedupe_ack",
                                 parent=parent, attrs={"unit": unit_id})
                self.source.ack(unit_id, self.worker_id)
                self.units_done += 1
                _WORKER_UNITS.inc(outcome="dedupe_ack")
                return
            with tracer.span(trace_id, "unit.execute", parent=parent,
                             attrs={"unit": unit_id, "lo": lo, "hi": hi,
                                    "code": task.code,
                                    "packing": task.packing,
                                    "kernels": task.kernels_name}
                             ) as span:
                with HeartbeatThread(self.source, unit_id,
                                     self.worker_id,
                                     self.lease_ttl_s) as beat:
                    tallies, phases = run_shard_task_profiled(task)
                if phases:
                    span.set("phases", phases)
            # Even if the lease was lost mid-run, writing the
            # checkpoint is harmless: tallies are a pure function of
            # (key, span), so racing writers agree on the result —
            # only the wall-clock phase stamps can differ, and the
            # atomic replace means one complete record wins.
            t_ckpt = perf_counter_ns()
            self.source.complete(unit_id, self.worker_id, job_key, lo, hi,
                                 tallies, phases=phases or None)
            _CHECKPOINT_SECONDS.observe((perf_counter_ns() - t_ckpt) / 1e9)
            if not beat.lost:
                self.units_done += 1  # a lost lease credits the reclaimer
                _WORKER_UNITS.inc(outcome="done")
            else:
                _WORKER_UNITS.inc(outcome="lease_lost")
        except Exception as exc:  # noqa: BLE001 - unit isolation boundary
            self.units_failed += 1
            _WORKER_UNITS.inc(outcome="failed")
            _LOG.error("unit execution failed, reporting to broker",
                       extra={"event": "unit.fail", "unit": unit_id,
                              "attempts": attempts,
                              "worker": self.worker_id,
                              "error": f"{type(exc).__name__}: {exc}"})
            if trace_id:
                tracer.event(trace_id, "unit.fail", parent=parent,
                             status="error",
                             attrs={"unit": unit_id,
                                    "error": f"{type(exc).__name__}: "
                                             f"{exc}"})
            try:
                self.source.fail(unit_id, self.worker_id,
                                 f"{type(exc).__name__}: {exc}",
                                 requeue=True)
            except Exception as report_exc:  # noqa: BLE001 - transport died
                # The lease will expire and re-enqueue the unit, but
                # say so — this path previously died in silence.
                _LOG.error("could not report unit failure; lease "
                           "expiry will requeue it",
                           extra={"event": "unit.fail_unreported",
                                  "unit": unit_id,
                                  "attempts": attempts,
                                  "worker": self.worker_id,
                                  "error": f"{type(report_exc).__name__}"
                                           f": {report_exc}"})

    @staticmethod
    def _decode(payload_text: str):
        """Split a dispatch envelope into routing metadata + task.

        Returns ``(job_key, lo, hi, task, trace)`` where ``trace`` is
        the optional observability routing block (or ``None`` — wire v4
        keeps it optional, so untraced dispatchers still work)."""
        envelope = decode_unit_envelope(payload_text)
        task = task_from_wire_dict(envelope["shard_task"])
        lo, hi = int(envelope["lo"]), int(envelope["hi"])
        if (lo, hi) != task.span:
            raise WireFormatError(
                f"unit routing span ({lo}, {hi}) does not match the "
                f"shard task span {task.span}")
        return str(envelope["job_key"]), lo, hi, task, envelope["trace"]
