"""Async campaign scheduler: jobs -> shard work units -> process pool.

:class:`CampaignService` is the execution core behind ``repro serve``:
an :mod:`asyncio` front-end that accepts :class:`JobSpec` submissions,
orders their ids on one in-process :class:`asyncio.Queue`, and executes
them as :class:`repro.faults.batch.ShardTask` spans on a
``concurrent.futures`` pool (a one-span job on a thread of this
process, see step 3) — the *same* work units a sharded
in-process :class:`CampaignRunner` builds, which is what makes
service-executed results bit-identical to in-process runs (the
contract ``tests/service/`` pins).

Execution pipeline of one campaign-family job:

1. **Normalize + address.** The spec's ``seed`` is resolved to concrete
   root entropy; its canonical hash is the store key.
2. **Dedupe.** A completed record under the key is returned immediately
   (``cached``); a key currently in flight attaches the submission to
   the running job instead of executing twice.
3. **Shard.** Trials split into contiguous spans of at most
   ``shard_trials`` (:func:`repro.utils.rng.shard_bounds`); spans with
   a checkpoint in the store are reused, the rest run concurrently on
   the pool, each checkpointing on completion. A job of one span with
   no checkpoint under its key runs that span on a thread of this
   process instead and writes no checkpoint: its result record is its
   only durable output, so a crash costs it one span either way.
4. **Merge + persist.** Span tallies merge in ``lo`` order
   (:func:`repro.faults.batch.merge_results`); the final record is
   written atomically and the span checkpoints are dropped.

Each step's store I/O is one :func:`asyncio.to_thread` hop: submit
(result lookup plus the ``queued`` write), execute start (result
re-check plus checkpoint scan), and finish (phase profile, final
record, checkpoint clear).

A killed service therefore loses only in-flight spans: on restart,
resubmitting the same spec (same entropy) reuses every checkpointed
span and executes just the gaps, and the merged result is bit-identical
to an uninterrupted run. Adaptive and logic-equivalence jobs execute as
single work units (their results are not span-decomposable) but get the
same normalize/dedupe/persist treatment.

Job records themselves persist in the store's ``jobs/`` namespace when
accepted and when settled, and they are the only durable record of a
job: the queue holds ids in memory, so a restarted service answers
``status`` for pre-restart job ids and re-enqueues every record that
never settled (its checkpointed spans are reused, so the replay only
executes the gaps). ``running`` is an in-memory state only: a restart
treats an unsettled job the same whether or not it had started.
Settled records are also the history ``GET /perf`` reads
(:func:`repro.obs.perf.jobs_report`).

Two **execution modes** share this pipeline (``execution=`` knob):

``local``
    Spans run on this process: one-span jobs on a thread, multi-span
    campaign jobs and adaptive / logic jobs on its own
    ``concurrent.futures`` pool. The default.
``distributed``
    Spans are *published* to a durable lease broker
    (:class:`repro.distributed.broker.SqliteBroker`) as hash-stamped
    wire payloads (:mod:`repro.distributed.wire`) instead of running
    locally; any number of ``repro worker`` processes — same host via
    the shared store path, or other hosts via the HTTP unit endpoints
    — claim, execute, and write tallies back through the *same* atomic
    shard-checkpoint path. Completion is read from the store, so worker
    identity is invisible to the result and the bit-for-bit contract
    is unchanged. The HTTP unit endpoints
    (:meth:`CampaignService.complete_unit`, :meth:`~CampaignService.
    fail_unit`) hand each landed span to the job's dispatcher and wake
    it; shared-store workers write checkpoints without telling the
    service, so a jittered store scan, escalating while it finds
    nothing, stays as the wake-up's timeout. Empty HTTP claims
    (:meth:`CampaignService.claim_unit`) likewise hold until the
    dispatcher publishes units. Adaptive and logic jobs are not
    span-decomposable and always run locally.
"""

from __future__ import annotations

import asyncio
import math
import re
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, \
    ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Union

import repro
from repro.core.registry import code_names
from repro.faults.batch import PACKINGS, merge_results, run_shard_task, \
    run_shard_task_profiled
from repro.obs import metrics as obs_metrics
from repro.obs import perf as obs_perf
from repro.obs.logs import get_logger
from repro.obs.trace import Tracer, merge_phases
from repro.service.spec import (
    JOB_KINDS,
    AdaptiveCampaignJobSpec,
    JobSpec,
    LogicEquivalenceJobSpec,
    injector_kinds,
    result_to_dict,
)
from repro.service.store import ResultStore
from repro.utils.retry import RetryPolicy
from repro.utils.kernels import available_kernels, native_available
from repro.utils.rng import DRAW_CONTRACT, shard_bounds

#: Default trials per service shard (work-unit granularity: small enough
#: to checkpoint often, large enough to amortize engine rebuild).
DEFAULT_SHARD_TRIALS = 512

#: Where campaign spans execute: this process's pool, or a worker fleet.
EXECUTION_MODES = ("local", "distributed")

#: Default broker filename inside the store root (shared-store
#: topology: workers reach the same file through the store path).
BROKER_FILENAME = "broker.sqlite3"

_JOB_ID = re.compile(r"^j(\d+)-[0-9a-f]+$")

_LOG = get_logger("service.scheduler")

_UNIT_ID = re.compile(r":(\d+)-(\d+)$")

_JOBS_SUBMITTED = obs_metrics.counter(
    "repro_jobs_submitted_total",
    "Jobs accepted by the scheduler, by spec kind.", ("kind",))
_JOBS_SETTLED = obs_metrics.counter(
    "repro_jobs_settled_total",
    "Jobs reaching a terminal state, by outcome "
    "(done/failed/cached/follower).", ("outcome",))
_JOB_SECONDS = obs_metrics.histogram(
    "repro_job_seconds",
    "Wall seconds from execution start to job settlement.")
_UNIT_PUBLISHES = obs_metrics.counter(
    "repro_dispatch_unit_publishes_total",
    "Work units published to the broker by the dispatcher.")
_UNIT_REQUEUES = obs_metrics.counter(
    "repro_dispatch_unit_requeues_total",
    "Acked units re-enqueued because their checkpoint never "
    "materialized.")
_DISPATCH_POLLS = obs_metrics.counter(
    "repro_dispatch_polls_total",
    "Timed-out store scans while awaiting worker-written checkpoints.")
# Point-in-time gauges, refreshed from shared state at every
# /metrics scrape (the registry itself is process-local).
_JOBS_GAUGE = obs_metrics.gauge(
    "repro_jobs", "Known job records, by state.", ("state",))
_BROKER_GAUGE = obs_metrics.gauge(
    "repro_broker_units", "Broker work units, by state.", ("state",))
_QUARANTINE_GAUGE = obs_metrics.gauge(
    "repro_store_quarantined_files",
    "Quarantined store files, by namespace.", ("namespace",))
_UPTIME_GAUGE = obs_metrics.gauge(
    "repro_uptime_seconds", "Seconds since service construction.")


def _unit_span(unit_id: str) -> Optional[tuple]:
    """The ``(lo, hi)`` a dispatcher-minted unit id encodes, or None."""
    match = _UNIT_ID.search(unit_id)
    return None if match is None else (int(match.group(1)),
                                       int(match.group(2)))


async def _first_set(timeout_s: float,
                     *events: Optional[asyncio.Event]) -> None:
    """Return once any of ``events`` is set or ``timeout_s`` passes."""
    waiters = [asyncio.ensure_future(event.wait())
               for event in events if event is not None]
    try:
        await asyncio.wait(waiters, timeout=max(timeout_s, 0.0),
                           return_when=asyncio.FIRST_COMPLETED)
    finally:
        for waiter in waiters:
            waiter.cancel()


class UnitFailedError(RuntimeError):
    """A published work unit failed terminally on the worker fleet.

    Carries the structured ``failure`` dict that lands on the job
    record verbatim, so operators (and the chaos matrix) can
    machine-read *which* unit poisoned the job and why, instead of
    parsing a prose message.
    """

    def __init__(self, unit_id: str, error: Optional[str]) -> None:
        super().__init__(
            f"work unit {unit_id} failed terminally on the worker "
            f"fleet: {error}")
        self.failure = {"kind": "unit_failed", "unit_id": unit_id,
                        "error": error}


def service_info() -> dict:
    """Static introspection: what a deployed service can execute.

    The payload behind ``repro info`` and the server's ``/info``
    endpoint — operators use it to see which tensor layouts, block
    codes, kernel tiers, job kinds, and execution modes this build
    serves. ``native_kernels_available`` reports whether the
    compiled extension actually imported here (registration alone does
    not imply it built), so fleet operators can tell at a glance which
    hosts run the compiled hot loops. ``draw_contract`` and
    ``wire_version`` say which tallies this build computes and which
    workers it can dispatch to: hosts must agree on both.
    """
    from repro.distributed.wire import WIRE_VERSION
    return {
        "version": repro.__version__,
        "draw_contract": DRAW_CONTRACT,
        "wire_version": WIRE_VERSION,
        "packings": list(PACKINGS),
        "codes": list(code_names()),
        "kernel_tiers": list(available_kernels()),
        "native_kernels_available": native_available(),
        "job_kinds": sorted(JOB_KINDS),
        "injector_kinds": list(injector_kinds()),
        "execution_modes": list(EXECUTION_MODES),
    }


def _run_adaptive_job(spec_dict: dict) -> dict:
    """Worker entry: one adaptive campaign as a single work unit."""
    spec = JobSpec.from_dict(spec_dict)
    result = spec.build_runner().run_adaptive(
        tolerance=spec.tolerance, confidence=spec.confidence,
        max_trials=spec.max_trials, initial_trials=spec.initial_trials,
        growth=spec.growth)
    return result_to_dict(result)


def _run_logic_job(spec_dict: dict) -> dict:
    """Worker entry: one logic-equivalence check as a single work unit."""
    from repro.circuits.registry import get_spec
    from repro.logic.verify import exhaustive_check, random_check

    spec = JobSpec.from_dict(spec_dict)
    bench = get_spec(spec.circuit)
    net = bench.build()
    inputs = len(net.input_names)
    if inputs <= spec.exhaustive_threshold:
        mode, trials = "exhaustive", 1 << inputs
        message = exhaustive_check(net, bench.golden, packing=spec.packing)
    else:
        mode, trials = "random", spec.trials
        message = random_check(net, bench.golden, trials=spec.trials,
                               seed=spec.entropy, packing=spec.packing)
    return {
        "type": "logic_equivalence_result",
        "circuit": spec.circuit,
        "equivalent": message is None,
        "mismatch": message,
        "mode": mode,
        "trials": trials,
        "packing": spec.packing,
    }


#: Job kinds that run as one pool work unit (their results are not
#: span-decomposable), with their worker entries.
_SINGLE_UNIT_JOBS = {AdaptiveCampaignJobSpec: _run_adaptive_job,
                     LogicEquivalenceJobSpec: _run_logic_job}


@dataclass
class JobRecord:
    """Live state of one submission (what ``repro status`` shows)."""

    id: str
    spec: JobSpec
    key: str
    state: str = "queued"  # queued | running | done | failed
    cached: bool = False
    error: Optional[str] = None
    #: Structured terminal-failure reason (``kind`` plus kind-specific
    #: detail), set alongside the prose ``error`` when a job fails.
    failure: Optional[dict] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    shards_total: int = 0
    shards_done: int = 0
    shards_cached: int = 0
    result: Optional[dict] = None
    #: Aggregated ``{phase: ns}`` execution profile summed over the
    #: job's shard checkpoints (observability metadata; kept outside
    #: ``result`` so the result schema is untouched).
    phases: Optional[dict] = None
    done_event: asyncio.Event = field(default_factory=asyncio.Event,
                                      repr=False)

    def to_dict(self) -> dict:
        """JSON view (the server's job-status payload; also the
        persisted ``jobs/`` form — :meth:`from_dict` is the inverse)."""
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "key": self.key,
            "state": self.state,
            "cached": self.cached,
            "error": self.error,
            "failure": self.failure,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "shards": {"total": self.shards_total,
                       "done": self.shards_done,
                       "cached": self.shards_cached},
            "result": self.result,
            "phases": self.phases,
            "spec": self.spec.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "JobRecord":
        """Rebuild a record from :meth:`to_dict` output (restart path).

        The ``done_event`` is reconstructed — set for terminal states —
        so waiters behave exactly as for a live record.
        """
        shards = data.get("shards", {})
        job = JobRecord(
            id=data["id"], spec=JobSpec.from_dict(data["spec"]),
            key=data["key"], state=data.get("state", "queued"),
            cached=bool(data.get("cached", False)),
            error=data.get("error"),
            failure=data.get("failure"),
            submitted_at=data.get("submitted_at", 0.0),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            shards_total=shards.get("total", 0),
            shards_done=shards.get("done", 0),
            shards_cached=shards.get("cached", 0),
            result=data.get("result"),
            phases=data.get("phases"))
        if job.state in ("done", "failed"):
            job.done_event.set()
        return job


class CampaignService:
    """Submit-and-poll campaign execution (see the module docstring).

    Parameters
    ----------
    store:
        A :class:`ResultStore` or a path to create one at. The store is
        the durable half of the service: results, dedupe index, and
        crash checkpoints all live there.
    workers:
        Pool size for work units (processes by default). The pool
        serves multi-span campaign jobs and adaptive and logic jobs; a
        one-span job runs on a thread and never touches it.
    shard_trials:
        Maximum trials per shard span — the checkpoint granularity.
    max_concurrent_jobs:
        Scheduler tasks pulling from the queue; shards of concurrent
        jobs interleave on the shared pool.
    executor:
        ``"process"`` (default) or ``"thread"``: the pool behind
        multi-span, adaptive and logic jobs. The thread pool exists
        for embedding and tests (closures and mocks don't cross process
        boundaries); numpy kernels release the GIL enough to keep it
        useful for small jobs.
    shard_runner:
        The work-unit function (default
        :func:`repro.faults.batch.run_shard_task`). Injection point for
        tests and for remote-execution adapters; must be picklable
        under ``executor="process"``. Local execution only: spans of
        multi-span jobs call it on the pool, a one-span job on a
        thread of this process.
    max_job_records:
        Cap on in-memory :class:`JobRecord` objects; beyond it the
        oldest *terminal* records are evicted (their results remain in
        the store — only the job id is forgotten, in memory and in the
        persisted ``jobs/`` namespace alike).
    execution:
        ``"local"`` (default; spans on this process's pool) or
        ``"distributed"`` (spans published to the lease broker for
        ``repro worker`` processes — see the module docstring).
    broker_path:
        SQLite file of the work-unit broker (distributed mode).
        Defaults to ``<store root>/broker.sqlite3``, which is what
        shared-store workers expect.
    broker_options:
        Extra keyword options for the
        :class:`~repro.distributed.broker.SqliteBroker` constructor
        (``max_attempts``, ``breaker_threshold``,
        ``breaker_cooldown_s``, ...) — how deployments and tests tune
        retry budgets and circuit-breaker pacing.
    dispatch_poll_s:
        Distributed mode: initial envelope of the jittered store scan
        for worker-written checkpoints (it escalates to 10x while it
        finds nothing). HTTP workers' completions wake the dispatcher
        at once; the scan is the timeout that catches shared-store
        workers and lost checkpoints.
    """

    def __init__(self, store: Union[ResultStore, str], workers: int = 2,
                 shard_trials: int = DEFAULT_SHARD_TRIALS,
                 max_concurrent_jobs: int = 2,
                 executor: str = "process",
                 shard_runner: Optional[Callable] = None,
                 max_job_records: int = 10_000,
                 execution: str = "local",
                 broker_path: Optional[str] = None,
                 broker_options: Optional[dict] = None,
                 dispatch_poll_s: float = 0.1) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if shard_trials <= 0:
            raise ValueError(f"shard_trials must be positive, "
                             f"got {shard_trials}")
        if max_concurrent_jobs <= 0:
            raise ValueError(f"max_concurrent_jobs must be positive, "
                             f"got {max_concurrent_jobs}")
        if max_job_records <= 0:
            raise ValueError(f"max_job_records must be positive, "
                             f"got {max_job_records}")
        if executor not in ("process", "thread"):
            raise ValueError(f"executor must be 'process' or 'thread', "
                             f"got {executor!r}")
        if execution not in EXECUTION_MODES:
            raise ValueError(f"execution must be one of {EXECUTION_MODES},"
                             f" got {execution!r}")
        if dispatch_poll_s <= 0:
            raise ValueError(f"dispatch_poll_s must be positive, "
                             f"got {dispatch_poll_s}")
        self.store = store if isinstance(store, ResultStore) \
            else ResultStore(store)
        self.workers = workers
        self.shard_trials = shard_trials
        self.max_concurrent_jobs = max_concurrent_jobs
        self.executor_kind = executor
        self.shard_runner = shard_runner or run_shard_task
        self.max_job_records = max_job_records
        self.execution = execution
        self.broker_path = str(broker_path) if broker_path is not None \
            else str(self.store.root / BROKER_FILENAME)
        self.broker_options = dict(broker_options or {})
        self.dispatch_poll_s = dispatch_poll_s
        self.broker = None  # SqliteBroker, created in start()
        self._started_at = time.time()
        # Scheduler-side trace events append straight to the store's
        # events/ namespace; worker events arrive through the work
        # sources and land in the same per-trace JSONL file.
        self.tracer = Tracer(self.store.append_events, proc="service")
        self._jobs: Dict[str, JobRecord] = {}
        self._inflight: Dict[str, str] = {}       # key -> leader job id
        self._followers: Dict[str, List[str]] = {}  # key -> follower ids
        # key -> the dispatching job's inbox of unit-endpoint notes: a
        # landed (lo, hi) span, or None for a unit failure.
        self._inboxes: Dict[str, asyncio.Queue] = {}
        # Set (and swapped for a fresh one) whenever units become
        # claimable; empty HTTP claims wait on it.
        self._claimable: Optional[asyncio.Event] = None
        self._seq = 0
        self._seq_lock = threading.Lock()  # ids are minted off the loop
        # Ids of queued jobs; only submit() and the restart recovery
        # put them here, each id once.
        self._queue: Optional[asyncio.Queue] = None
        self._pool: Optional[Executor] = None
        self._scheduler_tasks: List[asyncio.Task] = []
        self._started = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "CampaignService":
        if self._started:
            return self
        self._queue = asyncio.Queue()
        if self.execution == "distributed":
            from repro.distributed.broker import SqliteBroker
            self.broker = await asyncio.to_thread(
                lambda: SqliteBroker(self.broker_path,
                                     **self.broker_options))
        self._claimable = asyncio.Event()
        pool_cls = ProcessPoolExecutor if self.executor_kind == "process" \
            else ThreadPoolExecutor
        self._pool = pool_cls(max_workers=self.workers)
        self._scheduler_tasks = [
            asyncio.create_task(self._scheduler_loop())
            for _ in range(self.max_concurrent_jobs)]
        self._started = True
        await self._recover_persisted_jobs()
        return self

    async def close(self) -> None:
        for task in self._scheduler_tasks:
            task.cancel()
        for task in self._scheduler_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._scheduler_tasks = []
        self._queue = None
        # An unsettled job lives on in its persisted record alone: a
        # later start() re-enqueues it from the store, as a fresh
        # service would.
        for job_id in [job.id for job in self._jobs.values()
                       if job.state not in ("done", "failed")]:
            del self._jobs[job_id]
        self._inflight.clear()
        self._followers.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._started = False

    async def __aenter__(self) -> "CampaignService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # Submission and queries
    # ------------------------------------------------------------------ #

    async def submit(self, spec: Union[JobSpec, dict]) -> JobRecord:
        """Validate, normalize, dedupe, and enqueue one job.

        Returns the live :class:`JobRecord`; a spec whose key is
        already in the store completes immediately from cache, and one
        whose key is currently executing attaches to that run.
        """
        if not self._started:
            raise RuntimeError("service is not started; use 'async with "
                               "CampaignService(...)' or await start()")
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        spec.validate()
        spec = spec.normalized()
        key = spec.cache_key()
        job = JobRecord(id="", spec=spec, key=key)

        def accept() -> bool:
            # One hop: the result lookup, and the record that claims
            # the job's id ("queued", or "done" for a cache hit).
            cached = self.store.get(key)
            if cached is not None:
                job.state = "done"
                job.cached = True
                job.result = cached["result"]
                job.phases = cached.get("phases")
                job.shards_total = job.shards_cached = \
                    cached.get("shards", {}).get("total", 0)
                job.shards_done = job.shards_total
                job.finished_at = time.time()
            self._claim_id(job)
            return cached is not None

        cached = await asyncio.to_thread(accept)
        self._jobs[job.id] = job
        self._evict_settled_records()
        _JOBS_SUBMITTED.inc(kind=spec.kind)
        # The trace id IS the job id; this submit event is the root of
        # the timeline `repro trace <job-id>` reconstructs.
        self.tracer.event(job.id, "job.submit",
                          attrs={"kind": spec.kind, "key": key})
        if cached:
            job.done_event.set()
            _JOBS_SETTLED.inc(outcome="cached")
            self.tracer.event(job.id, "job.cache_hit",
                              attrs={"key": key})
            return job
        if key in self._inflight:
            self.tracer.event(job.id, "job.follow",
                              attrs={"leader": self._inflight[key]})
            self._followers.setdefault(key, []).append(job.id)
            return job
        self._inflight[key] = job.id
        self._queue.put_nowait(job.id)
        return job

    def _claim_id(self, job: JobRecord) -> None:
        """Mint ``job``'s id and persist its record under it.

        Ids are ``j<seq>-<key[:8]>``. The record is created exclusively
        (:meth:`ResultStore.create_job`), so an id that another service
        on this store root already holds is skipped, never shared.
        """
        while True:
            with self._seq_lock:
                self._seq += 1
                job.id = f"j{self._seq:06d}-{job.key[:8]}"
            if self.store.create_job(job.id, job.to_dict()):
                return

    def _persist_job(self, job: JobRecord) -> None:
        """Write ``job`` to the store's ``jobs/`` namespace.

        Called when the job is accepted and when it settles, so a
        restarted service still knows every accepted id — the durable
        half of :meth:`_recover_persisted_jobs`.
        """
        self.store.put_job(job.id, job.to_dict())

    async def _recover_persisted_jobs(self) -> None:
        """Reload persisted job records after a restart.

        Terminal records come back queryable under their original ids;
        records the previous process never settled (``queued``, or
        ``running`` as older builds persisted it) are reset to
        ``queued`` and re-enqueued — their checkpointed spans make the
        replay cheap, and a completed record under the same key
        short-circuits in :meth:`_execute`. Duplicate keys re-attach as
        followers, same as live submissions.
        """
        records = await asyncio.to_thread(
            lambda: list(self.store.iter_jobs()))
        for data in records:
            try:
                job = JobRecord.from_dict(data)
            except (KeyError, TypeError, ValueError):
                continue  # torn/foreign file: ignore, never crash boot
            if job.id in self._jobs:
                continue
            match = _JOB_ID.match(job.id)
            if match:
                with self._seq_lock:
                    self._seq = max(self._seq, int(match.group(1)))
            self._jobs[job.id] = job
            if job.state in ("done", "failed"):
                continue
            job.state = "queued"
            job.started_at = None
            job.shards_total = job.shards_done = job.shards_cached = 0
            if job.key in self._inflight:
                self._followers.setdefault(job.key, []).append(job.id)
                continue
            self._inflight[job.key] = job.id
            self._queue.put_nowait(job.id)
        self._evict_settled_records()

    def _evict_settled_records(self) -> None:
        """Cap job records; results stay in the store.

        Long-lived services accumulate one :class:`JobRecord` per
        submission (cache hits included). Once the count exceeds
        ``max_job_records``, the oldest *terminal* records are dropped
        from memory and from the persisted ``jobs/`` namespace — their
        durable state is the content-addressed store record, so only
        the job id becomes unknown to ``status``.
        """
        excess = len(self._jobs) - self.max_job_records
        if excess <= 0:
            return
        for job_id in [j.id for j in self._jobs.values()
                       if j.state in ("done", "failed")][:excess]:
            del self._jobs[job_id]
            self.store.delete_job(job_id)

    def status(self, job_id: str) -> JobRecord:
        """The live record of ``job_id`` (KeyError if unknown)."""
        return self._jobs[job_id]

    def jobs(self) -> List[JobRecord]:
        """Every record this service instance has accepted."""
        return [self._jobs[k] for k in sorted(self._jobs)]

    async def wait(self, job_id: str,
                   timeout: Optional[float] = None) -> JobRecord:
        """Block until ``job_id`` reaches a terminal state."""
        job = self._jobs[job_id]
        await asyncio.wait_for(job.done_event.wait(), timeout)
        return job

    async def wait_status(self, job_id: str, wait_s: float,
                          stop: Optional[asyncio.Event] = None
                          ) -> JobRecord:
        """The record of ``job_id`` once it settles, after ``wait_s``
        seconds, or once ``stop`` is set, whichever comes first
        (KeyError if unknown) — the job-status long-poll."""
        job = self._jobs[job_id]
        if wait_s > 0 and not job.done_event.is_set():
            await _first_set(wait_s, job.done_event, stop)
        return job

    def info(self) -> dict:
        """Live service introspection (static info + instance state)."""
        out = service_info()
        out.update({
            "workers": self.workers,
            "shard_trials": self.shard_trials,
            "executor": self.executor_kind,
            "execution": self.execution,
            "jobs": {
                state: sum(1 for j in self._jobs.values()
                           if j.state == state)
                for state in ("queued", "running", "done", "failed")},
            "store": str(self.store.root),
            "stored_results": len(self.store.keys()),
            "persisted_jobs": len(self.store.job_ids()),
        })
        if self.execution == "distributed":
            out["broker"] = self.broker_path
            if self.broker is not None:
                out["work_units"] = self.broker.counts()
        return out

    def health(self) -> dict:
        """Operational health: the ``/health`` payload.

        Where :meth:`info` answers *what can this service run*, this
        answers *how is it doing right now*: per-state job counts,
        broker queue depth and in-flight leases, per-worker circuit
        breakers, and how much the store has quarantined. Cheap enough
        to poll from a dashboard.
        """
        jobs = {state: sum(1 for j in self._jobs.values()
                           if j.state == state)
                for state in ("queued", "running", "done", "failed")}
        out = {
            "ok": True,
            "execution": self.execution,
            "uptime_s": time.time() - self._started_at,
            "jobs": jobs,
            "store": {"quarantine": self.store.quarantine_counts()},
            # Counters only, summed across labels: the compact pulse a
            # dashboard can diff between polls without scraping the
            # full Prometheus text.
            "metrics_snapshot": obs_metrics.REGISTRY.counter_totals(),
        }
        if self.execution == "distributed" and self.broker is not None:
            counts = self.broker.counts()
            health = self.broker.worker_health()
            out["broker"] = {
                "depth": counts.get("queued", 0),
                "inflight": counts.get("leased", 0),
                "done": counts.get("done", 0),
                "failed": counts.get("failed", 0),
                "workers": health,
                "open_breakers": [entry["owner"] for entry in health
                                  if entry["open"]],
            }
        return out

    def metrics_text(self) -> str:
        """Prometheus text exposition: the ``GET /metrics`` payload.

        The registry is process-local, so cumulative counters cover
        only this process; point-in-time gauges (job states, broker
        unit states, store quarantine) are refreshed from shared state
        at every scrape so the exposition reflects the fleet's durable
        reality, not just this process's activity.
        """
        _UPTIME_GAUGE.set(time.time() - self._started_at)
        for state in ("queued", "running", "done", "failed"):
            _JOBS_GAUGE.set(
                sum(1 for j in self._jobs.values() if j.state == state),
                state=state)
        for namespace, count in self.store.quarantine_counts().items():
            _QUARANTINE_GAUGE.set(count, namespace=namespace)
        if self.broker is not None:
            counts = self.broker.counts()
            for state in ("queued", "leased", "done", "failed"):
                _BROKER_GAUGE.set(counts.get(state, 0), state=state)
        return obs_metrics.render_prometheus()

    def perf_report(self, threshold: float = 0.5) -> dict:
        """Per-phase drift over the store's job records: the
        ``GET /perf`` payload (see :func:`repro.obs.perf.jobs_report`).
        Each job shape's newest settled, non-cached run is compared
        against the runs before it.
        """
        return obs_perf.jobs_report(self.store.iter_jobs(),
                                    threshold=threshold)

    # ------------------------------------------------------------------ #
    # Worker transport (the HTTP unit endpoints; distributed mode)
    # ------------------------------------------------------------------ #

    async def claim_unit(self, worker: str, ttl_s: float,
                         wait_s: float = 0.0,
                         stop: Optional[asyncio.Event] = None):
        """Claim one work unit for ``worker`` (``None`` when idle).

        An empty claim holds up to ``wait_s`` seconds, until units are
        published or requeued or ``stop`` is set, and claims again on
        each wake — so an idle HTTP worker needs no sleep-poll of its
        own. Returns ``(unit, checkpointed)``: the broker's
        :class:`WorkUnit`, and whether its span is already
        checkpointed (see :meth:`_claim_and_inspect`).
        """
        loop = asyncio.get_running_loop()
        until = loop.time() + wait_s
        while True:
            # Take the event before claiming: units published while the
            # claim runs must still wake the wait below.
            claimable = self._claimable
            claimed = await asyncio.to_thread(self._claim_and_inspect,
                                              worker, ttl_s)
            if claimed is not None or (stop is not None and stop.is_set()):
                return claimed
            await _first_set(until - loop.time(), claimable, stop)
            if not claimable.is_set():
                return None

    def _claim_and_inspect(self, worker: str, ttl_s: float):
        """One broker claim and, for a granted unit, in the same thread
        hop: the checked read of its span's checkpoint, and its claim
        evidence appended to the job's trace — so a worker killed
        mid-span still leaves its claim in the timeline."""
        from repro.distributed.wire import unit_routing
        from repro.distributed.worker import append_records, claim_records

        unit = self.broker.claim(worker, ttl_s)
        if unit is None:
            return None
        routing = unit_routing(unit.payload)
        if routing is None:
            return unit, False  # the worker fails it as poison
        job_key, lo, hi, trace = routing
        try:
            checkpointed = self.store.get_shard(job_key, lo, hi) is not None
        except ValueError:
            # An invalid key: the worker executes and the checkpoint
            # write is refused, which fails the unit.
            checkpointed = False
        append_records(self.store, claim_records(
            self.tracer, trace, unit.unit_id, lo, hi, unit.attempts,
            worker))
        return unit, checkpointed

    async def complete_unit(self, unit_id: str, worker: str,
                            job_key: str, lo: int, hi: int, tallies,
                            phases: Optional[dict] = None,
                            trace: Optional[dict] = None,
                            events: Sequence[dict] = ()) -> bool:
        """Checkpoint an HTTP worker's span tallies, ack its unit, and
        hand the span to the job's dispatcher. Returns the ack.

        ``events`` are the worker's trace records; they are appended
        with the ``unit.complete`` record stamped here (under the
        payload's ``trace`` block) before the dispatcher hears of the
        span, so a settled job's trace holds every completion."""
        from repro.distributed.worker import append_records, \
            complete_records

        def persist() -> bool:
            records = list(events)
            try:
                # Checkpoint first, ack second — the same ordering the
                # shared-store worker uses, for the same resume reason.
                t0 = perf_counter_ns()
                self.store.put_shard(job_key, lo, hi, tallies,
                                     phases=phases)
                acked = self.broker.ack(unit_id, worker)
                records += complete_records(
                    self.tracer, trace, unit_id, perf_counter_ns() - t0,
                    acked, worker)
                return acked
            finally:
                append_records(self.store, records)

        try:
            return await asyncio.to_thread(persist)
        finally:
            self._notify_dispatcher(job_key, (lo, hi))

    async def ack_unit(self, unit_id: str, worker: str,
                       events: Sequence[dict] = ()) -> bool:
        """Ack an HTTP worker's unit whose checkpoint already exists,
        appending the worker's trace records."""
        return await self._unit_call(events, self.broker.ack, unit_id,
                                     worker)

    async def fail_unit(self, unit_id: str, worker: str, error: str,
                        requeue: bool = True,
                        events: Sequence[dict] = ()) -> bool:
        """Report an HTTP worker's unit failure, appending the worker's
        trace records. Wakes the job's dispatcher (a terminal failure
        fails the job) and the waiting claims (a requeued unit is
        claimable again)."""
        reported = await self._unit_call(events, self.broker.fail,
                                         unit_id, worker, error, requeue)
        if reported:
            self._notify_dispatcher(unit_id.rpartition(":")[0], None)
            self._wake_claims()
        return reported

    async def _unit_call(self, events: Sequence[dict], fn, *args):
        """``fn(*args)`` on a worker thread, then the worker's trace
        records appended to their traces in the same hop (also when
        ``fn`` raises)."""
        from repro.distributed.worker import append_records

        def call():
            try:
                return fn(*args)
            finally:
                append_records(self.store, events)

        return await asyncio.to_thread(call)

    def _notify_dispatcher(self, job_key: str,
                           note: Optional[tuple]) -> None:
        inbox = self._inboxes.get(job_key)
        if inbox is not None:
            inbox.put_nowait(note)

    def _wake_claims(self) -> None:
        claimable, self._claimable = self._claimable, asyncio.Event()
        claimable.set()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    async def _scheduler_loop(self) -> None:
        queue = self._queue
        while True:
            # Each id is put once, and a queued job is never evicted, so
            # every id names a live queued record.
            job = self._jobs[await queue.get()]
            try:
                await self._execute(job)
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - the loop must survive
                # _execute marks the job failed itself; this guard only
                # keeps a scheduler task alive if something escapes it.
                pass

    async def _execute(self, job: JobRecord) -> None:
        # Only the live record reads "running": the store keeps the
        # "queued" record until the job settles, and a restart
        # re-enqueues an unsettled job either way.
        job.state = "running"
        job.started_at = time.time()
        unit_fn = _SINGLE_UNIT_JOBS.get(type(job.spec))

        def lookup() -> tuple:
            # One hop: the result re-check and, for span jobs, the
            # checkpoint scan that plans their spans.
            cached = self.store.get(job.key)
            if cached is not None or unit_fn is not None:
                return cached, {}
            return None, self.store.shard_spans(job.key)

        try:
            # The execute span is the parent of everything downstream:
            # published units carry (job.id, span id) on the wire, so
            # worker spans in other processes attach underneath it.
            with self.tracer.span(job.id, "job.execute",
                                  attrs={"kind": job.spec.kind,
                                         "key": job.key,
                                         "execution": self.execution}
                                  ) as span:
                cached, checkpoints = await asyncio.to_thread(lookup)
                if cached is not None:
                    # Replayed after a restart (or raced by another
                    # service on the shared store) and the work already
                    # completed: serve the record, execute nothing.
                    job.cached = True
                    job.shards_total = \
                        cached.get("shards", {}).get("total", 0)
                    job.shards_cached = job.shards_total
                    job.shards_done = job.shards_total
                    job.phases = cached.get("phases")
                    result = cached["result"]
                    span.set("cached", True)
                else:
                    # The phase profile of a run that wrote no span
                    # checkpoint; None: the checkpoints carry it.
                    profile = None
                    if unit_fn is not None:
                        result = await self._run_single_unit(job, unit_fn)
                        profile = {}
                    elif self.execution == "distributed":
                        result = await self._run_sharded_distributed(
                            job, checkpoints, parent_span=span.span_id)
                    elif job.spec.trials <= self.shard_trials \
                            and not checkpoints:
                        result, profile = await self._run_inline(job)
                    else:
                        result = await self._run_sharded(job, checkpoints)
                    # Persisting is part of the job: a store failure
                    # (disk full, permissions) must fail the job, not
                    # the scheduler.
                    job.phases = await asyncio.to_thread(
                        self._persist_result, job, result, profile)
                    if job.phases:
                        span.set("phases", job.phases)
        except asyncio.CancelledError:
            # close() mid-job is not a settle: no metric, event or
            # waiter wake-up, and the stored record stays "queued", so a
            # restart runs the job (reusing its checkpointed spans).
            raise
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job.failure = getattr(exc, "failure", None) or {
                "kind": "exception", "type": type(exc).__name__,
                "message": str(exc)}
        else:
            job.result = result
            job.state = "done"
        job.finished_at = time.time()
        _JOBS_SETTLED.inc(outcome=job.state)
        if job.started_at is not None:
            _JOB_SECONDS.observe(job.finished_at - job.started_at)
        settle_attrs = {"state": job.state,
                        "shards_done": job.shards_done,
                        "shards_cached": job.shards_cached}
        if job.error:
            settle_attrs["error"] = job.error
        self.tracer.event(
            job.id, "job.settle",
            status="ok" if job.state == "done" else "error",
            attrs=settle_attrs)
        if job.state == "failed":
            _LOG.error("job failed", extra={
                "event": "job.settle", "job_id": job.id,
                "key": job.key, "error": job.error})
        else:
            _LOG.info("job settled", extra={
                "event": "job.settle", "job_id": job.id,
                "state": job.state, "cached": job.cached})
        self._inflight.pop(job.key, None)
        followers = self._resolve_followers(job)
        if followers:
            _JOBS_SETTLED.inc(len(followers), outcome="follower")
        # Persist the terminal state synchronously (a tiny JSON write)
        # and *before* waking waiters: an awaited persist here could be
        # cancelled by a service closing right after wait() returns,
        # leaving "queued" as the last durable state — which a restart
        # would wrongly re-enqueue.
        for settled in [job] + followers:
            try:
                self._persist_job(settled)
            except OSError:
                pass  # the in-memory record still settles waiters
        job.done_event.set()
        for follower in followers:
            follower.done_event.set()

    def _resolve_followers(self, leader: JobRecord) -> List[JobRecord]:
        """Copy ``leader``'s outcome onto every attached submission.

        Returns the settled followers; the caller persists them and
        sets their ``done_event`` (after persistence, so a durable
        "queued" can never outlive a settled run)."""
        settled = []
        for follower_id in self._followers.pop(leader.key, []):
            follower = self._jobs[follower_id]
            settled.append(follower)
            follower.state = leader.state
            follower.error = leader.error
            follower.failure = leader.failure
            follower.result = leader.result
            follower.phases = leader.phases
            follower.cached = leader.state == "done"
            follower.shards_total = leader.shards_total
            if leader.state == "done":
                # The follower got the whole span set without executing.
                follower.shards_done = leader.shards_total
                follower.shards_cached = leader.shards_total
            else:
                follower.shards_done = leader.shards_done
                follower.shards_cached = leader.shards_cached
            follower.finished_at = time.time()
        return settled

    async def _run_single_unit(self, job: JobRecord,
                               fn: Callable[[dict], dict]) -> dict:
        job.shards_total = 1
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(self._pool, fn,
                                            job.spec.to_dict())
        job.shards_done = 1
        return result

    def _span_fn(self) -> tuple:
        """``(fn, profiled)``: the function a span runs and whether it
        returns a phase profile. Only the stock runner is swapped for
        its profiled twin: an injected shard_runner (tests, remote
        adapters) keeps its exact contract — a bare CampaignResult, no
        phase profile."""
        profiled = self.shard_runner is run_shard_task
        return (run_shard_task_profiled if profiled
                else self.shard_runner), profiled

    async def _run_inline(self, job: JobRecord) -> tuple:
        """A one-span campaign job with no checkpoint: the span runs on
        a thread of this process, skipping the pool hop, and writes no
        checkpoint, since the result record would supersede it a
        moment later. A thread rather than the event loop, because a
        large span at a high fault rate takes long enough to stall the
        HTTP surface. Returns ``(result, phase profile)``."""
        spec = job.spec
        job.shards_total = 1
        fn, profiled = self._span_fn()
        out = await asyncio.to_thread(
            fn, spec.build_runner().shard_task(0, spec.trials))
        tallies, profile = out if profiled else (out, {})
        job.shards_done = 1
        return result_to_dict(tallies), profile

    def _persist_result(self, job: JobRecord, result: dict,
                        profile: Optional[dict]) -> Optional[dict]:
        """The finish step, in one store hop: write the final record
        and return the job's phase profile.

        ``profile`` is the profile of a run that wrote no span
        checkpoint. ``None`` means the job's checkpoints carry it
        (local and distributed runs alike): it is summed from the
        checkpoints of the job's shard plan before the record lands
        (leftovers of another plan under the key were never merged),
        and every checkpoint under the key is dropped after.
        """
        checkpointed = profile is None
        if checkpointed:
            stamped = self.store.shard_phases(job.key)
            profile = merge_phases(stamped.get(span)
                                   for span in self._plan(job.spec))
        phases = profile or None
        self.store.put(job.key, {
            "key": job.key,
            "kind": job.spec.kind,
            "entropy": job.spec.entropy,
            "spec": job.spec.to_dict(),
            "result": result,
            "phases": phases,
            "shards": {"total": job.shards_total,
                       "cached": job.shards_cached},
            "elapsed_s": time.time() - job.started_at,
        })
        if checkpointed:
            self.store.clear_shards(job.key)
        return phases

    def _plan(self, spec) -> List[tuple]:
        """The shard plan of a span job: ``(lo, hi)`` spans of at most
        ``shard_trials`` trials."""
        shards = max(1, math.ceil(spec.trials / self.shard_trials))
        return shard_bounds(spec.trials, shards)

    async def _run_sharded(self, job: JobRecord,
                           checkpoints: dict) -> dict:
        """Campaign-family execution: checkpointable shard spans on the
        pool; ``checkpoints`` (span -> tallies) are reused."""
        spec = job.spec
        runner = spec.build_runner()
        bounds = self._plan(spec)
        job.shards_total = len(bounds)
        results = {}
        loop = asyncio.get_running_loop()
        pool_fn, profiled = self._span_fn()

        async def run_span(lo: int, hi: int) -> None:
            cached = checkpoints.get((lo, hi))
            if cached is not None:
                results[(lo, hi)] = cached
                job.shards_cached += 1
                job.shards_done += 1
                return
            out = await loop.run_in_executor(
                self._pool, pool_fn, runner.shard_task(lo, hi))
            tallies, phases = out if profiled else (out, None)
            # Store I/O happens on worker threads, never on the event
            # loop: a slow disk must not stall the HTTP surface or the
            # scheduling of other jobs.
            await asyncio.to_thread(self.store.put_shard, job.key, lo, hi,
                                    tallies, phases=phases or None)
            results[(lo, hi)] = tallies
            job.shards_done += 1

        outcomes = await asyncio.gather(
            *(run_span(lo, hi) for lo, hi in bounds),
            return_exceptions=True)
        errors = [o for o in outcomes if isinstance(o, BaseException)]
        if errors:
            # Completed spans stay checkpointed in the store — the
            # resume payoff — only the failure is surfaced.
            raise errors[0]
        merged = merge_results([results[span] for span in bounds])
        return result_to_dict(merged)

    async def _run_sharded_distributed(self, job: JobRecord,
                                       checkpoints: dict,
                                       parent_span: Optional[str] = None
                                       ) -> dict:
        """Distributed campaign execution: publish spans, await the store.

        The local path's twin with the pool swapped for the worker
        fleet: spans without a checkpoint become broker work units
        (hash-stamped wire payloads, idempotent unit ids), and
        completion is read back *from the store* — a worker's ack is
        bookkeeping, the checkpoint file is the truth. The HTTP unit
        endpoints put each landed span (or a failure note) in the job's
        inbox, and a wake reads only those spans; shared-store workers
        need no channel at all, because the inbox wait times out into a
        scan of every pending span on the escalating
        ``dispatch_poll_s`` schedule. A terminally failed unit (poison
        payload, repeated worker crashes reported as terminal) fails
        the job with the worker's error; abandoned leases are invisible
        here because the broker re-enqueues them on claim. Spans in
        ``checkpoints`` (span -> tallies) are reused, never published.
        """
        # Function-scope import: repro.distributed depends on the
        # service layer's store/client, so the dependency must point
        # this way only at call time, not at module import time.
        from repro.distributed.wire import unit_envelope

        runner = job.spec.build_runner()
        bounds = self._plan(job.spec)
        job.shards_total = len(bounds)
        results = {}
        missing = []
        for lo, hi in bounds:
            cached = checkpoints.get((lo, hi))
            if cached is not None:
                results[(lo, hi)] = cached
                job.shards_cached += 1
                job.shards_done += 1
            else:
                missing.append((lo, hi))

        # The trace block rides the wire so worker spans in other
        # processes attach under this job's execute span; it is absent
        # entirely when tracing is off, keeping payloads byte-stable.
        trace = {"id": job.id, "span": parent_span} \
            if parent_span and self.tracer.active else None

        def publish_all() -> None:
            # One transaction for the job's units: workers see all of
            # them at once, and the publish events follow its commit.
            units = [(f"{job.key}:{lo}-{hi}",
                      unit_envelope(job.key, lo, hi,
                                    runner.shard_task(lo, hi), trace=trace))
                     for lo, hi in missing]
            self.broker.publish_many(units, group_key=job.key)
            _UNIT_PUBLISHES.inc(len(units))
            self.tracer.emit_records(job.id, [
                self.tracer.event_record(
                    job.id, "unit.publish", parent=parent_span,
                    attrs={"unit": unit_id, "lo": lo, "hi": hi})
                for (unit_id, _), (lo, hi) in zip(units, missing)])

        async def collect(spans: List[tuple]) -> bool:
            """Record the spans whose checkpoint reads back; True if
            any did."""
            if not spans:
                return False
            found = await asyncio.to_thread(
                lambda: [self.store.get_shard(job.key, lo, hi)
                         for lo, hi in spans])
            for span, tallies in zip(spans, found):
                if tallies is not None:
                    results[span] = tallies
                    pending.discard(span)
                    job.shards_done += 1
            return any(tallies is not None for tallies in found)

        async def fail_on_failed_units() -> None:
            failed = await asyncio.to_thread(self.broker.failed_units,
                                             job.key)
            # A failed unit only fails the job while its span is still
            # missing: a worker that wrote the checkpoint but died
            # before ack leaves a unit that expires into 'failed' even
            # though its work is durably done — the checkpoint is the
            # truth, the unit state is bookkeeping.
            failed = [(unit_id, error) for unit_id, error in failed
                      if _unit_span(unit_id) is None  # foreign id: keep
                      or _unit_span(unit_id) in pending]
            if failed:
                unit_id, error = failed[0]
                # Withdraw the job's remaining units: the job is about
                # to fail, so letting workers keep computing spans for
                # it would only waste the fleet. Checkpoints already
                # written stay — they are the resume currency.
                await asyncio.to_thread(self.broker.clear_group, job.key)
                raise UnitFailedError(unit_id, error)

        pending = set(missing)
        inbox: asyncio.Queue = asyncio.Queue()
        self._inboxes[job.key] = inbox
        try:
            await asyncio.to_thread(publish_all)
            self._wake_claims()
            # The inbox wait's timeout: a jittered store scan, tight
            # while it finds checkpoints, backing off (capped at 10x)
            # through idle stretches so a big fleet of dispatchers
            # doesn't hammer the store in lockstep. Wakes do not move
            # it, so a busy inbox never starves the scan.
            poll = RetryPolicy(initial_s=self.dispatch_poll_s,
                               cap_s=self.dispatch_poll_s * 10)
            loop = asyncio.get_running_loop()
            idle = 0
            scan_at = loop.time() + poll.delay_s(idle)
            while pending:
                try:
                    notes = [await asyncio.wait_for(
                        inbox.get(), scan_at - loop.time())]
                except asyncio.TimeoutError:
                    _DISPATCH_POLLS.inc()
                    progressed = await collect(sorted(pending))
                    if pending:
                        await fail_on_failed_units()
                    if pending and not progressed:
                        # The inverse hazard of the ack/expiry race
                        # above: a unit acked 'done' whose checkpoint
                        # is *gone* (torn write quarantined by the
                        # store's integrity check). Without this sweep
                        # the dispatcher would wait forever for a file
                        # nobody will ever write again.
                        if await asyncio.to_thread(
                                self._requeue_lost_units, job, pending,
                                parent_span):
                            self._wake_claims()
                            progressed = True
                    idle = 0 if progressed else idle + 1
                    scan_at = loop.time() + poll.delay_s(idle)
                    continue
                while not inbox.empty():
                    notes.append(inbox.get_nowait())
                await collect(sorted({n for n in notes if n in pending}))
                if None in notes and pending:
                    await fail_on_failed_units()
        finally:
            if self._inboxes.get(job.key) is inbox:
                del self._inboxes[job.key]
        await asyncio.to_thread(self.broker.clear_group, job.key)
        merged = merge_results([results[span] for span in bounds])
        return result_to_dict(merged)

    def _requeue_lost_units(self, job: JobRecord, pending: set,
                            parent_span: Optional[str] = None) -> int:
        """Re-enqueue ``done`` units whose checkpoint never materialized.

        A unit acked while its span is still in ``pending`` either
        checkpointed and acked after the dispatcher's last store scan —
        the span's checkpoint is re-read here, and a readable one is
        left for the next scan — or vouched for a checkpoint that is
        unreadable: torn by a crash mid-write and quarantined by the
        store's integrity check. :meth:`SqliteBroker.requeue_unit`
        sends such a unit around again against its remaining attempts
        budget, and turns it terminally ``failed`` once the budget is
        spent — so silent corruption degrades into a structured job
        failure, never a dispatcher hang. Returns the number of units
        re-enqueued.
        """
        requeued = 0
        reason = "acked checkpoint missing or quarantined in the store"
        for unit in self.broker.units(job.key):
            if unit.state != "done":
                continue
            span = _unit_span(unit.unit_id)
            if span is None or span not in pending:
                continue
            if self.store.get_shard(job.key, *span) is not None:
                continue
            self.broker.requeue_unit(unit.unit_id, reason)
            requeued += 1
            _UNIT_REQUEUES.inc()
            _LOG.warning("requeueing lost unit", extra={
                "event": "unit.requeue", "job_id": job.id,
                "unit": unit.unit_id, "reason": reason})
            self.tracer.event(job.id, "unit.requeue",
                              parent=parent_span, status="error",
                              attrs={"unit": unit.unit_id,
                                     "reason": reason})
        return requeued
