"""Durable, stdlib-only work broker (SQLite-backed) with TTL leases.

Two cooperating surfaces live here, both on one SQLite file that any
process on the service's host may open (workers on other hosts use
the HTTP topology — see :mod:`repro.distributed`):

* :class:`SqliteJobQueue` — the durable implementation of the
  scheduler's :class:`repro.service.queue.JobQueue` registry interface
  (FIFO of job ids). Registered as the ``"sqlite"`` backend; queued
  submissions survive a service restart.
* :class:`SqliteBroker` — the work-unit plane of distributed campaign
  execution. A dispatcher publishes serialized shard-task payloads;
  workers *claim* them under a TTL lease, *heartbeat* while running,
  and *ack* on completion. A lease that expires without heartbeat or
  ack — a killed or wedged worker — makes the unit claimable again on
  the next claim, so no span is ever stranded. Claims are exclusive:
  the claim transaction runs under SQLite's write lock, so two workers
  racing for the same unit observe a strict winner.

Each thread of each process keeps one connection per broker object
(opened on first use, and opened afresh in a forked child) and uses
``BEGIN IMMEDIATE`` transactions for every read-modify-write, so the
atomicity guarantees come from SQLite's file locking rather than any
in-process state. The file runs in write-ahead-log mode with
``synchronous=FULL``: a commit appends to ``<file>-wal`` and fsyncs it
before returning, so every state change is as durable as before at
one sync per commit, and readers never block the writer. WAL keeps
its index in shared memory (``<file>-shm``), so every process that
opens the file must run on the same host — the shared-store topology
already requires that; other hosts speak HTTP. The log is capped at
:data:`WAL_SIZE_LIMIT_BYTES`, so it cannot grow the store root
(``repro store gc --max-bytes`` counts it) without bound. Payloads are opaque text to the broker;
the dispatcher/worker agree on content via
:mod:`repro.distributed.wire`.
"""

from __future__ import annotations

import asyncio
import math
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger
from repro.service.queue import JobQueue, register_queue_backend

_LOG = get_logger("distributed.broker")

#: Unit lifecycle states (the only values the ``state`` column takes).
UNIT_STATES = ("queued", "leased", "done", "failed")

_PUBLISHES = obs_metrics.counter(
    "repro_broker_publish_total",
    "Work-unit publishes, by outcome.", ("outcome",))
_CLAIMS = obs_metrics.counter(
    "repro_broker_claims_total",
    "Claim attempts: granted (fresh), reclaimed (expired lease), "
    "empty, or breaker_open.", ("outcome",))
_HEARTBEATS = obs_metrics.counter(
    "repro_broker_heartbeats_total",
    "Lease heartbeats, by outcome (lost = lease no longer held).",
    ("outcome",))
_ACKS = obs_metrics.counter(
    "repro_broker_acks_total",
    "Completion acks, by outcome (lost = lease no longer held).",
    ("outcome",))
_FAILS = obs_metrics.counter(
    "repro_broker_fails_total",
    "Failure reports: requeued, terminal, or lost.", ("outcome",))
_REQUEUES = obs_metrics.counter(
    "repro_broker_requeues_total",
    "Dispatcher lost-checkpoint requeues, by outcome.", ("outcome",))
_BREAKER_OPENS = obs_metrics.counter(
    "repro_broker_breaker_open_total",
    "Circuit-breaker (re)arms after a threshold-crossing failure.")

#: Default seconds a worker may hold a lease without heartbeating.
DEFAULT_LEASE_TTL_S = 30.0

#: Default executions a unit gets before it is failed terminally. Each
#: claim counts one attempt, so this caps explicit requeue-failures AND
#: crash loops (workers that die holding the lease, over and over).
DEFAULT_MAX_ATTEMPTS = 5

#: Cap on the write-ahead log. A commit that grows the log past it
#: checkpoints the log into the database (``wal_autocheckpoint``, in
#: SQLite's default 4-KiB pages), and a log that restarts is truncated
#: back to it (``journal_size_limit``), so a long transaction or a busy
#: reader cannot leave it large. SQLite's default checkpoint point is
#: 4 MiB; at 1 MiB a measured claim/ack commit cost the same.
WAL_SIZE_LIMIT_BYTES = 1 << 20

#: Connections a forked child inherited from its parent. SQLite forbids
#: using or closing them in the child, so they stay referenced here and
#: are never garbage-collected (which would close them).
_INHERITED: List[sqlite3.Connection] = []

#: Default consecutive failures before a worker's circuit breaker
#: opens (its claims return no work until the cooldown passes).
DEFAULT_BREAKER_THRESHOLD = 5

#: Default seconds an open breaker refuses a worker's claims.
DEFAULT_BREAKER_COOLDOWN_S = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS units (
    unit_id       TEXT PRIMARY KEY,
    group_key     TEXT,
    payload       TEXT NOT NULL,
    state         TEXT NOT NULL DEFAULT 'queued',
    seq           INTEGER NOT NULL,
    owner         TEXT,
    lease_expires REAL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    error         TEXT
);
CREATE INDEX IF NOT EXISTS idx_units_state_seq ON units(state, seq);
CREATE INDEX IF NOT EXISTS idx_units_group ON units(group_key);
CREATE TABLE IF NOT EXISTS jobq (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id  TEXT NOT NULL,
    claimed INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS worker_health (
    owner      TEXT PRIMARY KEY,
    failures   INTEGER NOT NULL DEFAULT 0,
    open_until REAL
);
"""


def check_ttl(ttl_s: float) -> float:
    """``ttl_s`` if it is a finite, positive lease length.

    Raises ``ValueError`` otherwise: an infinite or NaN lease never
    expires (a dead worker would strand its unit), and one that is not
    positive expires at once (another worker would redo live work).
    """
    if not (math.isfinite(ttl_s) and ttl_s > 0):
        raise ValueError(f"lease ttl_s must be finite and positive, "
                         f"got {ttl_s!r}")
    return ttl_s


@dataclass(frozen=True)
class WorkUnit:
    """Read-model of one broker work unit (see the module docstring)."""

    unit_id: str
    group_key: Optional[str]
    payload: str
    state: str
    owner: Optional[str]
    lease_expires: Optional[float]
    attempts: int
    error: Optional[str]


class SqliteBroker:
    """Lease-based work-unit broker over one SQLite file.

    ``path`` is created (with parents) on first use. All methods are
    synchronous and safe to call from any thread or process; async
    callers wrap them in ``asyncio.to_thread``.

    ``max_attempts`` bounds retries: a unit that keeps failing — a
    worker reporting ``fail(requeue=True)`` repeatedly, or workers
    crashing while holding its lease so expiry keeps re-enqueueing it —
    is failed terminally once it has consumed that many claims, so a
    deterministically broken span surfaces as a job failure instead of
    looping the fleet forever.

    ``breaker_threshold`` / ``breaker_cooldown_s`` are the per-worker
    circuit breaker: a worker whose *consecutive* explicit failures
    reach the threshold (a bad build, a broken local numpy, a full
    disk — the unit contents are fine, the worker is not) stops being
    handed work for the cooldown, so one sick host degrades fleet
    throughput instead of burning every unit's retry budget. Any
    successful ack closes its breaker and resets the count; after the
    cooldown the breaker half-opens (one probe claim is allowed — a
    success closes it, another failure re-opens it for a fresh
    cooldown).
    """

    def __init__(self, path, busy_timeout_s: float = 10.0,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
                 ) -> None:
        if max_attempts <= 0:
            raise ValueError(f"max_attempts must be positive, "
                             f"got {max_attempts}")
        if breaker_threshold <= 0:
            raise ValueError(f"breaker_threshold must be positive, "
                             f"got {breaker_threshold}")
        if breaker_cooldown_s <= 0:
            raise ValueError(f"breaker_cooldown_s must be positive, "
                             f"got {breaker_cooldown_s}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.busy_timeout_s = busy_timeout_s
        self.max_attempts = max_attempts
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self._local = threading.local()
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """This thread's autocommit connection to the broker file.

        Opened on a thread's first call and kept for the broker
        object's life: opening one per call cost more than the calls
        themselves once commits stopped waiting on a rollback journal.
        A forked child opens its own (see :data:`_INHERITED`).
        """
        local = self._local
        conn = getattr(local, "conn", None)
        if conn is None or local.pid != os.getpid():
            if conn is not None:
                _INHERITED.append(conn)
            conn = sqlite3.connect(self.path, timeout=self.busy_timeout_s,
                                   isolation_level=None)
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=FULL")
            conn.execute(f"PRAGMA wal_autocheckpoint="
                         f"{WAL_SIZE_LIMIT_BYTES // 4096}")
            conn.execute(f"PRAGMA journal_size_limit="
                         f"{WAL_SIZE_LIMIT_BYTES}")
            local.conn, local.pid = conn, os.getpid()
        try:
            yield conn
        finally:
            # A transaction left open by an interrupted call would
            # refuse every later BEGIN on this kept connection.
            if conn.in_transaction:
                conn.rollback()

    # ------------------------------------------------------------------ #
    # Dispatcher side
    # ------------------------------------------------------------------ #

    def publish(self, unit_id: str, payload: str,
                group_key: Optional[str] = None) -> bool:
        """Enqueue one work unit; idempotent on ``unit_id``.

        The one-unit case of :meth:`publish_many`. Returns ``True``
        when the unit is (re-)queued by this call.
        """
        return self.publish_many([(unit_id, payload)], group_key) == 1

    def publish_many(self, units: Iterable[Tuple[str, str]],
                     group_key: Optional[str] = None) -> int:
        """Enqueue ``(unit_id, payload)`` units in one transaction.

        All or nothing: a failure part-way publishes none of them.
        Units are claimed in the order given. Re-publishing an existing
        unit is a no-op unless the unit had *failed terminally*, in
        which case it is reset to ``queued`` with the fresh payload
        (the dispatcher's retry path). Returns how many units this call
        (re-)queued.
        """
        units = list(units)
        if not units:
            return 0
        published = 0
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                seq = conn.execute(
                    "SELECT COALESCE(MAX(seq), 0) FROM units").fetchone()[0]
                for unit_id, payload in units:
                    row = conn.execute(
                        "SELECT state FROM units WHERE unit_id = ?",
                        (unit_id,)).fetchone()
                    if row is None:
                        seq += 1
                        conn.execute(
                            "INSERT INTO units (unit_id, group_key, "
                            "payload, state, seq) "
                            "VALUES (?, ?, ?, 'queued', ?)",
                            (unit_id, group_key, payload, seq))
                    elif row["state"] == "failed":
                        # A republish is a fresh start: the attempts
                        # counter resets too, or the unit would inherit
                        # a spent retry budget and fail terminally on
                        # its first hiccup.
                        conn.execute(
                            "UPDATE units SET state = 'queued', "
                            "payload = ?, owner = NULL, "
                            "lease_expires = NULL, error = NULL, "
                            "attempts = 0 WHERE unit_id = ?",
                            (payload, unit_id))
                    else:
                        continue
                    published += 1
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        if published:
            _PUBLISHES.inc(published, outcome="queued")
        if len(units) > published:
            _PUBLISHES.inc(len(units) - published, outcome="duplicate")
        return published

    def clear_group(self, group_key: str) -> int:
        """Drop every unit of ``group_key`` (after its job completed)."""
        with self._connect() as conn:
            cursor = conn.execute(
                "DELETE FROM units WHERE group_key = ?", (group_key,))
            return cursor.rowcount

    # ------------------------------------------------------------------ #
    # Worker side: the lease protocol
    # ------------------------------------------------------------------ #

    def claim(self, owner: str, ttl_s: float = DEFAULT_LEASE_TTL_S,
              now: Optional[float] = None) -> Optional[WorkUnit]:
        """Atomically claim the oldest available unit for ``owner``.

        Available means ``queued`` or ``leased`` with an expired lease
        (an abandoned worker's unit) — expiry *is* the re-enqueue, no
        reaper process required. Returns ``None`` when nothing is
        available. ``ttl_s`` must be finite and positive (see
        :func:`check_ttl`). ``now`` is injectable for tests.
        """
        check_ttl(ttl_s)
        now = time.time() if now is None else now
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                # Circuit breaker: a worker with too many consecutive
                # failures gets no work until its cooldown passes.
                row = conn.execute(
                    "SELECT open_until FROM worker_health WHERE "
                    "owner = ?", (owner,)).fetchone()
                if row is not None and row["open_until"] is not None \
                        and row["open_until"] > now:
                    conn.execute("COMMIT")
                    _CLAIMS.inc(outcome="breaker_open")
                    return None
                # Crash-loop guard: a unit whose lease expired after
                # consuming its attempt budget is terminal, not
                # claimable (explicit fail()s are capped separately).
                conn.execute(
                    "UPDATE units SET state = 'failed', owner = NULL, "
                    "lease_expires = NULL, error = COALESCE(error, '') "
                    "|| ' [lease expired after ' || attempts || "
                    "' attempts]' WHERE state = 'leased' AND "
                    "lease_expires < ? AND attempts >= ?",
                    (now, self.max_attempts))
                row = conn.execute(
                    "SELECT unit_id, state FROM units WHERE "
                    "state = 'queued' OR "
                    "(state = 'leased' AND lease_expires < ?) "
                    "ORDER BY seq LIMIT 1", (now,)).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    _CLAIMS.inc(outcome="empty")
                    return None
                # "reclaimed" = the previous holder's lease expired —
                # the metric (and the worker's reattempt trace event)
                # is the observable form of the implicit re-enqueue.
                outcome = ("reclaimed" if row["state"] == "leased"
                           else "granted")
                conn.execute(
                    "UPDATE units SET state = 'leased', owner = ?, "
                    "lease_expires = ?, attempts = attempts + 1 "
                    "WHERE unit_id = ?",
                    (owner, now + ttl_s, row["unit_id"]))
                unit = self._fetch(conn, row["unit_id"])
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        _CLAIMS.inc(outcome=outcome)
        return unit

    def heartbeat(self, unit_id: str, owner: str,
                  ttl_s: float = DEFAULT_LEASE_TTL_S,
                  now: Optional[float] = None) -> bool:
        """Extend ``owner``'s lease on ``unit_id``.

        Returns ``False`` when the lease is no longer held — the unit
        was reclaimed by another worker after expiry, acked, or removed
        — which tells the worker its result will be ignored.
        ``ttl_s`` must be finite and positive (see :func:`check_ttl`).
        """
        check_ttl(ttl_s)
        now = time.time() if now is None else now
        with self._connect() as conn:
            cursor = conn.execute(
                "UPDATE units SET lease_expires = ? WHERE unit_id = ? "
                "AND owner = ? AND state = 'leased'",
                (now + ttl_s, unit_id, owner))
            held = cursor.rowcount == 1
        _HEARTBEATS.inc(outcome="ok" if held else "lost")
        return held

    def ack(self, unit_id: str, owner: str) -> bool:
        """Mark ``unit_id`` done; ``False`` if the lease was lost.

        A successful ack also closes ``owner``'s circuit breaker: the
        worker demonstrably completes work, so its consecutive-failure
        count resets.
        """
        with self._connect() as conn:
            cursor = conn.execute(
                "UPDATE units SET state = 'done', lease_expires = NULL "
                "WHERE unit_id = ? AND owner = ? AND state = 'leased'",
                (unit_id, owner))
            if cursor.rowcount == 1:
                conn.execute(
                    "UPDATE worker_health SET failures = 0, "
                    "open_until = NULL WHERE owner = ?", (owner,))
            acked = cursor.rowcount == 1
        _ACKS.inc(outcome="ok" if acked else "lost")
        return acked

    def fail(self, unit_id: str, owner: str, error: str,
             requeue: bool = True, now: Optional[float] = None) -> bool:
        """Report a failed execution of ``unit_id``.

        ``requeue=True`` (transient failure) returns the unit to the
        queue for another worker — until its ``max_attempts`` budget is
        spent, after which the failure is terminal anyway;
        ``requeue=False`` (poison payload — e.g. a wire-format refusal
        that no retry can fix) marks it terminally ``failed``
        immediately. Either way the dispatcher surfaces the error
        instead of looping forever.

        Each accepted failure report also advances ``owner``'s
        consecutive-failure count; reaching ``breaker_threshold``
        opens the worker's circuit breaker for ``breaker_cooldown_s``
        (see the class docstring). ``now`` is injectable for tests.
        """
        now = time.time() if now is None else now
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT attempts FROM units WHERE unit_id = ? AND "
                    "owner = ? AND state = 'leased'",
                    (unit_id, owner)).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    _FAILS.inc(outcome="lost")
                    return False
                if requeue and row["attempts"] >= self.max_attempts:
                    requeue = False
                    error = (f"retries exhausted after {row['attempts']} "
                             f"attempts: {error}")
                state = "queued" if requeue else "failed"
                conn.execute(
                    "UPDATE units SET state = ?, owner = NULL, "
                    "lease_expires = NULL, error = ? "
                    "WHERE unit_id = ? AND owner = ? AND "
                    "state = 'leased'",
                    (state, error, unit_id, owner))
                conn.execute(
                    "INSERT INTO worker_health (owner, failures) "
                    "VALUES (?, 1) ON CONFLICT(owner) DO UPDATE SET "
                    "failures = failures + 1", (owner,))
                breaker = conn.execute(
                    "UPDATE worker_health SET open_until = ? WHERE "
                    "owner = ? AND failures >= ?",
                    (now + self.breaker_cooldown_s, owner,
                     self.breaker_threshold))
                tripped = breaker.rowcount == 1
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        _FAILS.inc(outcome="requeued" if state == "queued"
                   else "terminal")
        if state == "failed":
            _LOG.error("unit failed terminally", extra={
                "event": "unit.terminal", "unit": unit_id,
                "attempts": row["attempts"], "worker": owner,
                "error": error})
        if tripped:
            _BREAKER_OPENS.inc()
            _LOG.warning("circuit breaker opened for worker", extra={
                "event": "breaker.open", "worker": owner,
                "cooldown_s": self.breaker_cooldown_s})
        return True

    def requeue_unit(self, unit_id: str, reason: str,
                     now: Optional[float] = None) -> str:
        """Return an acked-but-unfinished unit to the queue.

        The dispatcher's recovery path for a *lost checkpoint*: a
        worker completed and acked a span, but its checkpoint file
        turned out torn or corrupt (the store quarantined it on read),
        so the ``done`` unit state is a lie and the span would
        otherwise never finish — a silent hang. Requeueing preserves
        the attempts budget: a span whose checkpoints keep corrupting
        exhausts ``max_attempts`` and turns terminally ``failed``
        instead of looping forever.

        Returns what happened: ``"requeued"``, ``"failed"`` (budget
        already spent — the unit was marked terminal), or
        ``"missing"`` (no such unit). ``now`` is injectable for tests.
        """
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT state, attempts FROM units WHERE "
                    "unit_id = ?", (unit_id,)).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    return "missing"
                if row["attempts"] >= self.max_attempts:
                    conn.execute(
                        "UPDATE units SET state = 'failed', "
                        "owner = NULL, lease_expires = NULL, error = ? "
                        "WHERE unit_id = ?",
                        (f"checkpoint lost after {row['attempts']} "
                         f"attempts: {reason}", unit_id))
                    outcome = "failed"
                else:
                    conn.execute(
                        "UPDATE units SET state = 'queued', "
                        "owner = NULL, lease_expires = NULL, error = ? "
                        "WHERE unit_id = ?", (reason, unit_id))
                    outcome = "requeued"
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        _REQUEUES.inc(outcome=outcome)
        if outcome == "failed":
            _LOG.error("lost-checkpoint unit failed terminally", extra={
                "event": "unit.terminal", "unit": unit_id,
                "attempts": row["attempts"], "reason": reason})
        return outcome

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def unit(self, unit_id: str) -> Optional[WorkUnit]:
        """The current row of ``unit_id``, or ``None``."""
        with self._connect() as conn:
            return self._fetch(conn, unit_id)

    def units(self, group_key: Optional[str] = None) -> List[WorkUnit]:
        """Every unit (of ``group_key`` when given), in FIFO order."""
        query = "SELECT * FROM units"
        params: tuple = ()
        if group_key is not None:
            query += " WHERE group_key = ?"
            params = (group_key,)
        with self._connect() as conn:
            rows = conn.execute(query + " ORDER BY seq", params).fetchall()
        return [self._to_unit(r) for r in rows]

    def counts(self, group_key: Optional[str] = None) -> Dict[str, int]:
        """``state -> unit count`` (of ``group_key`` when given).

        Aggregated in SQL — never materializes payloads; cheap enough
        for hot paths (dispatch polls, ``/info``)."""
        query = "SELECT state, COUNT(*) AS n FROM units"
        params: tuple = ()
        if group_key is not None:
            query += " WHERE group_key = ?"
            params = (group_key,)
        out = {state: 0 for state in UNIT_STATES}
        with self._connect() as conn:
            for row in conn.execute(query + " GROUP BY state", params):
                out[row["state"]] = row["n"]
        return out

    def worker_health(self, now: Optional[float] = None) -> List[dict]:
        """Per-worker breaker state: ``{owner, failures, open_until,
        open}`` rows, failing-most first (the ``/health`` payload's
        fleet half)."""
        now = time.time() if now is None else now
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT owner, failures, open_until FROM worker_health "
                "ORDER BY failures DESC, owner").fetchall()
        return [{"owner": row["owner"], "failures": row["failures"],
                 "open_until": row["open_until"],
                 "open": row["open_until"] is not None
                 and row["open_until"] > now}
                for row in rows]

    def open_breakers(self, now: Optional[float] = None) -> List[str]:
        """Owners whose circuit breaker is currently open."""
        return [entry["owner"] for entry in self.worker_health(now)
                if entry["open"]]

    def failed_units(self, group_key: str) -> List[tuple]:
        """``(unit_id, error)`` of the terminally failed units of
        ``group_key`` — the dispatcher's per-poll failure check, so it
        selects only those two columns (no payloads)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT unit_id, error FROM units WHERE group_key = ? "
                "AND state = 'failed' ORDER BY seq",
                (group_key,)).fetchall()
        return [(row["unit_id"], row["error"]) for row in rows]

    @staticmethod
    def _fetch(conn: sqlite3.Connection,
               unit_id: str) -> Optional[WorkUnit]:
        row = conn.execute("SELECT * FROM units WHERE unit_id = ?",
                           (unit_id,)).fetchone()
        return None if row is None else SqliteBroker._to_unit(row)

    @staticmethod
    def _to_unit(row: sqlite3.Row) -> WorkUnit:
        return WorkUnit(
            unit_id=row["unit_id"], group_key=row["group_key"],
            payload=row["payload"], state=row["state"],
            owner=row["owner"], lease_expires=row["lease_expires"],
            attempts=row["attempts"], error=row["error"])


class SqliteJobQueue(JobQueue):
    """Durable FIFO of job ids on the broker's SQLite file.

    The ``"sqlite"`` entry of the queue-backend registry. ``get``
    polls (there is no cross-process wakeup in SQLite); the interval
    bounds scheduler latency for an idle service and is irrelevant
    under load.
    """

    backend_name = "sqlite"

    def __init__(self, path, poll_interval_s: float = 0.05) -> None:
        if poll_interval_s <= 0:
            raise ValueError(f"poll_interval_s must be positive, "
                             f"got {poll_interval_s}")
        self._broker = SqliteBroker(path)  # creates the jobq table
        self.poll_interval_s = poll_interval_s

    async def put(self, job_id: str) -> None:
        self._check_open()
        await asyncio.to_thread(self._insert, job_id)
        self._count_op("put")

    async def get(self) -> str:
        self._check_open()
        while True:
            job_id = await asyncio.to_thread(self._claim_next)
            if job_id is not None:
                self._count_op("get")
                return job_id
            self._check_open()
            await asyncio.sleep(self.poll_interval_s)

    def _insert(self, job_id: str) -> None:
        with self._broker._connect() as conn:
            conn.execute("INSERT INTO jobq (job_id) VALUES (?)", (job_id,))

    def _claim_next(self) -> Optional[str]:
        # Claimed rows are DELETEd, not flagged: scheduler job state is
        # the durable truth (persisted records re-enqueue on restart),
        # so keeping consumed rows would only grow the file forever.
        with self._broker._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT seq, job_id FROM jobq WHERE claimed = 0 "
                    "ORDER BY seq LIMIT 1").fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    return None
                conn.execute("DELETE FROM jobq WHERE seq = ?",
                             (row["seq"],))
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        return row["job_id"]


register_queue_backend("sqlite", SqliteJobQueue)
