"""Pluggable job-queue backends for the campaign service.

The scheduler never touches a concrete queue class: it asks
:func:`make_queue` for a registered backend by name. The built-in
``"memory"`` backend wraps :class:`asyncio.Queue` — correct for a
single-process service; the durable ``"sqlite"`` backend
(:class:`repro.distributed.broker.SqliteJobQueue`) keeps the FIFO in a
SQLite file so queued job ids survive a service restart. Further
brokers (Redis, SQS, ...) register the same interface under a new name
and are selected with ``CampaignService(queue="...")`` without any
scheduler change; backend-specific construction knobs (file paths,
endpoints) flow through ``make_queue(name, **options)``.

The interface is deliberately minimal — FIFO put/get of opaque job ids
plus a close hook — because all job *state* lives in the scheduler's
records and the persistent :class:`repro.service.store.ResultStore`;
the queue only orders work. Crash recovery therefore does not depend
on queue durability: a restarted service re-derives progress from the
store's shard checkpoints and persisted job records, not from queue
contents.

Conformance contract (pinned for every registered backend by
``tests/service/test_queue_conformance.py``):

* ``get`` returns ids strictly in ``put`` order (FIFO);
* ``get`` blocks (asynchronously) until an id is available;
* after ``close()``, ``put`` and ``get`` raise ``RuntimeError`` and
  ``closed`` is ``True`` — a closed queue never silently drops work.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Tuple

from repro.obs import metrics as obs_metrics

_QUEUE_OPS = obs_metrics.counter(
    "repro_queue_ops_total",
    "Job-queue operations, by backend and op.", ("backend", "op"))


class JobQueue:
    """Minimal async FIFO of job ids (see the module docstring)."""

    _closed = False

    #: Metrics label for the backend; subclasses override.
    backend_name = "unknown"

    def _count_op(self, op: str) -> None:
        """Count one queue operation against this backend's label."""
        _QUEUE_OPS.inc(backend=self.backend_name, op=op)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    async def put(self, job_id: str) -> None:
        raise NotImplementedError

    async def get(self) -> str:
        raise NotImplementedError

    async def close(self) -> None:
        """Release backend resources; put/get raise afterwards."""
        self._closed = True


class MemoryJobQueue(JobQueue):
    """In-process FIFO over :class:`asyncio.Queue` (the default)."""

    backend_name = "memory"

    def __init__(self) -> None:
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closed_event = asyncio.Event()

    async def put(self, job_id: str) -> None:
        self._check_open()
        await self._queue.put(job_id)
        self._count_op("put")

    async def get(self) -> str:
        self._check_open()
        # Race the queue against closure so a get() that is already
        # awaiting when close() runs raises instead of hanging forever
        # (the conformance contract: a closed queue never strands a
        # waiter). An item that arrives first wins the race.
        getter = asyncio.ensure_future(self._queue.get())
        closer = asyncio.ensure_future(self._closed_event.wait())
        try:
            done, _ = await asyncio.wait(
                {getter, closer}, return_when=asyncio.FIRST_COMPLETED)
        except BaseException:
            getter.cancel()
            closer.cancel()
            raise
        closer.cancel()
        if getter in done:
            self._count_op("get")
            return getter.result()
        getter.cancel()
        try:
            value = await getter
        except asyncio.CancelledError:
            pass
        else:
            self._count_op("get")
            return value  # an item slipped in before the cancel landed
        self._check_open()
        raise RuntimeError(  # pragma: no cover - closure is the only
            "MemoryJobQueue.get interrupted")  # way the race is lost

    async def close(self) -> None:
        await super().close()
        self._closed_event.set()

    def __len__(self) -> int:  # pragma: no cover - debugging aid
        return self._queue.qsize()


_QUEUE_BACKENDS: Dict[str, Callable[..., JobQueue]] = {
    "memory": MemoryJobQueue,
}


def _ensure_builtin_backends() -> None:
    """Register the backends that ship outside this module.

    The durable broker lives in :mod:`repro.distributed` (it has no
    scheduler dependencies, only this interface), so importing it here
    lazily keeps registration automatic without an import cycle.
    """
    import repro.distributed.broker  # noqa: F401 - registers "sqlite"


def register_queue_backend(name: str, factory: Callable[..., JobQueue],
                           overwrite: bool = False) -> None:
    """Register a queue factory under ``name``.

    The factory is lazily instantiated; keyword options given to
    :func:`make_queue` are forwarded to it, so backends with mandatory
    configuration (file paths, URLs) surface a clear ``TypeError`` when
    constructed without it.
    """
    if name in _QUEUE_BACKENDS and not overwrite:
        raise ValueError(f"queue backend {name!r} is already registered "
                         f"(pass overwrite=True to replace it)")
    _QUEUE_BACKENDS[name] = factory


def available_queue_backends() -> Tuple[str, ...]:
    """Registered queue-backend names."""
    _ensure_builtin_backends()
    return tuple(sorted(_QUEUE_BACKENDS))


def make_queue(name: str, **options) -> JobQueue:
    """Instantiate the queue backend registered under ``name``.

    ``options`` are backend-specific constructor keywords (e.g.
    ``path=...`` for the ``"sqlite"`` backend); the in-memory backend
    takes none.
    """
    _ensure_builtin_backends()
    if name not in _QUEUE_BACKENDS:
        raise ValueError(f"unknown queue backend {name!r}; registered: "
                         f"{', '.join(available_queue_backends())}")
    return _QUEUE_BACKENDS[name](**options)
