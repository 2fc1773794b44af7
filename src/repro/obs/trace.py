"""Structured tracing: span/event records and phase profiling.

Identity model: the **trace id is the job id** (``j000042-ab12cd34``)
— it is already unique per submission, filesystem-safe, and known to
every process that touches the job, so no id service is needed. Span
ids are short random hex tokens; cross-process parentage rides the
unit dispatch envelope (wire v4) as a ``trace`` block, letting worker
spans attach under the scheduler's execute span.

Events are plain dicts so any sink can persist them; the canonical
sink appends JSONL lines to the store's ``events/`` namespace
(:meth:`repro.service.store.ResultStore.append_events`). Each record:

``{"trace", "span", "parent", "name", "kind": "span"|"event",
   "status": "ok"|"error", "proc", "wall", "dur_ns", "attrs"}``

``wall`` (``time.time()`` at span start) orders events *across*
processes; ``dur_ns`` is measured with the monotonic
``perf_counter_ns`` so durations never go negative under clock steps.
Emission is fire-and-forget: a sink failure is swallowed (telemetry
must never fail a campaign), and everything becomes a no-op when
observability is disabled (:func:`repro.obs.metrics.set_enabled`).

:class:`PhaseProfile` is the profiling leg's accumulator: the batched
campaign engine stamps per-phase nanoseconds (pack, encode, inject,
decode_sweep, tally, ...) into one via explicit ``add()`` calls —
deliberately not a context manager, so the hot block loop pays two
``perf_counter_ns`` reads per phase and nothing more.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import time
import uuid
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import is_enabled

#: ``sink(trace_id, events)`` — persists a batch of event dicts.
TraceSink = Callable[[str, List[dict]], None]

#: The innermost live span of the current context, as a
#: ``(trace_id, span_id)`` pair. Set by :meth:`Tracer.span` on entry
#: and restored on exit; the structured-logging plane
#: (:mod:`repro.obs.logs`) reads it to stamp every log record emitted
#: inside a span with that span's trace id. Context-local, so
#: concurrent asyncio tasks and threads each see their own span.
_ACTIVE_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "repro_active_span", default=None)


def current_span() -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` of the active span, or ``None``."""
    return _ACTIVE_SPAN.get()


def new_span_id() -> str:
    """A fresh 12-hex-char span id (collision odds are irrelevant at
    per-job event counts)."""
    return uuid.uuid4().hex[:12]


class Span:
    """Mutable in-flight span; emitted by the owning tracer on exit."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "attrs",
                 "status", "_wall", "_t0")

    def __init__(self, trace_id: str, name: str,
                 parent_id: Optional[str],
                 attrs: Optional[dict]) -> None:
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.status = "ok"
        self._wall = time.time()
        self._t0 = time.perf_counter_ns()

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    def _record(self, proc: str) -> dict:
        return {"trace": self.trace_id, "span": self.span_id,
                "parent": self.parent_id, "name": self.name,
                "kind": "span", "status": self.status, "proc": proc,
                "wall": self._wall,
                "dur_ns": time.perf_counter_ns() - self._t0,
                "attrs": self.attrs}


class _NullSpan:
    """Stand-in yielded when tracing is disabled; absorbs everything."""

    trace_id = None
    span_id = None
    parent_id = None
    status = "ok"
    attrs: Dict[str, object] = {}

    def set(self, key: str, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Emits spans and point events for one process through one sink.

    ``proc`` names the emitting process in every record (``service``,
    or a worker id) so the timeline can show who did what. Buffering
    is the caller's concern: each span/event is one sink call, and the
    worker batches where IO amortisation matters.
    """

    def __init__(self, sink: Optional[TraceSink],
                 proc: str = "proc") -> None:
        self._sink = sink
        self.proc = proc

    @property
    def active(self) -> bool:
        return self._sink is not None and is_enabled()

    def _emit(self, trace_id: str, records: List[dict]) -> None:
        if self._sink is None:
            return
        try:
            self._sink(trace_id, records)
        except Exception:  # noqa: BLE001 - telemetry must never raise
            pass

    @contextlib.contextmanager
    def span(self, trace_id: Optional[str], name: str,
             parent: Optional[str] = None,
             attrs: Optional[dict] = None):
        # A falsy trace id means "this work is untraced" (e.g. a unit
        # published by a pre-v4 dispatcher) — same null path as
        # disabled observability.
        if not self.active or not trace_id:
            yield _NULL_SPAN
            return
        span = Span(trace_id, name, parent, attrs)
        token = _ACTIVE_SPAN.set((trace_id, span.span_id))
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.attrs.setdefault("error", repr(exc))
            raise
        finally:
            _ACTIVE_SPAN.reset(token)
            self._emit(trace_id, [span._record(self.proc)])

    def event(self, trace_id: str, name: str,
              parent: Optional[str] = None,
              attrs: Optional[dict] = None,
              status: str = "ok") -> Optional[dict]:
        """Emit a zero-duration point event; returns the record."""
        record = self.event_record(trace_id, name, parent, attrs, status)
        if record is not None:
            self._emit(trace_id, [record])
        return record

    def event_record(self, trace_id: str, name: str,
                     parent: Optional[str] = None,
                     attrs: Optional[dict] = None,
                     status: str = "ok",
                     proc: Optional[str] = None) -> Optional[dict]:
        """Build a point-event record WITHOUT emitting it.

        For callers that batch several records into one sink write.
        ``proc`` overrides the emitting process's name: the service
        stamps a unit's claim and completion on behalf of the worker
        that made them.
        """
        if not self.active:
            return None
        return {"trace": trace_id, "span": new_span_id(),
                "parent": parent, "name": name, "kind": "event",
                "status": status, "proc": proc or self.proc,
                "wall": time.time(), "dur_ns": 0,
                "attrs": dict(attrs) if attrs else {}}

    def emit_records(self, trace_id: str,
                     records: Iterable[Optional[dict]]) -> None:
        """Flush a batch of pre-built records (Nones filtered)."""
        batch = [r for r in records if r]
        if batch and self.active:
            self._emit(trace_id, batch)


#: Shared inert tracer for call sites that may run untraced.
NULL_TRACER = Tracer(None, proc="null")


class PhaseProfile:
    """Accumulates per-phase wall time in integer nanoseconds.

    Single-threaded by contract: one profile per shard execution (the
    engine runs a shard's blocks sequentially). ``as_dict`` returns a
    plain ``{phase: ns}`` mapping, JSON-ready for shard checkpoint
    records and span attributes.
    """

    __slots__ = ("ns",)

    def __init__(self) -> None:
        self.ns: Dict[str, int] = {}

    def add(self, phase: str, dur_ns: int) -> None:
        self.ns[phase] = self.ns.get(phase, 0) + int(dur_ns)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.ns)

    def __bool__(self) -> bool:
        return bool(self.ns)


def merge_phases(profiles: Iterable[Optional[Dict[str, int]]]
                 ) -> Dict[str, int]:
    """Sum ``{phase: ns}`` dicts (Nones and empties are skipped)."""
    total: Dict[str, int] = {}
    for profile in profiles:
        if not profile:
            continue
        for phase, ns in profile.items():
            total[phase] = total.get(phase, 0) + int(ns)
    return total


def chaos_sink(tracer: Tracer, trace_id: str,
               parent: Optional[str] = None) -> Callable[[dict], None]:
    """Adapt a tracer into a ``ChaosPlan`` fault sink.

    The chaos harness calls the sink with ``{"site": ..., "call": ...}``
    each time a rule fires; this emits it as a ``chaos.fire`` trace
    event so the chaos matrix can assert "the fault I scheduled is the
    fault the trace observed".
    """

    def sink(fire: dict) -> None:
        tracer.event(trace_id, "chaos.fire", parent=parent,
                     attrs=dict(fire), status="error")

    return sink


def encode_event_lines(events: Iterable[dict]) -> str:
    """Serialize event records as newline-terminated JSONL."""
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in events)


def decode_event_lines(text: str) -> List[dict]:
    """Parse JSONL event lines, skipping torn/corrupt ones.

    Events are observational: a half-written tail line (process killed
    mid-append) must not poison the readable prefix.
    """
    events: List[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            events.append(record)
    return events
