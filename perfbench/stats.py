"""Arithmetic of the campaign benchmark, kept free of I/O and of ``repro``.

Everything here is a pure function of plain numbers, Prometheus text or
trace-event dicts, so ``selftest.py`` can pin it without running the
program.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ``TAIL_BEYOND`` of
    ``count`` samples beyond it.

    The coarse ladder keeps the choice fixed across runs of one workload
    (100 to 999 samples always give p90). Below ``2 * TAIL_BEYOND``
    samples no percentile qualifies and the median stands in; the caller
    records the percentile and the sample count beside the value.
    """
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        # The tolerance absorbs float error in 100 - 99.9.
        if count * (100.0 - pct) >= TAIL_BEYOND * 100.0 - 1e-6:
            chosen = pct
    return chosen


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the tail of ``values``."""
    pct = tail_percentile(len(values))
    return float(np.percentile(values, pct)), pct


def failed_share(failed_jobs: float, failed_units: float, requeues: float,
                 reclaims: float, jobs: float, units: float) -> float:
    """Wasted or failed work over work attempted.

    Requeued units and reclaimed leases count against the share even
    when the job still settles ``done``: each one is work done twice.
    """
    attempted = jobs + units
    if attempted <= 0:
        raise ValueError("failed_share needs at least one attempt")
    return (failed_jobs + failed_units + requeues + reclaims) / attempted


# ---------------------------------------------------------------------- #
# Prometheus text
# ---------------------------------------------------------------------- #

_SAMPLE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)(?:\s+\S+)?$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: ``(name, ((label, value), ...))`` — one Prometheus series.
Series = Tuple[str, Tuple[Tuple[str, str], ...]]


def parse_samples(text: str) -> Dict[Series, float]:
    """Every sample line of a Prometheus text exposition."""
    out: Dict[Series, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        pairs = tuple(sorted(
            (k, v.replace('\\"', '"').replace("\\n", "\n")
             .replace("\\\\", "\\"))
            for k, v in _LABEL.findall(labels or "")))
        try:
            out[(name, pairs)] = float(value)
        except ValueError:
            continue
    return out


def counter_deltas(before: str, after: str) -> Dict[Series, float]:
    """Per-series growth between two scrapes of one process.

    A series absent from the first scrape started at zero (counters are
    created on first increment).
    """
    old = parse_samples(before)
    return {series: value - old.get(series, 0.0)
            for series, value in parse_samples(after).items()}


def counter_total(deltas: Dict[Series, float], name: str,
                  **labels: str) -> float:
    """Sum of ``name``'s deltas over series matching ``labels``."""
    want = set(labels.items())
    return sum(value for (series, pairs), value in deltas.items()
               if series == name and want <= set(pairs))


def counter_by_label(deltas: Dict[Series, float], name: str,
                     label: str) -> Dict[str, float]:
    """``name``'s deltas summed per value of one label."""
    out: Dict[str, float] = {}
    for (series, pairs), value in deltas.items():
        if series == name:
            key = dict(pairs).get(label, "")
            out[key] = out.get(key, 0.0) + value
    return out


# ---------------------------------------------------------------------- #
# Spans recorded by the benchmark's own wrappers
# ---------------------------------------------------------------------- #

def covered_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of half-open ``(start, end)`` intervals."""
    total = 0
    cur_start: Optional[int] = None
    cur_end = 0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Tuple[str, int, int, int]]
               ) -> Dict[str, Tuple[int, int]]:
    """``{name: (total_ns, self_ns)}`` over ``(name, start, end, parent)``
    spans, where ``parent`` indexes ``spans`` (-1 for a root).

    A span's self time is its duration minus the part of its interval
    that its direct children cover.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, Tuple[int, int]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        dur = end - start
        mine = covered_ns((max(s, start), min(e, end))
                          for s, e in children.get(index, ()) if e > start
                          and s < end)
        total, own = out.get(name, (0, 0))
        out[name] = (total + dur, own + dur - mine)
    return out


# ---------------------------------------------------------------------- #
# Trace events of one job (GET /trace/<id>)
# ---------------------------------------------------------------------- #

def _first(events: Sequence[dict], name: str) -> Optional[dict]:
    for event in events:
        if event.get("name") == name:
            return event
    return None


def _named(events: Sequence[dict], name: str) -> List[dict]:
    return [e for e in events if e.get("name") == name]


def queue_wait_ms(events: Sequence[dict]) -> Optional[float]:
    """``job.submit`` event to the start of the ``job.execute`` span."""
    submit = _first(events, "job.submit")
    execute = _first(events, "job.execute")
    if submit is None or execute is None:
        return None
    return (execute["wall"] - submit["wall"]) * 1e3


def execute_ms(events: Sequence[dict]) -> Optional[float]:
    """Duration of the ``job.execute`` span."""
    execute = _first(events, "job.execute")
    return None if execute is None else execute["dur_ns"] / 1e6


def publish_spread_ms(events: Sequence[dict]) -> Optional[float]:
    """First to last ``unit.publish`` of one job."""
    walls = [e["wall"] for e in _named(events, "unit.publish")]
    return (max(walls) - min(walls)) * 1e3 if walls else None


def claim_waits_ms(events: Sequence[dict]) -> List[float]:
    """Per unit: its ``unit.publish`` to its first ``unit.claim``."""
    published = {e["attrs"].get("unit"): e["wall"]
                 for e in _named(events, "unit.publish")}
    claimed: Dict[str, float] = {}
    for event in _named(events, "unit.claim"):
        unit = event["attrs"].get("unit")
        if unit in published:
            claimed[unit] = min(claimed.get(unit, math.inf), event["wall"])
    return [(claimed[u] - published[u]) * 1e3 for u in claimed]


def unit_execute_ms(events: Sequence[dict]) -> List[float]:
    """Every ``unit.execute`` span duration of one job."""
    return [e["dur_ns"] / 1e6 for e in _named(events, "unit.execute")]


def checkpoint_writes_ms(events: Sequence[dict]) -> List[float]:
    """The ``checkpoint_write_ns`` each ``unit.complete`` carries."""
    return [e["attrs"]["checkpoint_write_ns"] / 1e6
            for e in _named(events, "unit.complete")
            if "checkpoint_write_ns" in e.get("attrs", {})]


def notice_lag_ms(events: Sequence[dict]) -> Optional[float]:
    """Last ``unit.complete`` of a job to its ``job.settle``."""
    completes = [e["wall"] for e in _named(events, "unit.complete")]
    settle = _first(events, "job.settle")
    if not completes or settle is None:
        return None
    return (settle["wall"] - max(completes)) * 1e3


# ---------------------------------------------------------------------- #
# Closed-form checks of the campaign tallies
# ---------------------------------------------------------------------- #

def binomial_z(observed: float, trials: int, per_trial_n: float,
               prob: float) -> float:
    """z-score of a sum of ``trials`` Binomial(``per_trial_n``, ``prob``)
    draws."""
    mean = trials * per_trial_n * prob
    var = trials * per_trial_n * prob * (1.0 - prob)
    return (observed - mean) / math.sqrt(var)
