"""Process-local metrics registry with Prometheus text rendering.

Design goals, in priority order:

1. **Near-zero cost when observability is disabled.** Every mutation
   checks one module-level boolean first; a disabled ``inc()`` is a
   function call, a flag read, and a return. ``REPRO_OBS=off`` (or
   ``0``/``false``/``no``) disables at import; :func:`set_enabled`
   flips it at runtime (the overhead benchmark uses this to measure
   the instrumented-vs-stripped delta).
2. **Thread-safe.** The scheduler's executor threads, worker
   heartbeats, and the broker all mutate metrics concurrently; each
   metric guards its children with one lock. There is no cross-process
   aggregation — the registry is process-local by design, and the
   service's ``/metrics`` endpoint complements it with point-in-time
   gauges sampled from shared state (broker counts, store quarantine).
3. **Get-or-create registration.** Modules declare their metrics at
   import time (``_CLAIMS = counter("repro_broker_claims_total", ...)``);
   re-declaring the same name with the same type returns the same
   instance, so instrumentation sites never race over registration
   order. Re-declaring with a *different* type or label set raises.

Rendering follows the Prometheus text exposition format, version
0.0.4: ``# HELP``/``# TYPE`` headers, label values escaped, histogram
``_bucket`` samples cumulative with a ``+Inf`` terminal bucket.
"""

from __future__ import annotations

import bisect
import math
import os
import re
import threading
from typing import Dict, Iterable, List, Optional, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Default histogram buckets, in seconds: spans poll sleeps (~ms) up to
# long campaign jobs (~minutes). Fixed boundaries keep scrapes
# comparable across processes and runs.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
                   10.0, 30.0, 60.0, 300.0)

_enabled = os.environ.get("REPRO_OBS", "on").strip().lower() not in (
    "0", "off", "false", "no")


def is_enabled() -> bool:
    """True when metric mutations and span emission are live."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Set the global observability switch; returns the previous value.

    Disabling does not clear accumulated values — it only stops new
    mutations — so a scrape after ``set_enabled(False)`` still renders
    everything recorded while enabled.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _sample_line(name: str, label_names: Tuple[str, ...],
                 label_values: Tuple[str, ...], value) -> str:
    if label_names:
        labels = ",".join(
            f'{k}="{_escape_label_value(str(v))}"'
            for k, v in zip(label_names, label_values))
        return f"{name}{{{labels}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class _Metric:
    """Shared bookkeeping: name/help/labels plus a child-value lock."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Tuple[str, ...]) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def reset(self) -> None:
        """Drop all recorded children (test/bench isolation hook)."""
        with self._lock:
            self._children.clear()

    def _add(self, key: Tuple[str, ...], amount: float) -> None:
        with self._lock:
            self._children[key] = self._children.get(key, 0) + amount

    def labels(self, **labels: str) -> "BoundMetric":
        """This metric with its labels checked and resolved once.

        The hot-path form: the returned handle's ``inc`` / ``observe``
        skip the per-call label check and record into the same child
        as the labelled call would.
        """
        return BoundMetric(self, self._key(labels))

    def samples(self) -> List[str]:  # pragma: no cover - interface
        raise NotImplementedError


class BoundMetric:
    """One label set of a metric (see :meth:`_Metric.labels`)."""

    __slots__ = ("metric", "key")

    def __init__(self, metric: _Metric, key: Tuple[str, ...]) -> None:
        self.metric = metric
        self.key = key

    def inc(self, amount: float = 1) -> None:
        if _enabled:
            self.metric._add(self.key, amount)

    def observe(self, value: float) -> None:
        if _enabled:
            self.metric._observe(self.key, value)


class Counter(_Metric):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        if not _enabled:
            return
        self._add(self._key(labels), amount)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._children.get(self._key(labels), 0)

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._children.values())

    def samples(self) -> List[str]:
        with self._lock:
            items = sorted(self._children.items())
        return [_sample_line(self.name, self.labelnames, key, value)
                for key, value in items]


class Gauge(_Metric):
    """Last-write-wins value, settable from any thread."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        if not _enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._children[key] = value

    def inc(self, amount: float = 1, **labels: str) -> None:
        if not _enabled:
            return
        self._add(self._key(labels), amount)

    def dec(self, amount: float = 1, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._children.get(self._key(labels), 0)

    def samples(self) -> List[str]:
        with self._lock:
            items = sorted(self._children.items())
        return [_sample_line(self.name, self.labelnames, key, value)
                for key, value in items]


class Histogram(_Metric):
    """Fixed-bucket histogram (cumulative buckets + sum + count)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labelnames: Tuple[str, ...],
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels: str) -> None:
        if not _enabled:
            return
        self._observe(self._key(labels), value)

    def _observe(self, key: Tuple[str, ...], value: float) -> None:
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = {"counts": [0] * (len(self.buckets) + 1),
                         "sum": 0.0, "count": 0}
                self._children[key] = child
            child["counts"][bisect.bisect_left(self.buckets, value)] += 1
            child["sum"] += value
            child["count"] += 1

    def child(self, **labels: str) -> Optional[dict]:
        with self._lock:
            found = self._children.get(self._key(labels))
            return dict(found) if found else None

    def samples(self) -> List[str]:
        with self._lock:
            items = sorted((k, dict(v)) for k, v in self._children.items())
        lines: List[str] = []
        for key, child in items:
            cumulative = 0
            for bound, count in zip(self.buckets, child["counts"]):
                cumulative += count
                lines.append(_sample_line(
                    f"{self.name}_bucket", self.labelnames + ("le",),
                    key + (_format_value(bound),), cumulative))
            cumulative += child["counts"][-1]
            lines.append(_sample_line(
                f"{self.name}_bucket", self.labelnames + ("le",),
                key + ("+Inf",), cumulative))
            lines.append(_sample_line(
                f"{self.name}_sum", self.labelnames, key, child["sum"]))
            lines.append(_sample_line(
                f"{self.name}_count", self.labelnames, key,
                child["count"]))
        return lines


class MetricsRegistry:
    """Name → metric map with get-or-create registration."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help_text: str,
                       labelnames: Tuple[str, ...], **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (type(existing) is not cls
                        or existing.labelnames != tuple(labelnames)):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{existing.labelnames}")
                return existing
            metric = cls(name, help_text, tuple(labelnames), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text,
                                   tuple(labelnames))

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text,
                                   tuple(labelnames))

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help_text,
                                   tuple(labelnames), buckets=buckets)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[name]
                    for name in sorted(self._metrics)]

    def render(self) -> str:
        """Prometheus text exposition (version 0.0.4) of everything."""
        lines: List[str] = []
        for metric in self.metrics():
            samples = metric.samples()
            if not samples:
                continue
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(samples)
        return "\n".join(lines) + "\n" if lines else ""

    def counter_totals(self) -> Dict[str, float]:
        """``{counter name: label-summed total}`` for quick snapshots.

        This is the compact block ``GET /health`` embeds as
        ``metrics_snapshot`` — counters only, summed across labels, so
        the payload stays small and stable as label cardinality grows.
        """
        totals: Dict[str, float] = {}
        for metric in self.metrics():
            if isinstance(metric, Counter):
                value = metric.total()
                if value:
                    totals[metric.name] = value
        return totals

    def reset(self) -> None:
        """Zero every metric in place (instances stay registered)."""
        for metric in self.metrics():
            metric.reset()


#: The process-wide default registry; module-level helpers below bind
#: to it, and ``GET /metrics`` / ``repro metrics`` render it.
REGISTRY = MetricsRegistry()


def counter(name: str, help_text: str = "",
            labelnames: Iterable[str] = ()) -> Counter:
    return REGISTRY.counter(name, help_text, labelnames)


def gauge(name: str, help_text: str = "",
          labelnames: Iterable[str] = ()) -> Gauge:
    return REGISTRY.gauge(name, help_text, labelnames)


def histogram(name: str, help_text: str = "",
              labelnames: Iterable[str] = (),
              buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
    return REGISTRY.histogram(name, help_text, labelnames, buckets)


def render_prometheus() -> str:
    return REGISTRY.render()


def estimate_quantiles(bounds: Iterable[float],
                       counts: Iterable[int],
                       quantiles: Iterable[float]) -> Dict[float, float]:
    """Estimate quantiles from per-bucket histogram counts.

    ``counts`` has one entry per finite bound plus a terminal overflow
    bucket (``len(bounds) + 1`` entries, *not* cumulative). Values are
    interpolated linearly inside the winning bucket, the way Prometheus'
    ``histogram_quantile`` does; the overflow bucket has no upper edge,
    so estimates there clamp to the largest finite bound. Returns
    ``{quantile: estimate}``; empty histograms yield an empty dict.
    """
    bounds = [float(b) for b in bounds]
    counts = [int(c) for c in counts]
    total = sum(counts)
    if total <= 0:
        return {}
    out: Dict[float, float] = {}
    for q in quantiles:
        target = max(0.0, min(1.0, float(q))) * total
        cumulative = 0
        estimate = bounds[-1] if bounds else 0.0
        for i, count in enumerate(counts):
            if count == 0:
                continue
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i] if i < len(bounds) else bounds[-1]
            if cumulative + count >= target:
                fraction = (target - cumulative) / count
                estimate = lower + fraction * max(0.0, upper - lower)
                break
            cumulative += count
        out[float(q)] = estimate
    return out


_BUCKET_RE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)_"
                        r"(?P<sample>bucket|sum|count)"
                        r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$")
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)='
                            r'"((?:[^"\\]|\\.)*)"')


def parse_prometheus_histograms(text: str) -> Dict[Tuple[str, Tuple],
                                                   dict]:
    """Parse histogram series out of Prometheus text exposition.

    Returns ``{(name, labels): {"bounds", "counts", "sum", "count"}}``
    where ``labels`` is a sorted tuple of ``(key, value)`` pairs minus
    ``le`` and ``counts`` is per-bucket (de-cumulated), matching what
    :func:`estimate_quantiles` expects. Non-histogram samples and
    malformed lines are ignored — this is a display helper, not a full
    exposition parser.
    """
    series: Dict[Tuple[str, Tuple], dict] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _BUCKET_RE.match(line)
        if not match:
            continue
        labels = dict(_LABEL_PAIR_RE.findall(match.group("labels") or ""))
        le = labels.pop("le", None)
        key = (match.group("name"),
               tuple(sorted(labels.items())))
        try:
            value = float(match.group("value").replace("+Inf", "inf"))
        except ValueError:
            continue
        entry = series.setdefault(key, {"cumulative": [], "sum": None,
                                        "count": None})
        sample = match.group("sample")
        if sample == "bucket":
            if le is None:
                continue
            bound = math.inf if le == "+Inf" else float(le)
            entry["cumulative"].append((bound, value))
        elif sample == "sum":
            entry["sum"] = value
        elif sample == "count":
            entry["count"] = value
    out: Dict[Tuple[str, Tuple], dict] = {}
    for key, entry in series.items():
        cumulative = sorted(entry["cumulative"])
        if not cumulative or entry["count"] is None:
            continue
        bounds = [b for b, _ in cumulative if b != math.inf]
        counts, previous = [], 0.0
        for _, running in cumulative:
            counts.append(max(0, int(running - previous)))
            previous = running
        if len(counts) == len(bounds):  # no explicit +Inf bucket
            counts.append(max(0, int(entry["count"] - previous)))
        out[key] = {"bounds": bounds, "counts": counts,
                    "sum": entry["sum"] or 0.0,
                    "count": int(entry["count"])}
    return out


def render_histogram_summary(text: str,
                             quantiles=(0.5, 0.95, 0.99)) -> str:
    """Human-readable p50/p95/p99 lines for every histogram in ``text``.

    ``repro metrics`` appends this under the raw exposition so a human
    gets latency percentiles without mentally integrating cumulative
    bucket counts. Returns ``""`` when the exposition holds no
    populated histograms.
    """
    lines: List[str] = []
    for (name, labels), hist in sorted(
            parse_prometheus_histograms(text).items()):
        if hist["count"] <= 0:
            continue
        estimates = estimate_quantiles(hist["bounds"], hist["counts"],
                                       quantiles)
        label_text = ("{" + ",".join(f'{k}="{v}"' for k, v in labels)
                      + "}") if labels else ""
        mean = hist["sum"] / hist["count"]
        parts = [f"count={hist['count']}", f"mean={mean:.4g}"]
        parts += [f"p{int(q * 100)}={estimates[q]:.4g}"
                  for q in quantiles if q in estimates]
        lines.append(f"{name}{label_text}: " + " ".join(parts))
    return "\n".join(lines)
