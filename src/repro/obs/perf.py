"""Longitudinal performance ledger, trend reports, regression gating.

The paper's claim is a throughput claim, and the repo's perf story so
far lives in point-in-time ``BENCH_*.json`` artifacts that each bench
run overwrites — the trajectory is unrecoverable and a silent 10x
regression would ship unnoticed. This module adds the time axis:

* **Ledger.** An append-only JSONL file of bench runs
  (``benchmarks/results/ledger.jsonl``, one record per run). Records
  carry provenance — git revision, host fingerprint, kernel tier,
  backend — so epochs are comparable across machines and commits::

      {"schema": 1, "bench", "source", "params", "kernel_tier",
       "backend", "git_rev", "host", "timestamp",
       "samples": [{"metric", "value"}, ...]}

  Torn tail lines (process killed mid-append) are skipped on read,
  same contract as the store's ``events/`` namespace.
* **Trend/compare.** Samples group by ``(bench, metric, kernel_tier)``;
  epochs group by ``git_rev``. :func:`compare` takes the ratio of
  medians in the *good* direction (``current/baseline`` for
  throughput-like metrics, inverted for latency-like ones), bootstraps
  a confidence interval over resampled medians, and flags a regression
  only when the CI's upper bound sits below ``1 - threshold`` — noise
  widens the interval and disarms the gate, a reproducible cliff does
  not. Rate metrics (``*_per_s``, ``speedup*``) gate by default;
  second-valued metrics are reported but not gated unless asked,
  because quick-params CI runs change the work per invocation while
  leaving rates comparable.
* **Jobs.** The per-phase nanoseconds on settled service job records
  feed the same bootstrap, normalised to seconds-per-trial and grouped
  by job kind and a digest of the job's shape, so ``repro perf jobs``
  flags e.g. the decode sweep drifting on production campaigns. The
  job records are the whole history: nothing else is written for it.

Everything here is stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

SCHEMA_VERSION = 1

#: Default ledger / baseline locations, relative to the repo root.
DEFAULT_LEDGER = os.path.join("benchmarks", "results", "ledger.jsonl")
DEFAULT_BASELINE = os.path.join("benchmarks", "results", "baseline.json")

#: Epoch label for ingested pre-ledger artifacts with no recorded rev.
SEED_EPOCH = "seed"

#: Numeric payload keys that are inputs (geometry, workload size),
#: not measurements. Strings, booleans, and ``required_*``/``max_*``
#: gate constants are classified as params structurally.
PARAM_KEYS = frozenset({
    "n", "m", "B", "trials", "rounds", "seed", "probability",
    "burst_length", "refresh_hours", "window_hours", "batch_size",
    "jobs", "trials_per_job", "shard_trials", "workers", "cpu_count",
})

_PROVENANCE_KEYS = frozenset({
    "bench", "machine", "host", "kernels", "backend", "git_rev",
    "timestamp", "kernel_tier",
})


def host_fingerprint() -> Dict[str, object]:
    """Where a sample was taken: platform, cpu count, interpreter."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Short HEAD revision, or ``None`` outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=repr)


def params_digest(params: Dict[str, object]) -> str:
    """Stable short digest of a param dict (job-shape grouping key)."""
    return hashlib.sha256(_canonical(params).encode()).hexdigest()[:10]


def record_digest(record: dict) -> str:
    """Content digest minus the timestamp — the ingest dedupe key.

    Re-running ``repro perf ingest`` over a re-checked-out tree (new
    file mtimes, identical content) must be a no-op.
    """
    scrubbed = {k: v for k, v in record.items() if k != "timestamp"}
    return hashlib.sha256(_canonical(scrubbed).encode()).hexdigest()


def metric_direction(metric: str) -> Optional[str]:
    """``"higher"`` / ``"lower"`` is better, or ``None`` (don't trend).

    Gate constants (``required_*``, ``max_*``), overheads, and
    fractions are excluded: their baselines sit near zero where a
    ratio of medians amplifies noise into false regressions.
    """
    name = metric.lower()
    if ("required" in name or "overhead" in name or "fraction" in name
            or "max_" in name or name.endswith("_x")):
        return None
    if "per_s" in name or "speedup" in name or name.endswith("_rate"):
        return "higher"
    if (name.endswith("_s") or name.endswith("_ns")
            or "seconds" in name or "_s_per_" in name):
        return "lower"
    return None


def _flatten_numeric(prefix: str, value, out: Dict[str, float]) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key in sorted(value):
            _flatten_numeric(f"{prefix}.{key}", value[key], out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten_numeric(f"{prefix}.{i}", item, out)


def samples_from_payload(payload: dict
                         ) -> Tuple[Dict[str, object], List[dict]]:
    """Split a ``BENCH_*.json``-shaped payload into params + samples.

    Numeric leaves become metric samples (nested dicts/lists flatten
    to dotted names, e.g. ``tiers.native.trials_per_s``); strings,
    booleans, known workload keys, and gate constants become params.
    """
    params: Dict[str, object] = {}
    metrics: Dict[str, float] = {}
    for key, value in payload.items():
        if key in _PROVENANCE_KEYS:
            continue
        if (isinstance(value, (str, bool)) or key in PARAM_KEYS
                or key.startswith("required_") or key.startswith("max_")):
            params[key] = value
        elif isinstance(value, (int, float)):
            metrics[key] = float(value)
        elif isinstance(value, (dict, list)):
            _flatten_numeric(key, value, metrics)
    samples = [{"metric": name, "value": metrics[name]}
               for name in sorted(metrics)]
    return params, samples


def bench_record(bench: str, payload: dict, *,
                 kernel_tier: Optional[str] = None,
                 backend: Optional[str] = None,
                 git_rev: Optional[str] = None,
                 host: Optional[dict] = None,
                 timestamp: Optional[float] = None,
                 source: str = "bench") -> dict:
    """Build a schema-v1 ledger record from a bench payload."""
    params, samples = samples_from_payload(payload)
    return {
        "schema": SCHEMA_VERSION,
        "bench": bench,
        "source": source,
        "params": params,
        "kernel_tier": kernel_tier or payload.get("kernels"),
        "backend": backend or payload.get("backend"),
        "git_rev": git_rev or payload.get("git_rev"),
        "host": host if host is not None else host_fingerprint(),
        "timestamp": time.time() if timestamp is None else timestamp,
        "samples": samples,
    }


# --------------------------------------------------------------------
# Ledger IO


def encode_record(record: dict) -> str:
    return _canonical(record) + "\n"


def append_record(path: str, record: dict) -> None:
    """Append one record; creates the parent directory on first use."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(encode_record(record))


def read_ledger(path: str) -> List[dict]:
    """All readable records; torn/corrupt lines are skipped, same as
    the trace plane's event namespace."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        return []
    records: List[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("samples"):
            records.append(record)
    return records


def ingest_results(results_dir: str, ledger_path: str) -> dict:
    """Backfill committed ``BENCH_*.json`` files as the seed epoch.

    Idempotent: records already in the ledger (by content digest,
    timestamps excluded) are skipped, so re-running after a fresh
    checkout adds nothing.
    """
    seen = {record_digest(r) for r in read_ledger(ledger_path)}
    added, skipped, files = 0, 0, []
    try:
        names = sorted(os.listdir(results_dir))
    except OSError:
        names = []
    for name in names:
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(results_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            continue
        if not isinstance(payload, dict):
            continue
        bench = payload.get("bench") or name[len("BENCH_"):-len(".json")]
        record = bench_record(
            bench, payload,
            git_rev=payload.get("git_rev") or SEED_EPOCH,
            host=payload.get("host") or payload.get("machine") or {},
            timestamp=os.path.getmtime(path),
            source="ingest")
        digest = record_digest(record)
        if digest in seen:
            skipped += 1
            continue
        append_record(ledger_path, record)
        seen.add(digest)
        added += 1
        files.append(name)
    return {"added": added, "skipped": skipped, "files": files,
            "ledger": ledger_path}


# --------------------------------------------------------------------
# Aggregation


def series_key(record: dict, metric: str) -> Tuple[str, str, str]:
    return (str(record.get("bench")), metric,
            str(record.get("kernel_tier") or "-"))


def collect_series(records: Iterable[dict]
                   ) -> Dict[Tuple[str, str, str], List[float]]:
    """``{(bench, metric, tier): [values...]}`` over trendable metrics."""
    series: Dict[Tuple[str, str, str], List[float]] = {}
    for record in records:
        for sample in record.get("samples", ()):
            metric = sample.get("metric")
            value = sample.get("value")
            if not metric or not isinstance(value, (int, float)):
                continue
            if metric_direction(metric) is None:
                continue
            series.setdefault(series_key(record, metric),
                              []).append(float(value))
    return series


def _rev_of(record: dict) -> str:
    return str(record.get("git_rev") or "unknown")


def epochs_by_rev(records: Iterable[dict]) -> List[Tuple[str, List[dict]]]:
    """Records grouped by git revision, ordered by first timestamp."""
    groups: Dict[str, List[dict]] = {}
    for record in records:
        groups.setdefault(_rev_of(record), []).append(record)
    return sorted(groups.items(),
                  key=lambda item: min(r.get("timestamp") or 0
                                       for r in item[1]))


def latest_rev(records: Sequence[dict]) -> Optional[str]:
    """Revision of the newest record by timestamp."""
    if not records:
        return None
    newest = max(records, key=lambda r: r.get("timestamp") or 0)
    return _rev_of(newest)


def records_for_rev(records: Iterable[dict], rev: str) -> List[dict]:
    """Records whose revision matches ``rev`` exactly or by prefix."""
    exact = [r for r in records if _rev_of(r) == rev]
    if exact:
        return exact
    return [r for r in records if _rev_of(r).startswith(rev)]


# --------------------------------------------------------------------
# Trend report


def trend_report(records: Sequence[dict],
                 benches: Optional[Sequence[str]] = None) -> dict:
    """Per-(bench, metric, tier) medians across revision epochs."""
    if benches:
        wanted = set(benches)
        records = [r for r in records if r.get("bench") in wanted]
    epochs = epochs_by_rev(records)
    order = [rev for rev, _ in epochs]
    per_epoch = {rev: collect_series(group) for rev, group in epochs}
    keys = sorted({key for series in per_epoch.values()
                   for key in series})
    rows = []
    for key in keys:
        bench, metric, tier = key
        medians = {rev: statistics.median(per_epoch[rev][key])
                   for rev in order if key in per_epoch[rev]}
        revs = list(medians)
        first, last = medians[revs[0]], medians[revs[-1]]
        direction = metric_direction(metric)
        if first > 0:
            change = (last / first - 1.0) * 100.0
            if direction == "lower":
                change = -change
        else:
            change = 0.0
        rows.append({"bench": bench, "metric": metric,
                     "kernel_tier": tier, "direction": direction,
                     "epochs": len(revs), "first_rev": revs[0],
                     "last_rev": revs[-1], "first": first,
                     "last": last, "change_pct": change,
                     "medians": medians})
    return {"revisions": order, "rows": rows,
            "records": len(records)}


def format_table(rows: Sequence[Sequence[str]],
                 headers: Sequence[str]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out += [line(row) for row in rows]
    return "\n".join(out)


def render_trend(report: dict) -> str:
    if not report["rows"]:
        return "ledger is empty — run `repro perf ingest` or a bench"
    rows = []
    for row in report["rows"]:
        rows.append([
            row["bench"], row["metric"], row["kernel_tier"],
            str(row["epochs"]),
            f"{row['first']:.6g}", f"{row['last']:.6g}",
            f"{row['change_pct']:+.1f}%",
        ])
    table = format_table(rows, ["bench", "metric", "tier", "epochs",
                                "first", "last", "change"])
    revs = " -> ".join(report["revisions"])
    return (f"{table}\n\nepochs (oldest -> newest): {revs}\n"
            f"records: {report['records']} "
            "(change is in the metric's good direction)")


# --------------------------------------------------------------------
# Regression compare


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def bootstrap_ratio(baseline: Sequence[float], current: Sequence[float],
                    direction: str, n_boot: int = 400,
                    seed: int = 7) -> Tuple[float, float, float]:
    """``(ratio, ci_lo, ci_hi)`` of medians in the good direction.

    Ratio > 1 means current is better; < 1 worse. The 95% interval
    comes from bootstrap-resampled medians on both sides with a seeded
    PRNG so the gate is deterministic. Single-sample sides degenerate
    to a zero-width interval — the point ratio gates alone.
    """
    def ratio_of(base_med: float, cur_med: float) -> float:
        if base_med <= 0 or cur_med <= 0:
            return 1.0
        return (cur_med / base_med if direction == "higher"
                else base_med / cur_med)

    point = ratio_of(statistics.median(baseline),
                     statistics.median(current))
    if len(baseline) == 1 and len(current) == 1:
        return point, point, point
    rng = random.Random(seed)
    ratios = []
    for _ in range(n_boot):
        base = [rng.choice(baseline) for _ in baseline]
        cur = [rng.choice(current) for _ in current]
        ratios.append(ratio_of(statistics.median(base),
                               statistics.median(cur)))
    ratios.sort()
    return point, _quantile(ratios, 0.025), _quantile(ratios, 0.975)


def compare(baseline: Dict[Tuple[str, str, str], List[float]],
            current: Dict[Tuple[str, str, str], List[float]],
            threshold: float = 0.2, n_boot: int = 400, seed: int = 7,
            gate_directions: Sequence[str] = ("higher",)) -> dict:
    """Compare two series maps; flag regressions past ``threshold``.

    A key regresses when the bootstrap CI's *upper* bound on the
    good-direction ratio sits below ``1 - threshold`` — i.e. we are
    confident the loss exceeds the threshold, not merely unlucky.
    Keys present on only one side are reported as uncompared, never
    silently dropped.
    """
    gate = set(gate_directions)
    rows, uncompared = [], []
    for key in sorted(set(baseline) | set(current)):
        if key not in baseline or key not in current:
            uncompared.append({"bench": key[0], "metric": key[1],
                               "kernel_tier": key[2],
                               "side": ("current" if key in current
                                        else "baseline")})
            continue
        bench, metric, tier = key
        direction = metric_direction(metric)
        if direction is None:
            continue
        base, cur = baseline[key], current[key]
        if min(base) <= 0 or min(cur) <= 0:
            continue
        ratio, lo, hi = bootstrap_ratio(base, cur, direction,
                                        n_boot=n_boot, seed=seed)
        gated = direction in gate
        rows.append({
            "bench": bench, "metric": metric, "kernel_tier": tier,
            "direction": direction, "gated": gated,
            "baseline_median": statistics.median(base),
            "current_median": statistics.median(cur),
            "ratio": ratio, "ci_lo": lo, "ci_hi": hi,
            "regressed": bool(gated and hi < 1.0 - threshold),
        })
    regressions = [r for r in rows if r["regressed"]]
    return {"threshold": threshold, "rows": rows,
            "regressions": regressions, "uncompared": uncompared,
            "ok": not regressions}


def render_compare(report: dict) -> str:
    if not report["rows"]:
        return ("nothing to compare — no (bench, metric, tier) series "
                "present on both sides")
    rows = []
    for row in report["rows"]:
        flag = "REGRESSED" if row["regressed"] else (
            "" if row["gated"] else "info")
        rows.append([
            row["bench"], row["metric"], row["kernel_tier"],
            f"{row['baseline_median']:.6g}",
            f"{row['current_median']:.6g}",
            f"{row['ratio']:.3f}",
            f"[{row['ci_lo']:.3f}, {row['ci_hi']:.3f}]", flag,
        ])
    table = format_table(rows, ["bench", "metric", "tier", "baseline",
                                "current", "ratio", "ci95", ""])
    lines = [table, "",
             f"gate: ratio CI upper bound < {1 - report['threshold']:.2f}"
             " fails (ratio > 1 is better)"]
    if report["uncompared"]:
        lines.append(f"uncompared series (one side only): "
                     f"{len(report['uncompared'])}")
    n = len(report["regressions"])
    lines.append("PASS: no gated regressions" if report["ok"]
                 else f"FAIL: {n} regression(s)")
    return "\n".join(lines)


# --------------------------------------------------------------------
# Baseline snapshots


def baseline_from_records(records: Sequence[dict],
                          rev: Optional[str] = None) -> dict:
    """Committable snapshot of a revision's series (values + median)."""
    rev = rev or latest_rev(records)
    chosen = records_for_rev(records, rev) if rev else list(records)
    series = collect_series(chosen)
    return {
        "schema": SCHEMA_VERSION,
        "git_rev": rev,
        "created": time.time(),
        "series": [{"bench": k[0], "metric": k[1], "kernel_tier": k[2],
                    "median": statistics.median(v), "values": v}
                   for k, v in sorted(series.items())],
    }


def write_baseline(path: str, baseline: dict) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_baseline(path: str) -> Dict[Tuple[str, str, str], List[float]]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    series: Dict[Tuple[str, str, str], List[float]] = {}
    for entry in payload.get("series", ()):
        key = (str(entry["bench"]), str(entry["metric"]),
               str(entry.get("kernel_tier") or "-"))
        values = [float(v) for v in entry.get("values")
                  or [entry["median"]]]
        series[key] = values
    return series


# --------------------------------------------------------------------
# Job-phase drift

#: Spec fields that vary between runs of one job shape.
_RUN_FIELDS = ("trials", "seed", "entropy")

#: Most earlier runs of a shape :func:`jobs_report` compares the newest
#: against: the newest ones. It bounds the bootstrap's cost however long
#: the history grows.
JOBS_WINDOW = 64


def job_shape(record: dict) -> Tuple[str, str]:
    """``(job.<kind>, digest)`` of a job record's spec minus the
    fields that vary between runs of one shape."""
    shape = {k: v for k, v in record["spec"].items()
             if k not in _RUN_FIELDS}
    return f"job.{record.get('kind')}", params_digest(shape)


def job_phase_samples(record: dict) -> Dict[str, float]:
    """A job record's phases as ``{metric: seconds per trial}``, plus
    their total, so runs of one shape but different sizes compare."""
    per = max(int(record["spec"].get("trials") or 0), 1)
    phases = record["phases"]
    samples = {f"phase.{name}_s_per_trial": int(ns) / 1e9 / per
               for name, ns in phases.items()}
    samples["phase.total_s_per_trial"] = \
        sum(int(ns) for ns in phases.values()) / 1e9 / per
    return samples


def jobs_report(job_records: Iterable[dict], threshold: float = 0.5,
                n_boot: int = 200, seed: int = 7) -> dict:
    """Flag per-phase drift on settled service jobs.

    ``job_records`` are persisted job records (the store's ``jobs/``);
    the settled, non-cached ones with a phase profile are the runs.
    Within each ``(kind, shape)`` the newest run, by ``finished_at``,
    is compared against the :data:`JOBS_WINDOW` runs before it, and
    ``runs`` counts the runs compared; phase seconds-per-trial are
    lower-better, and a phase drifts when the bootstrap CI's upper
    bound on the ratio sits below ``1 - threshold``. ``threshold`` is
    generous by default — phase timings on shared hosts are noisy, and
    the gate exists to catch e.g. a phase regressing by half, not
    scheduler jitter.
    """
    shapes: Dict[Tuple[str, str], List[dict]] = {}
    runs = 0
    for record in job_records:
        if record.get("state") != "done" or record.get("cached") \
                or not record.get("phases") \
                or not isinstance(record.get("spec"), dict):
            continue
        runs += 1
        shapes.setdefault(job_shape(record), []).append(record)
    rows, drifted = [], []
    groups = 0
    for (bench, group), history in sorted(shapes.items()):
        if len(history) < 2:
            continue
        groups += 1
        history.sort(key=lambda r: r.get("finished_at") or 0)
        history = history[-(JOBS_WINDOW + 1):]
        samples = [job_phase_samples(r) for r in history]
        newest = samples.pop()
        for metric in sorted(newest):
            base = [s[metric] for s in samples if metric in s]
            current = newest[metric]
            if not base or min(base) <= 0 or current <= 0:
                continue
            ratio, lo, hi = bootstrap_ratio(base, [current], "lower",
                                            n_boot=n_boot, seed=seed)
            row = {"bench": bench, "group": group, "metric": metric,
                   "runs": len(history),
                   "baseline_median": statistics.median(base),
                   "current_median": current,
                   "ratio": ratio, "ci_lo": lo, "ci_hi": hi,
                   "regressed": hi < 1.0 - threshold}
            rows.append(row)
            if row["regressed"]:
                drifted.append(row)
    return {"threshold": threshold, "groups": groups, "rows": rows,
            "drift": drifted, "records": runs, "ok": not drifted}


def render_jobs(report: dict) -> str:
    if not report["rows"]:
        return (f"no comparable job history yet "
                f"({report['records']} settled job run(s); a shape "
                "needs at least two)")
    rows = []
    for row in report["rows"]:
        rows.append([
            row["bench"], row["group"], row["metric"], str(row["runs"]),
            f"{row['baseline_median']:.3e}",
            f"{row['current_median']:.3e}",
            f"{row['ratio']:.3f}",
            "DRIFT" if row["regressed"] else "",
        ])
    table = format_table(rows, ["job", "shape", "metric", "runs",
                                "hist s/trial", "last s/trial",
                                "ratio", ""])
    n = len(report["drift"])
    verdict = ("no phase drift past threshold" if report["ok"]
               else f"{n} phase(s) drifted past threshold")
    return (f"{table}\n\nthreshold: {report['threshold']:.2f} "
            f"(ratio > 1 is better) — {verdict}")
