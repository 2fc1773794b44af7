"""Content-addressed persistent result store with shard checkpoints.

Layout under the store root (all files are JSON, written atomically via
a temp file + ``os.replace`` so a killed service never leaves a torn
record)::

    results/<key>.json            completed job record
    shards/<key>/<lo>-<hi>.json   checkpointed span of a running job
    jobs/<job_id>.json            persisted scheduler JobRecord
    events/<job_id>.jsonl         append-only trace events (telemetry)
    quarantine/<namespace>/...    corrupt records pulled out of the way

Every record carries a content digest (the ``integrity`` field: the
SHA-256 of its canonical JSON), stamped on write and verified on read.
A record that fails the check — bit-rot, a torn write that somehow
produced parseable-but-wrong bytes, a bad sector — is *quarantined*:
moved to ``quarantine/<namespace>/`` with a ``.reason`` sidecar and
read as missing, so the caller's resume machinery regenerates it
instead of crashing or silently consuming corruption. Records written
before the integrity layer (no stamp) are accepted as legacy.
:meth:`verify` (the ``repro store verify`` subcommand) sweeps the
whole store eagerly and reports per-namespace ok/legacy/corrupt
counts.

``<key>`` is :meth:`repro.service.spec.JobSpec.cache_key` — the SHA-256
of the normalized spec's canonical JSON — so the store *is* the dedupe
index: a resubmitted identical ``(spec, entropy)`` hits ``results/``
and is served without re-execution, and a restarted service finds the
completed spans of an interrupted campaign under ``shards/`` and only
executes the gaps. Both are sound because the per-trial seeding
contract makes every span's tallies a pure function of the key and the
span bounds (see the service-sharded execution contract in
:mod:`repro.faults.batch`).

``jobs/`` holds the scheduler's live job records so job *ids* — not
just results — survive a service restart: a restarted
:class:`repro.service.scheduler.CampaignService` reloads them, answers
``status`` queries for pre-restart ids, and re-enqueues the ones that
never reached a terminal state. They are the only durable record of a
job, and the settled ones are also the history that
:func:`repro.obs.perf.jobs_report` compares phase timings against.

``events/`` is the observability plane's namespace: one append-only
JSONL file per trace (= per job id) accumulating span/event records
from every process that touches the job (see :mod:`repro.obs.trace`).
Events are *telemetry, not state* — they carry no integrity stamp, the
verify sweep skips them, a torn tail line is silently dropped on read,
and nothing in resume or dedupe ever depends on them. Appends use
``O_APPEND`` semantics so the scheduler and several workers can
interleave batches into one timeline without coordination.

The store grows without bound by default (content-addressed records
are never invalidated); long-lived deployments run :meth:`gc` — the
``repro store gc`` subcommand — with a max-age and/or max-bytes policy
plus an orphan-shard sweep for checkpoint directories a crash left
behind after their final record was already written.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.faults.campaign import CampaignResult
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger
from repro.obs.trace import decode_event_lines, encode_event_lines
from repro.service.spec import result_from_dict, result_to_dict
from repro.utils.canonical import canonical_json

_SHARD_FILE = re.compile(r"^(\d+)-(\d+)\.json$")

_LOG = get_logger("store")

_STORE_OPS = obs_metrics.counter(
    "repro_store_ops_total", "Store operations by kind and namespace.",
    ("op", "namespace"))
_STORE_QUARANTINES = obs_metrics.counter(
    "repro_store_quarantines_total",
    "Records pulled into quarantine, by namespace.", ("namespace",))

#: Top-level field carrying each record's content digest. Stamped on
#: every write, verified on every read; records written before the
#: integrity layer existed simply lack it and are accepted as legacy.
INTEGRITY_KEY = "integrity"

#: Store namespaces the integrity sweep covers and gc's byte budget
#: counts (subdirectory names).
NAMESPACES = ("results", "shards", "jobs")

#: Path components the store will embed in filenames. Keys are SHA-256
#: hex in practice, but the HTTP worker surface forwards caller-supplied
#: strings here, so anything that could traverse (separators, leading
#: dots, empty) is rejected at the boundary.
_SAFE_COMPONENT = re.compile(r"^[A-Za-z0-9_-][A-Za-z0-9._-]*$")


def _checked_component(value: str, what: str) -> str:
    """``value`` if it is a safe single path component, else ValueError."""
    if not isinstance(value, str) or not _SAFE_COMPONENT.match(value):
        raise ValueError(f"invalid {what} {value!r}: must be a single "
                         f"path component (letters, digits, '._-', no "
                         f"leading dot)")
    return value


def _payload_digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON of ``payload`` minus its stamp."""
    body = {k: v for k, v in payload.items() if k != INTEGRITY_KEY}
    return hashlib.sha256(
        canonical_json(body).encode("utf-8")).hexdigest()


def _stamped(payload: dict) -> dict:
    """``payload`` with its integrity stamp (a shallow copy)."""
    out = dict(payload)
    out[INTEGRITY_KEY] = {"algo": "sha256",
                          "digest": _payload_digest(payload)}
    return out


def _integrity_error(payload) -> Optional[str]:
    """Why ``payload`` fails verification, or ``None`` when it passes.

    A record without a stamp is *legacy*, not corrupt — the store
    predates the integrity layer for some deployments — so absence
    passes; a present-but-wrong stamp is the corruption signal.
    """
    if not isinstance(payload, dict):
        return "record is not a JSON object"
    stamp = payload.get(INTEGRITY_KEY)
    if stamp is None:
        return None
    if not isinstance(stamp, dict) or "digest" not in stamp:
        return "malformed integrity stamp"
    try:
        actual = _payload_digest(payload)
    except (TypeError, ValueError):
        return "record is not canonically hashable"
    if stamp["digest"] != actual:
        return (f"digest mismatch: stamped {stamp['digest'][:12]}..., "
                f"content hashes to {actual[:12]}...")
    return None


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write stamped JSON so readers see the old file or the new one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(_stamped(payload), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """Filesystem-backed content-addressed store (see module docstring).

    The store is safe to share between a service and ad-hoc readers:
    records are immutable once written (same key -> same content by
    construction, so an overwrite race is harmless).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.shards_dir = self.root / "shards"
        self.jobs_dir = self.root / "jobs"
        self.events_dir = self.root / "events"
        self.quarantine_dir = self.root / "quarantine"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.events_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Integrity: checked reads + quarantine
    # ------------------------------------------------------------------ #

    def _quarantine(self, path: Path, namespace: str,
                    reason: str) -> Optional[Path]:
        """Move a corrupt record out of its namespace instead of
        crashing (or silently re-serving bad bytes) on every read.

        The file lands under ``quarantine/<namespace>/`` with its name
        preserved (numeric suffix on collision) next to a ``.reason``
        sidecar recording why, when, and from where it was pulled.
        Returns the quarantined path, or ``None`` when the move itself
        failed (in which case the caller still treats the record as
        missing — quarantine is best-effort, correctness never depends
        on it).
        """
        _STORE_QUARANTINES.inc(namespace=namespace)
        _LOG.warning("quarantining corrupt record", extra={
            "event": "store.quarantine", "namespace": namespace,
            "path": str(path), "reason": reason})
        target_dir = self.quarantine_dir / namespace
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / path.name
            bump = 0
            while target.exists():
                bump += 1
                target = target_dir / f"{path.name}.{bump}"
            os.replace(path, target)
        except OSError:
            return None
        try:
            _atomic_write_json(
                Path(f"{target}.reason"),
                {"reason": reason, "namespace": namespace,
                 "original_path": str(path),
                 "quarantined_at": time.time()})
        except OSError:
            pass
        return target

    def _read_checked(self, path: Path, namespace: str) -> Optional[dict]:
        """Read + verify one record; corrupt files are quarantined and
        read as missing (the caller's resume/re-execute machinery then
        regenerates them — graceful degradation, never a crash)."""
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            self._quarantine(path, namespace,
                             f"undecodable JSON: {exc}")
            return None
        error = _integrity_error(payload)
        if error is not None:
            self._quarantine(path, namespace, error)
            return None
        payload.pop(INTEGRITY_KEY, None)
        return payload

    def quarantine_counts(self) -> Dict[str, int]:
        """Quarantined record count per namespace (``.reason`` sidecars
        excluded) — the store half of the ``/health`` payload."""
        out = {namespace: 0 for namespace in NAMESPACES}
        if not self.quarantine_dir.is_dir():
            return out
        for sub in self.quarantine_dir.iterdir():
            if sub.is_dir():
                out[sub.name] = sum(
                    1 for p in sub.iterdir()
                    if not p.name.endswith(".reason"))
        return out

    def verify(self, quarantine: bool = False) -> dict:
        """Integrity sweep over every record in the store.

        Parses and digest-checks all of ``results/``, ``shards/``, and
        ``jobs/``. Returns a report dict: per-namespace counts of
        ``ok`` (stamped, digest matches), ``legacy`` (pre-integrity
        records without a stamp), and ``corrupt`` entries
        (``{path, namespace, reason}``). With ``quarantine=True`` the
        corrupt files are moved to the quarantine namespace as a side
        effect (the same motion a checked read performs lazily).

        The ``repro store verify`` subcommand is a thin wrapper.
        """
        report = {
            "checked": 0, "ok": 0, "legacy": 0,
            "corrupt": [], "quarantined": [],
            "quarantine_counts": None,
        }

        def check(path: Path, namespace: str) -> None:
            report["checked"] += 1
            try:
                with open(path) as handle:
                    payload = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError,
                    OSError) as exc:
                error: Optional[str] = f"undecodable JSON: {exc}"
            else:
                error = _integrity_error(payload)
                if error is None:
                    if isinstance(payload, dict) and \
                            INTEGRITY_KEY in payload:
                        report["ok"] += 1
                    else:
                        report["legacy"] += 1
                    return
            report["corrupt"].append({
                "path": str(path), "namespace": namespace,
                "reason": error})
            if quarantine:
                moved = self._quarantine(path, namespace, error)
                if moved is not None:
                    report["quarantined"].append(str(moved))

        for path in sorted(self.results_dir.glob("*.json")):
            check(path, "results")
        for directory in sorted(self.shards_dir.iterdir()) \
                if self.shards_dir.is_dir() else []:
            if directory.is_dir():
                for path in sorted(directory.iterdir()):
                    if _SHARD_FILE.match(path.name):
                        check(path, "shards")
        for path in sorted(self.jobs_dir.glob("*.json")):
            check(path, "jobs")
        report["quarantine_counts"] = self.quarantine_counts()
        return report

    # ------------------------------------------------------------------ #
    # Final results
    # ------------------------------------------------------------------ #

    def _result_path(self, key: str) -> Path:
        return self.results_dir / f"{_checked_component(key, 'key')}.json"

    def has(self, key: str) -> bool:
        return self._result_path(key).exists()

    def get(self, key: str) -> Optional[dict]:
        """The completed job record under ``key``, or ``None``.

        Digest-checked: a corrupt record is quarantined and read as
        missing, so the key simply re-executes instead of serving (or
        crashing on) bad bytes.
        """
        record = self._read_checked(self._result_path(key), "results")
        _STORE_OPS.inc(op="get_hit" if record is not None else "get_miss",
                       namespace="results")
        return record

    def put(self, key: str, record: dict) -> None:
        """Persist a completed job record (atomic)."""
        _atomic_write_json(self._result_path(key), record)
        _STORE_OPS.inc(op="put", namespace="results")

    def keys(self) -> List[str]:
        """Keys of every completed record in the store."""
        return sorted(p.stem for p in self.results_dir.glob("*.json"))

    # ------------------------------------------------------------------ #
    # Shard checkpoints
    # ------------------------------------------------------------------ #

    def _shard_path(self, key: str, lo: int, hi: int) -> Path:
        return self.shards_dir / _checked_component(key, "key") / \
            f"{int(lo)}-{int(hi)}.json"

    def put_shard(self, key: str, lo: int, hi: int,
                  result: CampaignResult,
                  phases: Optional[Dict[str, int]] = None) -> None:
        """Checkpoint one completed span of the job under ``key``.

        ``phases`` (optional) stamps the executor's per-phase timing
        profile (``{phase: ns}``, see :class:`repro.obs.PhaseProfile`)
        into the checkpoint record. It is observability metadata: the
        tallies in ``result`` stay the record's entire meaning, readers
        of :meth:`get_shard` never see it, and legacy checkpoints
        without the field remain valid.
        """
        record = {"lo": lo, "hi": hi, "result": result_to_dict(result)}
        if phases:
            record["phases"] = {str(k): int(v)
                                for k, v in phases.items()}
        _atomic_write_json(self._shard_path(key, lo, hi), record)
        _STORE_OPS.inc(op="put", namespace="shards")

    def get_shard(self, key: str, lo: int,
                  hi: int) -> Optional[CampaignResult]:
        """The checkpointed tallies of span ``[lo, hi)``, or ``None``.

        Digest-checked like :meth:`get`: a corrupt or undecodable
        checkpoint is quarantined and reads as missing, so the span is
        simply re-executed.
        """
        path = self._shard_path(key, lo, hi)
        record = self._read_checked(path, "shards")
        _STORE_OPS.inc(op="get_hit" if record is not None else "get_miss",
                       namespace="shards")
        if record is None:
            return None
        try:
            return result_from_dict(record["result"])
        except (KeyError, TypeError, ValueError) as exc:
            # Valid JSON, valid (or legacy-absent) digest, wrong shape:
            # still corruption from the reader's point of view.
            self._quarantine(path, "shards",
                             f"undecodable shard record: "
                             f"{type(exc).__name__}: {exc}")
            return None

    def shard_spans(self, key: str) -> Dict[Tuple[int, int], CampaignResult]:
        """Every checkpointed span of ``key`` (for resume planning).

        Corrupt checkpoints are quarantined and skipped — the span
        reads as a gap and re-executes.
        """
        out: Dict[Tuple[int, int], CampaignResult] = {}
        directory = self.shards_dir / _checked_component(key, "key")
        if not directory.is_dir():
            return out
        for path in sorted(directory.iterdir()):
            match = _SHARD_FILE.match(path.name)
            if not match:
                continue
            tallies = self.get_shard(key, int(match.group(1)),
                                     int(match.group(2)))
            if tallies is not None:
                out[(int(match.group(1)), int(match.group(2)))] = tallies
        return out

    def shard_phases(self, key: str) -> Dict[Tuple[int, int],
                                             Dict[str, int]]:
        """Per-span phase profiles stamped on the checkpoints of
        ``key`` (spans checkpointed without one are absent). Used by
        the scheduler to aggregate ``{phase: ns}`` onto the job record
        before the checkpoints are cleared."""
        out: Dict[Tuple[int, int], Dict[str, int]] = {}
        directory = self.shards_dir / _checked_component(key, "key")
        if not directory.is_dir():
            return out
        for path in sorted(directory.iterdir()):
            match = _SHARD_FILE.match(path.name)
            if not match:
                continue
            record = self._read_checked(path, "shards")
            if record is None:
                continue
            phases = record.get("phases")
            if isinstance(phases, dict) and phases:
                out[(int(match.group(1)), int(match.group(2)))] = {
                    str(k): int(v) for k, v in phases.items()
                    if isinstance(v, (int, float))}
        return out

    def clear_shards(self, key: str) -> None:
        """Drop the checkpoints of ``key`` (after its final record)."""
        directory = self.shards_dir / _checked_component(key, "key")
        if not directory.is_dir():
            return
        for path in directory.iterdir():
            try:
                path.unlink()
            except OSError:
                pass
        try:
            directory.rmdir()
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Persisted job records (stable ids across service restarts)
    # ------------------------------------------------------------------ #

    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / \
            f"{_checked_component(job_id, 'job id')}.json"

    def put_job(self, job_id: str, record: dict) -> None:
        """Persist one scheduler job record (atomic overwrite)."""
        _atomic_write_json(self._job_path(job_id), record)
        _STORE_OPS.inc(op="put", namespace="jobs")

    def get_job(self, job_id: str) -> Optional[dict]:
        """The persisted record of ``job_id``, or ``None`` (corrupt
        records are quarantined and read as missing)."""
        record = self._read_checked(self._job_path(job_id), "jobs")
        _STORE_OPS.inc(op="get_hit" if record is not None else "get_miss",
                       namespace="jobs")
        return record

    def job_ids(self) -> List[str]:
        """Every persisted job id, sorted (= submission order: ids
        embed a monotonic sequence number)."""
        return sorted(p.stem for p in self.jobs_dir.glob("*.json"))

    def iter_jobs(self) -> Iterator[dict]:
        """Persisted job records in id order. Torn or corrupt files are
        quarantined by the checked read and skipped — they must never
        block recovery."""
        for job_id in self.job_ids():
            record = self.get_job(job_id)
            if record is not None:
                yield record

    def delete_job(self, job_id: str) -> None:
        """Forget one persisted job record (id eviction), along with
        its trace events — telemetry never outlives the job id."""
        try:
            self._job_path(job_id).unlink()
        except OSError:
            pass
        try:
            self._events_path(job_id).unlink()
        except (OSError, ValueError):
            pass

    # ------------------------------------------------------------------ #
    # Trace events (append-only telemetry; see the module docstring)
    # ------------------------------------------------------------------ #

    def _events_path(self, trace_id: str) -> Path:
        return self.events_dir / \
            f"{_checked_component(trace_id, 'trace id')}.jsonl"

    def append_events(self, trace_id: str, events: List[dict]) -> None:
        """Append a batch of trace event records as JSONL lines.

        Open-for-append gives ``O_APPEND`` write semantics, so
        concurrent appenders (scheduler + N workers) interleave whole
        batches rather than torn bytes for the line sizes in play; a
        rare torn line is tolerated by the reader anyway.
        """
        if not events:
            return
        data = encode_event_lines(events)
        self.events_dir.mkdir(parents=True, exist_ok=True)
        with open(self._events_path(trace_id), "a") as handle:
            handle.write(data)
        _STORE_OPS.inc(op="append", namespace="events")

    def read_events(self, trace_id: str) -> List[dict]:
        """Every event recorded for ``trace_id``, torn lines skipped
        (events are telemetry: best-effort by contract)."""
        try:
            text = self._events_path(trace_id).read_text()
        except (OSError, ValueError):
            return []
        return decode_event_lines(text)

    def has_events(self, trace_id: str) -> bool:
        try:
            return self._events_path(trace_id).is_file()
        except ValueError:
            return False

    def event_traces(self) -> List[str]:
        """Every trace id with recorded events, sorted."""
        return sorted(p.stem for p in self.events_dir.glob("*.jsonl"))

    # ------------------------------------------------------------------ #
    # Eviction / garbage collection
    # ------------------------------------------------------------------ #

    def size_bytes(self) -> int:
        """Bytes in the namespaces :meth:`gc` evicts (results, shards,
        jobs) — what its ``max_bytes`` budget bounds. The broker file,
        trace events and quarantine are not counted."""
        return sum(self._tree_bytes(self.root / namespace)
                   for namespace in NAMESPACES)

    @staticmethod
    def _tree_bytes(root: Path) -> int:
        """Total file bytes under ``root``, recursively."""
        total = 0
        for directory, _dirs, files in os.walk(root):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(directory, name))
                except OSError:
                    pass
        return total

    def gc(self, max_age_s: Optional[float] = None,
           max_bytes: Optional[int] = None, sweep_orphans: bool = True,
           dry_run: bool = False, now: Optional[float] = None) -> dict:
        """Bounded-growth policy for long-lived deployments.

        Three independent sweeps, in order:

        1. **Orphan shards** (``sweep_orphans``): checkpoint
           directories whose final record already exists — a crash
           between ``put`` and ``clear_shards`` leaves them — are
           dropped; they can never be read again.
        2. **Max age** (``max_age_s``): result records older than the
           horizon are evicted, along with the persisted *terminal* job
           records pointing at them and any equally old in-flight shard
           directories/job records (abandoned work).
        3. **Max bytes** (``max_bytes``): while the evictable
           namespaces (:meth:`size_bytes`) exceed the budget, the
           oldest result records are evicted (with their dependent job
           records), oldest first. Bytes gc never removes (the broker
           and its log, events, quarantine) are reported as
           ``other_bytes`` and never count against the budget, so they
           cannot make it evict every result.

        Eviction is safe, never destructive of meaning: a record is a
        pure function of its spec, so an evicted key simply re-executes
        on next submission instead of hitting cache. ``dry_run=True``
        reports what would go without touching the filesystem. Returns
        a report dict (counts, evicted keys, evictable bytes
        before/after, other bytes).
        """
        if max_age_s is not None and max_age_s < 0:
            raise ValueError(f"max_age_s must be non-negative, "
                             f"got {max_age_s}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, "
                             f"got {max_bytes}")
        now = time.time() if now is None else now
        report = {
            "dry_run": dry_run,
            "bytes_before": self.size_bytes(),
            "evicted_results": [],
            "evicted_jobs": [],
            "orphan_shard_keys": [],
            "stale_shard_keys": [],
        }
        # `freed` tracks bytes the sweeps have reclaimed (or, on a dry
        # run, *would* reclaim) so the byte-budget step below starts
        # from the post-sweep size either way — a dry run must predict
        # the real run, not overstate it.
        freed = 0
        jobs_by_key: Dict[str, List[str]] = {}
        for record in self.iter_jobs():
            job_id = record.get("id")
            if isinstance(job_id, str):  # schema-alien files: not ours
                jobs_by_key.setdefault(record.get("key", ""), []).append(
                    job_id)

        def evict_key(key: str) -> None:
            nonlocal freed
            freed += self._key_bytes(key)
            report["evicted_results"].append(key)
            if not dry_run:
                try:
                    self._result_path(key).unlink()
                except OSError:
                    pass
                self.clear_shards(key)
            for job_id in jobs_by_key.pop(key, []):
                report["evicted_jobs"].append(job_id)
                freed += self._file_bytes(self._job_path(job_id))
                if not dry_run:
                    self.delete_job(job_id)

        # 1. orphan shard directories (final record already written)
        if sweep_orphans:
            for directory in sorted(self.shards_dir.iterdir()):
                if directory.is_dir() and self.has(directory.name):
                    report["orphan_shard_keys"].append(directory.name)
                    freed += self._dir_bytes(directory)
                    if not dry_run:
                        shutil.rmtree(directory, ignore_errors=True)

        # 2. age horizon
        if max_age_s is not None:
            horizon = now - max_age_s
            for key in self.keys():
                if self._mtime(self._result_path(key)) < horizon:
                    evict_key(key)
            for directory in sorted(self.shards_dir.iterdir()):
                if directory.is_dir() and \
                        self._dir_mtime(directory) < horizon:
                    report["stale_shard_keys"].append(directory.name)
                    freed += self._dir_bytes(directory)
                    if not dry_run:
                        shutil.rmtree(directory, ignore_errors=True)
            for record in list(self.iter_jobs()):
                if not isinstance(record.get("id"), str):
                    continue  # schema-alien JSON: never ours to delete
                if record["id"] in report["evicted_jobs"]:
                    continue
                if record.get("state") in ("done", "failed"):
                    # terminal: age from completion time
                    stamp = record.get("finished_at") or 0.0
                else:
                    # abandoned in-flight work (a deployment that died
                    # long ago): age from submission, so a record this
                    # old can never be genuinely live — left alone it
                    # would re-enqueue and re-execute on every restart
                    stamp = record.get("submitted_at") or 0.0
                if stamp < horizon:
                    report["evicted_jobs"].append(record["id"])
                    freed += self._file_bytes(
                        self._job_path(record["id"]))
                    peers = jobs_by_key.get(record.get("key", ""), [])
                    if record["id"] in peers:
                        peers.remove(record["id"])
                    if not dry_run:
                        self.delete_job(record["id"])

        # 3. byte budget (oldest results first)
        if max_bytes is not None:
            remaining = [k for k in self.keys()
                         if k not in report["evicted_results"]]
            remaining.sort(key=lambda k: self._mtime(self._result_path(k)))
            size = self.size_bytes() if not dry_run else \
                report["bytes_before"] - freed
            for key in remaining:
                if size <= max_bytes:
                    break
                size -= self._key_bytes(key)
                evict_key(key)

        report["bytes_after"] = report["bytes_before"] if dry_run \
            else self.size_bytes()
        report["other_bytes"] = self._tree_bytes(self.root) - \
            report["bytes_after"]
        return report

    def _key_bytes(self, key: str) -> int:
        """Bytes attributable to ``key`` (record + checkpoints)."""
        total = 0
        try:
            total += self._result_path(key).stat().st_size
        except OSError:
            pass
        directory = self.shards_dir / key
        if directory.is_dir():
            for path in directory.iterdir():
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    @staticmethod
    def _mtime(path: Path) -> float:
        try:
            return path.stat().st_mtime
        except OSError:
            return 0.0

    @staticmethod
    def _file_bytes(path: Path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def _dir_bytes(self, directory: Path) -> int:
        """Total file bytes directly inside ``directory``."""
        return sum(self._file_bytes(p) for p in directory.iterdir())

    def _dir_mtime(self, directory: Path) -> float:
        """Newest mtime inside ``directory`` (activity timestamp)."""
        newest = self._mtime(directory)
        for path in directory.iterdir():
            newest = max(newest, self._mtime(path))
        return newest
