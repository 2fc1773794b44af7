"""Paths, settings and bookkeeping shared by every workload."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import hostspeed
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of every run (stores, logs, spans); ignored by git.
RUNS = ROOT / ".perfbench"

# The settings every workload shares. Anything not named here stays at
# the library or CLI default, so a PR that moves a default shows up.
N, M = 129, 3
CODE = "diagonal"
PACKING = "u64"

#: Repeated set-ups per run, each right after a launch reference
#: (:func:`launch_reference`); ``setup_s`` is their median.
SETUPS = 5


def program_available() -> bool:
    """Whether the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts.

    Children import the checkout's sources and keep their temporary
    files inside the checkout.
    """
    tmp = RUNS / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["TMPDIR"] = str(tmp)
    return env


def launch_reference() -> float:
    """Seconds of one :func:`hostspeed.launch_s`, timed while none of the
    program runs."""
    return hostspeed.launch_s(child_env(), str(ROOT))


def entropy(seed: int, *labels: object) -> int:
    """A 63-bit campaign entropy derived from the workload seed.

    The same ``(seed, labels)`` always gives the same entropy, and a new
    seed gives a fresh one, so no run can hit another run's cache.
    """
    text = ":".join(str(x) for x in (seed,) + labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def _processes():
    """``(pid, state, ppid, pgrp)`` of every process in ``/proc``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        yield int(entry), state, int(ppid), int(pgrp)


def children_of(pid: int) -> List[int]:
    """Live direct children of ``pid``."""
    return [child for child, state, ppid, _ in _processes()
            if ppid == pid and state != "Z"]


def group_alive(pgid: int) -> bool:
    """Whether a live (non-zombie) process is left in group ``pgid``."""
    return any(pgrp == pgid and state != "Z"
               for _, state, _, pgrp in _processes())


def provenance() -> dict:
    """Where and on what a result was measured."""
    import numpy

    from repro.obs.perf import git_revision, host_fingerprint
    from repro.utils.kernels import get_kernels

    return {
        "host": host_fingerprint(),
        "kernel_tier": get_kernels(None).name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision(str(ROOT)),
    }


def closed_loop_metrics(latencies: Sequence[float], fresh_trials: int,
                        jobs: int, window: float,
                        trials_per_job: Optional[int] = None,
                        references: Optional[Sequence[float]] = None,
                        nominal: float = hostspeed.NOMINAL_SLICE_S
                        ) -> Dict[str, tuple]:
    """The job-level numbers of one closed-loop window.

    With ``references`` (a :mod:`hostspeed` reference timed right after
    each job, ``nominal`` seconds on an undisturbed host),
    ``trials_per_s`` is host-calibrated: trials per job over the median
    job latency converted to nominal host seconds. Otherwise it is the
    window rate of fresh trials.
    """
    tail_s, tail_pct = stats.tail(latencies)
    window_rate = fresh_trials / window
    out = {
        "trials_per_s": (window_rate, "trials/s"),
        "window_trials_per_s": (window_rate, "trials/s"),
        "jobs_per_s": (jobs / window, "jobs/s"),
        "job_latency_p50_s": (statistics.median(latencies), "s"),
        "job_latency_tail_s": (tail_s, "s"),
        "job_latency_tail_pct": (tail_pct, "%"),
        "job_latency_samples": (len(latencies), "count"),
    }
    if references:
        latency_s = statistics.median(
            hostspeed.to_nominal_s(lat, ref, nominal)
            for lat, ref in zip(latencies, references))
        out["trials_per_s"] = (trials_per_job / latency_s, "trials/s")
        out["host_reference_ms"] = (statistics.median(references) * 1e3,
                                    "ms")
    return out


def pooled_rate(trials: int, latencies: Sequence[float],
                references: Sequence[float], nominal: float) -> float:
    """``trials`` over the summed ``latencies`` in nominal host seconds,
    converted with the mean of the ``references`` timed between jobs.

    For jobs of a second or more: the host flips between a fast and a
    slow speed several times a second, so each reference reads one or
    the other. Their mean tracks the mix a whole job runs at; their
    median, or a pairing of each job with its own, jumps between the
    two.
    """
    return trials / hostspeed.to_nominal_s(
        sum(latencies), statistics.mean(references), nominal)


def setup_metrics(samples: Sequence[float],
                  references: Sequence[float]) -> Dict[str, tuple]:
    """``setup_s`` in nominal seconds: the median over set-ups of each
    one converted with the launch reference timed just before it. The
    host's speed changes within seconds, so only the adjacent reference
    tracks it. The raw median goes beside it."""
    nominal = statistics.median(
        hostspeed.to_nominal_s(s, ref, hostspeed.NOMINAL_LAUNCH_S)
        for s, ref in zip(samples, references))
    return {"setup_s": (nominal, "s"),
            "setup_raw_s": (statistics.median(samples), "s"),
            "launch_ms": (statistics.median(references) * 1e3, "ms")}


@dataclass
class Outcome:
    """Everything one workload run reports."""

    attempted: int = 0
    failed: int = 0
    #: ``name -> (value, unit)`` of the end-to-end and job-level metrics;
    #: ``None`` where this workload has no such number.
    metrics: Dict[str, Tuple[Optional[float], str]] = field(
        default_factory=dict)
    #: ``name -> (value, unit)`` of the per-layer metrics (traced runs);
    #: ``None`` where this workload does not exercise the layer.
    layers: Dict[str, Tuple[Optional[float], str]] = field(
        default_factory=dict)
    #: Per-layer metrics whose layer the program no longer has.
    absent: List[str] = field(default_factory=list)
    #: ``(check, passed, detail)`` of every output check.
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: Context printed and saved beside the metrics.
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)
