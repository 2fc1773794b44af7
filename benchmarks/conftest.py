"""Shared fixtures for the benchmark harness.

Every file here regenerates one paper artifact (Table I, Table II,
Figure 6) or an ablation, printing the regenerated table/figure and
asserting the qualitative invariants recorded in EXPERIMENTS.md. Run:

    pytest benchmarks/ --benchmark-only

Rendered artifacts are also written to ``benchmarks/results/`` so they
can be inspected without rerunning. Alongside each point-in-time
``BENCH_<name>.json`` (overwritten in place), every ``save_json`` call
also appends a provenance-stamped record to the longitudinal ledger
``benchmarks/results/ledger.jsonl`` (see :mod:`repro.obs.perf`) so the
perf trajectory survives across runs and revisions.
"""

from __future__ import annotations

import json
import os
import platform

import numpy as np
import pytest

from repro.obs import perf as obs_perf
from repro.utils.kernels import get_kernels


RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

LEDGER_PATH = os.path.join(RESULTS_DIR, "ledger.jsonl")


@pytest.fixture(scope="session", autouse=True)
def active_kernels():
    """Resolve the session's kernel tier once, loudly.

    Benchmarks record which tier produced their numbers, so a
    ``REPRO_KERNELS=native`` run on a host without the compiled
    extension must abort here (``KernelUnavailableError``) rather than
    silently benchmarking the numpy fallback and mislabeling the
    artifacts.
    """
    return get_kernels(None)


@pytest.fixture(scope="session")
def bench_provenance():
    """Where and from what these numbers came: git rev + host.

    One git subprocess per session; outside a checkout the rev is
    ``None`` and artifacts simply lack it.
    """
    return {
        "git_rev": obs_perf.git_revision(),
        "host": obs_perf.host_fingerprint(),
    }


@pytest.fixture(scope="session")
def results_dir():
    """Directory collecting rendered tables/figures."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_artifact(results_dir):
    """Callable fixture persisting a rendered artifact + echoing it."""

    def _save(name: str, content: str) -> None:
        path = os.path.join(results_dir, name)
        with open(path, "w") as handle:
            handle.write(content + "\n")
        print(f"\n=== {name} ===\n{content}\n")

    return _save


@pytest.fixture(scope="session", autouse=True)
def perf_ledger(active_kernels, bench_provenance):
    """Session-wide ledger appender: ``save_json`` feeds it.

    Autouse so the ledger machinery is constructed (and its path
    created lazily) whenever any benchmark runs; the actual append
    happens per ``save_json`` call. Ledger appends are telemetry —
    a failure there must never fail a bench — and deduplicate by
    content digest so re-running an identical bench in one session
    doesn't double-append.
    """
    seen = set()

    def _append(name: str, payload: dict) -> None:
        try:
            record = obs_perf.bench_record(
                payload.get("bench") or name, payload,
                kernel_tier=payload.get("kernels"),
                backend=payload.get("backend"),
                git_rev=bench_provenance["git_rev"]
                or obs_perf.SEED_EPOCH,
                host=bench_provenance["host"])
            digest = obs_perf.record_digest(record)
            if digest in seen:
                return
            seen.add(digest)
            obs_perf.append_record(LEDGER_PATH, record)
        except Exception:  # noqa: BLE001 - telemetry only
            pass

    return _append


@pytest.fixture(scope="session")
def save_json(results_dir, active_kernels, bench_provenance,
              perf_ledger):
    """Persist machine-readable bench results as ``BENCH_<name>.json``.

    Each payload is a flat-ish dict (throughput numbers plus the
    parameters that produced them: n, B, packing mode, backend, ...).
    A ``machine`` stanza, the active kernel tier, the git revision,
    and a host fingerprint are attached so cross-PR trajectories can
    be filtered by host and by tier. Keep the human-readable ``.txt``
    artifact too — this is the greppable/plottable twin, not a
    replacement. Every call also appends a record to the longitudinal
    ledger (``ledger.jsonl``) via the ``perf_ledger`` fixture.
    """

    def _save(name: str, payload: dict) -> None:
        path = os.path.join(results_dir, f"BENCH_{name}.json")
        record = dict(payload)
        record.setdefault("kernels", active_kernels.name)
        record.setdefault("machine", {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        })
        if bench_provenance["git_rev"]:
            record.setdefault("git_rev", bench_provenance["git_rev"])
        record.setdefault("host", bench_provenance["host"])
        with open(path, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\n=== BENCH_{name}.json ===\n"
              f"{json.dumps(record, indent=2, sort_keys=True)}\n")
        perf_ledger(name, record)

    return _save
