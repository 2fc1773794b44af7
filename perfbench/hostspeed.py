"""How fast the host runs right now, from fixed work timed beside a
measurement.

On a shared virtual machine all CPU work can run up to twice as slow
for a while, and the speed changes within seconds (seen on a 2-vCPU
VM). Pairing each CPU-bound measurement with fixed work timed right
beside it, and reporting the measurement in units of that work,
cancels most of that. The references never touch the program, so no
change to the program moves them:

* a *slice*, the engine's kind of host work (per-trial generator
  construction, a data fill and a fault-mask draw) in numpy, run in
  the benchmark's process beside each in-process or service job;
* a *round*, slices in two helper processes at once, beside each fleet
  job (:class:`ParallelReference`);
* a *launch*, an interpreter started to import numpy and the
  standard-library modules the program's set-up loads too, then run one
  slice, timed beside each set-up.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter
from typing import Dict

import numpy as np

#: Seconds one slice takes on an undisturbed host of the kind the
#: benchmark was tuned on (2 vCPUs, numpy 2.x). Gated numbers are
#: converted back to seconds at this rate; it is the scale every
#: recorded result shares, so it never changes.
NOMINAL_SLICE_S = 0.005

#: Seconds one launch, and one round of ten slices in each of two
#: helper processes (:class:`ParallelReference`), take on that host; the
#: same rule holds.
NOMINAL_LAUNCH_S = 0.25
NOMINAL_ROUND_S = 0.06

_TRIALS = 32

_LAUNCH = ("import asyncio, concurrent.futures, http.server, json, "
           "multiprocessing, sqlite3, time, urllib.request, hostspeed; "
           "hostspeed.slice_s(); print(repr(time.time()))")


def slice_s() -> float:
    """Seconds of one slice, the same work on every call."""
    t0 = perf_counter()
    for trial in range(_TRIALS):
        streams = np.random.SeedSequence(0, spawn_key=(trial,)).spawn(2)
        data_rng, mask_rng = (np.random.default_rng(s) for s in streams)
        data = data_rng.integers(0, 2, size=(129, 129), dtype=np.uint8)
        mask = mask_rng.random((129, 129)) < 2e-4
        data ^= mask
        np.nonzero(mask)
    return perf_counter() - t0


def reference_s(slices: int) -> float:
    """Median seconds of ``slices`` slices run back to back."""
    return statistics.median(slice_s() for _ in range(slices))


class ParallelReference:
    """Slices run at once in ``workers`` helper processes, for work that
    keeps that many CPUs busy; a round's wall time is the reference.

    A single slice samples one CPU for a few milliseconds, and tracked
    a fleet job spread over both CPUs worse than no reference at all.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._pool = ProcessPoolExecutor(workers)
        self.round_s(1)  # start the helpers outside any timing

    def round_s(self, slices: int) -> float:
        """Wall seconds for every helper to run ``slices`` slices."""
        t0 = perf_counter()
        list(self._pool.map(reference_s, [slices] * self.workers))
        return perf_counter() - t0

    def __enter__(self) -> "ParallelReference":
        return self

    def __exit__(self, *exc) -> None:
        self._pool.shutdown(wait=True)


def launch_s(env: Dict[str, str], cwd: str) -> float:
    """Seconds from starting a launch to the wall clock it prints.

    ``env`` must put this module on ``PYTHONPATH``.
    """
    started = time.time()
    out = subprocess.run([sys.executable, "-c", _LAUNCH], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.split()[-1]) - started


def to_nominal_s(seconds: float, reference: float,
                 nominal: float = NOMINAL_SLICE_S) -> float:
    """``seconds`` measured beside a reference of ``reference`` seconds,
    as seconds on a host where the reference takes ``nominal``."""
    return seconds / reference * nominal
