"""Batched Monte-Carlo campaign engine.

The scalar :class:`repro.faults.campaign.FaultCampaign` runs one trial at
a time: fresh crossbar, random data, encode, inject, full Python-loop
check sweep. That loop is the slowest path in the repo (the Sec. V-A
binomial-model validation and the MTTF benches all sit on it). This
module runs ``B`` trials as stacked tensors instead, and simulates only
the error pattern:

* state            — all-zero ``(B, n, n)`` data and ``(B, rk, b, b)``
  check-plane stacks, one per code plane (the default diagonal code
  stores the leading/counter pair);
* injection        — :meth:`repro.faults.injector.FaultInjector
  .inject_batch_planes`, flat ground-truth event arrays;
* check sweep      — :meth:`repro.core.registry.BlockCode
  .check_batched`, one vectorized syndrome/decode/correct pass over
  every block of every trial;
* classification   — a trial whose final state has any nonzero word is
  damaged; per-trial reductions give the same
  :class:`repro.faults.campaign.CampaignResult` tallies the scalar
  campaign produces.

Zero data (the linearity premise)
=================================

Every registered code is linear: ``encode(0) == 0`` and ``encode(a ^ b)
== encode(a) ^ encode(b)``, so the syndromes, and with them every
decode and correction, depend only on the error pattern. A trial on
random data ends with ``data ^ residual`` where a trial on zero data
ends with ``residual``; both are restored exactly when the residual
error is zero. The engine therefore skips the data fill, the encode and
the golden copies. :func:`repro.core.registry.build_code` refuses a
code that fails a seeded linearity check, and the scalar
:class:`~repro.faults.campaign.FaultCampaign` keeps real random data,
so the differential suites keep witnessing the premise.

Seeding + sharding contract
===========================

The engine has two seeding modes, selected by ``seeding=``:

``"sequential"`` (default for single-process runs)
    The injector consumes its own stream trial by trial in scalar order
    (the campaign seed fills the scalar reference's data, which this
    engine never draws). A sequential batched run is **bit-for-bit
    identical** to ``FaultCampaign(grid, injector, seed).run(trials)``
    with the same seeds, for any ``batch_size`` — the per-trial draws
    are issued as separate generator calls precisely so chunking can
    never change the stream. This mode cannot be sharded (shard ``k``
    would need shard ``k-1``'s stream position).

``"per-trial"`` (default and required for multi-process runs)
    Draw contract v3 (:data:`repro.utils.rng.DRAW_CONTRACT`): every
    draw is addressed directly by a keyed counter-based generator under
    the campaign entropy. The Bernoulli-field injectors (uniform,
    check-bit, drift) draw one field per aligned 64-trial group —
    group ``g = i // 64`` from ``Philox(key=entropy, counter=[0, 1, g,
    stream])``, trial ``i`` keeping row ``i % 64`` — and
    :meth:`BatchCampaign.run_range_seeded` draws each group a span
    touches once, however ``batch_size`` splits it. The burst
    injectors draw per trial from ``Philox(key=entropy, counter=[0, 0,
    i, stream])`` (:func:`repro.utils.rng.trial_stream`). Injection uses
    stream 1; the scalar reference fills its data from trial stream 0.
    Because every draw depends only on ``(entropy, i)``, the tallies
    are invariant under the shard layout: any ``workers`` count, any
    ``batch_size``, and any contiguous partition of the trial range
    produce identical results. :func:`run_reference` replays trial
    ``i`` through ``FaultCampaign.run_trial`` (real data from stream 0,
    faults from the one-trial span ``[i, i + 1)`` of stream 1) — the
    differential harness in ``tests/faults/test_batch_equivalence.py``
    pins both equivalences.

The Bernoulli fields are drawn sparsely by geometric gaps
(:func:`repro.utils.rng.bernoulli_positions`): per trial from the
injector's own stream in sequential mode, per group under per-trial
seeding.

Sharding uses a ``concurrent.futures`` process pool: trials are split
into contiguous ranges (:func:`repro.utils.rng.shard_bounds`), each
worker rebuilds the engine from a picklable :class:`ShardTask` (grid
geometry, injector, entropy, backend name) and runs its range in
``batch_size`` chunks. Peak memory per block, measured at ``n=129``
and ``batch_size=64``, is about ``7 * batch_size * n**2`` bytes for
``u8`` (the state stack is one of those, the check sweep's temporaries
the rest) and under ``2 * batch_size * n**2`` for ``u64``, so large-``n``
sweeps should lower ``batch_size`` rather than trials.

Service-sharded execution
-------------------------

The campaign service (:mod:`repro.service`) executes submitted jobs by
materializing the *same* :class:`ShardTask` spans a sharded
:class:`CampaignRunner` builds — there is no third execution path.
Both contracts therefore extend verbatim to service execution:

* a service job always runs under **per-trial seeding** (sequential
  streams cannot be split into relocatable spans), so its merged
  tallies are a pure function of ``(spec, entropy)`` — independent of
  the service's shard size, worker count, scheduling order,
  interruptions, and checkpoint/resume boundaries;
* because :func:`run_shard_task` tallies depend only on
  ``(entropy, lo, hi)`` and the engine configuration, a shard span
  completed before a crash can be persisted and *reused* after a
  restart: merging checkpointed spans with freshly executed ones (in
  ``lo`` order, via :func:`merge_results`) is bit-identical to an
  uninterrupted run, which is in turn bit-identical to an in-process
  ``CampaignRunner.run`` with the same entropy — for either
  ``packing`` and any registered backend. The differential suite
  ``tests/service/`` pins service-executed == in-process results.

The same purity is what makes spans *relocatable across hosts*: the
distributed layer (:mod:`repro.distributed`) serializes a
:class:`ShardTask` to versioned, hash-stamped JSON (:meth:`to_dict` /
:meth:`from_dict`, injector configs via
:mod:`repro.faults.serialize`), ships it through a lease broker to any
``repro worker`` process, and merges the returned tallies through the
identical checkpoint path — so distributed results are bit-identical
too, including after worker deaths and lease re-enqueues
(``tests/distributed/`` pins this).

Array backends
==============

All tensor arithmetic dispatches through an
:class:`repro.utils.backend.ArrayBackend` handle (``backend=`` on
:class:`BatchCampaign` / :class:`CampaignRunner`, default numpy or
``$REPRO_BACKEND``). Random draws are *always* host-side numpy flip
events scatter-applied onto the backend's state, so both seeding
contracts above are backend-independent: a sequential run under any
backend produces the same tallies as the numpy run, bit for bit, as
long as the backend's arithmetic is exact (integer/boolean ops are, on
every supported backend).

Orthogonally, ``kernels=`` selects the host-side kernel tier
(:mod:`repro.utils.kernels`: pure numpy, or the optional compiled
extension) for the packed layout's word-level hot loops. Tiers are
bit-identical by contract, engage only when the resolved backend's
arrays are plain numpy, and — like the backend — cross process
boundaries by resolved *name* on every :class:`ShardTask`, so sharded,
service, and distributed executions record exactly which tier computed
each span and fail loudly on a worker that cannot provide it.

Packed bit-slice layout
=======================

``packing="u64"`` on :class:`BatchCampaign` / :class:`CampaignRunner`
switches the execution tensors from one uint8 byte per trial bit to the
bit-sliced layout of :mod:`repro.utils.bitpack`: the batch dimension is
packed 64 trials per ``uint64`` word, so a ``(B, n, n)`` stack becomes
``(ceil(B/64), n, n)`` words and every XOR/AND/OR kernel op processes 64
trials at once.

* **Word layout:** trial ``i`` occupies bit ``i % 64`` (little-endian:
  bit ``j`` of a word is ``(word >> j) & 1``) of word ``i // 64``.
* **Tail padding:** when ``B % 64 != 0`` the surplus bits of the last
  word are zero in every state tensor (data words, check planes) and
  are never written by injection or correction (all flip masks are ANDs
  of zero-padded state); derived masks built with complements may carry
  garbage there, so every unpacking consumer trims to the true ``B``.
* **Seeding stays layout-invariant:** injector draws happen host-side
  *before* any layout decision and are converted to flip
  events that apply to either layout. Both seeding contracts above
  therefore hold verbatim under ``packing="u64"``: a sequential packed
  run is bit-identical to the scalar ``FaultCampaign`` and a per-trial
  packed run is shard-layout invariant, for any ``B % 64`` remainder.
  The differential suite ``tests/faults/test_packed_equivalence.py``
  pins packed == unpacked == scalar across the injector family.

Every simulator in the library rides this engine: uniform/burst/check-bit
SER campaigns, the drift-window campaigns of
:class:`repro.faults.drift.DriftInjector`, and the linear-burst survival
analysis of :mod:`repro.reliability.burst` all dispatch through
:class:`CampaignRunner`, inheriting batching, sharding, adaptive
sampling (:meth:`CampaignRunner.run_adaptive`), backend selection, and
the packed layout switch.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.blocks import BlockGrid
from repro.core.code import (
    CheckBitError,
    DataError,
    Uncorrectable,
)
from repro.core.registry import build_code, code_names
from repro.utils.bitops import words_for
from repro.utils.bitpack import or_reduce_words, pack_batch, popcount_words
from repro.faults.campaign import CampaignResult, FaultCampaign
from repro.faults.injector import FaultInjector
from repro.obs import metrics as obs_metrics
from repro.obs.trace import PhaseProfile
from repro.utils.backend import (
    ArrayBackend,
    BackendLike,
    available_backends,
    get_backend,
)
from repro.utils.kernels import KernelsLike, get_kernels
from repro.utils.rng import (
    DATA_STREAM,
    INJECT_STREAM,
    SeedLike,
    TrialStreams,
    resolve_entropy,
    shard_bounds,
    spawn_rngs,
    trial_stream,
)
from repro.utils.stats import wilson_interval

#: Default trials per vectorized block (see the module docstring for the
#: peak state it implies).
DEFAULT_BATCH_SIZE = 64

#: Tensor layouts of the vectorized engine: one byte per trial bit
#: (``"u8"``) or 64 trials bit-sliced into each uint64 word (``"u64"``).
PACKINGS = ("u8", "u64")

#: The campaign phases the engine's profiler times per block (the
#: worker/scheduler add ``checkpoint_write`` at the persistence layer).
PROFILE_PHASES = ("inject", "decode_sweep", "tally")

_SHARD_RUNS = obs_metrics.counter(
    "repro_shard_tasks_total",
    "Shard-task executions, by kernel tier / packing / code.",
    ("kernels", "packing", "code"))
_SHARD_SECONDS = obs_metrics.histogram(
    "repro_shard_seconds",
    "Wall seconds per shard-task execution.", ("kernels", "packing"))
_PHASE_SECONDS = obs_metrics.counter(
    "repro_shard_phase_seconds_total",
    "Cumulative seconds spent per campaign phase (profiled shards).",
    ("phase",))


def derive_campaign_seeds(seed: SeedLike, seeding: Optional[str],
                          workers: int) -> tuple:
    """Split one user seed into ``(campaign_seed, injector_seed)``.

    The helper for simulator entry points that wrap a single ``seed``
    around a :class:`CampaignRunner` (burst survival, drift survival):

    * per-trial mode (``seeding="per-trial"`` or ``workers > 1``): the
      engine derives both streams per trial from the root entropy, so
      the seed passes through as the campaign seed and the injector's
      own stream is never consumed (``None``);
    * sequential mode: the seed is split into independent data-fill and
      injection generators by ``SeedSequence`` spawning
      (:func:`repro.utils.rng.spawn_rngs`) — deterministic for any
      integral seed, loud for a live ``Generator``. Only the scalar
      engine consumes the data-fill generator.
    """
    if seeding == "per-trial" or workers > 1:
        return seed, None
    campaign_rng, injector_rng = spawn_rngs(seed, 2)
    return campaign_rng, injector_rng


def merge_results(results: Sequence[CampaignResult]) -> CampaignResult:
    """Sum campaign tallies (shards of one run, or repeated runs)."""
    out = CampaignResult()
    for r in results:
        out.trials += r.trials
        out.clean += r.clean
        out.corrected += r.corrected
        out.detected += r.detected
        out.silent += r.silent
        out.injected_faults += r.injected_faults
        out.blocks_with_multi_faults += r.blocks_with_multi_faults
    return out


class BatchCampaign:
    """Vectorized inject-check-verify engine over stacked trials.

    Produces the same :class:`CampaignResult` tallies as the scalar
    :class:`FaultCampaign` (see the module docstring for the exact
    equivalence contract per seeding mode). ``seed`` is the data-fill
    seed of the matching :class:`FaultCampaign`; this engine runs on
    all-zero data and never consumes it.
    """

    def __init__(self, grid: BlockGrid, injector: FaultInjector,
                 seed: SeedLike = None, include_check_bits: bool = True,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 backend: BackendLike = None, packing: str = "u8",
                 code: str = "diagonal", kernels: KernelsLike = None,
                 profile: Optional[PhaseProfile] = None):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if packing not in PACKINGS:
            raise ValueError(f"packing must be one of {PACKINGS}, "
                             f"got {packing!r}")
        self.grid = grid
        self.injector = injector
        self.include_check_bits = include_check_bits
        self.batch_size = batch_size
        self.backend = get_backend(backend)
        self.packing = packing
        self.code_name = code
        self.code = build_code(code, grid)
        self.kernels = get_kernels(kernels)
        #: Optional per-phase nanosecond accumulator (observability).
        #: Timestamps are read unconditionally in the block path — two
        #: ``perf_counter_ns`` calls per phase — but only stored when a
        #: profile is attached, so the None case stays branch-cheap and
        #: the tallies are identical either way.
        self.profile = profile

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #

    def run(self, trials: int) -> CampaignResult:
        """Sequential-seeding run: bit-identical to ``FaultCampaign.run``.

        The injector consumes its own stream trial by trial, so the
        result does not depend on ``batch_size``.
        """
        chunks = []
        done = 0
        while done < trials:
            batch = min(self.batch_size, trials - done)
            chunks.append(self._run_block(batch, inject_rngs=None))
            done += batch
        return merge_results(chunks)

    def run_range_seeded(self, entropy: int, lo: int, hi: int) -> CampaignResult:
        """Per-trial-seeded run of trials ``[lo, hi)`` under ``entropy``.

        The building block of sharded campaigns: results depend only on
        ``(entropy, lo, hi)``, never on how ranges are grouped into
        shards or chunked into batches. The blocks share one
        :class:`~repro.utils.rng.TrialStreams`, so a 64-trial group that
        straddles two blocks is drawn once.
        """
        streams = TrialStreams(entropy, lo, hi, INJECT_STREAM)
        chunks = []
        start = lo
        while start < hi:
            batch = min(self.batch_size, hi - start)
            chunks.append(self._run_block(
                batch, inject_rngs=streams.span(start, start + batch)))
            start += batch
        return merge_results(chunks)

    # ------------------------------------------------------------------ #
    # Vectorized core
    # ------------------------------------------------------------------ #

    def _run_block(self, batch: int,
                   inject_rngs: Optional[TrialStreams],
                   ) -> CampaignResult:
        """One stacked block of ``batch`` trials on all-zero data.

        ``inject_rngs`` of ``None`` selects sequential mode (the
        injector's own stream); a :class:`~repro.utils.rng.TrialStreams`
        span selects per-trial seeding. The injector draws host-side,
        before the layout (``packing``) comes into play, which is what
        makes the tallies packing-invariant.
        """
        if self.packing == "u64":
            injection, counts = self._execute_packed(batch, inject_rngs)
        else:
            injection, counts = self._execute_u8(batch, inject_rngs)
        clean, corrected, detected, silent = counts

        totals = injection.totals
        multi = injection.multi_fault_blocks(self.grid)
        return CampaignResult(
            trials=batch,
            clean=clean,
            corrected=corrected,
            detected=detected,
            silent=silent,
            injected_faults=int(totals.sum()),
            blocks_with_multi_faults=int(multi.sum()),
        )

    def _execute_u8(self, batch: int,
                    inject_rngs: Optional[TrialStreams],
                    ) -> tuple:
        """Unpacked ``(B, n, n)`` uint8 execution of one block.

        Returns ``(injection, (clean, corrected, detected, silent))``.
        """
        be = self.backend
        xp = be.xp
        t0 = perf_counter_ns()
        data = xp.zeros((batch, self.grid.n, self.grid.n), dtype=xp.uint8)
        planes = tuple(xp.zeros((batch,) + shape, dtype=xp.uint8)
                       for shape in self.code.plane_shapes)
        injection = self.injector.inject_batch_planes(
            data, planes if self.include_check_bits else (),
            rngs=inject_rngs, backend=be)
        t1 = perf_counter_ns()

        sweep = self.code.check_batched(data, planes, correct=True,
                                        backend=be)
        t2 = perf_counter_ns()

        # Zero data: a trial is restored iff every word is zero again.
        damaged = data.reshape(batch, -1).any(axis=1)
        for p in planes:
            damaged = damaged | p.reshape(batch, -1).any(axis=1)
        damaged = be.to_numpy(damaged)
        uncorrectable = be.to_numpy(sweep.uncorrectable_any)

        clean = injection.totals == 0
        corrected = ~clean & ~damaged
        detected = ~clean & damaged & uncorrectable
        silent = ~clean & damaged & ~uncorrectable
        counts = (int(clean.sum()), int(corrected.sum()),
                  int(detected.sum()), int(silent.sum()))
        if self.profile is not None:
            profile = self.profile
            profile.add("inject", t1 - t0)
            profile.add("decode_sweep", t2 - t1)
            profile.add("tally", perf_counter_ns() - t2)
        return injection, counts

    def _execute_packed(self, batch: int,
                        inject_rngs: Optional[TrialStreams],
                        ) -> tuple:
        """Bit-sliced ``(W, n, n)`` uint64 execution of one block.

        Every per-trial tensor op is a word op over 64 trials.
        Classification stays in the packed domain end to end: the
        damaged flags OR-reduce the final words, the faulty-trial flags
        are the packed ``totals != 0`` mask, and the four tallies fall
        out of word popcounts — no state tensor is ever unpacked.

        Returns ``(injection, (clean, corrected, detected, silent))``.
        """
        be = self.backend
        xp = be.xp
        kern = self.kernels
        t0 = perf_counter_ns()
        nwords = words_for(batch)
        words = xp.zeros((nwords, self.grid.n, self.grid.n),
                         dtype=xp.uint64)
        planes = tuple(xp.zeros((nwords,) + shape, dtype=xp.uint64)
                       for shape in self.code.plane_shapes)
        injection = self.injector.inject_batch_planes_packed(
            batch, words, planes if self.include_check_bits else (),
            rngs=inject_rngs, backend=be)
        t1 = perf_counter_ns()

        sweep = self.code.check_batched_packed(words, planes, batch,
                                               correct=True, backend=be,
                                               kernels=kern)
        t2 = perf_counter_ns()

        damaged = or_reduce_words(words, axis=(1, 2), backend=be)
        for p in planes:
            damaged = damaged | or_reduce_words(p, axis=(1, 2, 3),
                                                backend=be)
        # Word-level tallies. ``faulty`` packs the host-side ground-truth
        # totals (zero-padded tail), so ANDing with it also clears any
        # tail garbage the complements below would otherwise admit;
        # ``uncorrectable`` is built from zero-padded syndromes and needs
        # no extra masking beyond that same AND.
        faulty = pack_batch(injection.totals != 0, backend=be, kernels=kern)
        uncorrectable = or_reduce_words(sweep.decode.uncorrectable,
                                        axis=(1, 2), backend=be)
        corrected = faulty & ~damaged
        detected = faulty & damaged & uncorrectable
        silent = faulty & damaged & ~uncorrectable

        def count(mask_words) -> int:
            return int(be.to_numpy(popcount_words(
                mask_words, backend=be, kernels=kern)).sum())

        n_faulty = count(faulty)
        counts = (batch - n_faulty, count(corrected),
                  count(detected), count(silent))
        if self.profile is not None:
            profile = self.profile
            profile.add("inject", t1 - t0)
            profile.add("decode_sweep", t2 - t1)
            profile.add("tally", perf_counter_ns() - t2)
        return injection, counts


# ---------------------------------------------------------------------- #
# Work-unit shard layer
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class ShardTask:
    """Picklable description of one per-trial-seeded trial span.

    The unit of sharded campaign execution: everything a worker process
    needs to rebuild the engine and run trials ``[lo, hi)`` under the
    per-trial seeding contract. Because the contract makes the tallies a
    pure function of ``(entropy, lo, hi)`` and the engine configuration,
    a ``ShardTask`` can run anywhere — this process, a local pool
    worker, or a remote service worker — and :func:`merge_results` over
    any contiguous partition of a trial range reproduces the unsharded
    run exactly. The backend crosses process boundaries by registered
    *name* (module handles do not pickle) and is re-resolved where the
    task runs.
    """

    n: int
    m: int
    injector: FaultInjector
    entropy: int
    lo: int
    hi: int
    include_check_bits: bool = True
    batch_size: int = DEFAULT_BATCH_SIZE
    backend_name: str = "numpy"
    packing: str = "u8"
    code: str = "diagonal"
    kernels_name: str = "numpy"

    @property
    def trials(self) -> int:
        """Trial count of this span."""
        return self.hi - self.lo

    @property
    def span(self) -> tuple[int, int]:
        """The half-open trial range ``(lo, hi)``."""
        return (self.lo, self.hi)

    # -- serialization hooks (the distributed wire format builds on
    # these; see repro.distributed.wire for the versioned envelope) ---- #

    def to_dict(self) -> dict:
        """Plain-JSON form of this task.

        Requires an injector with a declarative config
        (:meth:`FaultInjector.to_config`); the config — not the live
        object — crosses the wire, so a worker rebuilds an injector
        that is behaviourally identical under per-trial seeding.
        """
        return {
            "n": self.n, "m": self.m,
            "injector": self.injector.to_config(),
            "entropy": self.entropy, "lo": self.lo, "hi": self.hi,
            "include_check_bits": self.include_check_bits,
            "batch_size": self.batch_size,
            "backend_name": self.backend_name,
            "packing": self.packing,
            "code": self.code,
            "kernels_name": self.kernels_name,
        }

    @staticmethod
    def from_dict(data: dict) -> "ShardTask":
        """Rebuild a task from :meth:`to_dict` output (inverse)."""
        from repro.faults.serialize import build_injector
        expected = {"n", "m", "injector", "entropy", "lo", "hi",
                    "include_check_bits", "batch_size", "backend_name",
                    "packing", "code", "kernels_name"}
        missing = sorted(expected - set(data))
        unknown = sorted(set(data) - expected)
        if missing or unknown:
            raise ValueError(f"malformed shard task: missing fields "
                             f"{missing}, unknown fields {unknown}")
        return ShardTask(
            n=int(data["n"]), m=int(data["m"]),
            injector=build_injector(data["injector"]),
            entropy=int(data["entropy"]),
            lo=int(data["lo"]), hi=int(data["hi"]),
            include_check_bits=bool(data["include_check_bits"]),
            batch_size=int(data["batch_size"]),
            backend_name=str(data["backend_name"]),
            packing=str(data["packing"]),
            code=str(data["code"]),
            kernels_name=str(data["kernels_name"]))


def run_shard_task(task: ShardTask) -> CampaignResult:
    """Execute one :class:`ShardTask`: rebuild the engine, run its span.

    The worker entry point of both the process-pool shard layer and the
    campaign service (:mod:`repro.service`).
    """
    return run_shard_task_profiled(task)[0]


def run_shard_task_profiled(task: ShardTask
                            ) -> Tuple[CampaignResult, Dict[str, int]]:
    """:func:`run_shard_task` plus the per-phase timing profile.

    Returns ``(result, {phase: ns})``. The profile covers the engine
    phases in :data:`PROFILE_PHASES`; it is empty when observability is
    disabled (:func:`repro.obs.set_enabled`). The tallies are the same
    object either way — profiling reads clocks around the existing
    statements, never reorders them — so the bit-identity differential
    suites hold for both entry points. Picklable at module level like
    :func:`run_shard_task`, so process pools can return the pair.
    """
    try:
        backend = get_backend(task.backend_name)
    except ValueError as exc:
        raise ValueError(
            f"backend {task.backend_name!r} is not registered inside this "
            f"worker process; with a spawn-based pool start method the "
            f"register_backend() call must run at import time of a "
            f"module the worker imports (e.g. next to the injector "
            f"definition), not interactively in the parent") from exc
    try:
        kernels = get_kernels(task.kernels_name)
    except ValueError as exc:
        raise ValueError(
            f"kernel tier {task.kernels_name!r} is not registered inside "
            f"this worker process; with a spawn-based pool start method "
            f"the register_kernels() call must run at import time of a "
            f"module the worker imports, not interactively in the "
            f"parent") from exc
    profile = PhaseProfile() if obs_metrics.is_enabled() else None
    engine = BatchCampaign(BlockGrid(task.n, task.m), task.injector,
                           include_check_bits=task.include_check_bits,
                           batch_size=task.batch_size,
                           backend=backend, packing=task.packing,
                           code=task.code, kernels=kernels,
                           profile=profile)
    t0 = perf_counter_ns()
    result = engine.run_range_seeded(task.entropy, task.lo, task.hi)
    elapsed_ns = perf_counter_ns() - t0
    phases = profile.as_dict() if profile is not None else {}
    _SHARD_RUNS.inc(kernels=kernels.name, packing=task.packing,
                    code=task.code)
    _SHARD_SECONDS.observe(elapsed_ns / 1e9, kernels=kernels.name,
                           packing=task.packing)
    for phase, ns in phases.items():
        _PHASE_SECONDS.inc(ns / 1e9, phase=phase)
    return result, phases


def run_reference(grid: BlockGrid, injector: FaultInjector, entropy: int,
                  trials: int, include_check_bits: bool = True,
                  code: str = "diagonal") -> CampaignResult:
    """Scalar replay of a per-trial-seeded batched run.

    Trial ``i`` fills real random data from stream
    :data:`~repro.utils.rng.DATA_STREAM` and replays its faults from its
    one-trial span ``[i, i + 1)`` of stream
    :data:`~repro.utils.rng.INJECT_STREAM` — the draw the batched engine
    injects (draw contract v3: a Bernoulli-field injector draws trial
    ``i``'s whole 64-trial group and keeps row ``i % 64``). For the
    diagonal code this drives :meth:`FaultCampaign.run_trial`; other
    registered codes replay the same streams through the code's
    per-block ``encode_block``/``decode_block`` pair. Either way this is
    the reference side of the differential harness, and its real data
    makes it the witness of the engine's zero-data premise. Slow by
    construction; use for verification, not production sweeps.
    """
    if code == "diagonal":
        campaign = FaultCampaign(grid, injector,
                                 include_check_bits=include_check_bits)
        out = CampaignResult()
        for i in range(trials):
            kind, faults, multi = campaign.run_trial(
                data_rng=trial_stream(entropy, i, DATA_STREAM),
                inject_rng=TrialStreams(entropy, i, i + 1, INJECT_STREAM))
            out.trials += 1
            out.injected_faults += faults
            out.blocks_with_multi_faults += multi
            setattr(out, kind, getattr(out, kind) + 1)
        return out
    return _run_reference_code(grid, injector, entropy, trials,
                               include_check_bits, code)


def _run_reference_code(grid: BlockGrid, injector: FaultInjector,
                        entropy: int, trials: int, include_check_bits: bool,
                        code: str) -> CampaignResult:
    """Per-block Python replay for non-diagonal registry codes.

    Fills random data from each trial's data stream, draws faults from
    its one-trial injection span through the injector's
    :meth:`FaultInjector._draw_batch` with the code's plane shapes —
    the draw the batched engine makes — and decodes block by block
    through :meth:`repro.core.registry.BlockCode.decode_block`.
    """
    blockcode = build_code(code, grid)
    n, m = grid.n, grid.m
    b = grid.blocks_per_side
    shapes = blockcode.plane_shapes if include_check_bits else None
    out = CampaignResult()
    for i in range(trials):
        data_rng = trial_stream(entropy, i, DATA_STREAM)
        data = data_rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        planes = [np.zeros(shape, dtype=np.uint8)
                  for shape in blockcode.plane_shapes]
        for br in range(b):
            for bc in range(b):
                block = data[br * m:(br + 1) * m, bc * m:(bc + 1) * m]
                for p, bits in enumerate(blockcode.encode_block(block)):
                    planes[p][:, br, bc] = bits
        golden = data.copy()
        golden_planes = [p.copy() for p in planes]

        injection = injector._draw_batch(
            1, (n, n), shapes, TrialStreams(entropy, i, i + 1, INJECT_STREAM))
        if injection.trial.size:
            np.bitwise_xor.at(data, (injection.rows, injection.cols), 1)
        for p in range(len(planes)):
            sel = injection.check_plane == p
            if sel.any():
                np.bitwise_xor.at(
                    planes[p], (injection.check_d[sel],
                                injection.check_br[sel],
                                injection.check_bc[sel]), 1)

        uncorrectable = False
        for br in range(b):
            for bc in range(b):
                block = data[br * m:(br + 1) * m, bc * m:(bc + 1) * m]
                outcome = blockcode.decode_block(
                    block, *(p[:, br, bc] for p in planes))
                if isinstance(outcome, DataError):
                    data[br * m + outcome.row, bc * m + outcome.col] ^= 1
                elif isinstance(outcome, CheckBitError):
                    p = blockcode.plane_names.index(outcome.plane)
                    planes[p][outcome.index, br, bc] ^= 1
                elif isinstance(outcome, Uncorrectable):
                    uncorrectable = True

        restored = bool(np.array_equal(data, golden)) and all(
            np.array_equal(p, g) for p, g in zip(planes, golden_planes))
        faults = int(injection.totals[0])
        multi = int(injection.multi_fault_blocks(grid)[0])
        if faults == 0:
            kind = "clean"
        elif restored:
            kind = "corrected"
        elif uncorrectable:
            kind = "detected"
        else:
            kind = "silent"
        out.trials += 1
        out.injected_faults += faults
        out.blocks_with_multi_faults += multi
        setattr(out, kind, getattr(out, kind) + 1)
    return out


@dataclass(frozen=True)
class AdaptiveRunResult:
    """Outcome of an adaptive (CI-early-stopped) campaign run.

    ``result`` holds the merged tallies of every round actually run;
    ``ci_low``/``ci_high`` bracket the failure rate at ``confidence`` via
    the Wilson score interval, and ``converged`` reports whether the
    half-width reached ``tolerance`` before ``max_trials``.
    """

    result: CampaignResult
    tolerance: float
    confidence: float
    halfwidth: float
    ci_low: float
    ci_high: float
    rounds: int
    converged: bool

    @property
    def trials(self) -> int:
        return self.result.trials

    @property
    def failure_rate(self) -> float:
        return self.result.failure_rate


class CampaignRunner:
    """Facade over the scalar reference and the batched/sharded engines.

    Parameters
    ----------
    grid, injector, seed, include_check_bits:
        As for :class:`FaultCampaign`.
    engine:
        ``"batched"`` (default) or ``"scalar"`` (the reference
        implementation, unchanged).
    batch_size:
        Trials per vectorized block (memory/speed trade-off).
    workers:
        Process count for sharded runs. ``workers > 1`` requires (and
        ``seeding="per-trial"`` provides) shard-invariant per-trial
        seeding; the seed must then be an integer or ``None``.
    seeding:
        ``"sequential"`` | ``"per-trial"`` | ``None`` (auto: sequential
        for one worker, per-trial otherwise). See the module docstring
        for the exact reproducibility contract of each mode.
    backend:
        Array backend for the vectorized engine — an
        :class:`repro.utils.backend.ArrayBackend`, a registered name, or
        ``None`` (``$REPRO_BACKEND`` / numpy). Sharded runs rebuild the
        backend in each worker from its registered name, so unregistered
        ad-hoc instances are limited to ``workers == 1`` — and with a
        spawn-based pool start method (macOS/Windows default) a custom
        name must be registered at import time of a module workers
        import; built-in names always resolve.
    packing:
        ``"u8"`` (default, one byte per trial bit) or ``"u64"`` (the
        bit-sliced layout: 64 trials packed per uint64 word — see the
        module docstring). Tallies are identical either way; ``"u64"``
        cuts memory traffic 8x on the campaign kernels. Only meaningful
        for the batched engine.
    code:
        Registered block-code name (:func:`repro.core.registry
        .code_names`); default ``"diagonal"``. The scalar engine is the
        diagonal reference implementation, so ``engine="scalar"``
        requires the default.
    kernels:
        Host-side kernel tier for the word-level hot loops — a
        :class:`repro.utils.kernels.KernelTier`, a registered name, or
        ``None`` (``$REPRO_KERNELS`` / auto). Resolved eagerly to a
        concrete tier; sharded runs ship the **resolved name** to each
        worker (like the backend name), so a worker without the compiled
        extension fails loudly instead of silently switching code paths.
        Tiers are bit-identical — this only affects throughput.
    """

    def __init__(self, grid: BlockGrid, injector: FaultInjector,
                 seed: SeedLike = None, include_check_bits: bool = True,
                 engine: str = "batched",
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 workers: int = 1, seeding: Optional[str] = None,
                 backend: BackendLike = None, packing: str = "u8",
                 code: str = "diagonal", kernels: KernelsLike = None):
        if engine not in ("batched", "scalar"):
            raise ValueError(f"engine must be 'batched' or 'scalar', "
                             f"got {engine!r}")
        if code not in code_names():
            raise ValueError(f"unknown code {code!r}; registered codes: "
                             f"{code_names()}")
        if engine == "scalar" and code != "diagonal":
            raise ValueError("the scalar engine is the diagonal reference "
                             "implementation; non-diagonal codes require "
                             "engine='batched' (run_reference replays them "
                             "in scalar form)")
        if packing not in PACKINGS:
            raise ValueError(f"packing must be one of {PACKINGS}, "
                             f"got {packing!r}")
        if engine == "scalar" and packing != "u8":
            raise ValueError("the scalar engine has no packed layout; "
                             "packing='u64' requires engine='batched'")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if seeding is None:
            seeding = "sequential" if workers == 1 else "per-trial"
        if seeding not in ("sequential", "per-trial"):
            raise ValueError(f"seeding must be 'sequential' or 'per-trial', "
                             f"got {seeding!r}")
        if seeding == "sequential" and workers > 1:
            raise ValueError("sequential seeding cannot be sharded; use "
                             "seeding='per-trial' for workers > 1")
        if engine == "scalar" and (workers > 1 or seeding == "per-trial"):
            raise ValueError("the scalar engine only supports sequential "
                             "single-process runs; use run_reference() to "
                             "replay a per-trial-seeded run")
        self.grid = grid
        self.injector = injector
        self.include_check_bits = include_check_bits
        self.engine = engine
        self.batch_size = batch_size
        self.workers = workers
        self.seeding = seeding
        self.backend = get_backend(backend)
        self.packing = packing
        self.code = code
        self.kernels = get_kernels(kernels)
        if workers > 1:
            if self.backend.name not in available_backends():
                raise ValueError(
                    f"backend {self.backend.name!r} is not registered; "
                    f"sharded runs rebuild the backend by name in each "
                    f"worker — register_backend() it or run with workers=1")
            if isinstance(backend, ArrayBackend) \
                    and get_backend(backend.name) is not backend:
                # An ad-hoc instance shadowing a registered name would
                # silently mix backends: workers re-resolve the name to
                # the registered one while in-process spans use the
                # instance.
                raise ValueError(
                    f"backend instance {backend.name!r} is not the "
                    f"registered instance of that name; sharded runs "
                    f"re-resolve backends by name in each worker, so "
                    f"pass the name (backend={backend.name!r}) or run "
                    f"with workers=1")
        if seeding == "per-trial":
            self.entropy: Optional[int] = resolve_entropy(seed)
            self._seed: SeedLike = None
        else:
            self.entropy = None
            self._seed = seed

    def _make_engine(self):
        """Fresh engine honouring this runner's configuration."""
        if self.engine == "scalar":
            return FaultCampaign(
                self.grid, self.injector, seed=self._seed,
                include_check_bits=self.include_check_bits)
        return BatchCampaign(
            self.grid, self.injector,
            include_check_bits=self.include_check_bits,
            batch_size=self.batch_size, backend=self.backend,
            packing=self.packing, code=self.code, kernels=self.kernels)

    def _run_span(self, lo: int, hi: int,
                  pool: Optional[ProcessPoolExecutor] = None
                  ) -> CampaignResult:
        """Per-trial-seeded trials ``[lo, hi)``, sharded across workers.

        ``pool`` reuses a caller-managed executor (the adaptive loop runs
        many spans and should not respawn workers per round); ``None``
        creates one for this span when sharding is needed.
        """
        bounds = [(lo + a, lo + b)
                  for a, b in shard_bounds(hi - lo, self.workers)]
        if self.workers == 1 or len(bounds) <= 1:
            engine = BatchCampaign(self.grid, self.injector,
                                   include_check_bits=self.include_check_bits,
                                   batch_size=self.batch_size,
                                   backend=self.backend,
                                   packing=self.packing, code=self.code,
                                   kernels=self.kernels)
            return merge_results([engine.run_range_seeded(self.entropy, a, b)
                                  for a, b in bounds])
        tasks = [self.shard_task(a, b) for a, b in bounds]
        if pool is not None:
            return merge_results(list(pool.map(run_shard_task, tasks)))
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            shards = list(pool.map(run_shard_task, tasks))
        return merge_results(shards)

    def shard_task(self, lo: int, hi: int) -> ShardTask:
        """The :class:`ShardTask` for trials ``[lo, hi)`` of this runner.

        Requires per-trial seeding (the only mode whose spans are
        relocatable); the campaign service uses this to turn one
        submitted job into independently executable work units.
        """
        if self.seeding != "per-trial":
            raise ValueError("shard tasks require seeding='per-trial'; "
                             "sequential streams cannot be split into "
                             "independent spans")
        return ShardTask(self.grid.n, self.grid.m, self.injector,
                         self.entropy, lo, hi,
                         include_check_bits=self.include_check_bits,
                         batch_size=self.batch_size,
                         backend_name=self.backend.name,
                         packing=self.packing, code=self.code,
                         kernels_name=self.kernels.name)

    def run(self, trials: int) -> CampaignResult:
        """Run ``trials`` trials on the configured engine."""
        if self.seeding == "sequential":
            return self._make_engine().run(trials)
        return self._run_span(0, trials)

    def run_adaptive(self, tolerance: float, confidence: float = 0.95,
                     max_trials: int = 1_000_000,
                     initial_trials: int = 256,
                     growth: float = 2.0) -> AdaptiveRunResult:
        """Run until the failure-rate CI is tight enough (or the cap).

        Trials are issued in rounds of deterministic size — the schedule
        ``initial_trials, initial_trials * growth, ...`` (truncated at
        ``max_trials``) depends only on the arguments, never on observed
        tallies — and after each round the Wilson score interval of the
        failure rate (``detected + silent`` over trials) is evaluated at
        ``confidence``; the run stops once its half-width is at most
        ``tolerance``.

        Reproducibility: because the schedule is deterministic and each
        round extends the same trial sequence (sequential modes continue
        one engine's streams; per-trial mode runs trial ranges under the
        root entropy), the merged tallies equal a plain ``run`` of the
        same total — and therefore depend only on the seed and the
        stopping point, not on how rounds were grouped. In per-trial
        mode the result is additionally invariant under ``workers`` and
        ``batch_size``, like every other per-trial-seeded run.
        """
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), "
                             f"got {confidence}")
        if max_trials <= 0:
            raise ValueError(f"max_trials must be positive, got {max_trials}")
        if initial_trials <= 0:
            raise ValueError(f"initial_trials must be positive, "
                             f"got {initial_trials}")
        if growth < 1.0:
            raise ValueError(f"growth must be >= 1, got {growth}")

        pool: Optional[ProcessPoolExecutor] = None
        if self.seeding == "sequential":
            engine = self._make_engine()

            def run_span(lo: int, hi: int) -> CampaignResult:
                return engine.run(hi - lo)
        else:
            if self.workers > 1:
                # One executor across every round — adaptive sweeps run
                # many spans and must not respawn workers per round.
                pool = ProcessPoolExecutor(max_workers=self.workers)

            def run_span(lo: int, hi: int) -> CampaignResult:
                return self._run_span(lo, hi, pool=pool)

        try:
            total = CampaignResult()
            done = 0
            rounds = 0
            step = initial_trials
            while True:
                take = min(step, max_trials - done)
                total = merge_results([total, run_span(done, done + take)])
                done += take
                rounds += 1
                failures = total.detected + total.silent
                low, high = wilson_interval(failures, total.trials,
                                            confidence)
                halfwidth = (high - low) / 2.0
                converged = halfwidth <= tolerance
                if converged or done >= max_trials:
                    return AdaptiveRunResult(
                        result=total, tolerance=tolerance,
                        confidence=confidence, halfwidth=halfwidth,
                        ci_low=low, ci_high=high, rounds=rounds,
                        converged=converged)
                step = max(1, int(step * growth))
        finally:
            if pool is not None:
                pool.shutdown()

    def run_reference(self, trials: int) -> CampaignResult:
        """Scalar replay of this runner's per-trial-seeded contract."""
        if self.seeding != "per-trial":
            raise ValueError("run_reference replays per-trial seeding; "
                             "sequential runs are already bit-identical to "
                             "FaultCampaign.run")
        return run_reference(self.grid, self.injector, self.entropy, trials,
                             self.include_check_bits, code=self.code)
