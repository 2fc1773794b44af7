"""Batched Monte-Carlo campaign engine.

The scalar :class:`repro.faults.campaign.FaultCampaign` runs one trial at
a time: fresh crossbar, random data, encode, inject, full Python-loop
check sweep. That loop is the slowest path in the repo (the Sec. V-A
binomial-model validation and the MTTF benches all sit on it). This
module runs ``B`` trials per block and simulates only the error pattern,
at a cost that scales with the faults rather than the cells:

* injection        — :meth:`repro.faults.injector.FaultInjector
  .draw_events`: flat ``(trial, cell)`` events in the exposed-field
  layout (data row-major, then each check plane);
* block keys       — one table per (n, m, code) maps a cell to
  ``block * cells_per_block + local`` and a local cell to its uint64
  syndrome column; the events' ``trial``-keyed block keys are sorted, so
  each faulty block's events sit together;
* decode           — duplicate events cancel in pairs, and only blocks
  left with two or more faulty cells are decoded: their syndrome is the
  XOR of the cells' columns, and a nonzero syndrome that matches no
  column is flagged uncorrectable;
* classification   — per-trial counts give the same
  :class:`repro.faults.campaign.CampaignResult` tallies the scalar
  campaign produces.

Exactness (the column-matching premise)
=======================================

Every registered code is linear over GF(2): ``encode(0) == 0`` and
``encode(a ^ b) == encode(a) ^ encode(b)``, so the syndromes, and with
them every decode and correction, depend only on the error pattern. A
trial on random data ends with ``data ^ residual`` where a trial on zero
data ends with ``residual``; both are restored exactly when the residual
error is zero. The engine therefore never fills data, encodes, or keeps
golden copies.

Every registered code is also block-local and decodes by column
matching: a block's syndrome is the XOR of its faulty cells' columns
(a data cell's column is the code's ``encode_block`` of the unit block,
a check cell's is a unit vector), the decoder corrects exactly the
syndromes equal to one column, and flags every other nonzero syndrome
uncorrectable. So a block with one faulty cell is always restored, a
block with two or more never is (a correction flips one cell, which
leaves at least one wrong), and a trial is

* ``clean`` with no events, ``corrected`` when no block keeps two or
  more faulty cells,
* ``detected`` when one of those blocks has a nonzero syndrome that
  matches no column, and ``silent`` otherwise —

exactly as the full check sweep decides. None of this needs the codes to
detect every double error, and ``diagonal`` and ``rowcol`` do not: a
data error plus the check bit of its own diagonal (or row) matches a
single check-bit column and ends silent, on both paths.
:func:`repro.core.registry.build_code` refuses a code that fails a
seeded linearity check or does not restore every single-cell error of a
block. The scalar :class:`~repro.faults.campaign.FaultCampaign` and
:func:`run_reference` keep real random data and the codes' own
decoders, and the per-code tensor sweeps
(:meth:`repro.core.registry.BlockCode.check_batched_packed`) stay as
the reference of ``tests/faults/test_fault_centric.py``, so the
differential suites keep witnessing both premises. Memory per block is
proportional to the events, not to ``B * n**2``.

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
geometry, injector, entropy, engine configuration) and runs its range
in ``batch_size`` chunks.

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
  ``CampaignRunner.run`` with the same entropy, for either
  ``packing``. The differential suite ``tests/service/`` pins
  service-executed == in-process results.

The same purity is what makes spans *relocatable across hosts*: the
distributed layer (:mod:`repro.distributed`) serializes a
:class:`ShardTask` to versioned, hash-stamped JSON (:meth:`to_dict` /
:meth:`from_dict`, injector configs via
:mod:`repro.faults.serialize`), ships it through a lease broker to any
``repro worker`` process, and merges the returned tallies through the
identical checkpoint path — so distributed results are bit-identical
too, including after worker deaths and lease re-enqueues
(``tests/distributed/`` pins this).

Packed bit-slice layout
=======================

The per-code tensor kernels (:meth:`repro.core.registry.BlockCode
.check_batched_packed`, the injectors' ``inject_batch_packed``) work on
the bit-sliced layout of :mod:`repro.utils.bitpack`: the batch dimension
is packed 64 trials per ``uint64`` word, so a ``(B, n, n)`` stack
becomes ``(ceil(B/64), n, n)`` words and every XOR/AND/OR op processes
64 trials at once.

* **Word layout:** trial ``i`` occupies bit ``i % 64`` (little-endian:
  bit ``j`` of a word is ``(word >> j) & 1``) of word ``i // 64``.
* **Tail padding:** when ``B % 64 != 0`` the surplus bits of the last
  word are zero in every state tensor (data words, check planes) and
  are never written by injection or correction (all flip masks are ANDs
  of zero-padded state); derived masks built with complements may carry
  garbage there, so every unpacking consumer trims to the true ``B``.

They are off the campaign path and stay as the reference the
differential suites (``tests/faults/test_packed_equivalence.py``,
``tests/faults/test_fault_centric.py``) compare the block against. The
block computes with numpy and calls no kernel of the tier registry
(:mod:`repro.utils.kernels`); ``packing=`` is accepted, validated and
carried by every :class:`ShardTask` and service spec, but both layouts
run the same block.

Every simulator in the library rides this engine: uniform/burst/check-bit
SER campaigns, the drift-window campaigns of
:class:`repro.faults.drift.DriftInjector`, and the linear-burst survival
analysis of :mod:`repro.reliability.burst` all dispatch through
:class:`CampaignRunner`, inheriting batching, sharding and adaptive
sampling (:meth:`CampaignRunner.run_adaptive`).
"""

from __future__ import annotations

import functools
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
from repro.core.registry import CODE_KINDS, BlockCode, build_code, code_names
from repro.faults.campaign import CampaignResult, FaultCampaign
from repro.faults.injector import FaultInjector
from repro.obs import metrics as obs_metrics
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

#: Default trials per engine block.
DEFAULT_BATCH_SIZE = 64

#: Accepted ``packing`` values: the per-code kernels' tensor layouts, one
#: byte per trial bit (``"u8"``) or 64 trials bit-sliced into each uint64
#: word (``"u64"``). Validated and carried for spec and wire
#: compatibility; the campaign block is the same for both.
PACKINGS = ("u8", "u64")

#: Most check bits a campaign block may carry: its syndrome is one uint64.
MAX_SYNDROME_BITS = 64

#: The campaign phases the engine's profiler times per block (the
#: worker/scheduler add ``checkpoint_write`` at the persistence layer).
PROFILE_PHASES = ("inject", "decode_sweep", "tally")

_SHARD_RUNS = obs_metrics.counter(
    "repro_shard_tasks_total",
    "Shard-task executions, by packing / code.", ("packing", "code"))
_SHARD_SECONDS = obs_metrics.histogram(
    "repro_shard_seconds",
    "Wall seconds per shard-task execution.", ("packing",))
_PHASE_SECONDS = obs_metrics.counter(
    "repro_shard_phase_seconds_total",
    "Cumulative seconds spent per campaign phase (profiled shards).",
    ("phase",))
#: The per-shard metric handles, resolved once (a shard takes well under
#: a millisecond, so per-call label checks would show in its budget).
_PHASE_HANDLES = {phase: _PHASE_SECONDS.labels(phase=phase)
                  for phase in PROFILE_PHASES}


@functools.lru_cache(maxsize=64)
def _shard_handles(packing: str, code: str) -> tuple:
    """``(runs, seconds)`` metric handles of one shard configuration."""
    return (_SHARD_RUNS.labels(packing=packing, code=code),
            _SHARD_SECONDS.labels(packing=packing))


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


@dataclass(frozen=True)
class BlockTable:
    """Cell-to-block map and syndrome columns of one (n, m, code).

    Locals ``0 .. m*m - 1`` of a block are its data cells row-major, the
    rest its check bits in code order (plane 0's ``rk`` bits, then plane
    1's, ...). ``key[c]`` is ``block * cells_per_block + local`` of
    exposed-field cell ``c`` (:func:`repro.faults.injector
    .field_offsets` layout, with every plane present). ``column[local]``
    is that cell's syndrome column, the block's check bits concatenated
    in the same order: the code's ``encode_block`` of the unit block for
    a data cell, a unit vector for a check bit. ``columns`` holds them
    sorted, for matching.
    """

    blocks: int
    cells_per_block: int
    key: np.ndarray
    column: np.ndarray
    columns: np.ndarray


def block_table(code: BlockCode) -> BlockTable:
    """Build the :class:`BlockTable` of ``code`` on its grid.

    Raises ``ValueError`` for a block with more than
    :data:`MAX_SYNDROME_BITS` check bits.
    """
    n, m = code.grid.n, code.grid.m
    b = code.grid.blocks_per_side
    depths = code.plane_depths
    checks = sum(depths)
    if checks > MAX_SYNDROME_BITS:
        raise ValueError(
            f"code {code.name!r} has {checks} check bits per block; the "
            f"campaign engine holds a block's syndrome in one uint64 "
            f"(at most {MAX_SYNDROME_BITS} bits)")
    k = m * m
    per_block = k + checks
    lanes = np.arange(n, dtype=np.int64)
    # Data cell (r, c) lies in block (r // m, c // m) at local
    # (r % m) * m + c % m.
    row_part = (lanes // m) * (b * per_block) + (lanes % m) * m
    col_part = (lanes // m) * per_block + lanes % m
    keys = [(row_part[:, None] + col_part[None, :]).reshape(-1)]
    block_base = np.arange(b * b, dtype=np.int64) * per_block
    local = k
    for rk in depths:
        bits = np.arange(local, local + rk, dtype=np.int64)
        keys.append((bits[:, None] + block_base[None, :]).reshape(-1))
        local += rk
    columns = []
    for cell in range(k):
        unit = np.zeros(k, dtype=np.uint8)
        unit[cell] = 1
        bits = np.concatenate([
            np.asarray(plane, dtype=np.uint8).reshape(-1)
            for plane in code.encode_block(unit.reshape(m, m))])
        columns.append(sum(int(bit) << j for j, bit in enumerate(bits)))
    columns += [1 << j for j in range(checks)]
    column = np.asarray(columns, dtype=np.uint64)
    table = BlockTable(blocks=b * b, cells_per_block=per_block,
                       key=np.concatenate(keys), column=column,
                       columns=np.sort(column))
    for arr in (table.key, table.column, table.columns):
        arr.setflags(write=False)  # shared by every engine of the geometry
    return table


@functools.lru_cache(maxsize=16)
def _cached_block_table(name: str, builder, n: int, m: int) -> BlockTable:
    """:func:`block_table` per (code name, registered builder, n, m)."""
    return block_table(builder(BlockGrid(n, m)))


class BatchCampaign:
    """Fault-centric inject-check-verify engine over blocks of trials.

    Produces the same :class:`CampaignResult` tallies as the scalar
    :class:`FaultCampaign` (see the module docstring for the exact
    equivalence contract per seeding mode). ``seed`` is the data-fill
    seed of the matching :class:`FaultCampaign`; this engine runs on
    all-zero data and never consumes it.
    """

    def __init__(self, grid: BlockGrid, injector: FaultInjector,
                 seed: SeedLike = None, include_check_bits: bool = True,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 packing: str = "u8", code: str = "diagonal"):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if packing not in PACKINGS:
            raise ValueError(f"packing must be one of {PACKINGS}, "
                             f"got {packing!r}")
        self.grid = grid
        self.injector = injector
        self.include_check_bits = include_check_bits
        self.batch_size = batch_size
        self.packing = packing
        self.code_name = code
        self.code = build_code(code, grid)
        #: Nanoseconds per phase of :data:`PROFILE_PHASES`, summed over
        #: every block this engine ran; every block adds to all three.
        #: The sums cost three integer adds per block, so they run
        #: unconditionally, and :func:`run_shard_task_profiled` reports
        #: them only when observability is enabled.
        self.phase_ns = dict.fromkeys(PROFILE_PHASES, 0)
        self._data_shape = (grid.n, grid.n)
        self._plane_shapes = self.code.plane_shapes \
            if include_check_bits else None
        self._table = _cached_block_table(code, CODE_KINDS[code],
                                          grid.n, grid.m)
        #: Key distance between consecutive trials' events.
        self._trial_stride = self._table.blocks * self._table.cells_per_block

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
    # Fault-centric core
    # ------------------------------------------------------------------ #

    def _run_block(self, batch: int,
                   inject_rngs: Optional[TrialStreams],
                   ) -> CampaignResult:
        """One block of ``batch`` trials, from its fault events.

        ``inject_rngs`` of ``None`` selects sequential mode (the
        injector's own stream); a :class:`~repro.utils.rng.TrialStreams`
        span selects per-trial seeding.
        """
        per_block = self._table.cells_per_block
        t0 = perf_counter_ns()
        trial, cell = self.injector.draw_events(
            batch, self._data_shape, self._plane_shapes, inject_rngs)
        t1 = perf_counter_ns()

        # Each event's trial-keyed block key; sorted, a block's events
        # sit together.
        keys = self._table.key[cell]
        keys += trial * self._trial_stride
        keys.sort()
        blocks = keys // per_block
        # again[i]: events i and i + 1 hit the same block.
        again = np.flatnonzero(blocks[1:] == blocks[:-1])
        multi = 0
        lost = caught = 0
        if again.size:
            # A block hit k >= 2 times (duplicates included) is a run of
            # k - 1 consecutive indices in ``again``.
            multi = 1 + int(np.count_nonzero(np.diff(again) > 1))
            member = np.zeros(keys.size, dtype=bool)
            member[again] = True
            member[again + 1] = True
            damaged, flagged = self._decode(keys[member])
            lost, caught = _distinct(damaged), _distinct(flagged)
        t2 = perf_counter_ns()

        faulty = int(np.count_nonzero(np.bincount(trial, minlength=batch)))
        result = CampaignResult(
            trials=batch,
            clean=batch - faulty,
            corrected=faulty - lost,
            detected=caught,
            silent=lost - caught,
            injected_faults=int(keys.size),
            blocks_with_multi_faults=multi,
        )
        ns = self.phase_ns
        ns["inject"] += t1 - t0
        ns["decode_sweep"] += t2 - t1
        ns["tally"] += perf_counter_ns() - t2
        return result

    def _decode(self, keys) -> tuple:
        """Decode the blocks left with two or more faulty cells.

        ``keys`` are the sorted keys of the events in blocks hit at
        least twice. Returns the sorted trials of the blocks that keep
        two or more faulty cells once duplicates cancel, and of those
        whose syndrome is nonzero and matches no column (flagged
        uncorrectable).
        """
        table = self._table
        per_block = table.cells_per_block
        repeat = keys[1:] == keys[:-1]
        if repeat.any():
            # A cell flipped an even number of times is intact.
            first = np.flatnonzero(np.concatenate(([True], ~repeat)))
            flips = np.diff(np.concatenate((first, [keys.size])))
            keys = keys[first[flips % 2 == 1]]
            if not keys.size:
                return keys, keys
        blocks = keys // per_block
        start = np.flatnonzero(np.concatenate(([True],
                                               blocks[1:] != blocks[:-1])))
        several = np.diff(np.concatenate((start, [keys.size]))) >= 2
        syndrome = np.bitwise_xor.reduceat(table.column[keys % per_block],
                                           start)[several]
        columns = table.columns
        nearest = np.minimum(np.searchsorted(columns, syndrome),
                             columns.size - 1)
        flagged = (syndrome != 0) & (columns[nearest] != syndrome)
        damaged = blocks[start[several]] // table.blocks
        return damaged, damaged[flagged]


def _distinct(values) -> int:
    """Count of distinct values in the sorted array ``values``."""
    if not values.size:
        return 0
    return 1 + int(np.count_nonzero(values[1:] != values[:-1]))


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
    run exactly.
    """

    n: int
    m: int
    injector: FaultInjector
    entropy: int
    lo: int
    hi: int
    include_check_bits: bool = True
    batch_size: int = DEFAULT_BATCH_SIZE
    packing: str = "u8"
    code: str = "diagonal"

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
            "packing": self.packing,
            "code": self.code,
        }

    @staticmethod
    def from_dict(data: dict) -> "ShardTask":
        """Rebuild a task from :meth:`to_dict` output (inverse)."""
        from repro.faults.serialize import build_injector
        expected = {"n", "m", "injector", "entropy", "lo", "hi",
                    "include_check_bits", "batch_size", "packing", "code"}
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
            packing=str(data["packing"]),
            code=str(data["code"]))


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
    engine = BatchCampaign(BlockGrid(task.n, task.m), task.injector,
                           include_check_bits=task.include_check_bits,
                           batch_size=task.batch_size, packing=task.packing,
                           code=task.code)
    t0 = perf_counter_ns()
    result = engine.run_range_seeded(task.entropy, task.lo, task.hi)
    elapsed_ns = perf_counter_ns() - t0
    runs, seconds = _shard_handles(task.packing, task.code)
    runs.inc()
    seconds.observe(elapsed_ns / 1e9)
    if not obs_metrics.is_enabled():
        return result, {}
    phases = engine.phase_ns
    for phase, ns in phases.items():
        _PHASE_HANDLES[phase].inc(ns / 1e9)
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
    packing:
        ``"u8"`` (default) or ``"u64"``: the per-code kernels' tensor
        layouts. Validated and carried on every shard task (and so in
        service spec hashes), but the campaign block is the same for
        both — see the module docstring.
    code:
        Registered block-code name (:func:`repro.core.registry
        .code_names`); default ``"diagonal"``. The scalar engine is the
        diagonal reference implementation, so ``engine="scalar"``
        requires the default.
    """

    def __init__(self, grid: BlockGrid, injector: FaultInjector,
                 seed: SeedLike = None, include_check_bits: bool = True,
                 engine: str = "batched",
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 workers: int = 1, seeding: Optional[str] = None,
                 packing: str = "u8", code: str = "diagonal"):
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
        self.packing = packing
        self.code = code
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
            batch_size=self.batch_size, packing=self.packing,
            code=self.code)

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
            engine = self._make_engine()
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
                         packing=self.packing, code=self.code)

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
