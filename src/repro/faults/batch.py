"""Batched Monte-Carlo campaign engine.

The scalar reference (:func:`run_reference`) replays one trial at a
time: fresh crossbar, random data, encode, inject, full Python-loop
check sweep — far too slow for the Sec. V-A binomial-model validation
or the MTTF benches. This module runs a block of trials at a time and
simulates only the error pattern, at a cost that scales with the faults
rather than the cells:

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
  reference produces.

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
block. :func:`run_reference` keeps real random data and the codes' own
decoders, and the per-code tensor sweeps
(:meth:`repro.core.registry.BlockCode.check_batched_packed`) stay as
the reference of ``tests/faults/test_fault_centric.py``, so the
differential suites keep witnessing both premises. Memory per block is
proportional to the events, not to ``B * n**2``.

Seeding + sharding contract
===========================

Every campaign draws under draw contract v3
(:data:`repro.utils.rng.DRAW_CONTRACT`): every draw is addressed
directly by a keyed counter-based generator under the campaign's root
entropy, and injectors hold no stream of their own. The
Bernoulli-field injectors (uniform, check-bit, drift) draw one field
per aligned 64-trial group — group ``g = i // 64`` from
``Philox(key=entropy, counter=[0, 1, g, stream])``, trial ``i`` keeping
row ``i % 64`` — and :meth:`BatchCampaign.run_range_seeded` draws each
group a span touches once, however its blocks split it. The burst
injectors draw per trial from ``Philox(key=entropy, counter=[0, 0, i,
stream])`` (:func:`repro.utils.rng.trial_stream`). Injection uses stream
1; the scalar reference fills its data from trial stream 0. The fields
are drawn sparsely by geometric gaps
(:func:`repro.utils.rng.bernoulli_positions`).

Because every draw depends only on ``(entropy, i)``, the tallies are
invariant under the shard layout: any ``workers`` count, any block
plan, and any contiguous partition of the trial range produce identical
results. :func:`run_reference` replays trial ``i`` from its real data
(stream 0) and the one-trial span ``[i, i + 1)`` of stream 1 — the
differential harness in ``tests/faults/test_batch_equivalence.py`` pins
both equivalences.

Block plan
----------

A block pays a few dozen numpy calls whatever its fault count, so its
best size is a number of expected fault events, not of trials. With
``batch_size=None`` (the default everywhere) :meth:`BatchCampaign
.plan_blocks` cuts a range into whole, aligned 64-trial groups, as many
per block as hold about :data:`BLOCK_EVENTS` expected events (the
injector's :meth:`~repro.faults.injector.FaultInjector.events_per_trial`
times 64 per group), at least one and at most :data:`MAX_BLOCK_GROUPS`;
only the range's own edges cut a group. A perfbench-shaped 512-trial
span at p=2e-4 is then one block, a p=1e-2 block stays one group, the
burst injectors (which cannot estimate their events) run one group per
block, and at the paper's p~1e-11 the cap bounds a block's trials. No
per-block array grows with its trials: the faulty trials are counted
from the sorted event keys. An integer ``batch_size`` keeps fixed
blocks of that many trials. Neither changes a tally.

Sharding uses a ``concurrent.futures`` process pool: trials are split
into contiguous ranges (:func:`repro.utils.rng.shard_bounds`), each
worker rebuilds the engine from a picklable :class:`ShardTask` (grid
geometry, injector, entropy, engine configuration) and runs its range
in the blocks its engine plans.

Service-sharded execution
-------------------------

The campaign service (:mod:`repro.service`) executes submitted jobs by
materializing the *same* :class:`ShardTask` spans a sharded
:class:`CampaignRunner` builds — there is no other execution path. The
contract therefore extends verbatim to service execution:

* a service job's merged tallies are a pure function of ``(spec,
  entropy)`` — independent of the service's shard size, worker count,
  scheduling order, interruptions, and checkpoint/resume boundaries;
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
from typing import Dict, List, Optional, Sequence, Tuple

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
    GROUP_TRIALS,
    INJECT_STREAM,
    SeedLike,
    TrialStreams,
    resolve_entropy,
    shard_bounds,
    trial_stream,
)
from repro.utils.stats import wilson_interval

#: A fixed block of one 64-trial group, for callers that pass an
#: explicit ``batch_size``.
DEFAULT_BATCH_SIZE = GROUP_TRIALS

#: Expected fault events a planned engine block holds
#: (``batch_size=None``, :meth:`BatchCampaign.plan_blocks`). A block
#: pays a few dozen numpy calls whatever its fault count, so sparse
#: blocks span many groups and dense ones a single group.
BLOCK_EVENTS = 16384

#: Most 64-trial groups in one planned block. It bounds a block's
#: trials, and with them its memory, when faults are rare.
MAX_BLOCK_GROUPS = 1024

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


@functools.lru_cache(maxsize=64)
def _shard_handles(packing: str, code: str) -> tuple:
    """``(runs, seconds)`` metric handles of one shard configuration."""
    return (_SHARD_RUNS.labels(packing=packing, code=code),
            _SHARD_SECONDS.labels(packing=packing))


def planned_groups(events_per_trial: Optional[float]) -> int:
    """64-trial groups per planned block for a trial's expected events.

    About :data:`BLOCK_EVENTS` events per block, at least one group and
    at most :data:`MAX_BLOCK_GROUPS`; one group when the events are
    unknown (``None``).
    """
    if events_per_trial is None:
        return 1
    if events_per_trial <= 0:
        return MAX_BLOCK_GROUPS
    groups = BLOCK_EVENTS / (GROUP_TRIALS * events_per_trial)
    return max(1, min(MAX_BLOCK_GROUPS, int(groups)))


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
    sorted, for matching. ``plane_shapes`` are the code's per-trial
    check-plane shapes, which the exposed-field layout follows.
    """

    blocks: int
    cells_per_block: int
    key: np.ndarray
    column: np.ndarray
    columns: np.ndarray
    plane_shapes: Tuple[Tuple[int, ...], ...]


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
                       columns=np.sort(column),
                       plane_shapes=tuple(code.plane_shapes))
    for arr in (table.key, table.column, table.columns):
        arr.setflags(write=False)  # shared by every engine of the geometry
    return table


@functools.lru_cache(maxsize=16)
def _cached_block_table(name: str, builder, n: int, m: int) -> BlockTable:
    """:func:`block_table` per (code name, registered builder, n, m), of
    the code :func:`repro.core.registry.build_code` builds (and checks)."""
    return block_table(build_code(name, BlockGrid(n, m)))


class BatchCampaign:
    """Fault-centric inject-check-verify engine over blocks of trials.

    Produces the same :class:`CampaignResult` tallies as the scalar
    :func:`run_reference` under the same entropy (see the module
    docstring).

    ``batch_size=None`` (the default) lets the engine plan its blocks
    by expected fault events (:meth:`plan_blocks`); an integer runs
    fixed blocks of that many trials. Neither changes a tally.
    """

    def __init__(self, grid: BlockGrid, injector: FaultInjector,
                 include_check_bits: bool = True,
                 batch_size: Optional[int] = None,
                 packing: str = "u8", code: str = "diagonal"):
        if batch_size is not None and batch_size <= 0:
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
        #: Nanoseconds per phase of :data:`PROFILE_PHASES`, summed over
        #: every block this engine ran; every block adds to all three.
        #: The sums cost three integer adds per block, so they run
        #: unconditionally, and :func:`run_shard_task_profiled` reports
        #: them only when observability is enabled.
        self.phase_ns = dict.fromkeys(PROFILE_PHASES, 0)
        self._table = _cached_block_table(code, CODE_KINDS.get(code),
                                          grid.n, grid.m)
        self._data_shape = (grid.n, grid.n)
        self._plane_shapes = self._table.plane_shapes \
            if include_check_bits else None
        #: Key distance between consecutive trials' events.
        self._trial_stride = self._table.blocks * self._table.cells_per_block

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #

    def plan_blocks(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """The ``(a, b)`` trial blocks a run of ``[lo, hi)`` executes.

        With an integer ``batch_size``, blocks of that many trials from
        ``lo``. With ``batch_size=None``, whole aligned 64-trial groups,
        :func:`planned_groups` of them per block, cut only by the
        range's edges: a block then holds about :data:`BLOCK_EVENTS`
        expected fault events (one group for injectors that cannot
        estimate theirs) and draws each group once. Blocks are never
        empty.
        """
        if lo >= hi:
            return []
        if self.batch_size is None:
            rate = self.injector.events_per_trial(self._data_shape,
                                                  self._plane_shapes)
            step = planned_groups(rate) * GROUP_TRIALS
            first = lo - lo % GROUP_TRIALS + step
        else:
            step = self.batch_size
            first = lo + step
        edges = [lo, *range(first, hi, step), hi]
        return list(zip(edges[:-1], edges[1:]))

    def run_range_seeded(self, entropy: int, lo: int, hi: int) -> CampaignResult:
        """Run trials ``[lo, hi)`` under ``entropy``.

        The building block of sharded campaigns: results depend only on
        ``(entropy, lo, hi)``, never on how ranges are grouped into
        shards or split into blocks (:meth:`plan_blocks`). The blocks
        share one :class:`~repro.utils.rng.TrialStreams`, so a 64-trial
        group that straddles two blocks is drawn once.
        """
        streams = TrialStreams(entropy, lo, hi, INJECT_STREAM)
        return merge_results([
            self._run_block(b - a, streams.span(a, b))
            for a, b in self.plan_blocks(lo, hi)])

    # ------------------------------------------------------------------ #
    # Fault-centric core
    # ------------------------------------------------------------------ #

    def _run_block(self, batch: int, streams: TrialStreams) -> CampaignResult:
        """One block of ``batch`` trials, from the fault events drawn
        from ``streams``, its span of the injection stream."""
        per_block = self._table.cells_per_block
        t0 = perf_counter_ns()
        trial, cell = self.injector.draw_events(
            batch, self._data_shape, self._plane_shapes, streams)
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

        # Sorted keys are trial-major, so the faulty trials are the
        # distinct trials among them: no per-trial array, since a sparse
        # block may span many thousands of trials.
        faulty = _distinct(blocks // self._table.blocks)
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
    """Picklable description of one trial span.

    The unit of sharded campaign execution: everything a worker process
    needs to rebuild the engine and run trials ``[lo, hi)`` under the
    seeding contract. Because the contract makes the tallies a
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
    batch_size: Optional[int] = None
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
        that draws identically.
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
            batch_size=None if data["batch_size"] is None
            else int(data["batch_size"]),
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
    return result, engine.phase_ns


def run_reference(grid: BlockGrid, injector: FaultInjector, entropy: int,
                  trials: int, include_check_bits: bool = True,
                  code: str = "diagonal") -> CampaignResult:
    """Scalar replay of a batched run under ``entropy``.

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
                trial_stream(entropy, i, DATA_STREAM),
                TrialStreams(entropy, i, i + 1, INJECT_STREAM))
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
    """Facade over the batched engine and its process-pool shards.

    Parameters
    ----------
    grid, injector, include_check_bits:
        The crossbar geometry, the fault model, and whether check
        memory is exposed to it.
    seed:
        The campaign's root entropy: an integer in ``[0, 2**128)``, or
        ``None`` for fresh OS entropy (kept as :attr:`entropy`).
    batch_size:
        ``None`` (default): the engine plans its blocks by expected
        fault events (:meth:`BatchCampaign.plan_blocks`). An integer:
        fixed blocks of that many trials. Tallies do not depend on it.
    workers:
        Process count for sharded runs; tallies do not depend on it.
    seeding:
        ``"per-trial"``, the only draw contract (see the module
        docstring); accepted for compatibility with callers that still
        name it.
    packing:
        ``"u8"`` (default) or ``"u64"``: the per-code kernels' tensor
        layouts. Validated and carried on every shard task (and so in
        service spec hashes), but the campaign block is the same for
        both — see the module docstring.
    code:
        Registered block-code name (:func:`repro.core.registry
        .code_names`); default ``"diagonal"``.
    """

    def __init__(self, grid: BlockGrid, injector: FaultInjector,
                 seed: SeedLike = None, include_check_bits: bool = True,
                 batch_size: Optional[int] = None,
                 workers: int = 1, seeding: str = "per-trial",
                 packing: str = "u8", code: str = "diagonal"):
        if code not in code_names():
            raise ValueError(f"unknown code {code!r}; registered codes: "
                             f"{code_names()}")
        if packing not in PACKINGS:
            raise ValueError(f"packing must be one of {PACKINGS}, "
                             f"got {packing!r}")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if seeding != "per-trial":
            raise ValueError(f"seeding={seeding!r} was removed: every "
                             f"campaign draws under per-trial seeding, "
                             f"the only value left")
        self.grid = grid
        self.injector = injector
        self.include_check_bits = include_check_bits
        self.batch_size = batch_size
        self.workers = workers
        self.packing = packing
        self.code = code
        self.entropy = resolve_entropy(seed)

    def _run_span(self, lo: int, hi: int,
                  pool: Optional[ProcessPoolExecutor] = None
                  ) -> CampaignResult:
        """Trials ``[lo, hi)``, sharded across workers.

        ``pool`` reuses a caller-managed executor (the adaptive loop runs
        many spans and should not respawn workers per round); ``None``
        creates one for this span when sharding is needed.
        """
        bounds = [(lo + a, lo + b)
                  for a, b in shard_bounds(hi - lo, self.workers)]
        if len(bounds) <= 1:
            engine = BatchCampaign(
                self.grid, self.injector,
                include_check_bits=self.include_check_bits,
                batch_size=self.batch_size, packing=self.packing,
                code=self.code)
            return engine.run_range_seeded(self.entropy, lo, hi)
        tasks = [self.shard_task(a, b) for a, b in bounds]
        if pool is not None:
            return merge_results(list(pool.map(run_shard_task, tasks)))
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            shards = list(pool.map(run_shard_task, tasks))
        return merge_results(shards)

    def shard_task(self, lo: int, hi: int) -> ShardTask:
        """The :class:`ShardTask` for trials ``[lo, hi)`` of this runner.

        The campaign service uses this to turn one submitted job into
        independently executable work units.
        """
        return ShardTask(self.grid.n, self.grid.m, self.injector,
                         self.entropy, lo, hi,
                         include_check_bits=self.include_check_bits,
                         batch_size=self.batch_size,
                         packing=self.packing, code=self.code)

    def run(self, trials: int) -> CampaignResult:
        """Run trials ``[0, trials)``."""
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
        round runs the next trial range under the root entropy, the
        merged tallies equal a plain ``run`` of the same total — and
        therefore depend only on the seed and the stopping point, not on
        how rounds were grouped, on ``workers`` or on the block plan.
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

        # One executor across every round — adaptive sweeps run many
        # spans and must not respawn workers per round.
        pool = ProcessPoolExecutor(max_workers=self.workers) \
            if self.workers > 1 else None
        try:
            total = CampaignResult()
            done = 0
            rounds = 0
            step = initial_trials
            while True:
                take = min(step, max_trials - done)
                total = merge_results(
                    [total, self._run_span(done, done + take, pool=pool)])
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
        """Scalar replay of :meth:`run` over trials ``[0, trials)``."""
        return run_reference(self.grid, self.injector, self.entropy, trials,
                             self.include_check_bits, code=self.code)
