"""Fault injectors: turn error models into bit flips on simulated arrays.

All injectors implement :meth:`FaultInjector.inject`, which flips cells of
a :class:`repro.xbar.CrossbarArray` (and optionally check-bits in a
:class:`repro.core.CheckStore`) and returns an :class:`InjectionResult`
describing exactly what was flipped — campaigns need the ground truth to
classify ECC behaviour as corrected / detected / miscorrected.

Every draw has one core, :meth:`FaultInjector.draw_events`: one round
for ``B`` trials as flat ``(trial, cell)`` events in the *exposed-field
layout* — data cells row-major, then check plane 0, plane 1, ... each
row-major over its ``(rk, b, b)`` shape, with the part boundaries given
by :func:`field_offsets`. The batched campaign engine
(:mod:`repro.faults.batch`) consumes these events directly. Everything
else goes through the base class's unravel (:meth:`FaultInjector
._draw_batch`, a :class:`BatchInjectionResult`): scalar :meth:`inject`,
the scalar reference, and the tensor appliers the differential suites
use as their reference — :meth:`FaultInjector.inject_batch`, which
upsets a stack of ``B`` trials held as ``(B, n, n)`` / ``(B, m, b, b)``
tensors, and :meth:`FaultInjector.inject_batch_packed`, which upsets the
bit-sliced ``uint64`` layout (64 trials per word,
:mod:`repro.utils.bitpack`).

Injectors hold no stream of their own. Every round draws from a
:class:`repro.utils.rng.TrialStreams` range of the campaign's keyed
streams (draw contract v3 of :mod:`repro.utils.rng`), one trial of it
for :meth:`inject`; a one-trial range is how the scalar reference
replays trial ``i`` of a batched run. The differential test harnesses
(`tests/faults/test_batch_equivalence.py`,
`tests/faults/test_packed_equivalence.py`) pin this down.

The uniform-field injectors (uniform, check-bit, drift) share one draw
(:class:`BernoulliFieldInjector`): a sparse Bernoulli field over the
exposed cells, drawn per 64-trial group (:meth:`repro.utils.rng
.TrialStreams.bernoulli_field`). Its positions already are exposed-field
cells. The burst injectors draw per trial, from each trial's own
generator, and emit ``row * n + col``.

Check planes are code-defined: the diagonal code stores two ``(m, b, b)``
planes (leading, counter), the row+column product code two, and the
matrix codes of :mod:`repro.core.registry` a single ``(r, b, b)`` plane.
Injectors therefore draw over a *tuple* of per-plane shapes
(``plane_shapes``) rather than a hardwired pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checkstore import CheckStore
from repro.faults.ser import probability_from_fit
from repro.utils.rng import TrialStreams
from repro.xbar.crossbar import CrossbarArray

#: Plane codes used by the flat batched ground truth.
PLANE_LEADING = 0
PLANE_COUNTER = 1
PLANE_NAMES = ("leading", "counter")


def field_offsets(data_shape: Tuple[int, ...],
                  plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                  ) -> Tuple[int, ...]:
    """Part boundaries of the exposed-field layout.

    The layout of every injector's ``(trial, cell)`` events: data cells
    row-major over ``data_shape``, then check plane 0, plane 1, ...
    each row-major over its shape (none when ``plane_shapes`` is
    ``None`` or empty). Part ``k`` (0 = data, ``k`` = plane ``k - 1``)
    holds cells ``[offsets[k], offsets[k + 1])``, so ``offsets[-1]`` is
    the exposed cell count.
    """
    offsets = [0, math.prod(data_shape)]
    for shape in plane_shapes or ():
        offsets.append(offsets[-1] + math.prod(shape))
    return tuple(offsets)


@dataclass
class InjectionResult:
    """Ground truth of one injection round."""

    data_flips: List[Tuple[int, int]] = field(default_factory=list)
    check_flips: List[Tuple[str, int, int, int]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Total number of injected upsets (data + check bits)."""
        return len(self.data_flips) + len(self.check_flips)

    def merge(self, other: "InjectionResult") -> "InjectionResult":
        """Union of two injection rounds."""
        return InjectionResult(self.data_flips + other.data_flips,
                               self.check_flips + other.check_flips)


@dataclass
class BatchInjectionResult:
    """Ground truth of one injection round over ``B`` stacked trials.

    Flip events are stored flat with a trial index per event — the
    memory-light layout keeps per-trial reductions (totals, multi-fault
    block counts) as single ``bincount`` passes. Duplicate events are kept
    (a cell listed twice flipped twice), matching the scalar ground truth.
    """

    batch: int
    #: Data flip events: parallel arrays (trial, row, col).
    trial: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    #: Check-bit flip events: parallel arrays (trial, plane, d, br, bc).
    check_trial: np.ndarray
    check_plane: np.ndarray
    check_d: np.ndarray
    check_br: np.ndarray
    check_bc: np.ndarray

    @classmethod
    def from_cells(cls, batch: int, trial: np.ndarray, cell: np.ndarray,
                   data_shape: Tuple[int, ...],
                   plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                   ) -> "BatchInjectionResult":
        """Unravel ``(trial, cell)`` events in the exposed-field layout.

        ``cell`` indexes the layout :func:`field_offsets` describes for
        ``data_shape`` and ``plane_shapes``; events keep their order
        within the data part and within the check part.
        """
        offsets = field_offsets(data_shape, plane_shapes)
        is_data = cell < offsets[1]
        rows, cols = np.unravel_index(cell[is_data], data_shape)
        check_cell = cell[~is_data]
        check_plane = np.searchsorted(offsets, check_cell, side="right") - 2
        check_d, check_br, check_bc = (np.empty_like(check_cell)
                                       for _ in range(3))
        for plane_id, shape in enumerate(plane_shapes or ()):
            sel = check_plane == plane_id
            check_d[sel], check_br[sel], check_bc[sel] = np.unravel_index(
                check_cell[sel] - offsets[plane_id + 1], shape)
        return cls(batch, trial[is_data], rows, cols, trial[~is_data],
                   check_plane, check_d, check_br, check_bc)

    @property
    def totals(self) -> np.ndarray:
        """Per-trial total injected upsets (data + check bits), ``(B,)``."""
        return (np.bincount(self.trial, minlength=self.batch)
                + np.bincount(self.check_trial, minlength=self.batch))

    def multi_fault_blocks(self, grid) -> np.ndarray:
        """Per-trial count of blocks hit by >= 2 upsets, ``(B,)``.

        Mirrors ``FaultCampaign._count_multi_fault_blocks``: a block's
        tally includes its data cells and its own check-bits, and every
        flip event counts (duplicates included).
        """
        b = grid.blocks_per_side
        blocks = b * b
        keys = np.concatenate([
            self.trial * blocks + (self.rows // grid.m) * b
            + (self.cols // grid.m),
            self.check_trial * blocks + self.check_br * b + self.check_bc,
        ])
        per_block = np.bincount(keys, minlength=self.batch * blocks)
        return (per_block.reshape(self.batch, blocks) >= 2).sum(axis=1)

    def result_of(self, i: int,
                  plane_names: Sequence[str] = PLANE_NAMES) -> InjectionResult:
        """Scalar-shaped ground truth of trial ``i`` (differential tests).

        ``plane_names`` maps plane ids to the scalar flip-event plane
        labels; it defaults to the diagonal pair and should be a code's
        ``plane_names`` for other check-plane layouts.
        """
        sel = self.trial == i
        csel = self.check_trial == i
        return InjectionResult(
            data_flips=list(zip(self.rows[sel].tolist(),
                                self.cols[sel].tolist())),
            check_flips=[(plane_names[p], d, br, bc)
                         for p, d, br, bc in zip(
                             self.check_plane[csel].tolist(),
                             self.check_d[csel].tolist(),
                             self.check_br[csel].tolist(),
                             self.check_bc[csel].tolist())],
        )

    def apply_planes(self, data, planes: Sequence) -> None:
        """XOR every flip event into the batch tensors (in place).

        ``planes`` is the code-ordered sequence of stored check-plane
        tensors (``None`` entries are skipped — check memory not
        exposed). The scatter (``np.bitwise_xor.at``) applies repeated
        events as repeated inversions, so duplicated cells cancel
        pairwise exactly like repeated scalar :meth:`CrossbarArray.flip`
        calls.
        """
        if self.trial.size:
            np.bitwise_xor.at(data, (self.trial, self.rows, self.cols),
                              data.dtype.type(1))
        for plane_id, plane in enumerate(planes):
            if plane is None:
                continue
            sel = self.check_plane == plane_id
            if sel.any():
                np.bitwise_xor.at(
                    plane, (self.check_trial[sel], self.check_d[sel],
                            self.check_br[sel], self.check_bc[sel]),
                    plane.dtype.type(1))

    def apply(self, data, lead, ctr) -> None:
        """Two-plane (diagonal layout) wrapper over :meth:`apply_planes`."""
        self.apply_planes(data, (lead, ctr))

    def apply_planes_packed(self, data, planes: Sequence) -> None:
        """XOR every flip event into packed ``uint64`` word tensors.

        The bit-slice analogue of :meth:`apply_planes`: trial ``i``'s
        event becomes the single-bit mask ``1 << (i % 64)`` scatter-XORed
        into word ``i // 64`` at the event's cell
        (:mod:`repro.utils.bitpack` layout), so duplicated events cancel
        pairwise exactly like the unpacked scatter. The host-side event
        arrays are the same either way — the ground truth is
        layout-independent.
        """
        one = np.uint64(1)
        if self.trial.size:
            bits = one << (self.trial % 64).astype(np.uint64)
            np.bitwise_xor.at(data, (self.trial // 64, self.rows, self.cols),
                              bits)
        for plane_id, plane in enumerate(planes):
            if plane is None:
                continue
            sel = self.check_plane == plane_id
            if sel.any():
                t = self.check_trial[sel]
                bits = one << (t % 64).astype(np.uint64)
                np.bitwise_xor.at(
                    plane, (t // 64, self.check_d[sel],
                            self.check_br[sel], self.check_bc[sel]), bits)

    def apply_packed(self, data, lead, ctr) -> None:
        """Two-plane (diagonal layout) wrapper over
        :meth:`apply_planes_packed`."""
        self.apply_planes_packed(data, (lead, ctr))


def _check_range(streams: TrialStreams, batch: int) -> TrialStreams:
    """``streams``, after checking that it holds ``batch`` trials."""
    if len(streams) != batch:
        raise ValueError(f"need a {batch}-trial stream range, "
                         f"got {len(streams)} trials")
    return streams


class FaultInjector:
    """Base class; concrete injectors implement :meth:`draw_events`."""

    def events_per_trial(self, data_shape: Tuple[int, ...],
                         plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                         ) -> Optional[float]:
        """Expected ``(trial, cell)`` events of one trial's round, or
        ``None`` when the injector cannot say. The campaign engine sizes
        its blocks by it (:meth:`repro.faults.batch.BatchCampaign
        .plan_blocks`)."""
        return None

    def to_config(self) -> dict:
        """This injector's declarative ``{"kind", "params"}`` config.

        The JSON form :mod:`repro.faults.serialize` registers builders
        for — what lets a :class:`repro.faults.batch.ShardTask` cross
        process and host boundaries as plain data. Injectors hold no
        stream, so the config fully determines relocatable behaviour.
        Classes without a declarative form (explicit flip lists, ad-hoc
        test doubles) raise ``TypeError``.
        """
        raise TypeError(
            f"{type(self).__name__} has no declarative config; only "
            f"registered injector kinds (repro.faults.serialize) can be "
            f"serialized for distributed execution")

    def inject(self, mem: CrossbarArray,
               store: Optional[CheckStore] = None, *,
               streams: TrialStreams) -> InjectionResult:
        """Apply one round of upsets; return the ground truth.

        ``streams`` is the one-trial :class:`~repro.utils.rng
        .TrialStreams` range the round draws from — how the scalar
        reference replays one trial of a batched run. The round is
        :meth:`_draw_batch` for one trial.
        """
        shapes = None if store is None else (store.lead.shape,
                                              store.ctr.shape)
        drawn = self._draw_batch(1, (mem.rows, mem.cols), shapes, streams)
        result = drawn.result_of(0)
        if drawn.rows.size:
            mem.flip_many(drawn.rows, drawn.cols)
        for plane, d, br, bc in result.check_flips:
            store.flip(plane, d, br, bc)
        return result

    def draw_events(self, batch: int, data_shape: Tuple[int, ...],
                    plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                    streams: TrialStreams,
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw one round of upsets for ``batch`` trials (no application).

        Returns int64 ``(trial, cell)`` event arrays, ``cell`` in the
        exposed-field layout of :func:`field_offsets`; a cell listed
        twice for one trial flips twice. Concrete injectors implement
        their draws here, from ``streams``, a
        :class:`~repro.utils.rng.TrialStreams` range of ``batch``
        trials. ``plane_shapes`` is the code-ordered tuple of
        per-trial check-plane shapes — ``((m, b, b), (m, b, b))`` for
        the diagonal layout, ``((r, b, b),)`` for a single-plane matrix
        code — or ``None``/empty when check memory is not exposed.
        """
        raise NotImplementedError

    def _draw_batch(self, batch: int, data_shape: Tuple[int, ...],
                    plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                    streams: TrialStreams,
                    ) -> BatchInjectionResult:
        """:meth:`draw_events`, unravelled into a
        :class:`BatchInjectionResult` — the ground truth :meth:`inject`,
        :meth:`inject_batch` and :meth:`inject_batch_packed` apply."""
        trial, cell = self.draw_events(batch, data_shape, plane_shapes,
                                       streams)
        return BatchInjectionResult.from_cells(batch, trial, cell,
                                               data_shape, plane_shapes)

    def inject_batch_planes(self, data, planes: Sequence = (), *,
                            streams: TrialStreams) -> BatchInjectionResult:
        """Apply one round of upsets to a ``(B, n, n)`` stack, in place.

        ``planes`` is the code-ordered sequence of stored check-plane
        tensors (each ``(B, rk, b, b)``); empty when check memory is not
        exposed (the batched analogue of passing ``store=None`` to
        :meth:`inject`). ``streams`` is the ``B``-trial range drawn from;
        its trial ``i`` draws what a one-trial :meth:`inject` of that
        trial draws.
        """
        planes = tuple(planes)
        shapes = tuple(tuple(p.shape[1:]) for p in planes) or None
        result = self._draw_batch(int(data.shape[0]), tuple(data.shape[1:]),
                                  shapes, streams)
        result.apply_planes(data, planes)
        return result

    def inject_batch(self, data, lead=None, ctr=None, *,
                     streams: TrialStreams) -> BatchInjectionResult:
        """Two-plane (diagonal layout) wrapper over
        :meth:`inject_batch_planes`.

        ``lead``/``ctr`` are the stored check-bit planes ``(B, m, b, b)``
        or ``None`` when check memory is not exposed. As historically,
        the two planes share ``lead``'s shape for the draws.
        """
        shapes = None if lead is None else (tuple(lead.shape[1:]),) * 2
        result = self._draw_batch(int(data.shape[0]), tuple(data.shape[1:]),
                                  shapes, streams)
        result.apply_planes(data, (lead, ctr))
        return result

    def inject_batch_planes_packed(self, batch: int, data,
                                   planes: Sequence = (), *,
                                   streams: TrialStreams
                                   ) -> BatchInjectionResult:
        """Apply one round of upsets to a packed ``(W, n, n)`` word stack.

        The bit-slice analogue of :meth:`inject_batch_planes`: ``data``
        holds ``batch`` trials packed 64 per ``uint64`` word along axis 0
        (:mod:`repro.utils.bitpack` layout) and ``planes`` the packed
        ``(W, rk, b, b)`` check-bit words (empty when not exposed).
        ``batch`` is the true trial count (it cannot be recovered from
        ``W`` when ``batch % 64 != 0``). The draws are identical to the
        unpacked path — the same :meth:`_draw_batch` on the same
        ``streams`` — so only the application step differs
        (:meth:`BatchInjectionResult.apply_planes_packed`).
        """
        planes = tuple(planes)
        shapes = tuple(tuple(p.shape[1:]) for p in planes) or None
        result = self._draw_batch(int(batch), tuple(data.shape[1:]),
                                  shapes, streams)
        result.apply_planes_packed(data, planes)
        return result

    def inject_batch_packed(self, batch: int, data, lead=None, ctr=None, *,
                            streams: TrialStreams) -> BatchInjectionResult:
        """Two-plane (diagonal layout) wrapper over
        :meth:`inject_batch_planes_packed`."""
        shapes = None if lead is None else (tuple(lead.shape[1:]),) * 2
        result = self._draw_batch(int(batch), tuple(data.shape[1:]),
                                  shapes, streams)
        result.apply_planes_packed(data, (lead, ctr))
        return result


class BernoulliFieldInjector(FaultInjector):
    """Base for injectors flipping each exposed cell independently.

    One round of one trial flips every cell of the concatenated exposed
    field — data cells row-major, then check plane 0, plane 1, ... in
    code order — independently with probability ``self.probability``.
    :meth:`draw_events` draws the fields sparsely, in one
    :meth:`~repro.utils.rng.TrialStreams.bernoulli_field` call that
    draws each 64-trial group the range touches once (draw contract v3).

    Subclasses set ``probability``, ``include_check_bits`` (whether
    check planes are exposed) and ``exposes_data`` (whether data cells
    are).
    """

    probability: float
    include_check_bits: bool = True
    exposes_data: bool = True

    def _field(self, data_shape: Tuple[int, ...],
               plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
               ) -> Tuple[int, int]:
        """``(start, cells)`` of the exposed field: the exposed layout
        itself, minus the data part when data cells are not exposed."""
        offsets = field_offsets(
            data_shape, plane_shapes if self.include_check_bits else None)
        start = 0 if self.exposes_data else offsets[1]
        return start, offsets[-1] - start

    def events_per_trial(self, data_shape: Tuple[int, ...],
                         plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                         ) -> Optional[float]:
        return self.probability * self._field(data_shape, plane_shapes)[1]

    def draw_events(self, batch: int, data_shape: Tuple[int, ...],
                    plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                    streams: TrialStreams,
                    ) -> Tuple[np.ndarray, np.ndarray]:
        start, cells = self._field(data_shape, plane_shapes)
        trial, pos = _check_range(streams, batch).bernoulli_field(
            cells, self.probability)
        return trial, (pos + start if start else pos)


class UniformInjector(BernoulliFieldInjector):
    """Paper's model: i.i.d. upsets with per-bit probability ``p``.

    ``p`` is usually derived from an SER and an exposure window via
    :func:`repro.faults.ser.probability_from_fit`; the convenience
    constructor :meth:`from_ser` does exactly that. When a ``store`` is
    provided, check-bits are exposed at the same per-bit probability —
    check memory is built from the same memristors as data memory.
    """

    def __init__(self, probability: float, include_check_bits: bool = True):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0,1], got {probability}")
        self.probability = probability
        self.include_check_bits = include_check_bits

    def to_config(self) -> dict:
        return {"kind": "uniform",
                "params": {"probability": self.probability,
                           "include_check_bits": self.include_check_bits}}

    @classmethod
    def from_ser(cls, ser_fit_per_bit: float, hours: float,
                 include_check_bits: bool = True) -> "UniformInjector":
        """Injector with ``p = 1 - exp(-lambda T / 1e9)``."""
        return cls(probability_from_fit(ser_fit_per_bit, hours),
                   include_check_bits)


class DeterministicInjector(FaultInjector):
    """Flips an explicit list of cells; for reproducible unit tests.

    ``plane_names`` maps check-flip plane labels to plane ids for the
    batched path; it defaults to the diagonal pair.
    """

    def __init__(self, data_flips: Sequence[Tuple[int, int]] = (),
                 check_flips: Sequence[Tuple[str, int, int, int]] = (),
                 plane_names: Optional[Sequence[str]] = None):
        self.data_flips = list(data_flips)
        self.check_flips = list(check_flips)
        self.plane_names = tuple(plane_names) if plane_names is not None \
            else None

    def inject(self, mem: CrossbarArray,
               store: Optional[CheckStore] = None, *,
               streams: Optional[TrialStreams] = None) -> InjectionResult:
        """Flip the listed cells; ``streams`` is accepted and unused."""
        result = InjectionResult()
        for r, c in self.data_flips:
            mem.flip(r, c)
            result.data_flips.append((r, c))
        if store is not None:
            for plane, d, br, bc in self.check_flips:
                store.flip(plane, d, br, bc)
                result.check_flips.append((plane, d, br, bc))
        return result

    def draw_events(self, batch: int, data_shape: Tuple[int, ...],
                    plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                    streams: Optional[TrialStreams],
                    ) -> Tuple[np.ndarray, np.ndarray]:
        cells = [int(np.ravel_multi_index((r, c), data_shape))
                 for r, c in self.data_flips]
        if plane_shapes and self.check_flips:
            names = list(self.plane_names if self.plane_names is not None
                         else PLANE_NAMES)
            offsets = field_offsets(data_shape, plane_shapes)
            for plane, d, br, bc in self.check_flips:
                p = names.index(plane)
                cells.append(offsets[p + 1] + int(np.ravel_multi_index(
                    (d, br, bc), plane_shapes[p])))
        trial = np.repeat(np.arange(batch, dtype=np.int64), len(cells))
        return trial, np.tile(np.asarray(cells, dtype=np.int64), batch)


class BurstInjector(FaultInjector):
    """Abrupt multi-bit upset: a cluster of flips around a strike point.

    Models the multiple-bit upsets reported for crossbar RRAM under ion
    strikes (Liu et al., TNS 2015): a strike at a random cell flips that
    cell plus each neighbour within ``radius`` (Chebyshev) with
    ``neighbor_probability``.
    """

    def __init__(self, strikes: int = 1, radius: int = 1,
                 neighbor_probability: float = 0.5):
        if strikes < 0:
            raise ValueError(f"strikes must be non-negative, got {strikes}")
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        self.strikes = strikes
        self.radius = radius
        self.neighbor_probability = neighbor_probability

    def to_config(self) -> dict:
        return {"kind": "burst",
                "params": {
                    "strikes": self.strikes, "radius": self.radius,
                    "neighbor_probability": self.neighbor_probability}}

    def _strike_cells(self, rng: np.random.Generator, rows: int,
                      cols: int) -> list[Tuple[int, int]]:
        """Cells hit by one round of strikes, in the canonical sorted order."""
        hit = set()
        for _ in range(self.strikes):
            r0 = int(rng.integers(0, rows))
            c0 = int(rng.integers(0, cols))
            hit.add((r0, c0))
            for dr in range(-self.radius, self.radius + 1):
                for dc in range(-self.radius, self.radius + 1):
                    if dr == 0 and dc == 0:
                        continue
                    r, c = r0 + dr, c0 + dc
                    if 0 <= r < rows and 0 <= c < cols and \
                            rng.random() < self.neighbor_probability:
                        hit.add((r, c))
        return sorted(hit)

    def draw_events(self, batch: int, data_shape: Tuple[int, ...],
                    plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                    streams: TrialStreams,
                    ) -> Tuple[np.ndarray, np.ndarray]:
        rows, cols = data_shape
        trial, cell = [], []
        for i, rng in enumerate(_check_range(streams, batch)):
            for r, c in self._strike_cells(rng, rows, cols):
                trial.append(i)
                cell.append(r * cols + c)
        return (np.asarray(trial, dtype=np.int64),
                np.asarray(cell, dtype=np.int64))


class LinearBurstInjector(FaultInjector):
    """One linear burst of ``length`` adjacent flips per trial.

    The dominant crossbar MBU geometry runs along a wordline or bitline
    (Liu et al., TNS 2015): each round picks a uniform lane and start
    position and flips ``length`` adjacent cells in that lane. The burst
    survival analysis (:func:`repro.reliability.burst
    .simulate_burst_survival`) drives campaigns with this injector; the
    closed form it validates is :func:`repro.reliability.burst
    .linear_burst_survival`.

    The start position is uniform over the full lane with wrap-around
    (cell indices mod the lane length) — the geometry
    :func:`repro.reliability.burst.linear_burst_survival` states its
    closed form for; without the wrap the edge placements bias L=2
    survival from ``1/m`` down to ``(b-1)/(n-1)``.

    Draw order per trial is (lane, start) — two bounded-integer draws
    from the trial's own generator.
    """

    def __init__(self, length: int, orientation: str = "row"):
        if length < 1:
            raise ValueError(f"burst length must be >= 1, got {length}")
        if orientation not in ("row", "col"):
            raise ValueError(
                f"orientation must be 'row' or 'col': {orientation}")
        self.length = length
        self.orientation = orientation

    def to_config(self) -> dict:
        return {"kind": "linear_burst",
                "params": {"length": self.length,
                           "orientation": self.orientation}}

    def _burst_cells(self, rng: np.random.Generator, rows: int,
                     cols: int) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of one burst; start uniform, wrap-around lane."""
        along = cols if self.orientation == "row" else rows
        across = rows if self.orientation == "row" else cols
        if self.length > along:
            raise ValueError(f"burst length {self.length} exceeds the "
                             f"{along}-cell lane")
        lane = int(rng.integers(0, across))
        start = int(rng.integers(0, along))
        span = np.arange(start, start + self.length, dtype=np.int64) % along
        lanes = np.full(self.length, lane, dtype=np.int64)
        if self.orientation == "row":
            return lanes, span
        return span, lanes

    def draw_events(self, batch: int, data_shape: Tuple[int, ...],
                    plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                    streams: TrialStreams,
                    ) -> Tuple[np.ndarray, np.ndarray]:
        rows, cols = data_shape
        cells = [r * cols + c for r, c in (
            self._burst_cells(rng, rows, cols)
            for rng in _check_range(streams, batch))]
        trial = np.repeat(np.arange(batch, dtype=np.int64), self.length)
        cell = np.concatenate(cells) if cells \
            else np.empty(0, dtype=np.int64)
        return trial, cell


class CheckBitInjector(BernoulliFieldInjector):
    """Uniform upsets restricted to the check memory (CMEM-only faults)."""

    exposes_data = False

    def __init__(self, probability: float):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0,1], got {probability}")
        self.probability = probability

    def to_config(self) -> dict:
        return {"kind": "check_bit",
                "params": {"probability": self.probability}}
