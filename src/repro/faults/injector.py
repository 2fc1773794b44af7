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

A round draws from one of two sources. ``None`` consumes the injector's
own stream trial by trial in the scalar order, so a sequential batched
run consumes it exactly as ``B`` scalar :meth:`inject` calls would. A
:class:`repro.utils.rng.TrialStreams` range selects the per-trial-seeded
draw contract of :mod:`repro.utils.rng`, and a one-trial range is how
the scalar reference replays trial ``i``. This is what the differential
test harnesses (`tests/faults/test_batch_equivalence.py`,
`tests/faults/test_packed_equivalence.py`) pin down.

The uniform-field injectors (uniform, check-bit, drift) share one draw
(:class:`BernoulliFieldInjector`): a sparse Bernoulli field over the
exposed cells, per trial from the injector's own stream
(:func:`repro.utils.rng.bernoulli_positions`), or per 64-trial group
under per-trial seeding (:meth:`repro.utils.rng.TrialStreams
.bernoulli_field`). Its positions already are exposed-field cells. The
burst injectors draw per trial either way and emit ``row * n + col``.

Check planes are code-defined: the diagonal code stores two ``(m, b, b)``
planes (leading, counter), the row+column product code two, and the
matrix codes of :mod:`repro.core.registry` a single ``(r, b, b)`` plane.
Injectors therefore draw over a *tuple* of per-plane shapes
(``plane_shapes``) rather than a hardwired pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.checkstore import CheckStore
from repro.faults.ser import probability_from_fit
from repro.utils.rng import (
    SeedLike,
    TrialStreams,
    bernoulli_positions,
    make_rng,
)
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


def _resolve_rngs(rngs, default_rng: Optional[np.random.Generator],
                  batch: int) -> Iterable[np.random.Generator]:
    """Per-trial generators for a batched injection round.

    ``None`` falls back to the injector's own stream consumed sequentially
    across trials — the scalar-compatible mode. An explicit sized
    iterable (one generator per trial, e.g. a :class:`repro.utils.rng
    .TrialStreams`) is used as given. Callers consume each generator
    before taking the next, since a :class:`~repro.utils.rng
    .TrialStreams` re-addresses one generator in place.
    """
    if rngs is None:
        return [default_rng] * batch
    if len(rngs) != batch:
        raise ValueError(f"need {batch} per-trial generators, got {len(rngs)}")
    return rngs


class FaultInjector:
    """Base class; concrete injectors implement :meth:`draw_events`."""

    def to_config(self) -> dict:
        """This injector's declarative ``{"kind", "params"}`` config.

        The JSON form :mod:`repro.faults.serialize` registers builders
        for — what lets a :class:`repro.faults.batch.ShardTask` cross
        process and host boundaries as plain data. Seeds are not part of
        the config: per-trial seeding never consumes the injector's own
        stream, so the config fully determines relocatable behaviour.
        Classes without a declarative form (explicit flip lists, ad-hoc
        test doubles) raise ``TypeError``.
        """
        raise TypeError(
            f"{type(self).__name__} has no declarative config; only "
            f"registered injector kinds (repro.faults.serialize) can be "
            f"serialized for distributed execution")

    def inject(self, mem: CrossbarArray,
               store: Optional[CheckStore] = None,
               rng: Optional[Union[np.random.Generator, TrialStreams]]
               = None) -> InjectionResult:
        """Apply one round of upsets; return the ground truth.

        ``rng`` overrides the injector's own stream for this round: a
        generator, or a one-trial :class:`~repro.utils.rng.TrialStreams`
        span — the hook the per-trial-seeded differential reference
        uses. The round is :meth:`_draw_batch` for one trial.
        """
        shapes = None if store is None else (store.lead.shape,
                                              store.ctr.shape)
        rngs = rng if isinstance(rng, TrialStreams) \
            else [self.rng if rng is None else rng]
        drawn = self._draw_batch(1, (mem.rows, mem.cols), shapes, rngs)
        result = drawn.result_of(0)
        if drawn.rows.size:
            mem.flip_many(drawn.rows, drawn.cols)
        for plane, d, br, bc in result.check_flips:
            store.flip(plane, d, br, bc)
        return result

    def draw_events(self, batch: int, data_shape: Tuple[int, ...],
                    plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                    rngs: Optional[Sequence[np.random.Generator]],
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw one round of upsets for ``batch`` trials (no application).

        Returns int64 ``(trial, cell)`` event arrays, ``cell`` in the
        exposed-field layout of :func:`field_offsets`; a cell listed
        twice for one trial flips twice. Concrete injectors implement
        their draws here. ``rngs`` is ``None`` (the injector's own
        stream, per trial in the scalar order), a
        :class:`~repro.utils.rng.TrialStreams` range, or one generator
        per trial. ``plane_shapes`` is the code-ordered tuple of
        per-trial check-plane shapes — ``((m, b, b), (m, b, b))`` for
        the diagonal layout, ``((r, b, b),)`` for a single-plane matrix
        code — or ``None``/empty when check memory is not exposed.
        """
        raise NotImplementedError

    def _draw_batch(self, batch: int, data_shape: Tuple[int, ...],
                    plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                    rngs: Optional[Sequence[np.random.Generator]],
                    ) -> BatchInjectionResult:
        """:meth:`draw_events`, unravelled into a
        :class:`BatchInjectionResult` — the ground truth :meth:`inject`,
        :meth:`inject_batch` and :meth:`inject_batch_packed` apply."""
        trial, cell = self.draw_events(batch, data_shape, plane_shapes, rngs)
        return BatchInjectionResult.from_cells(batch, trial, cell,
                                               data_shape, plane_shapes)

    def inject_batch_planes(self, data, planes: Sequence = (),
                            rngs: Optional[Sequence[np.random.Generator]]
                            = None) -> BatchInjectionResult:
        """Apply one round of upsets to a ``(B, n, n)`` stack, in place.

        ``planes`` is the code-ordered sequence of stored check-plane
        tensors (each ``(B, rk, b, b)``); empty when check memory is not
        exposed (the batched analogue of passing ``store=None`` to
        :meth:`inject`). ``rngs`` supplies one generator per trial;
        ``None`` consumes the injector's own stream sequentially, which
        reproduces ``B`` scalar rounds bit-for-bit.
        """
        planes = tuple(planes)
        shapes = tuple(tuple(p.shape[1:]) for p in planes) or None
        result = self._draw_batch(int(data.shape[0]), tuple(data.shape[1:]),
                                  shapes, rngs)
        result.apply_planes(data, planes)
        return result

    def inject_batch(self, data, lead=None, ctr=None,
                     rngs: Optional[Sequence[np.random.Generator]] = None
                     ) -> BatchInjectionResult:
        """Two-plane (diagonal layout) wrapper over
        :meth:`inject_batch_planes`.

        ``lead``/``ctr`` are the stored check-bit planes ``(B, m, b, b)``
        or ``None`` when check memory is not exposed. As historically,
        the two planes share ``lead``'s shape for the draws.
        """
        shapes = None if lead is None else (tuple(lead.shape[1:]),) * 2
        result = self._draw_batch(int(data.shape[0]), tuple(data.shape[1:]),
                                  shapes, rngs)
        result.apply_planes(data, (lead, ctr))
        return result

    def inject_batch_planes_packed(self, batch: int, data,
                                   planes: Sequence = (),
                                   rngs: Optional[
                                       Sequence[np.random.Generator]] = None
                                   ) -> BatchInjectionResult:
        """Apply one round of upsets to a packed ``(W, n, n)`` word stack.

        The bit-slice analogue of :meth:`inject_batch_planes`: ``data``
        holds ``batch`` trials packed 64 per ``uint64`` word along axis 0
        (:mod:`repro.utils.bitpack` layout) and ``planes`` the packed
        ``(W, rk, b, b)`` check-bit words (empty when not exposed).
        ``batch`` is the true trial count (it cannot be recovered from
        ``W`` when ``batch % 64 != 0``). The RNG draws are identical to
        the unpacked path — the same :meth:`_draw_batch` on the same
        host-side streams — so both seeding contracts of
        :mod:`repro.faults.batch` hold regardless of layout; only the
        application step differs
        (:meth:`BatchInjectionResult.apply_planes_packed`).
        """
        planes = tuple(planes)
        shapes = tuple(tuple(p.shape[1:]) for p in planes) or None
        result = self._draw_batch(int(batch), tuple(data.shape[1:]),
                                  shapes, rngs)
        result.apply_planes_packed(data, planes)
        return result

    def inject_batch_packed(self, batch: int, data, lead=None, ctr=None,
                            rngs: Optional[Sequence[np.random.Generator]]
                            = None) -> BatchInjectionResult:
        """Two-plane (diagonal layout) wrapper over
        :meth:`inject_batch_planes_packed`."""
        shapes = None if lead is None else (tuple(lead.shape[1:]),) * 2
        result = self._draw_batch(int(batch), tuple(data.shape[1:]),
                                  shapes, rngs)
        result.apply_planes_packed(data, (lead, ctr))
        return result


class BernoulliFieldInjector(FaultInjector):
    """Base for injectors flipping each exposed cell independently.

    One round of one trial flips every cell of the concatenated exposed
    field — data cells row-major, then check plane 0, plane 1, ... in
    code order — independently with probability ``self.probability``.
    :meth:`draw_events` draws the fields sparsely in one of two ways:

    * from the injector's own stream (or one generator per trial), one
      :func:`repro.utils.rng.bernoulli_positions` call per trial, which
      scalar :meth:`inject` shares, so sequential-seeded batched runs
      are bit-identical to ``B`` scalar :meth:`inject` calls;
    * from a :class:`repro.utils.rng.TrialStreams` range, one
      :meth:`~repro.utils.rng.TrialStreams.bernoulli_field` call, which
      draws each 64-trial group the range touches once (draw contract
      v3).

    Subclasses set ``probability``, ``rng``, ``include_check_bits``
    (whether check planes are exposed) and ``exposes_data`` (whether
    data cells are).
    """

    probability: float
    rng: np.random.Generator
    include_check_bits: bool = True
    exposes_data: bool = True

    def draw_events(self, batch: int, data_shape: Tuple[int, ...],
                    plane_shapes: Optional[Tuple[Tuple[int, ...], ...]],
                    rngs: Optional[Sequence[np.random.Generator]],
                    ) -> Tuple[np.ndarray, np.ndarray]:
        if not self.include_check_bits:
            plane_shapes = None
        offsets = field_offsets(data_shape, plane_shapes)
        # The field is the exposed layout itself, minus the data part
        # when data cells are not exposed.
        start = 0 if self.exposes_data else offsets[1]
        cells = offsets[-1] - start
        rngs = _resolve_rngs(rngs, self.rng, batch)
        if isinstance(rngs, TrialStreams):
            trial, pos = rngs.bernoulli_field(cells, self.probability)
        else:
            drawn = [bernoulli_positions(rng, cells, self.probability)
                     for rng in rngs]
            trial = np.repeat(np.arange(batch, dtype=np.int64),
                              [d.size for d in drawn])
            pos = np.concatenate(drawn) if drawn else trial
        return trial, (pos + start if start else pos)


class UniformInjector(BernoulliFieldInjector):
    """Paper's model: i.i.d. upsets with per-bit probability ``p``.

    ``p`` is usually derived from an SER and an exposure window via
    :func:`repro.faults.ser.probability_from_fit`; the convenience
    constructor :meth:`from_ser` does exactly that. When a ``store`` is
    provided, check-bits are exposed at the same per-bit probability —
    check memory is built from the same memristors as data memory.
    """

    def __init__(self, probability: float, seed: SeedLike = None,
                 include_check_bits: bool = True):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0,1], got {probability}")
        self.probability = probability
        self.include_check_bits = include_check_bits
        self.rng = make_rng(seed)

    def to_config(self) -> dict:
        return {"kind": "uniform",
                "params": {"probability": self.probability,
                           "include_check_bits": self.include_check_bits}}

    @classmethod
    def from_ser(cls, ser_fit_per_bit: float, hours: float,
                 seed: SeedLike = None,
                 include_check_bits: bool = True) -> "UniformInjector":
        """Injector with ``p = 1 - exp(-lambda T / 1e9)``."""
        return cls(probability_from_fit(ser_fit_per_bit, hours), seed,
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
               store: Optional[CheckStore] = None,
               rng: Optional[np.random.Generator] = None) -> InjectionResult:
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
                    rngs: Optional[Sequence[np.random.Generator]],
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
                 neighbor_probability: float = 0.5, seed: SeedLike = None):
        if strikes < 0:
            raise ValueError(f"strikes must be non-negative, got {strikes}")
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        self.strikes = strikes
        self.radius = radius
        self.neighbor_probability = neighbor_probability
        self.rng = make_rng(seed)

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
                    rngs: Optional[Sequence[np.random.Generator]],
                    ) -> Tuple[np.ndarray, np.ndarray]:
        rows, cols = data_shape
        trial, cell = [], []
        for i, rng in enumerate(_resolve_rngs(rngs, self.rng, batch)):
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

    Draw order per trial is (lane, start) — two bounded-integer draws —
    identically in :meth:`inject` and :meth:`inject_batch`, so the
    batched engine's sequential-seeding contract holds for this injector
    like every other.
    """

    def __init__(self, length: int, orientation: str = "row",
                 seed: SeedLike = None):
        if length < 1:
            raise ValueError(f"burst length must be >= 1, got {length}")
        if orientation not in ("row", "col"):
            raise ValueError(
                f"orientation must be 'row' or 'col': {orientation}")
        self.length = length
        self.orientation = orientation
        self.rng = make_rng(seed)

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
                    rngs: Optional[Sequence[np.random.Generator]],
                    ) -> Tuple[np.ndarray, np.ndarray]:
        rows, cols = data_shape
        cells = [r * cols + c for r, c in (
            self._burst_cells(rng, rows, cols)
            for rng in _resolve_rngs(rngs, self.rng, batch))]
        trial = np.repeat(np.arange(batch, dtype=np.int64), self.length)
        cell = np.concatenate(cells) if cells \
            else np.empty(0, dtype=np.int64)
        return trial, cell


class CheckBitInjector(BernoulliFieldInjector):
    """Uniform upsets restricted to the check memory (CMEM-only faults)."""

    exposes_data = False

    def __init__(self, probability: float, seed: SeedLike = None):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0,1], got {probability}")
        self.probability = probability
        self.rng = make_rng(seed)

    def to_config(self) -> dict:
        return {"kind": "check_bit",
                "params": {"probability": self.probability}}
