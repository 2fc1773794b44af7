"""Deterministic random-number-generator plumbing.

Fault campaigns draw only from the keyed streams of the contract below,
addressed by the campaign's root entropy; fault injectors hold no stream
of their own. The other stochastic components (simulators, randomized
tests) take either a seed or a ``numpy.random.Generator``
(:func:`make_rng`). Either way the same seed always produces the same
fault pattern.

Campaign draw contract (version :data:`DRAW_CONTRACT`)
======================================================

Per-trial-seeded campaigns address their randomness directly by a keyed
counter-based generator, ``Generator(Philox(key=[e mod 2**64, e >> 64],
counter=[0, space, index, s]))`` for root entropy ``e`` and stream
``s``. Entropy must lie in ``[0, 2**128)`` — it is the Philox key, and
truncating it would make distinct entropies collide. Stream
:data:`INJECT_STREAM` feeds the fault injector; stream
:data:`DATA_STREAM` fills the scalar reference's random data.

* **Group fields (space 1).** The Bernoulli-field injectors (uniform,
  check-bit, drift) draw once per aligned group of
  :data:`GROUP_TRIALS` trials — the 64 trials one packed ``uint64``
  word holds. Group ``g = i // 64`` draws one Bernoulli(p) field over
  ``64 * cells`` cells from counter ``[0, 1, g, s]``, trial-major with
  each trial's cells in the injector's layout; trial ``i`` gets row
  ``i % 64`` of it (:meth:`TrialStreams.bernoulli_field`). A span that
  starts or ends inside a group draws the whole group and keeps its
  own trials, so any partition of a campaign into spans and blocks
  replays identical fields.
* **Trial streams (space 0).** Everything else stays per trial: trial
  ``i`` draws from counter ``[0, 0, i, s]`` (:func:`trial_stream`) —
  the burst injectors' strikes and the scalar reference's data fill.
  :class:`TrialStreams` walks a trial range by re-addressing one bit
  generator's counter, which yields the same streams as building one
  generator per trial at a fraction of the cost.

Bernoulli fields are drawn sparsely by geometric gaps
(:func:`bernoulli_positions`): the distance from one upset cell to the
next is Geometric(p), so the upset positions are the running sums of
``Generator.geometric(p)`` draws minus one, up to the field size —
exactly the distribution of independent Bernoulli(p) flips, at a cost
that scales with the faults rather than the cells. The gaps are drawn
in chunks whose size is a fixed function of the field size and ``p``,
and every gap is clipped at the field size plus one before summing
(numpy returns ``INT64_MAX`` for the gaps of tiny ``p``; a gap that
long already leaves the field). Every field is drawn from a generator
freshly addressed to its group's counter, so no draw continues a stream
another field advanced: the chunk size changes no position.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Tuple, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Version of the campaign draw contract (stream addressing plus the
#: sparse Bernoulli draw). Results persisted under one version are never
#: served for another: service cache keys and the shard wire format are
#: stamped with it.
DRAW_CONTRACT = 3

#: Per-trial stream ids (the last Philox counter word).
DATA_STREAM = 0
INJECT_STREAM = 1

#: Trials per Bernoulli group field: one packed ``uint64`` word's worth.
GROUP_TRIALS = 64

#: Address spaces of the Philox counter's second word.
_TRIAL_SPACE = 0
_GROUP_SPACE = 1

_WORD = 1 << 64


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged, so components can
    share one stream when that is desired.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def resolve_entropy(seed: SeedLike = None) -> int:
    """Coerce ``seed`` into root entropy for per-trial seeding.

    ``None`` draws fresh OS entropy once (the run is then reproducible
    from the returned value). A :class:`numpy.random.Generator` cannot be
    decomposed into per-trial child streams, so it is rejected — sharded
    campaigns must be seeded with an integer.
    """
    if isinstance(seed, np.random.Generator):
        raise ValueError(
            "per-trial seeding needs an integer seed (or None), not a "
            "Generator: child streams cannot be derived from a live stream")
    if seed is None:
        entropy = np.random.SeedSequence().entropy
    else:
        entropy = seed
    entropy = int(entropy)
    _entropy_key(entropy)
    return entropy


def _entropy_key(entropy: int) -> np.ndarray:
    """The Philox key ``[entropy mod 2**64, entropy >> 64]`` of ``entropy``.

    Raises ``ValueError`` outside ``[0, 2**128)`` instead of truncating.
    """
    entropy = int(entropy)
    if not 0 <= entropy < _WORD * _WORD:
        raise ValueError(f"campaign entropy must lie in [0, 2**128), "
                         f"got {entropy}")
    return np.array([entropy % _WORD, entropy // _WORD], dtype=np.uint64)


def _philox(key: np.ndarray, space: int, index: int,
            stream: int) -> np.random.Generator:
    """Generator at counter ``[0, space, index, stream]`` under ``key``."""
    return np.random.Generator(np.random.Philox(
        key=key, counter=_counter(space, index, stream)))


def _counter(space: int, index: int, stream: int) -> np.ndarray:
    if not 0 <= index < _WORD:
        raise ValueError(f"trial index must lie in [0, 2**64), got {index}")
    return np.array([0, space, index, stream], dtype=np.uint64)


def trial_stream(entropy: int, trial: int,
                 stream: int) -> np.random.Generator:
    """Generator of stream ``stream`` of trial ``trial`` under ``entropy``.

    A pure function of its three arguments (see the module docstring),
    so any partition of a campaign into shards replays identical
    per-trial streams.
    """
    return _philox(_entropy_key(entropy), _TRIAL_SPACE, trial, stream)


_NO_POSITIONS = np.empty(0, dtype=np.int64)


class _Rekeyed:
    """One Philox generator under ``key``, re-addressed in place.

    Re-keying the counter costs a few microseconds; building a fresh
    ``Philox`` costs several times that (numpy seeds it from OS entropy
    before the key replaces the seed).
    """

    __slots__ = ("bit_generator", "generator", "_state")

    def __init__(self, key: np.ndarray) -> None:
        self.bit_generator = np.random.Philox(key=key)
        self.generator = np.random.Generator(self.bit_generator)
        # A fresh bit generator's state (empty output buffer), re-keyed
        # to each counter before its draws.
        self._state = self.bit_generator.state

    def at(self, space: int, index: int,
           stream: int) -> np.random.Generator:
        """The generator, at counter ``[0, space, index, stream]``."""
        self._state["state"]["counter"] = _counter(space, index, stream)
        self.bit_generator.state = self._state
        return self.generator


class _GroupCache:
    """What a trial range shares with every span of it: one generator
    re-keyed to each group's counter (built on the first draw), and the
    positions of the last group field drawn, keyed by ``(group, cells,
    p)`` — so engine blocks that split a group draw it once."""

    __slots__ = ("rng", "key", "positions")

    def __init__(self) -> None:
        self.rng: Optional[_Rekeyed] = None
        self.key: Optional[tuple] = None
        self.positions: Optional[np.ndarray] = None


class TrialStreams:
    """Stream ``stream`` of trials ``[lo, hi)`` under ``entropy``.

    Iterating yields one generator per trial, equal to
    :func:`trial_stream` for that trial. It is the *same* generator
    object re-addressed in place, so each must be consumed before the
    iteration advances. :meth:`bernoulli_field` draws the range's
    Bernoulli fields by 64-trial group instead (see the module
    docstring).
    """

    __slots__ = ("key", "lo", "hi", "stream", "_groups")

    def __init__(self, entropy: int, lo: int, hi: int, stream: int):
        if not 0 <= lo <= hi <= _WORD:
            raise ValueError(f"trial range [{lo}, {hi}) must lie in "
                             f"[0, 2**64)")
        self.key = _entropy_key(entropy)
        self.lo, self.hi, self.stream = lo, hi, stream
        self._groups = _GroupCache()

    def __len__(self) -> int:
        return self.hi - self.lo

    def __iter__(self) -> Iterator[np.random.Generator]:
        rng = _Rekeyed(self.key)
        for trial in range(self.lo, self.hi):
            yield rng.at(_TRIAL_SPACE, trial, self.stream)

    def span(self, lo: int, hi: int) -> "TrialStreams":
        """The sub-range ``[lo, hi)``, sharing this range's group
        generator and fields."""
        if not self.lo <= lo <= hi <= self.hi:
            raise ValueError(f"span [{lo}, {hi}) is not inside "
                             f"[{self.lo}, {self.hi})")
        sub = object.__new__(TrialStreams)
        sub.key, sub.stream, sub._groups = self.key, self.stream, \
            self._groups
        sub.lo, sub.hi = lo, hi
        return sub

    def bernoulli_field(self, cells: int, probability: float
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Upset cells of every trial's Bernoulli(p) field over ``cells``.

        Returns ``(trial, cell)`` int64 arrays, ``trial`` counted from
        ``lo``, sorted trial-major and by cell within a trial. Each
        group the range touches is drawn once, by
        :func:`bernoulli_positions` over its ``64 * cells`` field. Its
        positions are shifted to ``(trial - lo) * cells + cell`` (a group
        cut by the range's edge keeps only its own trials' slice), and
        one ``divmod`` by ``cells`` splits them all.
        """
        if self.lo == self.hi or cells == 0 or probability == 0:
            return _NO_POSITIONS, _NO_POSITIONS
        lo, hi = self.lo, self.hi
        pieces = []
        for group in range(lo // GROUP_TRIALS, (hi - 1) // GROUP_TRIALS + 1):
            positions = self._group_positions(group, cells, probability)
            base = group * GROUP_TRIALS
            if base < lo or base + GROUP_TRIALS > hi:
                a, b = positions.searchsorted(
                    ((max(lo, base) - base) * cells,
                     (min(hi, base + GROUP_TRIALS) - base) * cells))
                positions = positions[a:b]
            shift = (base - lo) * cells
            pieces.append(positions + shift if shift else positions)
        positions = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        return np.divmod(positions, cells)

    def _group_positions(self, group: int, cells: int, probability: float
                         ) -> np.ndarray:
        """Sorted upset positions of group ``group``'s ``64 * cells``
        field (position ``(i % 64) * cells + cell``)."""
        cache = self._groups
        key = (group, cells, probability)
        if cache.key != key:
            if cache.rng is None:
                cache.rng = _Rekeyed(self.key)
            cache.positions = bernoulli_positions(
                cache.rng.at(_GROUP_SPACE, group, self.stream),
                GROUP_TRIALS * cells, probability)
            cache.key = key
        return cache.positions


def _gap_chunk(size: int, probability: float) -> int:
    """Gaps per ``geometric`` call for a ``size``-cell field.

    The mean count needed to leave the field plus a four-sigma margin,
    so one call almost always suffices. It changes no position: the
    gaps are the same draws whatever the chunking, and no stream is
    drawn from again once its field is done.
    """
    mean = size * probability
    return int(mean + 4.0 * math.sqrt(mean)) + 16


def bernoulli_positions(rng: np.random.Generator, cells: int,
                        probability: float) -> np.ndarray:
    """Sorted positions of the upset cells of one Bernoulli field.

    Equal in distribution to ``np.flatnonzero(rng.random(cells) <
    probability)``, drawn exactly but sparsely by geometric gaps (see
    the module docstring).
    """
    if cells == 0 or probability == 0:
        return _NO_POSITIONS
    chunk = _gap_chunk(cells, probability)
    found = []
    last = -1  # the previous upset position
    while last < cells:
        positions = rng.geometric(probability, chunk)
        # Any gap past the field ends it; clipping keeps the sum from
        # overflowing when numpy returns INT64_MAX (tiny p).
        np.minimum(positions, cells + 1, out=positions)
        positions[0] += last
        positions.cumsum(out=positions)
        found.append(positions)
        last = int(positions[-1])
    # One chunk almost always leaves the field.
    positions = found[0] if len(found) == 1 else np.concatenate(found)
    return positions[:positions.searchsorted(cells)]


def shard_bounds(total: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``shards`` contiguous half-open slices.

    Sizes differ by at most one; empty slices are dropped, so the result
    may be shorter than ``shards`` when ``total < shards``.
    """
    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    base, extra = divmod(total, shards)
    bounds = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    return bounds
