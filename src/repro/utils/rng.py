"""Deterministic random-number-generator plumbing.

Every stochastic component in the library (fault injectors, Monte-Carlo
campaigns, randomized tests) takes either a seed or a ``numpy.random
.Generator``. Centralizing the coercion here guarantees reproducible runs:
the same seed always produces the same fault pattern.

Campaign draw contract (version :data:`DRAW_CONTRACT`)
======================================================

Per-trial-seeded campaigns address every trial's randomness directly by
a keyed counter-based generator: root entropy ``e``, trial ``i`` and
stream ``s`` map to ``Generator(Philox(key=[e mod 2**64, e >> 64],
counter=[0, 0, i, s]))`` (:func:`trial_stream`). Stream
:data:`INJECT_STREAM` feeds the fault injector; stream
:data:`DATA_STREAM` fills the scalar reference's random data. Entropy
must lie in ``[0, 2**128)`` — it is the Philox key, and truncating it
would make distinct entropies collide. :class:`TrialStreams` walks a
trial range by re-addressing one bit generator's counter, which yields
the same streams as building one generator per trial at a fraction of
the cost.

Uniform fault fields are drawn sparsely (:func:`bernoulli_positions`):
the number of upset cells is Binomial(cells, p) and their positions a
uniform subset of that size — exactly the distribution of ``cells``
independent Bernoulli(p) flips, at a cost that scales with the faults
rather than the cells.
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Version of the campaign draw contract (stream addressing plus the
#: sparse Bernoulli draw). Results persisted under one version are never
#: served for another: service cache keys and the shard wire format are
#: stamped with it.
DRAW_CONTRACT = 2

#: Per-trial stream ids (the last Philox counter word).
DATA_STREAM = 0
INJECT_STREAM = 1

_WORD = 1 << 64


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged, so components can
    share one stream when that is desired.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``seed``.

    Used by parallel Monte-Carlo campaigns so each trial gets its own
    stream while remaining reproducible from the single campaign seed.
    Any integral seed (Python or numpy) seeds the root deterministically;
    ``None`` draws fresh OS entropy. A live :class:`numpy.random
    .Generator` cannot be decomposed into independent children and is
    rejected rather than silently falling back to fresh entropy.
    """
    if isinstance(seed, np.random.Generator):
        raise ValueError(
            "spawn_rngs needs an integer seed (or None), not a Generator: "
            "independent child streams cannot be derived from a live "
            "stream")
    if seed is not None:
        seed = int(seed)
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(count)]


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


def _counter(trial: int, stream: int) -> np.ndarray:
    if not 0 <= trial < _WORD:
        raise ValueError(f"trial index must lie in [0, 2**64), got {trial}")
    return np.array([0, 0, trial, stream], dtype=np.uint64)


def trial_stream(entropy: int, trial: int,
                 stream: int) -> np.random.Generator:
    """Generator of stream ``stream`` of trial ``trial`` under ``entropy``.

    A pure function of its three arguments (see the module docstring),
    so any partition of a campaign into shards replays identical
    per-trial streams.
    """
    return np.random.Generator(np.random.Philox(
        key=_entropy_key(entropy), counter=_counter(trial, stream)))


class TrialStreams:
    """Stream ``stream`` of trials ``[lo, hi)`` under ``entropy``.

    Iterating yields one generator per trial, equal to
    :func:`trial_stream` for that trial. It is the *same* generator
    object re-addressed in place, so each must be consumed before the
    iteration advances.
    """

    def __init__(self, entropy: int, lo: int, hi: int, stream: int):
        if not 0 <= lo <= hi <= _WORD:
            raise ValueError(f"trial range [{lo}, {hi}) must lie in "
                             f"[0, 2**64)")
        self.key = _entropy_key(entropy)
        self.lo, self.hi, self.stream = lo, hi, stream

    def __len__(self) -> int:
        return self.hi - self.lo

    def __iter__(self) -> Iterator[np.random.Generator]:
        bit_generator = np.random.Philox(key=self.key)
        generator = np.random.Generator(bit_generator)
        # A fresh bit generator's state (empty output buffer), re-keyed
        # to each trial's counter before its draws.
        state = bit_generator.state
        for trial in range(self.lo, self.hi):
            state["state"]["counter"] = _counter(trial, self.stream)
            bit_generator.state = state
            yield generator


_NO_POSITIONS = np.empty(0, dtype=np.int64)


def bernoulli_positions(rng: np.random.Generator, cells: int,
                        probability: float) -> np.ndarray:
    """Sorted positions of the upset cells of one Bernoulli field.

    Equal in distribution to ``np.flatnonzero(rng.random(cells) <
    probability)``, drawn exactly but sparsely: a count ``k ~
    Binomial(cells, probability)``, then a uniform ``k``-subset of
    ``range(cells)`` (``Generator.choice`` without replacement). Each
    call consumes ``rng`` the same way whatever the caller, which is
    what keeps scalar and batched injection bit-identical.
    """
    if cells == 0:
        return _NO_POSITIONS
    k = int(rng.binomial(cells, probability))
    if k == 0:
        return _NO_POSITIONS
    positions = rng.choice(cells, k, replace=False, shuffle=False)
    positions.sort()
    return positions


def trial_seed_sequence(entropy: int, trial: int) -> np.random.SeedSequence:
    """The seed sequence of trial ``trial`` under root ``entropy``.

    Equivalent to ``SeedSequence(entropy).spawn(trial + 1)[trial]`` but
    O(1): the child is addressed directly by its spawn key. Because the
    mapping depends only on ``(entropy, trial)``, any partition of a
    campaign into shards reproduces identical per-trial streams.
    """
    return np.random.SeedSequence(entropy, spawn_key=(trial,))


def trial_rngs(entropy: int, trial: int,
               streams: int = 2) -> list[np.random.Generator]:
    """Independent ``SeedSequence``-derived generators for one trial.

    The trial's seed sequence is split into ``streams`` children that
    never interleave. The per-trial estimate of
    :meth:`repro.faults.drift.DriftSimulator.empirical_flip_probability`
    draws from these; campaigns use :func:`trial_stream` instead.
    """
    return [np.random.default_rng(s)
            for s in trial_seed_sequence(entropy, trial).spawn(streams)]


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
