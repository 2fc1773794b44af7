"""Oxygen-vacancy drift model with refresh (paper Sec. II-B).

The paper distinguishes two soft-error classes:

* **accumulating drift** (Tosson et al.): the resistance state degrades
  over time since the last write/refresh, so the flip *hazard grows* with
  exposure. Modelled as a Weibull first-flip time with shape ``beta > 1``
  and scale ``tau``: ``P(flip within t) = 1 - exp(-(t / tau)^beta)``.
  A refresh rewrites the cell and resets its exposure clock — this is
  exactly why the prior-work refresh mechanism helps against drift.
* **abrupt upsets** (ion strikes, Liu/Mahalanabis et al.): memoryless
  Poisson events at a FIT/bit rate. Refresh does *not* help; only ECC
  can catch them.

:class:`DriftModel` turns (tau, beta, abrupt SER, refresh period) into a
per-bit flip probability within an ECC check window — the quantity the
reliability composition consumes — and :class:`DriftSimulator` provides
a discrete-event per-cell simulation used to validate the closed form.

:class:`DriftInjector` lifts the same error model onto the
fault-campaign machinery: one injection round flips every cell of a
protected crossbar (and optionally its check memory) that the drift +
abrupt model upsets within one exposure window, so drift survival runs
through the real encode/inject/check/classify pipeline — batched and
sharded via :class:`repro.faults.batch.CampaignRunner` exactly like
the uniform-SER campaigns (see
:func:`repro.reliability.drift_analysis.simulate_drift_survival`).

The injector does **not** replay the discrete-event draws cell by cell.
In the discrete-event kernel every cell flips independently with
probability exactly :meth:`DriftModel.flip_probability` (the abrupt
first-arrival and the per-segment Weibull first-flip events compose to
``1 - exp(-(drift_exposure + abrupt_exposure))`` — the closed form),
so a drift round is the uniform model at that probability: the
injector is a :class:`repro.faults.injector.BernoulliFieldInjector` and
draws the same sparse Bernoulli field as the uniform-SER injector.
:class:`DriftSimulator` deliberately keeps the discrete-event kernel
(:func:`window_flip_mask`): it exists to validate the closed form the
injector consumes, so it must not be built on it.

Seeding: all draws flow through :mod:`repro.utils.rng`. The injector
holds no stream: its rounds draw the campaign's keyed group fields like
every Bernoulli-field injector. :class:`DriftSimulator` is not a
campaign and keeps its own stream;
:meth:`DriftSimulator.empirical_flip_probability` also accepts an
``entropy`` for shard-invariant per-trial streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.faults.injector import BernoulliFieldInjector
from repro.faults.ser import HOURS_PER_FIT_UNIT
from repro.utils.rng import INJECT_STREAM, SeedLike, make_rng, trial_stream


@dataclass(frozen=True)
class DriftModel:
    """Closed-form combined drift + abrupt-upset error model.

    Parameters
    ----------
    tau_hours:
        Weibull scale of the drift first-flip time (per cell).
    beta:
        Weibull shape; ``beta > 1`` makes drift *accumulating* (hazard
        grows with exposure), which is what refresh exploits.
    abrupt_fit_per_bit:
        Memoryless upset rate [FIT/bit], unaffected by refresh.
    """

    tau_hours: float = 5e4
    beta: float = 2.0
    abrupt_fit_per_bit: float = 1e-4

    def __post_init__(self):
        if self.tau_hours <= 0:
            raise ValueError(f"tau_hours must be positive: {self.tau_hours}")
        if self.beta < 1.0:
            raise ValueError(
                f"beta must be >= 1 (accumulating drift): {self.beta}")
        if self.abrupt_fit_per_bit < 0:
            raise ValueError("abrupt rate must be non-negative")

    # ------------------------------------------------------------------ #
    # Hazard accounting
    # ------------------------------------------------------------------ #

    def drift_exposure(self, window_hours: float,
                       refresh_period_hours: Optional[float]) -> float:
        """Cumulative drift hazard over a window.

        Without refresh the hazard integral is ``(T / tau)^beta``. With a
        refresh every ``R`` hours the exposure clock restarts, giving
        ``floor(T/R)`` full windows plus the remainder:
        ``k (R/tau)^beta + (T - kR over tau)^beta`` — strictly smaller
        for ``beta > 1``.
        """
        if window_hours < 0:
            raise ValueError("window must be non-negative")
        t, tau, b = window_hours, self.tau_hours, self.beta
        if refresh_period_hours is None or refresh_period_hours >= t:
            return (t / tau) ** b
        r = refresh_period_hours
        if r <= 0:
            raise ValueError("refresh period must be positive")
        full = int(t // r)
        rest = t - full * r
        return full * (r / tau) ** b + (rest / tau) ** b

    def abrupt_exposure(self, window_hours: float) -> float:
        """Poisson exposure of the memoryless component (refresh-immune)."""
        return self.abrupt_fit_per_bit * window_hours / HOURS_PER_FIT_UNIT

    def flip_probability(self, window_hours: float,
                         refresh_period_hours: Optional[float] = None
                         ) -> float:
        """P(a given cell flips at least once within the window)."""
        total = self.drift_exposure(window_hours, refresh_period_hours) \
            + self.abrupt_exposure(window_hours)
        return float(-np.expm1(-total))


def window_flip_mask(model: DriftModel, rng: np.random.Generator,
                     shape: Tuple[int, ...], window_hours: float,
                     refresh_period_hours: Optional[float] = None
                     ) -> np.ndarray:
    """Boolean field: which cells flip within one exposure window.

    The discrete-event kernel behind :class:`DriftSimulator`. Draw
    order per window: the abrupt exponential first-arrival field, then
    one uniform field per refresh segment.
    """
    if window_hours < 0:
        raise ValueError("window must be non-negative")
    flipped = np.zeros(shape, dtype=bool)
    # Abrupt component: exponential first arrival, refresh-immune.
    rate = model.abrupt_fit_per_bit / HOURS_PER_FIT_UNIT
    if rate > 0:
        abrupt_t = rng.exponential(1.0 / rate, shape)
        flipped |= abrupt_t <= window_hours
    # Drift component, segment by segment between refreshes: a Weibull
    # first-flip time is drawn fresh per segment (refresh resets the
    # exposure clock).
    inv_beta = 1.0 / model.beta

    def weibull_first_flip() -> np.ndarray:
        u = rng.random(shape)
        return model.tau_hours * (-np.log1p(-u)) ** inv_beta

    if refresh_period_hours is None or \
            refresh_period_hours >= window_hours:
        flipped |= weibull_first_flip() <= window_hours
        return flipped
    if refresh_period_hours <= 0:
        raise ValueError("refresh period must be positive")
    remaining = window_hours
    while remaining > 0:
        segment = min(refresh_period_hours, remaining)
        flipped |= weibull_first_flip() <= segment
        remaining -= segment
    return flipped


class DriftSimulator:
    """Per-cell discrete simulation of the drift + abrupt model.

    Used to validate :class:`DriftModel`'s closed form: cells draw
    Weibull drift-flip times (reset on refresh) and exponential abrupt
    times; the simulator reports which cells flipped within a window.
    """

    def __init__(self, model: DriftModel, cells: int, seed: SeedLike = None):
        if cells <= 0:
            raise ValueError(f"cells must be positive: {cells}")
        self.model = model
        self.cells = cells
        self.rng = make_rng(seed)

    def simulate_window(self, window_hours: float,
                        refresh_period_hours: Optional[float] = None,
                        rng: Optional[np.random.Generator] = None
                        ) -> np.ndarray:
        """Boolean array: which cells flipped within the window.

        ``rng`` overrides the simulator's own stream for this window
        (the hook per-trial-seeded estimation uses).
        """
        rng = self.rng if rng is None else rng
        return window_flip_mask(self.model, rng, (self.cells,),
                                window_hours, refresh_period_hours)

    def empirical_flip_probability(self, window_hours: float,
                                   refresh_period_hours: Optional[float],
                                   trials: int = 1,
                                   entropy: Optional[int] = None) -> float:
        """Monte-Carlo estimate of the per-cell flip probability.

        With ``entropy=None`` the simulator's own stream is consumed
        trial by trial. An integer ``entropy`` draws
        trial ``i`` from its keyed injection stream
        (:func:`repro.utils.rng.trial_stream`), making the estimate
        invariant under any partition of the trial range — the same
        per-trial contract as the batched campaign engine.
        """
        total = 0
        for i in range(trials):
            rng = None if entropy is None \
                else trial_stream(entropy, i, INJECT_STREAM)
            total += int(self.simulate_window(window_hours,
                                              refresh_period_hours,
                                              rng=rng).sum())
        return total / (self.cells * trials)


class DriftInjector(BernoulliFieldInjector):
    """Fault injector sampling one drift + abrupt exposure window.

    Each injection round flips every cell the combined model upsets
    within one ``window_hours`` exposure (with optional refresh every
    ``refresh_period_hours``); check memristors drift like data
    memristors, so the check planes are exposed at the same per-cell
    probability when check memory is present. That probability is
    :meth:`DriftModel.flip_probability`, the exact per-cell flip
    probability of the discrete-event kernel (:func:`window_flip_mask`),
    and cells are independent in both, so the injector's Bernoulli
    field is identically distributed to the kernel's flip masks (see
    the module docstring).

    Campaigns built on this injector turn the per-cell drift model into
    grid-level survival statistics through the real ECC machinery; see
    :func:`repro.reliability.drift_analysis.simulate_drift_survival`.
    """

    def __init__(self, model: DriftModel, window_hours: float,
                 refresh_period_hours: Optional[float] = None,
                 include_check_bits: bool = True):
        if window_hours < 0:
            raise ValueError("window must be non-negative")
        if refresh_period_hours is not None and refresh_period_hours <= 0:
            raise ValueError("refresh period must be positive")
        self.model = model
        self.window_hours = window_hours
        self.refresh_period_hours = refresh_period_hours
        self.include_check_bits = include_check_bits
        self.probability = model.flip_probability(window_hours,
                                                  refresh_period_hours)

    def to_config(self) -> dict:
        return {"kind": "drift",
                "params": {
                    "tau_hours": self.model.tau_hours,
                    "beta": self.model.beta,
                    "abrupt_fit_per_bit": self.model.abrupt_fit_per_bit,
                    "window_hours": self.window_hours,
                    "refresh_period_hours": self.refresh_period_hours,
                    "include_check_bits": self.include_check_bits}}
