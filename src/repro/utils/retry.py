"""Unified retry/backoff policy: capped exponential + full jitter.

Every poll/retry loop in the repo used to roll its own
``time.sleep(min(interval * 2**n, cap))`` — the client's job poll, the
client's come-up probe, the worker daemon's claim loop, and the
distributed dispatcher's checkpoint poll. Four copies of the same
shape, all unjittered: a restarted fleet would thunder against the
service in lockstep, every worker retrying at the exact same instants.

:class:`RetryPolicy` is the one implementation they all share now:

* **Capped exponential envelope** — attempt ``n`` may sleep at most
  ``min(initial_s * multiplier**n, cap_s)``.
* **Full jitter** (the AWS "full jitter" scheme) — the actual sleep is
  drawn uniformly from ``[0, envelope]``, which decorrelates a fleet
  of retriers without changing the worst-case latency envelope.
* **Deadline propagation** — sleeps truncate at a
  :class:`Deadline`, so a retry loop never overshoots its caller's
  timeout just to finish a backoff nap.
* **Stop-event awareness** — blocking sleeps wait on a
  ``threading.Event`` when one is given, so shutdown requests
  interrupt the wait immediately instead of lingering a full interval.

A policy with ``multiplier=1.0`` degenerates to a jittered
constant-interval poll — useful for steady polling loops that should
still be decorrelated across a fleet.

Randomness defaults to a module-level :class:`random.Random`; callers
that need reproducible sleep schedules (tests, the chaos harness)
pass their own seeded instance.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Optional, Union

from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger

_LOG = get_logger("utils.retry")

#: Fleet-decorrelation entropy. Timing jitter never feeds results
#: (the seeding contract draws from SeedSequence streams only), so an
#: OS-seeded shared instance is correct here.
_JITTER_RNG = random.Random()

_RETRY_SLEEPS = obs_metrics.counter(
    "repro_retry_sleeps_total",
    "Backoff sleeps taken through RetryPolicy.")
_RETRY_SLEEP_SECONDS = obs_metrics.counter(
    "repro_retry_sleep_seconds_total",
    "Total seconds slept in RetryPolicy backoffs.")
_RETRY_GIVEUPS = obs_metrics.counter(
    "repro_retry_giveups_total",
    "Retry loops abandoned (deadline expired or stop requested), "
    "by call site.", ("site",))


def note_giveup(site: str) -> None:
    """Record that a retry loop gave up (timeout/stop) at ``site``.

    Give-up is a caller-level outcome — the policy itself has no loop
    — so call sites (client wait timeout, worker shutdown, dispatcher
    deadline) report it explicitly through this hook.
    """
    _RETRY_GIVEUPS.inc(site=site)
    _LOG.warning("retry loop gave up", extra={
        "event": "retry.giveup", "site": site})


class Deadline:
    """A monotonic-clock deadline that propagates through call layers.

    Constructed once at the top of an operation
    (``Deadline.after(timeout)``) and handed down, so every nested
    retry loop truncates its sleeps against the *same* instant instead
    of each layer granting itself a fresh budget.
    """

    __slots__ = ("at",)

    def __init__(self, at: float) -> None:
        self.at = float(at)

    @classmethod
    def after(cls, timeout_s: float) -> "Deadline":
        """The deadline ``timeout_s`` seconds from now."""
        return cls(time.monotonic() + float(timeout_s))

    def remaining(self) -> float:
        """Seconds left (clamped at zero)."""
        return max(0.0, self.at - time.monotonic())

    def expired(self) -> bool:
        """True once the deadline has passed."""
        return time.monotonic() >= self.at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter (module docstring).

    Parameters
    ----------
    initial_s:
        Envelope of attempt 0 (and the steady interval when
        ``multiplier`` is 1.0).
    multiplier:
        Envelope growth per attempt (>= 1.0).
    cap_s:
        Hard ceiling on any single sleep.
    jitter:
        When ``True`` (default), sleeps draw uniformly from
        ``[0, envelope]``; ``False`` sleeps the envelope exactly
        (for callers that need deterministic pacing without an rng).
    """

    initial_s: float = 0.1
    multiplier: float = 2.0
    cap_s: float = 5.0
    jitter: bool = True

    def __post_init__(self) -> None:
        if self.initial_s <= 0:
            raise ValueError(f"initial_s must be positive, "
                             f"got {self.initial_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1.0, "
                             f"got {self.multiplier}")
        if self.cap_s <= 0:
            raise ValueError(f"cap_s must be positive, got {self.cap_s}")

    # ------------------------------------------------------------------ #
    # Delay computation
    # ------------------------------------------------------------------ #

    def backoff_s(self, attempt: int) -> float:
        """The (unjittered) envelope of attempt ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be non-negative, "
                             f"got {attempt}")
        try:
            envelope = self.initial_s * (self.multiplier ** attempt)
        except OverflowError:
            return self.cap_s
        return min(envelope, self.cap_s)

    def delay_s(self, attempt: int,
                rng: Optional[random.Random] = None) -> float:
        """The actual sleep for ``attempt``: jittered within the
        envelope (full jitter), or the envelope itself when the policy
        is unjittered."""
        envelope = self.backoff_s(attempt)
        if not self.jitter:
            return envelope
        return (rng or _JITTER_RNG).uniform(0.0, envelope)

    # ------------------------------------------------------------------ #
    # Sleeping
    # ------------------------------------------------------------------ #

    def sleep(self, attempt: int, *,
              deadline: Optional[Union[Deadline, float]] = None,
              stop: Optional[threading.Event] = None,
              rng: Optional[random.Random] = None) -> bool:
        """Block for this attempt's delay; returns ``False`` when the
        ``stop`` event cut the sleep short (the caller should exit its
        loop), ``True`` otherwise.

        ``deadline`` (a :class:`Deadline`, or a plain
        ``time.monotonic()`` timestamp) truncates the sleep so the
        retry loop wakes in time to observe its own timeout.
        """
        delay = self.delay_s(attempt, rng)
        if deadline is not None:
            if not isinstance(deadline, Deadline):
                deadline = Deadline(deadline)
            delay = min(delay, deadline.remaining())
        _RETRY_SLEEPS.inc()
        _RETRY_SLEEP_SECONDS.inc(delay)
        if stop is not None:
            return not stop.wait(delay)
        if delay > 0:
            time.sleep(delay)
        return True


#: A jittered constant-interval poll at ``interval_s`` — the steady
#: (non-error) poll loops' shape, kept as a helper so call sites read
#: as intent rather than as a degenerate policy construction.
def poll_policy(interval_s: float) -> RetryPolicy:
    return RetryPolicy(initial_s=interval_s, multiplier=1.0,
                       cap_s=interval_s, jitter=True)
