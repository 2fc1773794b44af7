"""Unit tests for the shared retry/backoff policy."""

import random
import threading
import time

import pytest

from repro.utils.retry import Deadline, RetryPolicy, poll_policy


class TestEnvelope:
    def test_exponential_growth_caps(self):
        policy = RetryPolicy(initial_s=0.1, multiplier=2.0, cap_s=5.0)
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(4) == pytest.approx(1.6)
        assert policy.backoff_s(10) == 5.0  # capped
        assert policy.backoff_s(10_000) == 5.0  # overflow-safe

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy().backoff_s(-1)

    def test_validation(self):
        with pytest.raises(ValueError, match="initial_s"):
            RetryPolicy(initial_s=0.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="cap_s"):
            RetryPolicy(cap_s=-1.0)


class TestJitter:
    def test_full_jitter_stays_within_envelope(self):
        """The satellite contract: every jittered delay lies in
        [0, envelope] — full jitter never exceeds the unjittered
        worst case and never goes negative."""
        policy = RetryPolicy(initial_s=0.5, multiplier=2.0, cap_s=4.0)
        rng = random.Random(7)
        for attempt in range(8):
            envelope = policy.backoff_s(attempt)
            for _ in range(200):
                delay = policy.delay_s(attempt, rng)
                assert 0.0 <= delay <= envelope

    def test_jitter_actually_varies(self):
        policy = RetryPolicy(initial_s=1.0, cap_s=10.0)
        rng = random.Random(3)
        draws = {policy.delay_s(3, rng) for _ in range(32)}
        assert len(draws) > 16  # uniform draws, not a constant

    def test_unjittered_policy_is_exact(self):
        policy = RetryPolicy(initial_s=0.25, multiplier=2.0, cap_s=8.0,
                             jitter=False)
        assert policy.delay_s(0) == 0.25
        assert policy.delay_s(2) == 1.0

    def test_seeded_rng_reproduces_schedule(self):
        policy = RetryPolicy(initial_s=0.3, cap_s=2.0)
        a = [policy.delay_s(i, random.Random(11)) for i in range(6)]
        b = [policy.delay_s(i, random.Random(11)) for i in range(6)]
        assert a == b

    def test_poll_policy_is_jittered_constant(self):
        steady = poll_policy(0.2)
        rng = random.Random(5)
        for attempt in (0, 1, 17):
            assert steady.backoff_s(attempt) == pytest.approx(0.2)
            assert 0.0 <= steady.delay_s(attempt, rng) <= 0.2


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(10.0)
        assert not deadline.expired()
        assert 9.0 < deadline.remaining() <= 10.0

    def test_expired_clamps_to_zero(self):
        deadline = Deadline(time.monotonic() - 1.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_sleep_truncates_at_deadline(self):
        policy = RetryPolicy(initial_s=30.0, cap_s=30.0, jitter=False)
        deadline = Deadline.after(0.05)
        start = time.monotonic()
        assert policy.sleep(0, deadline=deadline)
        assert time.monotonic() - start < 1.0

    def test_sleep_accepts_raw_monotonic_timestamp(self):
        policy = RetryPolicy(initial_s=30.0, cap_s=30.0, jitter=False)
        start = time.monotonic()
        assert policy.sleep(0, deadline=time.monotonic() + 0.05)
        assert time.monotonic() - start < 1.0


class TestStopEvent:
    def test_stop_set_before_sleep_returns_false_immediately(self):
        stop = threading.Event()
        stop.set()
        policy = RetryPolicy(initial_s=30.0, cap_s=30.0, jitter=False)
        start = time.monotonic()
        assert policy.sleep(0, stop=stop) is False
        assert time.monotonic() - start < 1.0

    def test_stop_mid_sleep_interrupts(self):
        stop = threading.Event()
        policy = RetryPolicy(initial_s=30.0, cap_s=30.0, jitter=False)
        threading.Timer(0.05, stop.set).start()
        start = time.monotonic()
        assert policy.sleep(0, stop=stop) is False
        assert time.monotonic() - start < 5.0

    def test_uninterrupted_sleep_returns_true(self):
        policy = RetryPolicy(initial_s=0.01, cap_s=0.01, jitter=False)
        assert policy.sleep(0, stop=threading.Event()) is True
