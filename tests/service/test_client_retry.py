"""ServiceClient poll loops must ride out transient connection errors.

Pins the bugfix: a service restart between status polls used to
surface as ``ServiceUnavailableError`` out of ``wait``, killing a
client that the very next poll would have satisfied. Both ``wait``
and ``wait_until_up`` now tolerate unreachability until their
deadline, matching the worker daemon's claim-loop policy.
"""

import pytest

from repro.service.client import (
    JobFailedError,
    ServiceClient,
    ServiceUnavailableError,
)


class FlakyClient(ServiceClient):
    """Overrides the HTTP layer with a scripted response sequence."""

    def __init__(self, script):
        super().__init__("http://test.invalid")
        self.script = list(script)
        self.polls = 0

    def status(self, job_id, wait_s=0.0):
        self.polls += 1
        step = self.script.pop(0) if self.script else self.script_default
        if isinstance(step, Exception):
            raise step
        return step

    @property
    def script_default(self):
        return {"state": "running"}


DOWN = ServiceUnavailableError("campaign service unreachable")


class TestWait:
    def test_survives_transient_outage(self):
        client = FlakyClient([DOWN, DOWN, {"state": "done", "id": "j"}])
        record = client.wait("j", timeout=10.0, poll_interval=0.01)
        assert record["state"] == "done"
        assert client.polls == 3

    def test_outage_mid_poll_then_running_then_done(self):
        client = FlakyClient([{"state": "running"}, DOWN,
                              {"state": "running"}, DOWN, DOWN,
                              {"state": "done"}])
        record = client.wait("j", timeout=10.0, poll_interval=0.01)
        assert record["state"] == "done"
        assert client.polls == 6

    def test_persistent_outage_becomes_timeout(self):
        def always_down(job_id, wait_s=0.0):
            raise DOWN

        client = FlakyClient([])
        client.status = always_down
        with pytest.raises(TimeoutError, match="unreachable"):
            client.wait("j", timeout=0.2, poll_interval=0.01)

    def test_failed_job_still_raises_immediately(self):
        client = FlakyClient([DOWN, {"state": "failed", "error": "boom"}])
        with pytest.raises(JobFailedError, match="boom"):
            client.wait("j", timeout=10.0, poll_interval=0.01)

    def test_backoff_is_capped(self):
        """Many consecutive errors must not grow the sleep unboundedly:
        a 0.4 s budget still fits several retries under the cap."""
        script = [DOWN] * 4 + [{"state": "done"}]
        client = FlakyClient(script)
        record = client.wait("j", timeout=30.0, poll_interval=0.01)
        assert record["state"] == "done"
        assert client.polls == 5


class TestTimeoutFlavours:
    """An operator must be able to tell a dead service from a slow job
    straight from the TimeoutError message — including what state the
    job was last seen in."""

    def test_dead_service_flavour_reports_last_state(self):
        client = FlakyClient([])
        calls = iter(range(1_000_000))

        def one_good_poll_then_down(job_id, wait_s=0.0):
            if next(calls) == 0:
                return {"state": "running"}
            raise DOWN

        client.status = one_good_poll_then_down
        with pytest.raises(TimeoutError) as excinfo:
            client.wait("j", timeout=0.2, poll_interval=0.01)
        message = str(excinfo.value)
        assert "unreachable" in message
        assert "last observed job state: 'running'" in message
        assert "dead or unreachable service" in message

    def test_dead_service_never_observed(self):
        client = FlakyClient([])
        client.status = \
            lambda job_id, wait_s=0.0: (_ for _ in ()).throw(DOWN)
        with pytest.raises(TimeoutError,
                           match="never observed"):
            client.wait("j", timeout=0.2, poll_interval=0.01)

    def test_slow_job_flavour_names_the_state(self):
        client = FlakyClient([])  # always {"state": "running"}
        with pytest.raises(TimeoutError) as excinfo:
            client.wait("j", timeout=0.1, poll_interval=0.01)
        message = str(excinfo.value)
        assert "still 'running'" in message
        assert "slow or stuck job, not a dead service" in message
        assert "unreachable" not in message


class TestWaitUntilUp:
    def test_comes_up_after_misses(self):
        client = FlakyClient([])
        answers = iter([False, False, True])
        client.health = lambda: next(answers)
        client.wait_until_up(timeout=10.0, poll_interval=0.01)

    def test_never_up_raises_after_deadline(self):
        client = FlakyClient([])
        client.health = lambda: False
        with pytest.raises(ServiceUnavailableError, match="did not come up"):
            client.wait_until_up(timeout=0.2, poll_interval=0.01)

    def test_health_swallows_transport_errors(self):
        """health() itself maps unreachability to False, never raises."""
        client = ServiceClient("http://127.0.0.1:1")  # nothing listens
        assert client.health() is False
