"""Broker unit tests: the lease protocol under normal and hostile use.

Pins the work-unit plane — publish idempotence, claim order and
exclusivity, heartbeat/ack/fail ownership checks, and the
load-bearing guarantee that an abandoned lease re-enqueues instead of
stranding its span. ``TestLeaseConformance`` states the lease contract
once for every broker in ``LEASE_BROKER_FACTORIES`` (today the SQLite
broker).
"""

import threading

import pytest

from repro.distributed.broker import SqliteBroker

#: name -> factory(tmp_path) for every lease-capable work-unit broker.
LEASE_BROKER_FACTORIES = {
    "sqlite": lambda tmp_path: SqliteBroker(tmp_path / "b.sqlite3"),
}


@pytest.fixture
def broker(tmp_path):
    return SqliteBroker(tmp_path / "broker.sqlite3")


class TestPublish:
    def test_fifo_claim_order(self, broker):
        for i in range(5):
            broker.publish(f"u{i}", f"p{i}")
        claimed = [broker.claim("w").unit_id for _ in range(5)]
        assert claimed == [f"u{i}" for i in range(5)]
        assert broker.claim("w") is None

    def test_publish_is_idempotent(self, broker):
        assert broker.publish("u", "payload")
        assert not broker.publish("u", "other")  # no-op, no dup
        unit = broker.claim("w")
        assert unit.payload == "payload"
        assert broker.claim("w") is None

    def test_republish_resets_terminal_failure(self, broker):
        broker.publish("u", "v1")
        broker.claim("w")
        broker.fail("u", "w", "poison", requeue=False)
        assert broker.unit("u").state == "failed"
        assert broker.publish("u", "v2")  # the dispatcher's retry path
        unit = broker.claim("w")
        assert unit.payload == "v2" and unit.state == "leased"

    def test_group_bookkeeping(self, broker):
        broker.publish("a1", "x", group_key="a")
        broker.publish("a2", "x", group_key="a")
        broker.publish("b1", "x", group_key="b")
        assert broker.counts("a")["queued"] == 2
        assert broker.clear_group("a") == 2
        assert broker.counts("a")["queued"] == 0
        assert [u.unit_id for u in broker.units()] == ["b1"]


class TestLeases:
    def test_heartbeat_requires_ownership(self, broker):
        broker.publish("u", "x")
        broker.claim("w1", ttl_s=30)
        assert broker.heartbeat("u", "w1", ttl_s=30)
        assert not broker.heartbeat("u", "w2", ttl_s=30)

    def test_expired_lease_is_reclaimable(self, broker):
        broker.publish("u", "x")
        first = broker.claim("w1", ttl_s=5.0, now=1000.0)
        assert first.attempts == 1
        # within TTL: nothing to claim
        assert broker.claim("w2", now=1004.0) is None
        # past TTL: the abandoned unit comes back, attempts grows
        second = broker.claim("w2", now=1006.0)
        assert second.unit_id == "u" and second.attempts == 2
        # the original owner's lease is dead
        assert not broker.heartbeat("u", "w1", ttl_s=5.0)
        assert not broker.ack("u", "w1")
        assert broker.ack("u", "w2")

    def test_heartbeat_extends_the_lease(self, broker):
        broker.publish("u", "x")
        broker.claim("w1", ttl_s=5.0, now=1000.0)
        assert broker.heartbeat("u", "w1", ttl_s=5.0, now=1004.0)
        # would have expired at 1005 without the beat; now 1009
        assert broker.claim("w2", now=1006.0) is None
        assert broker.claim("w2", now=1010.0) is not None

    def test_ack_and_fail_require_ownership(self, broker):
        broker.publish("u", "x")
        broker.claim("w1")
        assert not broker.ack("u", "w2")
        assert not broker.fail("u", "w2", "nope")
        assert broker.ack("u", "w1")
        assert broker.unit("u").state == "done"

    def test_requeue_failure_returns_unit_to_fifo(self, broker):
        broker.publish("u1", "x")
        broker.publish("u2", "x")
        broker.claim("w1")
        assert broker.fail("u1", "w1", "transient", requeue=True)
        unit = broker.unit("u1")
        assert unit.state == "queued" and unit.error == "transient"
        # original FIFO position (seq) is kept: u1 before u2
        assert broker.claim("w2").unit_id == "u1"

    def test_done_units_stay_done(self, broker):
        broker.publish("u", "x")
        broker.claim("w")
        broker.ack("u", "w")
        assert broker.claim("w2") is None
        assert not broker.publish("u", "x")  # done is terminal


class TestRetryBudget:
    def test_repeated_requeue_failures_turn_terminal(self, tmp_path):
        broker = SqliteBroker(tmp_path / "b.sqlite3", max_attempts=3)
        broker.publish("u", "x")
        for attempt in range(2):
            broker.claim("w")
            assert broker.fail("u", "w", f"boom {attempt}", requeue=True)
            assert broker.unit("u").state == "queued"
        broker.claim("w")  # third and final attempt
        assert broker.fail("u", "w", "boom final", requeue=True)
        unit = broker.unit("u")
        assert unit.state == "failed"
        assert "retries exhausted after 3 attempts" in unit.error
        assert broker.claim("w") is None

    def test_crash_loop_turns_terminal_via_expiry(self, tmp_path):
        """Workers that die holding the lease (no fail() ever runs)
        still exhaust the budget through expiry re-claims."""
        broker = SqliteBroker(tmp_path / "b.sqlite3", max_attempts=2)
        broker.publish("u", "x")
        assert broker.claim("w1", ttl_s=1.0, now=100.0) is not None
        assert broker.claim("w2", ttl_s=1.0, now=102.0) is not None
        # budget spent; the next expiry is terminal, not claimable
        assert broker.claim("w3", now=104.0) is None
        unit = broker.unit("u")
        assert unit.state == "failed"
        assert "lease expired after 2 attempts" in unit.error

    def test_invalid_max_attempts(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts"):
            SqliteBroker(tmp_path / "b.sqlite3", max_attempts=0)

    def test_republish_grants_a_fresh_retry_budget(self, tmp_path):
        """Resetting a terminally failed unit must reset attempts too,
        or the 'retry path' inherits a spent budget and dies on its
        first hiccup."""
        broker = SqliteBroker(tmp_path / "b.sqlite3", max_attempts=2)
        broker.publish("u", "v1")
        for _ in range(2):
            broker.claim("w")
            broker.fail("u", "w", "boom", requeue=True)
        assert broker.unit("u").state == "failed"
        assert broker.publish("u", "v2")
        unit = broker.claim("w")
        assert unit.attempts == 1  # fresh budget, not 3
        assert broker.fail("u", "w", "transient", requeue=True)
        assert broker.unit("u").state == "queued"  # still retryable


class TestConcurrency:
    def test_concurrent_claims_are_exclusive(self, broker):
        """N racing workers never observe the same unit twice."""
        total = 24
        for i in range(total):
            broker.publish(f"u{i:02d}", "x")
        claimed, lock = [], threading.Lock()

        def drain(worker):
            while True:
                unit = broker.claim(worker, ttl_s=60)
                if unit is None:
                    return
                with lock:
                    claimed.append(unit.unit_id)
                broker.ack(unit.unit_id, worker)

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == [f"u{i:02d}" for i in range(total)]
        assert len(set(claimed)) == total


@pytest.fixture(params=sorted(LEASE_BROKER_FACTORIES))
def lease_broker(request, tmp_path):
    return LEASE_BROKER_FACTORIES[request.param](tmp_path)


class TestLeaseConformance:
    """The lease API contract every work-unit broker must honour."""

    def test_claim_is_fifo_and_exhaustible(self, lease_broker):
        for i in range(3):
            lease_broker.publish(f"u{i}", "p")
        assert [lease_broker.claim("w").unit_id for _ in range(3)] == \
            ["u0", "u1", "u2"]
        assert lease_broker.claim("w") is None

    def test_lease_expiry_requeues(self, lease_broker):
        lease_broker.publish("u", "p")
        lease_broker.claim("w1", ttl_s=1.0, now=100.0)
        assert lease_broker.claim("w2", now=100.5) is None  # still held
        reclaimed = lease_broker.claim("w2", now=102.0)     # expired
        assert reclaimed is not None and reclaimed.unit_id == "u"
        # the abandoned owner has lost every verb
        assert not lease_broker.heartbeat("u", "w1", ttl_s=1.0)
        assert not lease_broker.ack("u", "w1")

    def test_concurrent_claim_exclusivity(self, lease_broker):
        for i in range(16):
            lease_broker.publish(f"u{i:02d}", "p")
        seen, lock = [], threading.Lock()

        def drain(owner):
            while True:
                unit = lease_broker.claim(owner, ttl_s=60)
                if unit is None:
                    return
                with lock:
                    seen.append(unit.unit_id)
                lease_broker.ack(unit.unit_id, owner)

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 16 and len(set(seen)) == 16

    def test_ack_finalizes_heartbeat_extends(self, lease_broker):
        lease_broker.publish("u", "p")
        lease_broker.claim("w", ttl_s=2.0, now=10.0)
        assert lease_broker.heartbeat("u", "w", ttl_s=2.0, now=11.0)
        assert lease_broker.claim("other", now=12.5) is None  # extended
        assert lease_broker.ack("u", "w")
        assert lease_broker.claim("other", now=1e9) is None   # done


class TestFile:
    """The broker file holds work units only."""

    @staticmethod
    def tables(path):
        import sqlite3

        with sqlite3.connect(path) as conn:
            return {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%'")}

    def test_file_holds_only_the_work_unit_tables(self, tmp_path):
        path = tmp_path / "broker.sqlite3"
        broker = SqliteBroker(path)
        broker.publish("u", "p")
        assert self.tables(path) == {"units", "worker_health"}

    def test_table_of_an_older_build_is_left_alone(self, tmp_path):
        """A table the broker does not know, such as the job-id queue
        an older build kept in the file, is neither read nor dropped."""
        import sqlite3

        path = tmp_path / "broker.sqlite3"
        with sqlite3.connect(path) as conn:
            conn.execute("CREATE TABLE old_job_queue (seq INTEGER "
                         "PRIMARY KEY AUTOINCREMENT, job_id TEXT NOT NULL)")
            conn.executemany(
                "INSERT INTO old_job_queue (job_id) VALUES (?)",
                [("j000001-aa",), ("j000002-bb",)])
        broker = SqliteBroker(path)
        assert broker.publish("u", "p")
        unit = broker.claim("w")
        assert unit.unit_id == "u" and broker.ack("u", "w")
        assert self.tables(path) == {"units", "worker_health",
                                     "old_job_queue"}
        with sqlite3.connect(path) as conn:
            assert conn.execute("SELECT job_id FROM old_job_queue "
                                "ORDER BY seq").fetchall() == \
                [("j000001-aa",), ("j000002-bb",)]
