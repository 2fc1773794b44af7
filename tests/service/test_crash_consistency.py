"""Crash consistency: kill the pipeline at every write boundary.

The checkpoint path has three crash boundaries — before the tmp-file
write, mid-write (torn bytes at the final path), and after the atomic
replace but before the broker ack. A worker killed at *any* of them
must leave a store from which the resumed campaign converges to
tallies bit-identical to the scalar reference oracle
(:meth:`CampaignRunner.run_reference`). The chaos harness's
``at_calls`` knob makes each kill exact and reproducible.
"""

import asyncio
import threading
import time

import pytest

from repro.distributed import BrokerWorkSource, ShardWorker, SqliteBroker
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ResultStore,
    result_from_dict,
)
from repro.testing import ChaosPlan, ChaosStore, FaultRule
from repro.utils.canonical import canonical_json

UNIFORM = InjectorSpec("uniform", {"probability": 2e-3})


def spec_for(seed=61, trials=120):
    return CampaignJobSpec(n=15, m=3, trials=trials, seed=seed,
                           injector=UNIFORM, packing="u8")


class ChaosFleet:
    """One worker whose *store writes* go through a chaos plan."""

    def __init__(self, store_root, broker_path, plan, lease_ttl_s=1.0):
        self.stop = threading.Event()
        self.worker = ShardWorker(
            BrokerWorkSource(SqliteBroker(broker_path),
                             ChaosStore(store_root, plan)),
            worker_id="chaos-w", lease_ttl_s=lease_ttl_s,
            poll_interval_s=0.02)
        self.thread = threading.Thread(
            target=self.worker.run, kwargs={"stop": self.stop},
            daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join(timeout=10)


def run_with_plan(tmp_path, spec, plan, **service_kwargs):
    service_kwargs.setdefault("executor", "thread")
    service_kwargs.setdefault("shard_trials", 48)
    service_kwargs.setdefault("execution", "distributed")
    service_kwargs.setdefault("dispatch_poll_s", 0.02)

    async def main():
        async with CampaignService(tmp_path, **service_kwargs) as service:
            with ChaosFleet(tmp_path, service.broker_path, plan):
                job = await service.submit(spec)
                await service.wait(job.id, timeout=300)
                return job

    return asyncio.run(main())


class TestKillAtEveryBoundary:
    """One campaign per boundary; the kill lands on the first
    checkpoint write, the retry machinery absorbs it, and the result
    is bit-identical to the scalar reference."""

    @pytest.mark.parametrize("site", [
        "store.put_shard.before",   # crash before anything durable
        "store.put_shard.torn",     # torn bytes at the final path
        "store.put_shard.after",    # durable checkpoint, ack never sent
    ])
    def test_boundary_kill_converges_bit_identically(self, tmp_path, site):
        spec = spec_for()
        plan = ChaosPlan(seed=5, rules={site: FaultRule(at_calls=(1,))})
        job = run_with_plan(tmp_path, spec, plan)
        assert job.state == "done", job.error
        # the kill actually happened (not a vacuous pass)
        assert plan.fired()[site] == [1]
        reference = spec.build_runner().run_reference(spec.trials)
        assert result_from_dict(job.result).as_dict() == \
            reference.as_dict()

    def test_torn_checkpoint_lands_in_quarantine(self, tmp_path):
        """The torn file is not merely ignored: the first read pulls
        it into quarantine with a reason, where operators can audit
        what the crash left behind."""
        spec = spec_for(seed=67)
        plan = ChaosPlan(seed=5, rules={
            "store.put_shard.torn": FaultRule(at_calls=(1,))})
        job = run_with_plan(tmp_path, spec, plan)
        assert job.state == "done"
        store = ResultStore(tmp_path)
        # Either the checked read quarantined the torn file, or the
        # retry overwrote it atomically before any read — both are
        # sound; what is *not* allowed is the torn bytes surviving in
        # the shards namespace.
        report = store.verify()
        assert report["corrupt"] == []

    def test_kill_on_final_record_write_resumes(self, tmp_path):
        """Crash the *service-side* final-record write: every span is
        checkpointed, the merged record never lands. A resubmission
        reuses all checkpoints and completes bit-identically."""
        spec = spec_for(seed=71)
        plan = ChaosPlan(seed=5, rules={
            "store.put.before": FaultRule(at_calls=(1,))})

        async def main():
            store = ChaosStore(tmp_path, plan)
            async with CampaignService(
                    store, executor="thread", shard_trials=48) as service:
                job = await service.submit(spec)
                await service.wait(job.id, timeout=300)
                assert job.state == "failed"
                assert job.failure["kind"] == "exception"
                assert job.failure["type"] == "TornWriteError"
                # every span was checkpointed before the record write
                key = spec.normalized().cache_key()
                spans = await asyncio.to_thread(store.shard_spans, key)
                assert len(spans) == 3
                # resubmit: all spans cached, record write succeeds now
                retry = await service.submit(spec)
                await service.wait(retry.id, timeout=300)
                return retry

        retry = asyncio.run(main())
        assert retry.state == "done"
        assert retry.shards_cached == 3
        reference = spec.build_runner().run_reference(spec.trials)
        assert result_from_dict(retry.result).as_dict() == \
            reference.as_dict()


class TestDuplicateDelivery:
    def test_double_execution_writes_identical_bytes(self, tmp_path):
        """Two workers execute the same unit (the lease-expiry race):
        both checkpoint writes must produce byte-identical files, so
        the second is an idempotent overwrite, not corruption."""
        from repro.distributed.wire import task_wire_dict

        spec = spec_for(seed=73, trials=48)
        runner = spec.normalized().build_runner()
        key = spec.normalized().cache_key()
        broker = SqliteBroker(tmp_path / "broker.sqlite3")
        store = ResultStore(tmp_path)
        payload = canonical_json({
            "job_key": key, "lo": 0, "hi": 48,
            "shard_task": task_wire_dict(runner.shard_task(0, 48))})
        broker.publish(f"{key}:0-48", payload, group_key=key)

        first = broker.claim("w1", ttl_s=0.05)
        assert first is not None
        time.sleep(0.1)  # w1 dies; its lease expires
        second = broker.claim("w2", ttl_s=30.0)
        assert second is not None and second.unit_id == first.unit_id

        # w2 completes first; then the zombie w1 wakes up and finishes
        # the same span.
        w1 = ShardWorker(BrokerWorkSource(broker, store), worker_id="w1")
        w2 = ShardWorker(BrokerWorkSource(broker, store), worker_id="w2")
        w2._process(second.unit_id, second.payload)
        shard_path = tmp_path / "shards" / key / "0-48.json"
        after_w2 = shard_path.read_bytes()
        w1._process(first.unit_id, first.payload)
        assert shard_path.read_bytes() == after_w2
        assert store.get_shard(key, 0, 48) is not None
        # exactly one checkpoint file, valid, digest-clean
        assert store.verify()["corrupt"] == []


class TestLyingAck:
    def test_acked_but_missing_checkpoint_fails_structurally(
            self, tmp_path):
        """The silent-hang closure: a worker acks units 'done' without
        ever writing their checkpoints (a lying transport, or a
        checkpoint quarantined after ack). The dispatcher must detect
        the lost checkpoints, spend the retry budget, and settle the
        job terminally ``failed`` with a structured reason — never
        poll forever."""

        class LyingSource(BrokerWorkSource):
            def complete(self, unit_id, owner, job_key, lo, hi, tallies,
                         phases=None):
                self.broker.ack(unit_id, owner)  # no checkpoint!

        spec = spec_for(seed=83, trials=64)

        async def main():
            async with CampaignService(
                    tmp_path, executor="thread", shard_trials=32,
                    execution="distributed", dispatch_poll_s=0.02,
                    broker_options={"max_attempts": 2}) as service:
                source = LyingSource(SqliteBroker(service.broker_path),
                                     ResultStore(tmp_path))
                worker = ShardWorker(source, worker_id="liar",
                                     lease_ttl_s=5, poll_interval_s=0.02)
                stop = threading.Event()
                thread = threading.Thread(target=worker.run,
                                          kwargs={"stop": stop},
                                          daemon=True)
                thread.start()
                try:
                    job = await service.submit(spec)
                    await service.wait(job.id, timeout=120)
                finally:
                    stop.set()
                    thread.join(timeout=10)
                return job

        job = asyncio.run(main())
        assert job.state == "failed"
        assert job.failure["kind"] == "unit_failed"
        assert "checkpoint lost" in job.failure["error"]
        assert "checkpoint lost" in job.error
