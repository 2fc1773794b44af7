"""Non-diagonal codes across the distributed boundary.

A code travels as a plain string inside the shard-task wire envelope;
these tests pin the round trip (broker -> worker -> checkpoint), the
wire-version bump that carries it, and the refusal of version-1
envelopes that predate the field.
"""

import pytest

from repro.core.blocks import BlockGrid
from repro.distributed.broker import SqliteBroker
from repro.distributed.wire import (
    WIRE_VERSION,
    WireFormatError,
    task_from_wire_dict,
    task_wire_dict,
)
from repro.distributed.worker import BrokerWorkSource, ShardWorker
from repro.faults.batch import CampaignRunner, merge_results, run_reference
from repro.faults.injector import UniformInjector
from repro.service.store import ResultStore
from repro.utils.canonical import canonical_json


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


@pytest.fixture
def broker(tmp_path):
    return SqliteBroker(tmp_path / "store" / "broker.sqlite3")


@pytest.fixture
def source(broker, store):
    return BrokerWorkSource(broker, store)


def runner(code, seed=3):
    return CampaignRunner(BlockGrid(15, 5), UniformInjector(2e-2),
                          seed=seed, seeding="per-trial", code=code)


def publish_span(broker, key, lo, hi, code, seed=3):
    task = runner(code, seed=seed).shard_task(lo, hi)
    payload = canonical_json({"job_key": key, "lo": lo, "hi": hi,
                              "shard_task": task_wire_dict(task)})
    return broker.publish(f"{key}:{lo}-{hi}", payload, group_key=key)


class TestWireVersion:
    def test_version_is_eight(self):
        """Version 8 lets ``batch_size`` be null (version 7 dropped the
        ``backend_name`` and ``kernels_name`` task fields); bump again
        if it changes."""
        assert WIRE_VERSION == 8

    def test_envelope_carries_code(self):
        task = runner("hsiao").shard_task(0, 32)
        env = task_wire_dict(task)
        assert env["version"] == WIRE_VERSION
        assert env["task"]["code"] == "hsiao"
        assert task_from_wire_dict(env).code == "hsiao"

    def test_version_one_envelope_refused(self):
        """Pre-``code`` envelopes must be rejected, not misread."""
        env = task_wire_dict(runner("hsiao").shard_task(0, 32))
        env["version"] = 1
        with pytest.raises(WireFormatError, match="version"):
            task_from_wire_dict(env)

    def test_version_one_unit_is_poison(self, broker, store, source):
        """A worker fails a stale-version unit terminally (no requeue)."""
        task = runner("rowcol").shard_task(0, 16)
        env = task_wire_dict(task)
        env["version"] = 1
        payload = canonical_json({"job_key": "stale", "lo": 0, "hi": 16,
                                  "shard_task": env})
        broker.publish("stale:0-16", payload, group_key="stale")
        worker = ShardWorker(source, worker_id="w0", lease_ttl_s=30)
        assert worker.run_once()
        assert worker.units_failed == 1
        unit = broker.unit("stale:0-16")
        assert unit.state == "failed"
        assert "version" in unit.error


class TestDistributedExecution:
    @pytest.mark.parametrize("code", ["rowcol", "hsiao", "hamming_ext"])
    def test_worker_executes_code_span(self, broker, store, source, code):
        publish_span(broker, "job", 0, 64, code)
        worker = ShardWorker(source, worker_id="w0", lease_ttl_s=30)
        assert worker.run_once()
        expected = runner(code).run_reference(64)
        shard = store.get_shard("job", 0, 64)
        assert shard.as_dict() == expected.as_dict()

    def test_two_workers_split_hsiao_campaign(self, broker, store, source):
        """Two spans, two workers, merged == single-process reference."""
        publish_span(broker, "job", 0, 100, "hsiao", seed=7)
        publish_span(broker, "job", 100, 200, "hsiao", seed=7)
        for wid in ("w0", "w1"):
            assert ShardWorker(source, worker_id=wid,
                               lease_ttl_s=30).run_once()
        expected = run_reference(BlockGrid(15, 5), UniformInjector(2e-2),
                                 entropy=7, trials=200, code="hsiao")
        total = merge_results([store.get_shard("job", 0, 100),
                               store.get_shard("job", 100, 200)])
        assert total.as_dict() == expected.as_dict()
