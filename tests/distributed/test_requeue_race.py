"""The dispatcher's lost-checkpoint sweep must not requeue finished work.

The distributed dispatcher scans the store for pending spans, then reads
the broker's ``done`` units. A worker that checkpoints and acks between
those two reads leaves a ``done`` unit whose span the dispatcher still
holds as pending; requeueing it would compute the span twice and burn an
attempt. Only a checkpoint that is really gone (never written, or torn
and quarantined) justifies sending the unit around again.
"""

from repro.distributed.broker import SqliteBroker
from repro.faults.campaign import CampaignResult
from repro.service import CampaignJobSpec, CampaignService, InjectorSpec
from repro.service.scheduler import JobRecord
from repro.testing import corrupt_file

SPAN = (0, 64)


def dispatcher(tmp_path):
    """A distributed service's dispatcher side, broker attached, idle."""
    service = CampaignService(tmp_path, executor="thread",
                              execution="distributed")
    service.broker = SqliteBroker(service.broker_path)
    spec = CampaignJobSpec(
        n=15, m=3, trials=64, seed=9,
        injector=InjectorSpec("uniform", {"probability": 2e-3})
    ).normalized()
    job = JobRecord(id="j000001-race", spec=spec, key=spec.cache_key())
    return service, job


def acked_unit(service, job) -> str:
    """Publish, claim and ack the unit of :data:`SPAN`."""
    lo, hi = SPAN
    unit_id = f"{job.key}:{lo}-{hi}"
    service.broker.publish(unit_id, "{}", group_key=job.key)
    claimed = service.broker.claim("w0")
    assert claimed is not None and claimed.unit_id == unit_id
    assert service.broker.ack(unit_id, "w0")
    return unit_id


def checkpoint(service, job) -> None:
    service.store.put_shard(job.key, *SPAN,
                            CampaignResult(trials=64, clean=64))


class TestLostUnitSweep:
    def test_checkpoint_landed_after_scan_is_not_requeued(self, tmp_path):
        """Checkpoint in the store, span still pending: leave the unit
        for the next scan to collect."""
        service, job = dispatcher(tmp_path)
        unit_id = acked_unit(service, job)
        checkpoint(service, job)
        assert service._requeue_lost_units(job, {SPAN}) == 0
        unit = service.broker.unit(unit_id)
        assert unit.state == "done"
        assert unit.attempts == 1

    def test_torn_checkpoint_is_requeued(self, tmp_path):
        service, job = dispatcher(tmp_path)
        unit_id = acked_unit(service, job)
        checkpoint(service, job)
        corrupt_file(tmp_path / "shards" / job.key / "0-64.json", seed=2)
        assert service._requeue_lost_units(job, {SPAN}) == 1
        assert service.broker.unit(unit_id).state == "queued"
        assert service.store.quarantine_counts()["shards"] == 1

    def test_missing_checkpoint_is_requeued(self, tmp_path):
        service, job = dispatcher(tmp_path)
        unit_id = acked_unit(service, job)
        assert service._requeue_lost_units(job, {SPAN}) == 1
        assert service.broker.unit(unit_id).state == "queued"

    def test_collected_span_is_left_alone(self, tmp_path):
        service, job = dispatcher(tmp_path)
        unit_id = acked_unit(service, job)
        assert service._requeue_lost_units(job, set()) == 0
        assert service.broker.unit(unit_id).state == "done"
