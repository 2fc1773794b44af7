"""Results persisted under another draw contract are never served.

The campaign draw contract (:data:`repro.utils.rng.DRAW_CONTRACT`) fixes
which tallies a ``(spec, entropy)`` pair yields, so the service's cache
key stamps it. A store written before the stamp existed keyed records
and shard checkpoints by the bare spec hash, a store written under
contract v2 by the v2-stamped hash, and one written while keys still
hashed ``batch_size`` by that hash; the same spec must miss all three,
recompute, and match the in-process runner.
"""

import asyncio

import pytest

from repro.faults.campaign import CampaignResult
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ResultStore,
    result_from_dict,
    result_to_dict,
)
from repro.utils.canonical import content_hash
from repro.utils.rng import DRAW_CONTRACT

SPEC = CampaignJobSpec(
    n=15, m=3, trials=128, seed=77,
    injector=InjectorSpec("uniform", {"probability": 2e-3}))

SHARD_TRIALS = 64
SPANS = [(0, 64), (64, 128)]


def unstamped_key(spec) -> str:
    """The cache key of a store written without the contract stamp."""
    return content_hash(spec.normalized().to_dict())


def v2_key(spec) -> str:
    """The cache key of a store written under draw contract v2."""
    return content_hash({"draw_contract": 2,
                         "spec": spec.normalized().to_dict()})


def batch_hashed_key(spec) -> str:
    """The cache key of a store written while keys hashed ``batch_size``
    (then 64 by default)."""
    hashed = spec.normalized().to_dict()
    hashed["batch_size"] = 64
    return content_hash({"draw_contract": DRAW_CONTRACT, "spec": hashed})


def run_one(store):
    async def main():
        async with CampaignService(store, workers=1,
                                   shard_trials=SHARD_TRIALS,
                                   executor="thread") as service:
            job = await service.submit(SPEC)
            await service.wait(job.id, timeout=300)
            return job

    return asyncio.run(main())


class TestContractStampedKey:
    def test_key_hashes_contract_and_spec(self):
        spec = SPEC.normalized()
        hashed = spec.to_dict()
        del hashed["batch_size"]  # it cannot change a tally
        assert spec.cache_key() == content_hash(
            {"draw_contract": DRAW_CONTRACT, "spec": hashed})
        assert spec.cache_key() != unstamped_key(SPEC)

    @pytest.mark.parametrize("stale_key", [unstamped_key, v2_key,
                                           batch_hashed_key])
    def test_unstamped_record_and_checkpoints_are_a_miss(self, tmp_path,
                                                         stale_key):
        """Unstamped, or stamped with an older contract: both miss."""
        store = ResultStore(tmp_path)
        old = stale_key(SPEC)
        stale = result_to_dict(CampaignResult(trials=128, silent=128))
        store.put(old, {"result": stale, "shards": {"total": len(SPANS)}})
        for lo, hi in SPANS:
            store.put_shard(old, lo, hi,
                            CampaignResult(trials=hi - lo, silent=hi - lo))

        job = run_one(tmp_path)
        assert job.state == "done"
        assert not job.cached
        assert job.shards_cached == 0
        in_process = SPEC.build_runner().run(SPEC.trials)
        assert result_from_dict(job.result).as_dict() == \
            in_process.as_dict()
        # the fresh record landed under the stamped key only
        assert store.get(SPEC.normalized().cache_key())["result"] == \
            job.result
        assert store.get(old)["result"] == stale
