"""The chaos matrix: seeded fault scenarios against the live fleet.

The invariant every cell pins: under any :data:`CHAOS_SCENARIOS`
plan, a campaign either completes **bit-identical** to the scalar
reference oracle or settles terminally ``failed`` with a structured
reason — never a hang, never silent corruption. Plus the determinism
contract that makes chaos CI-able: a fixed ``(scenario, seed)`` fires
the same faults at the same call indices on every run.
"""

import asyncio
import threading

import pytest

from repro.distributed import (
    BrokerWorkSource,
    HttpWorkSource,
    ShardWorker,
    SqliteBroker,
)
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ResultStore,
    ServiceClient,
    ServiceServer,
    result_from_dict,
)
from repro.testing import (
    CHAOS_SCENARIOS,
    ChaosClient,
    ChaosPlan,
    ChaosStore,
    ChaosWorkSource,
    FaultRule,
)

UNIFORM = InjectorSpec("uniform", {"probability": 2e-3})


def spec_for(seed=91, trials=120):
    return CampaignJobSpec(n=15, m=3, trials=trials, seed=seed,
                           injector=UNIFORM, packing="u8")


def assert_terminal_and_sound(job, spec):
    """The matrix invariant for one settled job."""
    assert job.state in ("done", "failed"), job.state
    if job.state == "done":
        reference = spec.build_runner().run_reference(spec.trials)
        assert result_from_dict(job.result).as_dict() == \
            reference.as_dict()
    else:
        assert isinstance(job.failure, dict)
        assert job.failure.get("kind") in ("unit_failed", "exception")


class ChaosFleet:
    """N workers whose transport *and* store writes are chaos-wrapped."""

    def __init__(self, store_root, broker_path, plan, n=2,
                 lease_ttl_s=0.5):
        self.stop = threading.Event()
        self.workers = [
            ShardWorker(
                ChaosWorkSource(
                    BrokerWorkSource(SqliteBroker(broker_path),
                                     ChaosStore(store_root, plan)),
                    plan),
                worker_id=f"chaos-{i}", lease_ttl_s=lease_ttl_s,
                poll_interval_s=0.02)
            for i in range(n)]
        self.threads = [
            threading.Thread(target=w.run, kwargs={"stop": self.stop},
                             daemon=True)
            for w in self.workers]

    def __enter__(self):
        for t in self.threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        for t in self.threads:
            t.join(timeout=10)


def run_matrix_cell(tmp_path, spec, plan, n_workers=2):
    async def main():
        async with CampaignService(
                tmp_path, executor="thread", shard_trials=48,
                execution="distributed", dispatch_poll_s=0.02,
                broker_options={"breaker_cooldown_s": 0.1}) as service:
            with ChaosFleet(tmp_path, service.broker_path, plan,
                            n=n_workers):
                job = await service.submit(spec)
                await service.wait(job.id, timeout=300)
                return job

    return asyncio.run(main())


class TestPlanDeterminism:
    """The seed contract, in isolation from any fleet."""

    def test_same_seed_same_schedule(self):
        for name in CHAOS_SCENARIOS:
            a = ChaosPlan.from_scenario(name, seed=3)
            b = ChaosPlan.from_scenario(name, seed=3)
            for site in CHAOS_SCENARIOS[name]:
                for _ in range(50):
                    assert a.should_fire(site) == b.should_fire(site)
            assert a.fired() == b.fired()

    def test_different_seeds_diverge(self):
        rules = {"s": FaultRule(probability=0.5)}
        schedules = set()
        for seed in range(4):
            plan = ChaosPlan(seed=seed, rules=rules)
            schedules.add(tuple(plan.should_fire("s")
                                for _ in range(64)))
        assert len(schedules) > 1

    def test_interleaving_independence(self):
        """The k-th call at a site fires identically no matter how
        calls at *other* sites interleave — the property that makes
        multi-threaded chaos runs replayable."""
        rules = {"a": FaultRule(probability=0.5),
                 "b": FaultRule(probability=0.5)}
        serial = ChaosPlan(seed=7, rules=rules)
        for _ in range(40):
            serial.should_fire("a")
        for _ in range(40):
            serial.should_fire("b")
        interleaved = ChaosPlan(seed=7, rules=rules)
        for _ in range(40):
            interleaved.should_fire("a")
            interleaved.should_fire("b")
        assert serial.fired() == interleaved.fired()

    def test_at_calls_and_max_fires(self):
        plan = ChaosPlan(seed=1, rules={
            "s": FaultRule(at_calls=(2, 4, 6), max_fires=2)})
        fired = [plan.should_fire("s") for _ in range(8)]
        assert fired == [False, True, False, True,
                         False, False, False, False]
        assert plan.fired()["s"] == [2, 4]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            ChaosPlan.from_scenario("earthquake")

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(probability=1.5)
        with pytest.raises(ValueError, match="1-based"):
            FaultRule(at_calls=(0,))
        with pytest.raises(ValueError, match="max_fires"):
            FaultRule(max_fires=-1)


class TestScenarioSites:
    def test_every_scenario_site_is_fired_by_a_proxy(self):
        """A rule on a site no proxy calls would inject nothing and the
        cell would pass vacuously; every preset names live sites only."""
        import inspect
        import re

        from repro.testing import chaos

        fired = set(re.findall(r'should_fire\(\s*"([^"]+)"\)',
                               inspect.getsource(chaos)))
        assert "source.claim" in fired and "store.put_job.after" in fired
        for name, rules in CHAOS_SCENARIOS.items():
            assert set(rules) <= fired, (name, set(rules) - fired)


class TestMatrixSharedStore:
    """Every preset scenario, fixed seeds, shared-store topology."""

    @pytest.mark.parametrize("scenario", sorted(CHAOS_SCENARIOS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scenario_settles_soundly(self, tmp_path, scenario, seed):
        spec = spec_for(seed=91 + seed)
        plan = ChaosPlan.from_scenario(scenario, seed=seed)
        job = run_matrix_cell(tmp_path, spec, plan)
        assert_terminal_and_sound(job, spec)


class TestMatrixHttp:
    def test_http_topology_with_flaky_transport(self, tmp_path):
        """HTTP column: worker transport chaos-wrapped over the real
        /units/* endpoints, client polling through a dropping/delaying
        transport — same invariant."""
        spec = spec_for(seed=101, trials=96)
        plan = ChaosPlan(seed=4, rules={
            **CHAOS_SCENARIOS["flaky_transport"],
            "source.complete.after": FaultRule(probability=0.3,
                                               max_fires=2),
        })

        async def main():
            service = CampaignService(
                tmp_path, executor="thread", shard_trials=48,
                execution="distributed", dispatch_poll_s=0.02)
            async with ServiceServer(service, port=0) as server:
                worker = ShardWorker(
                    ChaosWorkSource(
                        HttpWorkSource(ServiceClient(server.url)), plan),
                    worker_id="http-chaos", lease_ttl_s=1.0,
                    poll_interval_s=0.02)
                stop = threading.Event()
                thread = threading.Thread(
                    target=worker.run, kwargs={"stop": stop}, daemon=True)
                thread.start()
                chaos_client = ChaosClient(server.url, plan=plan)
                try:
                    job = await service.submit(spec)
                    record = await asyncio.to_thread(
                        chaos_client.wait, job.id, 300.0, 0.02)
                finally:
                    stop.set()
                    await asyncio.to_thread(thread.join, 10)
                return record

        record = asyncio.run(main())
        assert record["state"] == "done"
        reference = spec.build_runner().run_reference(spec.trials)
        assert result_from_dict(record["result"]).as_dict() == \
            reference.as_dict()


class TestChaosTraceParity:
    def test_scheduled_fires_match_observed_trace_events(self, tmp_path):
        """The observability closure over the chaos harness: every
        fault the plan fires is also observed as a ``chaos.fire``
        trace event (site + 1-based call index), so a chaos run's
        timeline is a complete fault log — scheduled == observed."""
        from repro.obs.trace import Tracer, chaos_sink

        store = ResultStore(tmp_path)
        tracer = Tracer(store.append_events, proc="chaos")
        plan = ChaosPlan(
            seed=11,
            rules={
                "store.put_shard.before": FaultRule(at_calls=(1,)),
                "source.claim.drop": FaultRule(at_calls=(2,),
                                               max_fires=1),
            },
            sink=chaos_sink(tracer, "chaos-parity"))
        spec = spec_for(seed=107)
        job = run_matrix_cell(tmp_path, spec, plan)
        assert_terminal_and_sound(job, spec)

        fired = plan.fired()
        assert fired  # the plan actually injected something
        observed = {}
        for event in store.read_events("chaos-parity"):
            assert event["name"] == "chaos.fire"
            assert event["status"] == "error"
            observed.setdefault(event["attrs"]["site"], []).append(
                event["attrs"]["call"])
        assert {site: sorted(calls)
                for site, calls in observed.items()} == \
            {site: sorted(calls) for site, calls in fired.items()}


class TestReplayDeterminism:
    def test_single_threaded_replay_is_bitwise_identical(self, tmp_path):
        """The CI chaos lane's core assertion: the same seeded
        scenario, driven single-threaded (one worker, run_once loop),
        fires the same faults at the same call indices and leaves
        byte-identical store contents across two independent runs.

        Runs with observability disabled: phase profiles stamped onto
        checkpoint records are wall-clock measurements, legitimately
        different across replays, so byte identity is a property of
        the stripped execution path (tallies stay bit-identical either
        way — the spans assertion above pins that with or without
        profiling)."""
        from repro.distributed.wire import task_wire_dict
        from repro.obs import metrics as obs_metrics
        from repro.utils.canonical import canonical_json

        spec = spec_for(seed=103, trials=96)
        runner = spec.normalized().build_runner()
        key = spec.normalized().cache_key()

        def one_run(root):
            plan = ChaosPlan.from_scenario("torn_checkpoints", seed=6)
            broker = SqliteBroker(root / "broker.sqlite3",
                                  max_attempts=50)
            store = ChaosStore(root, plan)
            for lo, hi in ((0, 48), (48, 96)):
                payload = canonical_json({
                    "job_key": key, "lo": lo, "hi": hi,
                    "shard_task": task_wire_dict(
                        runner.shard_task(lo, hi))})
                broker.publish(f"{key}:{lo}-{hi}", payload,
                               group_key=key)
            worker = ShardWorker(BrokerWorkSource(broker, store),
                                 worker_id="replay", lease_ttl_s=30,
                                 poll_interval_s=0.01)
            for _ in range(200):
                if broker.counts()["done"] == 2:
                    break
                worker.run_once()
            assert broker.counts()["done"] == 2
            spans = ResultStore(root).shard_spans(key)
            files = {
                p.name: p.read_bytes()
                for p in sorted((root / "shards" / key).iterdir())}
            return plan.fired(), spans, files

        previous = obs_metrics.set_enabled(False)
        try:
            fired_a, spans_a, files_a = one_run(tmp_path / "a")
            fired_b, spans_b, files_b = one_run(tmp_path / "b")
        finally:
            obs_metrics.set_enabled(previous)
        assert fired_a == fired_b
        assert fired_a  # the scenario actually injected something
        assert {s: r.as_dict() for s, r in spans_a.items()} == \
            {s: r.as_dict() for s, r in spans_b.items()}
        assert files_a == files_b
