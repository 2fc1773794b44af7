"""The longitudinal perf observatory: ledger, trends, the gate.

Pins the PR's acceptance criteria: ``repro perf ingest`` backfills the
committed ``BENCH_*.json`` artifacts as the seed epoch and
``repro perf report`` renders a trend table from them; ``repro perf
compare`` exits non-zero on a synthetically injected 10x regression;
the service appends a phase record to the store's ``perf/`` namespace
when a job settles, surfaced by ``repro perf jobs`` and ``GET /perf``.
"""

import asyncio
import json
import os

import pytest

from repro.cli import main
from repro.obs import perf
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    InjectorSpec,
    ResultStore,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                           "benchmarks", "results")

UNIFORM = InjectorSpec("uniform", {"probability": 2e-3})


def spec_for(seed=11, trials=64):
    return CampaignJobSpec(n=15, m=3, trials=trials, seed=seed,
                           injector=UNIFORM, packing="u8")


def run_local(tmp_path, spec, submits=1):
    async def go():
        async with CampaignService(tmp_path, executor="thread",
                                   shard_trials=32) as service:
            jobs = []
            for _ in range(submits):
                job = await service.submit(spec)
                await service.wait(job.id, timeout=300)
                jobs.append(job)
            return jobs

    return asyncio.run(go())


def seed_ledger(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    report = perf.ingest_results(RESULTS_DIR, str(ledger))
    assert report["added"] >= 10, report
    return ledger


class TestLedger:
    def test_ingest_is_idempotent(self, tmp_path):
        ledger = seed_ledger(tmp_path)
        first = len(perf.read_ledger(str(ledger)))
        again = perf.ingest_results(RESULTS_DIR, str(ledger))
        assert again["added"] == 0
        assert again["skipped"] >= 10
        assert len(perf.read_ledger(str(ledger))) == first

    def test_records_carry_schema_and_provenance(self, tmp_path):
        ledger = seed_ledger(tmp_path)
        for record in perf.read_ledger(str(ledger)):
            assert record["schema"] == perf.SCHEMA_VERSION
            assert record["git_rev"] == perf.SEED_EPOCH
            assert record["bench"]
            assert record["samples"]
            for sample in record["samples"]:
                assert isinstance(sample["value"], float)

    def test_torn_tail_line_is_skipped(self, tmp_path):
        ledger = seed_ledger(tmp_path)
        before = len(perf.read_ledger(str(ledger)))
        with open(ledger, "a") as fh:
            fh.write('{"bench": "torn", "samples": [{"met')
        assert len(perf.read_ledger(str(ledger))) == before

    def test_param_metric_split(self):
        params, samples = perf.samples_from_payload({
            "n": 129, "m": 3, "packing": "u8",
            "required_speedup": 4.0, "gate_on": True,
            "trials_per_s": 1000.0,
            "tiers": {"native": {"trials_per_s": 5000.0}},
        })
        assert params == {"n": 129, "m": 3, "packing": "u8",
                          "required_speedup": 4.0, "gate_on": True}
        metrics = {s["metric"]: s["value"] for s in samples}
        assert metrics == {"trials_per_s": 1000.0,
                           "tiers.native.trials_per_s": 5000.0}

    def test_metric_directions(self):
        assert perf.metric_direction("u64_trials_per_s") == "higher"
        assert perf.metric_direction("speedup_including_pack") == "higher"
        assert perf.metric_direction("kernel_seconds") == "lower"
        assert perf.metric_direction("phase.pack_s_per_trial") == "lower"
        # near-zero baselines would turn noise into false regressions
        assert perf.metric_direction("overhead_fraction") is None
        assert perf.metric_direction("required_speedup") is None


class TestTrendAndCompare:
    def test_ingest_then_report_cli(self, tmp_path, capsys):
        ledger = seed_ledger(tmp_path)
        assert main(["perf", "report", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        # a trend table over the committed seed epoch
        assert "obs_overhead" in out
        assert "instrumented_trials_per_s" in out
        assert perf.SEED_EPOCH in out

    def test_compare_exits_nonzero_on_10x_regression(self, tmp_path,
                                                     capsys):
        ledger = seed_ledger(tmp_path)
        with open(os.path.join(
                RESULTS_DIR, "BENCH_obs_overhead.json")) as fh:
            payload = json.load(fh)
        for key in ("instrumented_trials_per_s",
                    "stripped_trials_per_s"):
            payload[key] = payload[key] / 10.0
        perf.append_record(str(ledger), perf.bench_record(
            "obs_overhead", payload, git_rev="deadbee",
            timestamp=4102444800.0))
        code = main(["perf", "compare", "--ledger", str(ledger),
                     "--against", perf.SEED_EPOCH,
                     "--threshold", "0.5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "FAIL" in out

    def test_compare_passes_when_identical(self, tmp_path, capsys):
        ledger = seed_ledger(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["perf", "baseline", "--ledger", str(ledger),
                     "--out", str(baseline)]) == 0
        assert main(["perf", "compare", "--ledger", str(ledger),
                     "--against", str(baseline)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare_unknown_rev_is_usage_error(self, tmp_path):
        ledger = seed_ledger(tmp_path)
        assert main(["perf", "compare", "--ledger", str(ledger),
                     "--against", "no-such-rev"]) == 2

    def test_bootstrap_ratio_directions(self):
        base, cur = [100.0, 101.0, 99.0], [50.0, 51.0, 49.0]
        ratio, lo, hi = perf.bootstrap_ratio(base, cur, "higher")
        assert ratio == pytest.approx(0.5, rel=0.05)
        assert lo <= ratio <= hi
        # for lower-better metrics the same halving is an improvement
        ratio, _, _ = perf.bootstrap_ratio(base, cur, "lower")
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_noise_widens_ci_and_disarms_gate(self):
        # overlapping noisy samples: the point ratio dips but the CI
        # spans 1.0, so the gate must not fire
        base = [100.0, 140.0, 80.0, 120.0, 90.0, 130.0]
        cur = [95.0, 135.0, 75.0, 115.0, 85.0, 125.0]
        report = perf.compare(
            {("b", "x_trials_per_s", "-"): base},
            {("b", "x_trials_per_s", "-"): cur}, threshold=0.2)
        (row,) = report["rows"]
        assert not row["regressed"]


class TestJobPhaseLedger:
    def run_job(self, tmp_path, seed):
        return run_local(tmp_path, spec_for(seed=seed))[0]

    def test_settled_job_appends_perf_record(self, tmp_path):
        job = self.run_job(tmp_path, seed=21)
        records = ResultStore(tmp_path).read_perf()
        assert len(records) == 1
        (record,) = records
        assert record["source"] == "job"
        assert record["bench"] == "job.campaign"
        assert record["job_key"] == job.key
        metrics = {s["metric"] for s in record["samples"]}
        assert "phase.total_s_per_trial" in metrics
        assert any(m.startswith("phase.decode_sweep") for m in metrics)
        # per-trial normalisation: values are small positive seconds
        for sample in record["samples"]:
            assert 0 < sample["value"] < 10

    def test_cached_job_appends_nothing(self, tmp_path):
        run_local(tmp_path, spec_for(seed=22), submits=2)
        assert len(ResultStore(tmp_path).read_perf()) == 1

    def test_jobs_report_flags_injected_drift(self, tmp_path):
        job = self.run_job(tmp_path, seed=23)
        store = ResultStore(tmp_path)
        (record,) = store.read_perf()
        slow = json.loads(json.dumps(record))
        slow["timestamp"] = record["timestamp"] + 1000
        slow["samples"] = [dict(s, value=s["value"] * 10)
                           for s in slow["samples"]]
        store.append_perf(slow)
        report = perf.jobs_report(store.read_perf(), threshold=0.5)
        assert report["groups"] == 1
        assert not report["ok"]
        assert report["drift"]
        assert all(r["ratio"] == pytest.approx(0.1, rel=0.01)
                   for r in report["drift"])
        # and the CLI surfaces it with exit 1
        assert main(["perf", "jobs", "--store", str(tmp_path)]) == 1
        assert job.state == "done"

    def test_perf_over_http(self, tmp_path, capsys):
        from repro.service import ServiceServer

        async def run():
            async with CampaignService(
                    tmp_path, executor="thread",
                    shard_trials=32) as service:
                job = await service.submit(spec_for(seed=24))
                await service.wait(job.id, timeout=300)
                async with ServiceServer(service, port=0) as server:
                    report = await asyncio.to_thread(
                        self._fetch_perf, server.url)
                    code = await asyncio.to_thread(
                        main, ["perf", "jobs", "--url", server.url])
            return report, code

        report, code = asyncio.run(run())
        assert code == 0  # one run per shape: no history, no drift
        assert report["records"] == 1
        assert report["ok"] is True
        out = capsys.readouterr().out
        assert "no comparable job history yet" in out

    @staticmethod
    def _fetch_perf(url):
        from repro.service.client import ServiceClient

        return ServiceClient(url).perf_report()
