"""The longitudinal perf observatory: ledger, trends, the gate.

``repro perf ingest`` backfills the committed ``BENCH_*.json``
artifacts as the seed epoch and ``repro perf report`` renders a trend
table from them; ``repro perf compare`` exits non-zero on a
synthetically injected 10x regression; ``repro perf jobs`` and
``GET /perf`` derive per-phase drift from the store's settled job
records, which are the only record a job leaves.
"""

import asyncio
import json
import os
import time

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


def job_record(seed=1, trials=64, phases=None, finished_at=1.0,
               **fields):
    """A settled job record as the store persists it."""
    spec = spec_for(seed=seed, trials=trials).normalized()
    record = {"id": f"j{seed:06d}-feed", "kind": spec.kind,
              "key": spec.cache_key(), "state": "done", "cached": False,
              "finished_at": finished_at, "spec": spec.to_dict(),
              "phases": {"inject": 6400, "decode_sweep": 3200,
                         "tally": 640} if phases is None else phases}
    record.update(fields)
    return record


class TestJobPhaseDrift:
    def run_job(self, tmp_path, seed, trials=64):
        return run_local(tmp_path, spec_for(seed=seed, trials=trials))[0]

    def test_settled_job_record_gives_phase_samples(self, tmp_path):
        job = self.run_job(tmp_path, seed=21)
        record = ResultStore(tmp_path).get_job(job.id)
        assert record["state"] == "done" and not record["cached"]
        samples = perf.job_phase_samples(record)
        assert "phase.total_s_per_trial" in samples
        assert any(m.startswith("phase.decode_sweep") for m in samples)
        # per-trial normalisation: values are small positive seconds
        for value in samples.values():
            assert 0 < value < 10
        # the job record is the whole history: nothing else is written
        assert not (tmp_path / "perf").exists()

    def test_cached_job_adds_no_sample(self, tmp_path):
        _, second = run_local(tmp_path, spec_for(seed=22), submits=2)
        assert second.cached
        report = perf.jobs_report(ResultStore(tmp_path).iter_jobs())
        assert report["records"] == 1
        assert report["groups"] == 0

    def test_two_runs_of_one_shape_give_one_group(self, tmp_path,
                                                   capsys):
        # seed and size vary between runs of one shape
        self.run_job(tmp_path, seed=25, trials=64)
        self.run_job(tmp_path, seed=26, trials=96)
        report = perf.jobs_report(ResultStore(tmp_path).iter_jobs())
        assert report["records"] == 2
        assert report["groups"] == 1
        assert {(r["bench"], r["group"]) for r in report["rows"]} == \
            {perf.job_shape(job_record())}
        assert all(r["runs"] == 2 for r in report["rows"])
        assert all("kernel_tier" not in r for r in report["rows"])
        # two real runs may legitimately differ past the threshold
        assert main(["perf", "jobs", "--store", str(tmp_path)]) in (0, 1)
        header = capsys.readouterr().out.splitlines()[0].split()
        assert "tier" not in header
        assert header[:4] == ["job", "shape", "metric", "runs"]

    def test_jobs_report_flags_injected_drift(self, tmp_path):
        older = self.run_job(tmp_path, seed=23)
        newer = self.run_job(tmp_path, seed=24)
        store = ResultStore(tmp_path)
        base = store.get_job(older.id)
        slow = store.get_job(newer.id)
        assert slow["finished_at"] > base["finished_at"]
        slow["phases"] = {name: ns * 10
                          for name, ns in base["phases"].items()}
        store.put_job(newer.id, slow)
        report = perf.jobs_report(store.iter_jobs(), threshold=0.5)
        assert report["groups"] == 1
        assert not report["ok"]
        assert report["drift"]
        assert all(r["ratio"] == pytest.approx(0.1, rel=0.01)
                   for r in report["drift"])
        # and the CLI surfaces it with exit 1
        assert main(["perf", "jobs", "--store", str(tmp_path)]) == 1

    def test_only_settled_fresh_profiled_runs_count(self):
        records = [
            job_record(seed=1, finished_at=1.0),
            job_record(seed=2, finished_at=2.0),
            job_record(seed=3, state="failed"),
            job_record(seed=4, cached=True),
            job_record(seed=5, phases={}),
            job_record(seed=6, state="queued"),
            {"id": "j000007-alien", "state": "done", "phases": {"x": 1}},
        ]
        report = perf.jobs_report(records)
        assert report["records"] == 2
        assert report["groups"] == 1 and report["ok"]
        assert {r["metric"] for r in report["rows"]} == {
            "phase.inject_s_per_trial", "phase.decode_sweep_s_per_trial",
            "phase.tally_s_per_trial", "phase.total_s_per_trial"}

    def test_newest_run_is_the_one_compared(self):
        """Order is by ``finished_at``, not by the order records come
        in: a slow run that finished first is history, not drift."""
        slow = {"inject": 64_000, "decode_sweep": 32_000, "tally": 6_400}
        records = [job_record(seed=2, finished_at=5.0),
                   job_record(seed=1, finished_at=1.0, phases=slow)]
        report = perf.jobs_report(records, threshold=0.5)
        assert report["ok"]
        assert all(r["ratio"] == pytest.approx(10.0)
                   for r in report["rows"])
        records[1]["finished_at"] = 9.0
        assert not perf.jobs_report(records, threshold=0.5)["ok"]

    def test_gc_bounds_the_drift_history(self, tmp_path, capsys):
        """Drift history lives in the job records, so evicting them
        (``repro store gc``, or ``max_job_records``) bounds it."""
        self.run_job(tmp_path, seed=27)
        self.run_job(tmp_path, seed=28)
        store = ResultStore(tmp_path)
        assert perf.jobs_report(store.iter_jobs())["groups"] == 1
        store.gc(max_age_s=0, now=time.time() + 1)
        assert perf.jobs_report(store.iter_jobs())["records"] == 0
        assert main(["perf", "jobs", "--store", str(tmp_path)]) == 0
        assert "no comparable job history yet" in capsys.readouterr().out

    def test_empty_history(self):
        report = perf.jobs_report([])
        assert report == {"threshold": 0.5, "groups": 0, "rows": [],
                          "drift": [], "records": 0, "ok": True}
        assert perf.render_jobs(report).startswith(
            "no comparable job history yet (0 settled job run(s)")

    def test_shape_is_kind_and_spec_minus_run_fields(self):
        base = job_record(seed=1, trials=64)
        assert perf.job_shape(job_record(seed=2, trials=512)) == \
            perf.job_shape(base)
        wider = job_record(seed=3, finished_at=3.0)
        wider["spec"] = dict(wider["spec"], n=9)
        assert perf.job_shape(wider) != perf.job_shape(base)
        assert perf.job_shape(dict(base, kind="drift_survival")) == \
            ("job.drift_survival", perf.job_shape(base)[1])
        report = perf.jobs_report([
            base, job_record(seed=2, finished_at=2.0),
            wider, dict(wider, id="j000004-feed", finished_at=4.0)])
        assert report["groups"] == 2
        assert {r["group"] for r in report["rows"]} == {
            perf.job_shape(base)[1], perf.job_shape(wider)[1]}

    def test_render_flags_drifted_rows(self):
        slow = {"inject": 64_000, "decode_sweep": 32_000, "tally": 6_400}
        records = [job_record(seed=1, finished_at=1.0),
                   job_record(seed=2, finished_at=2.0),
                   job_record(seed=3, finished_at=3.0, phases=slow)]
        report = perf.jobs_report(records, threshold=0.5)
        assert len(report["drift"]) == 4
        out = perf.render_jobs(report)
        assert out.count("DRIFT") == 4
        assert "4 phase(s) drifted past threshold" in out

    def test_perf_ledger_of_an_older_build_is_never_read(self, tmp_path,
                                                         capsys):
        """A ``perf/ledger.jsonl`` an older build appended is left in
        place and ignored: only job records make the history."""
        job = self.run_job(tmp_path, seed=31)
        ledger = tmp_path / "perf" / "ledger.jsonl"
        ledger.parent.mkdir()
        old = {"schema": 1, "bench": "job.campaign", "source": "job",
               "group": "0123456789", "kernel_tier": "auto",
               "job_key": job.key, "timestamp": 1.0,
               "samples": [{"metric": "phase.total_s_per_trial",
                            "value": 1e-9}]}
        ledger.write_text(json.dumps(old) + "\n" + json.dumps(
            dict(old, timestamp=2.0, samples=[
                {"metric": "phase.total_s_per_trial",
                 "value": 1.0}])) + "\n")
        assert main(["perf", "jobs", "--store", str(tmp_path)]) == 0
        assert "no comparable job history yet (1 settled job run(s)" \
            in capsys.readouterr().out
        assert ledger.exists()

    def test_perf_report_spans_service_restarts(self, tmp_path):
        self.run_job(tmp_path, seed=29)

        async def second_service():
            async with CampaignService(tmp_path, executor="thread",
                                       shard_trials=32) as service:
                job = await service.submit(spec_for(seed=30))
                await service.wait(job.id, timeout=300)
                return service.perf_report()

        report = asyncio.run(second_service())
        assert report["records"] == 2
        assert report["groups"] == 1
        assert all(r["runs"] == 2 for r in report["rows"])

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
