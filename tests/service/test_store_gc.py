"""Store GC: bounded growth for long-lived deployments.

Pins the ``repro store gc`` policies — max-age eviction, max-bytes
eviction (oldest first), orphan-shard sweep — and their safety
properties: dry runs touch nothing, evicting a key only costs a cache
miss (the record is a pure function of its spec), and in-flight
checkpoints younger than the horizon are never collected.
"""

import json
import os
import time

import pytest

from repro.faults.campaign import CampaignResult
from repro.service import ResultStore


def put_result(store, key, when=None, payload=None):
    store.put(key, payload or {"key": key, "result": {"trials": 1}})
    if when is not None:
        os.utime(store.results_dir / f"{key}.json", (when, when))


def put_shard(store, key, lo=0, hi=64, when=None):
    store.put_shard(key, lo, hi, CampaignResult(trials=hi - lo))
    if when is not None:
        path = store.shards_dir / key / f"{lo}-{hi}.json"
        os.utime(path, (when, when))
        os.utime(store.shards_dir / key, (when, when))


class TestAgePolicy:
    def test_old_results_evicted_young_kept(self, tmp_path):
        store = ResultStore(tmp_path)
        now = time.time()
        put_result(store, "old", when=now - 1000)
        put_result(store, "young", when=now - 10)
        report = store.gc(max_age_s=100, now=now)
        assert report["evicted_results"] == ["old"]
        assert not store.has("old") and store.has("young")

    def test_age_eviction_takes_dependent_job_records(self, tmp_path):
        store = ResultStore(tmp_path)
        now = time.time()
        put_result(store, "old", when=now - 1000)
        store.put_job("j000001-old", {"id": "j000001-old", "key": "old",
                                      "state": "done",
                                      "finished_at": now - 1000})
        report = store.gc(max_age_s=100, now=now)
        assert "j000001-old" in report["evicted_jobs"]
        assert store.get_job("j000001-old") is None

    def test_stale_inflight_shards_swept_young_kept(self, tmp_path):
        store = ResultStore(tmp_path)
        now = time.time()
        put_shard(store, "abandoned", when=now - 1000)
        put_shard(store, "active", when=now - 5)
        report = store.gc(max_age_s=100, now=now)
        assert report["stale_shard_keys"] == ["abandoned"]
        assert store.shard_spans("abandoned") == {}
        assert len(store.shard_spans("active")) == 1

    def test_terminal_job_records_age_out(self, tmp_path):
        store = ResultStore(tmp_path)
        now = time.time()
        store.put_job("j000001-done", {"id": "j000001-done", "key": "x",
                                       "state": "done",
                                       "finished_at": now - 1000})
        store.put_job("j000002-run", {"id": "j000002-run", "key": "y",
                                      "state": "running",
                                      "submitted_at": now - 10,
                                      "finished_at": None})
        report = store.gc(max_age_s=100, now=now)
        assert report["evicted_jobs"] == ["j000001-done"]
        # a *young* in-flight record survives (restart recovery owns it)
        assert store.get_job("j000002-run") is not None

    def test_abandoned_inflight_job_records_age_out(self, tmp_path):
        """A record stuck 'running' since a long-dead deployment must
        be collectable, or every restart re-executes its campaign."""
        store = ResultStore(tmp_path)
        now = time.time()
        store.put_job("j000001-stale", {"id": "j000001-stale", "key": "x",
                                        "state": "running",
                                        "submitted_at": now - 5000,
                                        "finished_at": None})
        report = store.gc(max_age_s=100, now=now)
        assert report["evicted_jobs"] == ["j000001-stale"]
        assert store.get_job("j000001-stale") is None


class TestBytePolicy:
    def test_oldest_evicted_until_under_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        now = time.time()
        for i, key in enumerate(["a", "b", "c"]):
            put_result(store, key, when=now - 100 + i,
                       payload={"key": key, "blob": "x" * 2000})
        total = store.size_bytes()
        one = total // 3
        report = store.gc(max_bytes=total - one, now=now)
        assert report["evicted_results"] == ["a"]  # oldest only
        assert store.keys() == ["b", "c"]
        assert store.size_bytes() <= total - one

    def test_zero_budget_clears_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        for key in ("a", "b"):
            put_result(store, key)
        store.gc(max_bytes=0)
        assert store.keys() == []

    def test_files_gc_never_removes_do_not_count(self, tmp_path):
        """The broker, its log, quarantine and a ``perf/`` ledger an
        older build left sit under the root too; gc never removes them,
        so they must not count against the budget, or it would evict
        every result and still be over it."""
        store = ResultStore(tmp_path)
        now = time.time()
        for i in range(5):
            put_result(store, f"k{i}", when=now - 100 + i,
                       payload={"blob": "x" * 2000})
        (tmp_path / "broker.sqlite3").write_bytes(b"\0" * 200_000)
        (tmp_path / "broker.sqlite3-wal").write_bytes(b"\0" * 4096)
        (tmp_path / "broker.sqlite3-shm").write_bytes(b"\0" * 4096)
        (tmp_path / "perf").mkdir()
        (tmp_path / "perf" / "ledger.jsonl").write_text("{}\n" * 100)
        (tmp_path / "quarantine" / "results").mkdir(parents=True)
        (tmp_path / "quarantine" / "results" / "bad.json").write_text(
            "x" * 1000)
        evictable = store.size_bytes()
        assert 10_000 < evictable < 12_000  # the five results only
        report = store.gc(max_bytes=150_000, now=now)
        assert report["evicted_results"] == []
        assert store.keys() == [f"k{i}" for i in range(5)]
        assert report["bytes_before"] == report["bytes_after"] == evictable
        assert report["other_bytes"] == 200_000 + 2 * 4096 + 300 + 1000
        # a budget below the results still evicts oldest first
        report = store.gc(max_bytes=evictable - 1, now=now)
        assert report["evicted_results"] == ["k0"]

    def test_dry_run_byte_budget_accounts_for_earlier_sweeps(
            self, tmp_path):
        """The dry-run preview must predict the real run: bytes the
        age sweep would free count against the budget before the
        byte-budget loop simulates further evictions."""
        store = ResultStore(tmp_path)
        now = time.time()
        put_result(store, "ancient", when=now - 1000,
                   payload={"blob": "x" * 8000})
        put_result(store, "young", when=now - 1,
                   payload={"blob": "y" * 100})
        budget = 4000  # freeing 'ancient' alone satisfies it
        preview = store.gc(max_age_s=100, max_bytes=budget,
                           dry_run=True, now=now)
        real = store.gc(max_age_s=100, max_bytes=budget, now=now)
        assert preview["evicted_results"] == real["evicted_results"] \
            == ["ancient"]
        assert store.keys() == ["young"]


class TestOrphanSweep:
    def test_orphan_shards_of_completed_keys_dropped(self, tmp_path):
        """Crash between put() and clear_shards() leaves checkpoints
        that can never be read again — the sweep reclaims them."""
        store = ResultStore(tmp_path)
        put_result(store, "done-key")
        put_shard(store, "done-key")          # the crash leftover
        put_shard(store, "inflight-key")      # a running campaign
        report = store.gc()
        assert report["orphan_shard_keys"] == ["done-key"]
        assert store.shard_spans("done-key") == {}
        assert len(store.shard_spans("inflight-key")) == 1

    def test_sweep_can_be_disabled(self, tmp_path):
        store = ResultStore(tmp_path)
        put_result(store, "k")
        put_shard(store, "k")
        store.gc(sweep_orphans=False)
        assert len(store.shard_spans("k")) == 1


class TestSafety:
    def test_dry_run_touches_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        now = time.time()
        put_result(store, "old", when=now - 1000)
        put_shard(store, "old", when=now - 1000)
        store.put_job("j000001-old", {"id": "j000001-old", "key": "old",
                                      "state": "done",
                                      "finished_at": now - 1000})
        before = store.size_bytes()
        report = store.gc(max_age_s=100, max_bytes=0, dry_run=True,
                          now=now)
        assert report["dry_run"]
        assert report["evicted_results"] == ["old"]
        assert store.has("old")
        assert store.get_job("j000001-old") is not None
        assert store.size_bytes() == before

    def test_no_policy_only_sweeps_orphans(self, tmp_path):
        store = ResultStore(tmp_path)
        put_result(store, "k")
        report = store.gc()
        assert report["evicted_results"] == []
        assert store.has("k")

    def test_negative_policies_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="max_age_s"):
            store.gc(max_age_s=-1)
        with pytest.raises(ValueError, match="max_bytes"):
            store.gc(max_bytes=-1)

    def test_report_is_json_serializable(self, tmp_path):
        store = ResultStore(tmp_path)
        put_result(store, "k")
        json.dumps(store.gc(max_age_s=0.0))

    def test_alien_json_in_jobs_dir_does_not_wedge_gc(self, tmp_path):
        """Valid-JSON-but-not-a-job-record files (editor backups,
        foreign tools) must not crash the one maintenance command."""
        store = ResultStore(tmp_path)
        now = time.time()
        (store.jobs_dir / "notes.json").write_text('{"hello": "world"}')
        put_result(store, "old", when=now - 1000)
        report = store.gc(max_age_s=100, max_bytes=0, now=now)
        assert report["evicted_results"] == ["old"]
        # the alien file is not ours to delete
        assert (store.jobs_dir / "notes.json").exists()


class TestKeyValidation:
    def test_traversal_keys_rejected_everywhere(self, tmp_path):
        """Keys reach the store from the unauthenticated /units/*
        surface, so every path-building entry point must refuse
        separators and dot-leading components."""
        store = ResultStore(tmp_path)
        for evil in ("../escape", "a/b", "", ".hidden", "..", "a\x00b"):
            with pytest.raises((ValueError, TypeError)):
                store.put(evil, {})
            with pytest.raises((ValueError, TypeError)):
                store.put_shard(evil, 0, 64, CampaignResult(trials=64))
            with pytest.raises((ValueError, TypeError)):
                store.shard_spans(evil)
        assert not (tmp_path.parent / "escape.json").exists()

    def test_normal_hex_keys_still_work(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab12" * 16  # sha256-hex shaped
        store.put(key, {"k": 1})
        assert store.get(key) == {"k": 1}


class TestCli:
    def test_store_gc_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        store = ResultStore(tmp_path)
        now = time.time()
        put_result(store, "old", when=now - 10 * 86400)
        put_result(store, "new", when=now)
        assert main(["store", "gc", "--store", str(tmp_path),
                     "--max-age-days", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evicted_results"] == ["old"]
        assert store.keys() == ["new"]
