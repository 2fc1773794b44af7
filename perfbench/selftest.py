"""Self-tests of the benchmark: its arithmetic, its wrappers, and a short
smoke run of every workload.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import pytest

import common
import run
import stats


# ---------------------------------------------------------------------- #
# Tail percentile
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("count, pct", [
    (5, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(count, pct):
    assert stats.tail_percentile(count) == pct
    if count >= 2 * stats.TAIL_BEYOND:
        ordered = [float(i) for i in range(count)]
        value, _ = stats.tail(ordered)
        assert sum(v > value for v in ordered) >= stats.TAIL_BEYOND


def test_tail_of_uniform_samples():
    values = [float(i) for i in range(1, 201)]  # 200 samples -> p90
    value, pct = stats.tail(values)
    assert pct == 90.0
    assert value == pytest.approx(180.1)
    assert sum(v > value for v in values) == 20


# ---------------------------------------------------------------------- #
# Failure accounting
# ---------------------------------------------------------------------- #

def test_failed_share_counts_requeues_and_reclaims():
    # 10 jobs of 16 units: 2 requeues and 1 reclaim, nothing failed.
    assert stats.failed_share(0, 0, 2, 1, 10, 160) == pytest.approx(3 / 170)
    assert stats.failed_share(1, 2, 0, 0, 4, 0) == pytest.approx(3 / 4)
    assert stats.failed_share(0, 0, 0, 0, 5, 0) == 0.0
    with pytest.raises(ValueError):
        stats.failed_share(0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------- #
# Prometheus counter deltas
# ---------------------------------------------------------------------- #

BEFORE = """\
# HELP repro_store_ops_total Store operations by kind and namespace.
# TYPE repro_store_ops_total counter
repro_store_ops_total{op="get",namespace="results"} 4
repro_store_ops_total{op="put",namespace="jobs"} 10
repro_broker_claims_total{outcome="empty"} 7
repro_dispatch_polls_total 3
repro_job_seconds_bucket{le="+Inf"} 2
"""

AFTER = """\
# TYPE repro_store_ops_total counter
repro_store_ops_total{op="get",namespace="results"} 9
repro_store_ops_total{op="put",namespace="jobs"} 16
repro_store_ops_total{op="put",namespace="results"} 2
repro_broker_claims_total{outcome="empty"} 12
repro_broker_claims_total{outcome="reclaimed"} 1
repro_broker_claims_total{outcome="granted"} 16
repro_dispatch_polls_total 3.5e1
repro_job_seconds_bucket{le="+Inf"} 5
label_escapes_total{path="a\\"b"} 1
"""


def test_counter_deltas_parse_labels_and_new_series():
    deltas = stats.counter_deltas(BEFORE, AFTER)
    assert stats.counter_total(deltas, "repro_store_ops_total") == 13
    assert stats.counter_total(deltas, "repro_store_ops_total",
                               op="put") == 8
    assert stats.counter_by_label(deltas, "repro_store_ops_total",
                                  "op") == {"get": 5, "put": 8}
    assert stats.counter_by_label(deltas, "repro_broker_claims_total",
                                  "outcome") == {"empty": 5, "reclaimed": 1,
                                                 "granted": 16}
    assert stats.counter_total(deltas, "repro_dispatch_polls_total") == 32
    assert stats.counter_total(deltas, "repro_missing_total") == 0
    assert ("label_escapes_total", (("path", 'a"b'),)) in deltas


# ---------------------------------------------------------------------- #
# Trace-to-layer derivations
# ---------------------------------------------------------------------- #

def test_covered_ns_merges_overlaps():
    assert stats.covered_ns([]) == 0
    assert stats.covered_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert stats.covered_ns([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_direct_children():
    spans = [
        ("runner", 0, 100, -1),
        ("engine", 10, 90, 0),
        ("rng", 10, 20, 1),
        ("inject", 30, 70, 1),
        ("apply", 60, 70, 3),
        ("rng", 75, 80, 1),
    ]
    times = stats.self_times(spans)
    assert times["runner"] == (100, 20)
    assert times["engine"] == (80, 80 - 10 - 40 - 5)
    assert times["rng"] == (15, 15)
    assert times["inject"] == (40, 30)
    assert times["apply"] == (10, 10)


def _event(name, wall, dur_ns=0, **attrs):
    return {"name": name, "wall": wall, "dur_ns": dur_ns, "attrs": attrs}


FLEET_TRACE = [
    _event("job.submit", 100.000),
    _event("job.execute", 100.004, dur_ns=2_000_000_000),
    _event("unit.publish", 100.010, unit="u1"),
    _event("unit.publish", 100.030, unit="u2"),
    _event("unit.claim", 100.050, unit="u1"),
    _event("unit.claim", 100.230, unit="u2"),
    _event("unit.claim", 100.900, unit="u2"),  # reattempt: first counts
    _event("unit.execute", 100.060, dur_ns=150_000_000, unit="u1"),
    _event("unit.execute", 100.240, dur_ns=160_000_000, unit="u2"),
    _event("unit.complete", 100.215, unit="u1", checkpoint_write_ns=4e6),
    _event("unit.complete", 101.400, unit="u2", checkpoint_write_ns=6e6),
    _event("job.settle", 101.520),
]


def test_trace_derivations():
    assert stats.queue_wait_ms(FLEET_TRACE) == pytest.approx(4.0)
    assert stats.execute_ms(FLEET_TRACE) == pytest.approx(2000.0)
    assert stats.publish_spread_ms(FLEET_TRACE) == pytest.approx(20.0)
    assert sorted(stats.claim_waits_ms(FLEET_TRACE)) == pytest.approx(
        [40.0, 200.0])
    assert stats.unit_execute_ms(FLEET_TRACE) == [150.0, 160.0]
    assert stats.checkpoint_writes_ms(FLEET_TRACE) == [4.0, 6.0]
    assert stats.notice_lag_ms(FLEET_TRACE) == pytest.approx(120.0)


def test_trace_derivations_tolerate_missing_events():
    cache_hit = [_event("job.submit", 5.0), _event("job.cache_hit", 5.001)]
    assert stats.queue_wait_ms(cache_hit) is None
    assert stats.execute_ms(cache_hit) is None
    assert stats.publish_spread_ms(cache_hit) is None
    assert stats.claim_waits_ms(cache_hit) == []
    assert stats.notice_lag_ms(cache_hit) is None


def test_binomial_z():
    assert stats.binomial_z(50, 10, 100, 0.05) == 0.0
    z = stats.binomial_z(60, 10, 100, 0.05)
    assert z == pytest.approx(10 / (1000 * 0.05 * 0.95) ** 0.5)


def test_calibrated_rate_cancels_a_uniform_slowdown():
    nominal = common.hostspeed.NOMINAL_SLICE_S
    latencies = [0.10, 0.12, 0.11]
    calm = common.closed_loop_metrics(latencies, 1536, 3, 0.33, 512,
                                      [nominal] * 3)
    slow = common.closed_loop_metrics([2 * x for x in latencies], 1536, 3,
                                      0.66, 512, [2 * nominal] * 3)
    assert calm["trials_per_s"][0] == pytest.approx(512 / 0.11)
    assert slow["trials_per_s"][0] == pytest.approx(512 / 0.11)
    assert slow["window_trials_per_s"][0] == pytest.approx(1536 / 0.66)
    uncalibrated = common.closed_loop_metrics(latencies, 1536, 3, 0.5, 512)
    assert uncalibrated["trials_per_s"][0] == pytest.approx(1536 / 0.5)


def test_pooled_rate_follows_the_mean_host_speed():
    nominal = common.hostspeed.NOMINAL_ROUND_S
    assert common.pooled_rate(8192, [1.0, 1.0], [nominal] * 3,
                              nominal) == pytest.approx(4096)
    # Half the references slow by 2x: jobs ran 1.5x slow on average.
    assert common.pooled_rate(8192, [1.5, 1.5],
                              [nominal, 2 * nominal] * 2,
                              nominal) == pytest.approx(4096)


def test_each_setup_is_converted_with_its_own_launch():
    nominal = common.hostspeed.NOMINAL_LAUNCH_S
    # The host slows down after the first set-up: 0.4, 0.5 and 0.45 s
    # nominal.
    setup = common.setup_metrics([0.4, 1.0, 0.9],
                                 [nominal, 2 * nominal, 2 * nominal])
    assert setup["setup_s"][0] == pytest.approx(0.45)
    assert setup["setup_raw_s"][0] == pytest.approx(0.9)


def test_entropy_is_a_pure_function_of_seed_and_labels():
    assert common.entropy(3, "w", 0) == common.entropy(3, "w", 0)
    assert common.entropy(3, "w", 0) != common.entropy(4, "w", 0)
    assert common.entropy(3, "w", 0) != common.entropy(3, "w", 1)
    assert 0 <= common.entropy(3, "w", 0) < 2 ** 63


# ---------------------------------------------------------------------- #
# Tracing wrappers
# ---------------------------------------------------------------------- #

def test_span_recorder_wraps_restores_and_marks_absent():
    common.use_program()
    import engine

    module = types.SimpleNamespace(helper=lambda x: x + 1)

    class Layer:
        def outer(self, x):
            return module.helper(x) * 2

    class Derived(Layer):
        pass

    original = Layer.outer
    with engine.SpanRecorder() as rec:
        rec.wrap(Derived, "outer", "outer")
        rec.wrap(module, "helper", "helper")
        rec.wrap(module, "deleted_layer", "gone")
        assert Derived().outer(1) == 4
    assert rec.absent == ["gone"]
    assert [s[0] for s in rec.spans] == ["outer", "helper"]
    assert rec.spans[1][3] == 0 and rec.spans[0][3] == -1
    assert "outer" not in vars(Derived) and Layer.outer is original
    assert not hasattr(module.helper, "__wrapped__")
    times = stats.self_times(rec.spans)
    assert times["outer"][1] <= times["outer"][0]


def test_layer_metrics_report_uncalled_layers_as_absent():
    common.use_program()
    import engine

    rec = engine.SpanRecorder()
    rec.spans = [("runner.run", 0, 1000, -1), ("engine.run", 0, 900, 0)]
    layers = engine.layer_metrics(rec, trials=10, faults=50, overhead=0.01)
    assert layers["bitpack.pack_us_per_trial"][0] is None
    assert layers["engine.self_us_per_trial"][0] == pytest.approx(0.09)
    assert layers["runner.unattributed_share"][0] == pytest.approx(0.1)
    assert layers["injector.faults_per_trial"][0] == 5.0


# ---------------------------------------------------------------------- #
# The declared metrics and the whole benchmark
# ---------------------------------------------------------------------- #

def _declared():
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json beside this checkout")
    return json.loads(path.read_text())


def test_benchmark_json_matches_run_py():
    spec = _declared()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=str(common.ROOT))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        list(declared)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program():
    bare = common.RUNS / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(common.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "campaign_sparse", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(bare))
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
