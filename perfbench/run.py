"""Campaign benchmark: trials/s and job latency from the RNG draw to the fleet.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign_sparse --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

Every workload runs geometry n=129, m=3, the ``diagonal`` code, a
``uniform`` injector with check bits exposed, per-trial seeding and
``u64`` packing; every other engine and service setting stays at its
default. Load is one closed-loop client. The workload seed derives all
job entropies, so the same seed gives the same inputs and a new seed
never meets an earlier run's cache.

========================  ===========================================
``campaign_sparse``       in-process ``CampaignRunner.run`` at
                          p=2e-4: host RNG work dominates
``campaign_dense``        the same at p=1e-2: injection apply and the
                          correction sweep weigh 50x more
``service_mixed``         ``repro serve`` (local pool), 64-trial jobs,
                          one submission in four a cache hit
``fleet_http``            ``repro serve --execution distributed`` plus
                          two ``repro worker --url``; 8192-trial jobs
                          of 16 units
========================  ===========================================

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 1 when an output check fails, 2 when the checkout holds
no program. Scratch files go to ``.perfbench/`` in the checkout.

Self-tests of the benchmark's own arithmetic, plus a short smoke run
of each workload::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys

import common

#: ``(name, unit)`` of the gated end-to-end metrics, on every workload
#: (``common.closed_loop_metrics``, ``common.setup_metrics``).
#: ``trials_per_s`` is host-calibrated: on ``campaign_*`` trials per job
#: over the median calibrated job latency, on the serving workloads
#: fresh trials over the fresh jobs' summed latency
#: (``common.pooled_rate``); the raw window rate is the
#: ``window_trials_per_s`` beside it. ``setup_s`` is host-calibrated on
#: every workload.
END_TO_END = (
    ("trials_per_s", "trials/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of every per-layer metric of a traced run. The
#: job-level numbers lead: they are end-to-end in kind, but too noisy on
#: a shared host to gate. A workload that does not exercise a layer
#: reports 0 for it and names it on stdout.
PER_LAYER = (
    ("window_trials_per_s", "trials/s"),
    ("jobs_per_s", "jobs/s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_tail_s", "s"),
    ("job_latency_tail_pct", "%"),
    ("job_latency_samples", "count"),
    ("cache_hit_latency_p50_s", "s"),
    ("failed_share", "fraction"),
    ("rng.trial_rngs_us_per_trial", "us"),
    ("injector.draw_us_per_trial", "us"),
    ("injector.apply_us_per_trial", "us"),
    ("injector.faults_per_trial", "count"),
    ("bitpack.pack_us_per_trial", "us"),
    ("code.encode_us_per_trial", "us"),
    ("code.check_us_per_trial", "us"),
    ("engine.self_us_per_trial", "us"),
    ("runner.unattributed_share", "fraction"),
    ("tracing.overhead_share", "fraction"),
    ("client.submit_ms", "ms"),
    ("scheduler.queue_wait_ms", "ms"),
    ("scheduler.execute_ms", "ms"),
    ("engine.phase_ms_per_job", "ms"),
    ("scheduler.overhead_ms_per_job", "ms"),
    ("store.ops_per_job", "count"),
    ("store.bytes_per_job", "bytes"),
    ("dispatch.publish_ms_per_job", "ms"),
    ("broker.claim_wait_ms", "ms"),
    ("worker.execute_ms_per_unit", "ms"),
    ("worker.checkpoint_write_ms", "ms"),
    ("worker.busy_share", "fraction"),
    ("dispatch.notice_lag_ms", "ms"),
    ("dispatch.polls_per_job", "count"),
    ("broker.empty_claims_per_unit", "count"),
    ("dispatch.requeues", "count"),
    ("broker.reclaims", "count"),
)

ENGINE_WORKLOADS = ("campaign_sparse", "campaign_dense")
SERVING_WORKLOADS = ("service_mixed", "fleet_http")
WORKLOADS = ENGINE_WORKLOADS + SERVING_WORKLOADS


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    common.use_program()
    if args.workload in ENGINE_WORKLOADS:
        import engine as workload
    else:
        import serving as workload
    out = workload.run(args.workload, args.seed, args.seconds,
                       bool(args.trace))

    declared = PER_LAYER if args.trace else END_TO_END
    measured = {**out.metrics, **out.layers} if args.trace else out.metrics
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, passed, detail in out.checks:
        print(f"  check   {'ok  ' if passed else 'FAIL'} {name}"
              + (f"  ({detail})" if detail else ""))
    metrics = {}
    for name, unit in declared:
        value = measured.get(name, (None, unit))[0]
        if value is None:
            state = "absent" if name in out.absent else "n/a"
            print(f"  metric  {name:32s} {state} (reported as 0)")
            value = 0.0
        else:
            print(f"  metric  {name:32s} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    # Job-level numbers outside the declared set, for the reader.
    for name, (value, unit) in measured.items():
        if name not in metrics and value is not None:
            print(f"  info    {name:32s} {value:.6g} {unit}")
    for key, value in sorted(out.notes.items()):
        if key not in ("tallies", "store_ops_by_op", "setup_samples_s",
                       "job_samples"):
            print(f"  note    {key} = {value}")

    result = {"correct": out.correct, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    common.RUNS.mkdir(parents=True, exist_ok=True)
    artifact = common.RUNS / (f"result-{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}.json")
    artifact.write_text(json.dumps(
        dict(result, workload=args.workload, seed=args.seed,
             seconds=args.seconds, trace=args.trace,
             measured={k: v for k, (v, _) in measured.items()},
             checks=out.checks, notes=out.notes, absent=out.absent,
             provenance=common.provenance()), indent=2, default=str))
    print(f"  result  {artifact.relative_to(common.ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if out.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, then one summary table."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        try:
            results[workload] = json.loads(lines[-1]) \
                if proc.returncode in (0, 1) and lines else None
        except ValueError:
            results[workload] = None
    print("\nsummary")
    ok = True
    for workload, result in results.items():
        if result is None or not result["correct"]:
            ok = False
            print(f"  {workload:16s} FAILED")
            continue
        for name, metric in result["metrics"].items():
            print(f"  {workload:16s} {name:32s} "
                  f"{metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C, so every started process is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # A shell starts background jobs with SIGINT ignored, and children
    # inherit that; restore it so the SIGINT that stops `repro serve`
    # and `repro worker` gracefully reaches them.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    args = parse_args(argv)
    if not common.program_available():
        print(f"perfbench: no program sources under {common.SRC}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
