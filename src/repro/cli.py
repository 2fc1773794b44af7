"""Command-line interface: paper artifacts and the campaign service.

::

    python -m repro table1 [--benchmarks dec ctrl ...]
    python -m repro table2 [--n 1020 --m 15 --k 3]
    python -m repro fig6   [--ser 1e-3]
    python -m repro ablations
    python -m repro select [--n N --m M ... --ber B ... --row-fraction F ...]
                           [--trials T --seed S --codes C ... --packing P]
    python -m repro info

    python -m repro serve  [--host H --port P --store DIR --workers N]
                           [--execution local|distributed]
    python -m repro submit SPEC.json [--url U --wait --timeout S]
    python -m repro status JOB_ID [--url U]
    python -m repro trace  JOB_ID (--store DIR | --url U) [--json]
    python -m repro metrics [--url U --raw]
    python -m repro perf ingest  [--results DIR --ledger PATH]
    python -m repro perf report  [--ledger PATH --bench B ... --json]
    python -m repro perf compare [--against REV|baseline|FILE]
                           [--rev R --threshold F --json]
    python -m repro perf baseline [--ledger PATH --rev R --out FILE]
    python -m repro perf jobs (--store DIR | --url U) [--threshold F]
    python -m repro worker (--store DIR [--broker PATH] | --url U)
                           [--id W --lease-ttl S --max-units N]
    python -m repro store gc --store DIR [--max-age-days D]
                           [--max-bytes B --dry-run]
    python -m repro store verify --store DIR [--quarantine]

Everything prints to stdout; exit code 0 on success. ``submit`` and
``status`` print the job record as JSON (``-`` reads the spec from
stdin), so they compose with ``jq``-style pipelines; ``store gc``
prints its eviction report as JSON the same way. ``worker`` joins a
distributed service's fleet: give it the service's ``--store`` path
(same host / shared disk) or its ``--url`` (any host). ``store
verify`` digest-checks every record and exits 1 when anything is
corrupt (``--quarantine`` also moves the bad files aside), so it
slots straight into cron/CI health gates. ``trace`` reconstructs a
job's cross-process timeline from its persisted trace events (read
straight from the store directory or over the service's ``/trace/``
endpoint); ``metrics`` dumps the service's Prometheus exposition plus
an estimated p50/p95/p99 summary for every histogram (``--raw`` for
exposition only). The ``perf`` family is the longitudinal observatory
(:mod:`repro.obs.perf`): ``ingest`` backfills committed artifacts as
the seed epoch, ``report`` prints the trend table, ``compare`` is the
regression gate (exit 1 past threshold), ``baseline`` snapshots a
revision for CI, and ``jobs`` flags per-phase drift on settled service
campaigns, read from the store's job records. Every subcommand honours
``REPRO_LOG=<level>[,text|json]`` for trace-correlated structured
logging on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

#: Default bind/connect address of the campaign service.
DEFAULT_SERVICE_HOST = "127.0.0.1"
DEFAULT_SERVICE_PORT = 8937
DEFAULT_SERVICE_STORE = ".repro-service"


def _default_service_url() -> str:
    return f"http://{DEFAULT_SERVICE_HOST}:{DEFAULT_SERVICE_PORT}"


def _cmd_table1(args) -> int:
    from repro.analysis.latency import run_table1
    names = args.benchmarks or None
    result = run_table1(names=names, verify=args.verify)
    print(result["rendering"])
    print(f"\nmeasured geomean overhead: "
          f"{result['geomean_overhead_pct']:.2f}% "
          f"(paper: {result['paper_geomean_overhead_pct']}%)")
    return 0


def _cmd_table2(args) -> int:
    from repro.analysis.area_report import run_table2
    from repro.arch.config import ArchConfig
    config = ArchConfig(n=args.n, m=args.m, pc_count=args.k)
    result = run_table2(config)
    print(result["rendering"])
    print(f"\nstorage overhead: {result['storage_overhead_pct']:.1f}% "
          "over the raw data array")
    return 0


def _cmd_fig6(args) -> int:
    from repro.analysis.figures import fig6_series, render_loglog
    result = fig6_series()
    print(render_loglog(result["points"]))
    print(f"\nimprovement at SER={args.ser} FIT/bit: ", end="")
    from repro.reliability.model import ReliabilityModel
    print(f"{ReliabilityModel().improvement_factor(args.ser):.4g}")
    return 0


def _cmd_ablations(args) -> int:
    from repro.analysis.ablations import (
        block_size_tradeoff,
        check_period_tradeoff,
        horizontal_parity_strawman,
    )
    from repro.analysis.report import format_table
    print("block-size trade-off (SER 1e-3 FIT/bit):")
    rows = block_size_tradeoff()
    print(format_table(
        ["m", "storage ovh %", "MTTF (h)"],
        [[r["m"], round(r["check_overhead_pct"], 2),
          f"{r['mttf_hours']:.3g}"] for r in rows]))
    print("\ncheck-period trade-off:")
    rows = check_period_tradeoff()
    print(format_table(
        ["T (h)", "MTTF (h)"],
        [[r["period_hours"], f"{r['mttf_hours']:.3g}"] for r in rows]))
    print("\nhorizontal-parity strawman (Fig. 2a):")
    result = horizontal_parity_strawman()
    print(format_table(
        ["operation", "horizontal ops", "diagonal ops"],
        [["row-parallel", result["row_parallel_op"]["horizontal_update_ops"],
          result["row_parallel_op"]["diagonal_update_ops"]],
         ["column-parallel",
          result["column_parallel_op"]["horizontal_update_ops"],
          result["column_parallel_op"]["diagonal_update_ops"]]]))
    return 0


def _cmd_select(args) -> int:
    from repro.analysis.selector import Scenario, default_scenarios, select

    if args.m or args.ber or args.row_fraction:
        ms = args.m or [3, 5]
        bers = args.ber or [1e-3, 1e-2]
        fracs = args.row_fraction or [0.9, 0.5, 0.1]
        scenarios = [Scenario(name=f"m{m}-ber{ber:g}-row{frac:g}",
                              n=args.n, m=m, ber=ber, row_fraction=frac,
                              trials=args.trials, seed=args.seed)
                     for m in ms for ber in bers for frac in fracs]
    else:
        scenarios = default_scenarios(trials=args.trials, seed=args.seed)
    report = select(scenarios, codes=args.codes or None,
                    packing=args.packing)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_info(args) -> int:
    import repro
    from repro.circuits.registry import BENCHMARKS
    from repro.service.scheduler import service_info
    info = service_info()
    print(f"repro {repro.__version__} — diagonal-parity ECC for "
          "memristive PIM (DAC 2021 reproduction)")
    print(f"benchmarks: {', '.join(sorted(BENCHMARKS))}")
    print("artifacts: table1 (latency), table2 (area), fig6 (MTTF), "
          "ablations")
    print(f"packings: {', '.join(info['packings'])}")
    print(f"codes: {', '.join(info['codes'])}")
    native = "built" if info["native_kernels_available"] else "not built"
    print(f"kernel tiers: {', '.join(info['kernel_tiers'])} "
          f"(native extension: {native})")
    print(f"job kinds: {', '.join(info['job_kinds'])}")
    print(f"injector kinds: {', '.join(info['injector_kinds'])}")
    print(f"execution modes: {', '.join(info['execution_modes'])}")
    print(f"draw contract: v{info['draw_contract']} "
          f"(wire version {info['wire_version']})")
    print("service: serve (start), submit (enqueue a spec), "
          "status (poll a job), worker (join a distributed fleet), "
          "store gc (evict old results)")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service.scheduler import CampaignService
    from repro.service.server import ServiceServer

    async def run() -> None:
        # SIGTERM stops the server the way Ctrl-C does: cancelling this
        # task closes the server and the service, which shuts the pool
        # down. Without it the process dies at once and the pool
        # children it started outlive it, holding the listening socket.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel)
        service = CampaignService(
            args.store, workers=args.workers,
            shard_trials=args.shard_trials,
            max_concurrent_jobs=args.max_concurrent_jobs,
            execution=args.execution, broker_path=args.broker)
        server = ServiceServer(service, host=args.host, port=args.port)
        async with server:
            extra = ""
            if args.execution == "distributed":
                extra = (f", execution: distributed, "
                         f"broker: {service.broker_path}")
            print(f"campaign service listening on {server.url} "
                  f"(store: {args.store}, workers: {args.workers}, "
                  f"shard_trials: {args.shard_trials}{extra})", flush=True)
            await server.serve_forever()

    try:
        asyncio.run(run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("campaign service stopped")
    return 0


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceClient

    if args.spec == "-":
        text = sys.stdin.read()
    else:
        with open(args.spec) as handle:
            text = handle.read()
    client = ServiceClient(args.url)
    record = client.submit(json.loads(text))
    if args.wait:
        record = client.wait(record["id"], timeout=args.timeout)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _cmd_status(args) -> int:
    from repro.service.client import ServiceClient

    record = ServiceClient(args.url).status(args.job_id)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0 if record["state"] != "failed" else 1


def _cmd_trace(args) -> int:
    from repro.obs.timeline import render_timeline

    if (args.store is None) == (args.url is None):
        print("trace needs exactly one of --store (read events from "
              "the store directory) or --url (ask the service)",
              file=sys.stderr)
        return 2
    if args.store is not None:
        from repro.service.store import ResultStore
        events = ResultStore(args.store).read_events(args.job_id)
    else:
        from repro.service.client import ServiceClient
        try:
            events = ServiceClient(args.url).trace(args.job_id)
        except ValueError:
            events = []
    if not events:
        print(f"no trace recorded for {args.job_id!r}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(events, indent=2, sort_keys=True))
    else:
        print(render_timeline(events))
    return 0


def _cmd_metrics(args) -> int:
    from repro.obs.metrics import render_histogram_summary
    from repro.service.client import ServiceClient

    text = ServiceClient(args.url).metrics_text()
    print(text, end="")
    if not args.raw:
        summary = render_histogram_summary(text)
        if summary:
            print("\n# histogram percentiles (estimated from bucket "
                  "counts)\n" + summary)
    return 0


def _ledger_records(args) -> list:
    from repro.obs import perf

    records = perf.read_ledger(args.ledger)
    if not records:
        print(f"no readable records in {args.ledger!r} — run "
              f"`repro perf ingest` or a benchmark first",
              file=sys.stderr)
    return records


def _cmd_perf_ingest(args) -> int:
    from repro.obs import perf

    report = perf.ingest_results(args.results, args.ledger)
    print(json.dumps(report, indent=2, sort_keys=True))
    if report["added"] == 0 and report["skipped"] == 0:
        print(f"no BENCH_*.json files under {args.results!r}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_perf_report(args) -> int:
    from repro.obs import perf

    records = _ledger_records(args)
    if not records:
        return 1
    report = perf.trend_report(records, benches=args.bench or None)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(perf.render_trend(report))
    return 0


def _cmd_perf_compare(args) -> int:
    import os

    from repro.obs import perf

    records = _ledger_records(args)
    if not records:
        return 2
    against = args.against
    if against == "baseline":
        against = args.baseline_file
    if os.path.isfile(against):
        try:
            baseline = perf.load_baseline(against)
        except (OSError, ValueError, KeyError) as exc:
            print(f"unreadable baseline {against!r}: {exc}",
                  file=sys.stderr)
            return 2
        base_label = against
    else:
        base_records = perf.records_for_rev(records, against)
        if not base_records:
            print(f"no ledger records for revision {against!r} and no "
                  f"such baseline file", file=sys.stderr)
            return 2
        baseline = perf.collect_series(base_records)
        base_label = f"rev {against}"
    current_rev = args.rev or perf.latest_rev(records)
    current_records = perf.records_for_rev(records, current_rev)
    if not current_records:
        print(f"no ledger records for revision {current_rev!r}",
              file=sys.stderr)
        return 2
    gate = tuple(d.strip() for d in args.gate_directions.split(",")
                 if d.strip())
    report = perf.compare(baseline, perf.collect_series(current_records),
                          threshold=args.threshold,
                          n_boot=args.bootstrap, seed=args.seed,
                          gate_directions=gate)
    report["baseline"] = base_label
    report["current"] = f"rev {current_rev}"
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"baseline: {base_label}   current: rev {current_rev}")
        print(perf.render_compare(report))
    # Exit status is the gate verdict, so CI needs no JSON parsing.
    return 0 if report["ok"] else 1


def _cmd_perf_baseline(args) -> int:
    from repro.obs import perf

    records = _ledger_records(args)
    if not records:
        return 1
    baseline = perf.baseline_from_records(records, rev=args.rev)
    perf.write_baseline(args.out, baseline)
    print(f"wrote baseline of rev {baseline['git_rev']} "
          f"({len(baseline['series'])} series) to {args.out}")
    return 0


def _cmd_perf_jobs(args) -> int:
    from repro.obs import perf

    if (args.store is None) == (args.url is None):
        print("perf jobs needs exactly one of --store (read the "
              "store's job records) or --url (ask the service)",
              file=sys.stderr)
        return 2
    if args.store is not None:
        from repro.service.store import ResultStore
        report = perf.jobs_report(ResultStore(args.store).iter_jobs(),
                                  threshold=args.threshold)
    else:
        from repro.service.client import ServiceClient
        report = ServiceClient(args.url).perf_report()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(perf.render_jobs(report))
    return 0 if report.get("ok", True) else 1


def _cmd_worker(args) -> int:
    from repro.distributed.broker import SqliteBroker
    from repro.distributed.worker import (
        BrokerWorkSource,
        HttpWorkSource,
        ShardWorker,
        default_worker_id,
    )

    if (args.store is None) == (args.url is None):
        print("worker needs exactly one of --store (shared-store "
              "topology) or --url (HTTP topology)", file=sys.stderr)
        return 2
    if args.store is not None:
        from repro.service.scheduler import BROKER_FILENAME
        from repro.service.store import ResultStore
        broker_path = args.broker or \
            f"{args.store.rstrip('/')}/{BROKER_FILENAME}"
        source = BrokerWorkSource(SqliteBroker(broker_path),
                                  ResultStore(args.store))
        where = f"broker {broker_path}"
    else:
        from repro.service.client import ServiceClient
        source = HttpWorkSource(ServiceClient(args.url))
        where = f"service {args.url}"
    worker = ShardWorker(source, worker_id=args.id or default_worker_id(),
                         lease_ttl_s=args.lease_ttl,
                         poll_interval_s=args.poll_interval)
    print(f"worker {worker.worker_id} pulling from {where} "
          f"(lease ttl {worker.lease_ttl_s:.0f}s)", flush=True)
    try:
        processed = worker.run(max_units=args.max_units,
                               idle_exit_s=args.idle_exit)
    except KeyboardInterrupt:
        processed = worker.units_done
        print(f"worker {worker.worker_id} interrupted")
    print(f"worker {worker.worker_id} exiting: {processed} unit(s) "
          f"processed, {worker.units_failed} failed", flush=True)
    return 0


def _cmd_store_gc(args) -> int:
    from repro.service.store import ResultStore

    max_age_s = None if args.max_age_days is None \
        else args.max_age_days * 86400.0
    report = ResultStore(args.store).gc(
        max_age_s=max_age_s, max_bytes=args.max_bytes,
        sweep_orphans=not args.no_orphan_sweep, dry_run=args.dry_run)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_store_verify(args) -> int:
    from repro.service.store import ResultStore

    report = ResultStore(args.store).verify(quarantine=args.quarantine)
    print(json.dumps(report, indent=2, sort_keys=True))
    # Exit status is the scriptable verdict: 1 when anything failed the
    # integrity check, so cron jobs and CI gates need no JSON parsing.
    return 1 if report["corrupt"] else 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="regenerate Table I (latency)")
    p1.add_argument("--benchmarks", nargs="*", default=None,
                    help="subset of benchmark names (default: all 11)")
    p1.add_argument("--verify", action="store_true",
                    help="re-verify each circuit against its golden model")
    p1.set_defaults(func=_cmd_table1)

    p2 = sub.add_parser("table2", help="regenerate Table II (area)")
    p2.add_argument("--n", type=int, default=1020)
    p2.add_argument("--m", type=int, default=15)
    p2.add_argument("--k", type=int, default=3)
    p2.set_defaults(func=_cmd_table2)

    p3 = sub.add_parser("fig6", help="regenerate Figure 6 (MTTF)")
    p3.add_argument("--ser", type=float, default=1e-3,
                    help="SER [FIT/bit] for the headline comparison")
    p3.set_defaults(func=_cmd_fig6)

    p4 = sub.add_parser("ablations", help="run the ablation sweeps")
    p4.set_defaults(func=_cmd_ablations)

    psel = sub.add_parser(
        "select", help="sweep scenarios x codes, print the Pareto report")
    psel.add_argument("--n", type=int, default=15,
                      help="crossbar dimension for explicit sweeps")
    psel.add_argument("--m", type=int, action="append", default=None,
                      help="block size (repeatable; odd, divides n)")
    psel.add_argument("--ber", type=float, action="append", default=None,
                      help="per-bit upset probability (repeatable)")
    psel.add_argument("--row-fraction", type=float, action="append",
                      default=None,
                      help="fraction of row-parallel ops (repeatable)")
    psel.add_argument("--trials", type=int, default=512,
                      help="Monte-Carlo trials per scenario x code")
    psel.add_argument("--seed", type=int, default=0,
                      help="campaign root entropy")
    psel.add_argument("--codes", nargs="*", default=None,
                      help="subset of registered codes (default: all)")
    psel.add_argument("--packing", default="u8", choices=["u8", "u64"],
                      help="engine tensor layout for the coverage runs")
    psel.set_defaults(func=_cmd_select)

    p5 = sub.add_parser("info", help="library, benchmark, and service info")
    p5.set_defaults(func=_cmd_info)

    p6 = sub.add_parser("serve", help="run the campaign service")
    p6.add_argument("--host", default=DEFAULT_SERVICE_HOST)
    p6.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                    help="listen port (0 picks a free one)")
    p6.add_argument("--store", default=DEFAULT_SERVICE_STORE,
                    help="result-store directory (created if missing)")
    p6.add_argument("--workers", type=int, default=2,
                    help="work-unit pool size")
    p6.add_argument("--shard-trials", type=int, default=512,
                    help="max trials per checkpointable shard")
    p6.add_argument("--max-concurrent-jobs", type=int, default=2)
    p6.add_argument("--execution", default="local",
                    choices=["local", "distributed"],
                    help="where shard spans run: this process's pool "
                         "(local) or the repro-worker fleet (distributed)")
    p6.add_argument("--broker", default=None,
                    help="broker SQLite file for distributed execution "
                         "(default: <store>/broker.sqlite3)")
    p6.set_defaults(func=_cmd_serve)

    p7 = sub.add_parser("submit", help="submit a job spec to the service")
    p7.add_argument("spec", help="path to a JSON job spec ('-' for stdin)")
    p7.add_argument("--url", default=_default_service_url())
    p7.add_argument("--wait", action="store_true",
                    help="wait until the job settles, print final record")
    p7.add_argument("--timeout", type=float, default=300.0,
                    help="--wait deadline in seconds")
    p7.set_defaults(func=_cmd_submit)

    p8 = sub.add_parser("status", help="show one service job record")
    p8.add_argument("job_id")
    p8.add_argument("--url", default=_default_service_url())
    p8.set_defaults(func=_cmd_status)

    ptrace = sub.add_parser(
        "trace", help="reconstruct one job's cross-process timeline")
    ptrace.add_argument("job_id")
    ptrace.add_argument("--store", default=None,
                        help="service store directory (read the events "
                             "files directly)")
    ptrace.add_argument("--url", default=None,
                        help="service URL (fetch via GET /trace/<id>)")
    ptrace.add_argument("--json", action="store_true",
                        help="print raw event records instead of the "
                             "rendered timeline")
    ptrace.set_defaults(func=_cmd_trace)

    from repro.obs.perf import DEFAULT_BASELINE, DEFAULT_LEDGER

    pperf = sub.add_parser(
        "perf", help="longitudinal perf ledger: trends + regression gate")
    perf_sub = pperf.add_subparsers(dest="perf_command", required=True)

    pingest = perf_sub.add_parser(
        "ingest", help="backfill committed BENCH_*.json into the ledger")
    pingest.add_argument("--results", default="benchmarks/results",
                         help="directory holding BENCH_*.json artifacts")
    pingest.add_argument("--ledger", default=DEFAULT_LEDGER,
                         help="ledger JSONL path to append to")
    pingest.set_defaults(func=_cmd_perf_ingest)

    preport = perf_sub.add_parser(
        "report", help="trend table per bench/metric/kernel tier")
    preport.add_argument("--ledger", default=DEFAULT_LEDGER)
    preport.add_argument("--bench", action="append", default=None,
                         help="restrict to these bench names "
                              "(repeatable)")
    preport.add_argument("--json", action="store_true",
                         help="print the raw report instead of a table")
    preport.set_defaults(func=_cmd_perf_report)

    pcompare = perf_sub.add_parser(
        "compare", help="gate the newest epoch against a baseline "
                        "(exit 1 on regression)")
    pcompare.add_argument("--ledger", default=DEFAULT_LEDGER)
    pcompare.add_argument("--against", default="baseline",
                          help="'baseline' (the committed snapshot), a "
                               "baseline JSON path, or a git rev prefix "
                               "present in the ledger")
    pcompare.add_argument("--baseline-file", default=DEFAULT_BASELINE,
                          help="where 'baseline' points")
    pcompare.add_argument("--rev", default=None,
                          help="current-side revision (default: the "
                               "ledger's newest by timestamp)")
    pcompare.add_argument("--threshold", type=float, default=0.2,
                          help="fail when the good-direction ratio's "
                               "CI upper bound < 1 - threshold")
    pcompare.add_argument("--bootstrap", type=int, default=400,
                          help="bootstrap resamples for the CI")
    pcompare.add_argument("--seed", type=int, default=7,
                          help="bootstrap PRNG seed (deterministic gate)")
    pcompare.add_argument("--gate-directions", default="higher",
                          help="comma list of metric directions to "
                               "gate (higher, lower); others are "
                               "reported as info")
    pcompare.add_argument("--json", action="store_true")
    pcompare.set_defaults(func=_cmd_perf_compare)

    pbaseline = perf_sub.add_parser(
        "baseline", help="snapshot one revision's series as the "
                         "committed baseline")
    pbaseline.add_argument("--ledger", default=DEFAULT_LEDGER)
    pbaseline.add_argument("--rev", default=None,
                           help="revision to snapshot (default: newest)")
    pbaseline.add_argument("--out", default=DEFAULT_BASELINE)
    pbaseline.set_defaults(func=_cmd_perf_baseline)

    pjobs = perf_sub.add_parser(
        "jobs", help="per-phase drift on settled service campaigns")
    pjobs.add_argument("--store", default=None,
                       help="store root (reads its job records)")
    pjobs.add_argument("--url", default=None,
                       help="service URL (GET /perf; server-side "
                            "threshold)")
    pjobs.add_argument("--threshold", type=float, default=0.5,
                       help="drift threshold for --store mode")
    pjobs.add_argument("--json", action="store_true")
    pjobs.set_defaults(func=_cmd_perf_jobs)

    pmetrics = sub.add_parser(
        "metrics", help="dump the service's Prometheus metrics text")
    pmetrics.add_argument("--url", default=_default_service_url())
    pmetrics.add_argument("--raw", action="store_true",
                          help="exposition only, no histogram "
                               "percentile summary")
    pmetrics.set_defaults(func=_cmd_metrics)

    p9 = sub.add_parser(
        "worker", help="run a shard worker for a distributed service")
    p9.add_argument("--store", default=None,
                    help="service store directory (shared-store topology)")
    p9.add_argument("--broker", default=None,
                    help="broker SQLite file (default: "
                         "<store>/broker.sqlite3)")
    p9.add_argument("--url", default=None,
                    help="service URL (HTTP topology, for workers "
                         "without access to the store path)")
    p9.add_argument("--id", default=None,
                    help="worker identity (default: host-pid-random)")
    p9.add_argument("--lease-ttl", type=float, default=30.0,
                    help="seconds a claim survives without heartbeat")
    p9.add_argument("--poll-interval", type=float, default=0.2,
                    help="idle sleep between empty claims (HTTP "
                         "claims long-poll instead)")
    p9.add_argument("--max-units", type=int, default=None,
                    help="exit after this many units (default: run "
                         "until killed)")
    p9.add_argument("--idle-exit", type=float, default=None,
                    help="exit after this many consecutive idle seconds")
    p9.set_defaults(func=_cmd_worker)

    p10 = sub.add_parser("store", help="manage a service result store")
    store_sub = p10.add_subparsers(dest="store_command", required=True)
    p10gc = store_sub.add_parser(
        "gc", help="evict old results / bound store size")
    p10gc.add_argument("--store", default=DEFAULT_SERVICE_STORE,
                       help="result-store directory")
    p10gc.add_argument("--max-age-days", type=float, default=None,
                       help="evict results older than this many days")
    p10gc.add_argument("--max-bytes", type=int, default=None,
                       help="evict oldest results until the store fits")
    p10gc.add_argument("--no-orphan-sweep", action="store_true",
                       help="skip dropping checkpoint dirs whose final "
                            "record already exists")
    p10gc.add_argument("--dry-run", action="store_true",
                       help="report what would be evicted, touch nothing")
    p10gc.set_defaults(func=_cmd_store_gc)
    p10verify = store_sub.add_parser(
        "verify", help="integrity-sweep every record (digest check)")
    p10verify.add_argument("--store", default=DEFAULT_SERVICE_STORE,
                           help="result-store directory")
    p10verify.add_argument("--quarantine", action="store_true",
                           help="move corrupt records to quarantine/ "
                                "instead of just reporting them")
    p10verify.set_defaults(func=_cmd_store_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    # Honour REPRO_LOG=<level>[,text|json] for every subcommand (a
    # no-op when the variable is unset).
    from repro.obs.logs import configure as configure_logging
    configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
