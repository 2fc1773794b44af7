"""Unit tests for the command-line interface."""

import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.service import CampaignJobSpec, InjectorSpec, ServiceClient


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["no-such-command"])


class TestServiceParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8937
        assert args.store == ".repro-service"
        assert args.workers == 2

    def test_submit_flags(self):
        args = build_parser().parse_args(
            ["submit", "spec.json", "--wait", "--timeout", "12",
             "--url", "http://h:1"])
        assert args.spec == "spec.json"
        assert args.wait and args.timeout == 12.0
        assert args.url == "http://h:1"

    def test_status_requires_job_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["status"])
        args = build_parser().parse_args(["status", "j000001-aaaa"])
        assert args.job_id == "j000001-aaaa"

    def test_serve_distributed_flags(self):
        args = build_parser().parse_args(
            ["serve", "--execution", "distributed",
             "--broker", "/tmp/b.sqlite3"])
        assert args.execution == "distributed"
        assert args.broker == "/tmp/b.sqlite3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--execution", "psychic"])

    def test_serve_has_no_queue_option(self, capsys):
        """The job queue is in memory; there is no backend to pick."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--queue", "sqlite"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments: --queue sqlite" in err

    def test_worker_flags(self):
        args = build_parser().parse_args(
            ["worker", "--store", "./s", "--lease-ttl", "5",
             "--max-units", "3", "--idle-exit", "2.5"])
        assert args.store == "./s" and args.url is None
        assert args.lease_ttl == 5.0
        assert args.max_units == 3 and args.idle_exit == 2.5
        args = build_parser().parse_args(["worker", "--url", "http://h:1"])
        assert args.url == "http://h:1" and args.store is None

    def test_worker_requires_exactly_one_topology(self, capsys):
        from repro.cli import main
        assert main(["worker"]) == 2
        assert main(["worker", "--store", "s", "--url", "u"]) == 2

    def test_store_gc_flags(self):
        args = build_parser().parse_args(
            ["store", "gc", "--store", "./s", "--max-age-days", "7",
             "--max-bytes", "1000", "--dry-run"])
        assert args.store == "./s"
        assert args.max_age_days == 7.0 and args.max_bytes == 1000
        assert args.dry_run
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])  # needs a subcommand


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "adder" in out and "voter" in out

    def test_info_reports_service_capabilities(self, capsys):
        """Operators can introspect tiers/packings/job kinds."""
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "kernel tiers:" in out and "numpy" in out
        assert not [line for line in out.splitlines()
                    if line.startswith("backends:")]
        assert "(wire version 8)" in out
        assert "packings: u8, u64" in out
        assert "job kinds:" in out and "drift_survival" in out
        assert "queue backends" not in out
        assert "execution modes: local, distributed" in out

    def test_table2_default(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "1248480" in out or "1.25e+06" in out
        assert "Shifters" in out

    def test_table2_custom_geometry(self, capsys):
        assert main(["table2", "--n", "105", "--m", "5", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "Total" in out

    def test_table1_subset(self, capsys):
        assert main(["table1", "--benchmarks", "ctrl", "int2float"]) == 0
        out = capsys.readouterr().out
        assert "ctrl" in out and "int2float" in out
        assert "Geo. Mean" in out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "FIT/bit" in out
        assert "improvement" in out

    def test_ablations(self, capsys):
        assert main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "block-size" in out
        assert "strawman" in out


class TestSelectParser:
    def test_select_defaults(self):
        args = build_parser().parse_args(["select"])
        assert args.n == 15 and args.trials == 512 and args.seed == 0
        assert args.m is None and args.ber is None
        assert args.row_fraction is None
        assert args.codes is None and args.packing == "u8"

    def test_select_flags(self):
        args = build_parser().parse_args(
            ["select", "--n", "45", "--m", "3", "--m", "5",
             "--ber", "0.01", "--row-fraction", "0.5",
             "--trials", "16", "--seed", "9",
             "--codes", "diagonal", "rowcol", "--packing", "u64"])
        assert args.n == 45 and args.m == [3, 5]
        assert args.ber == [0.01] and args.row_fraction == [0.5]
        assert args.trials == 16 and args.seed == 9
        assert args.codes == ["diagonal", "rowcol"]
        assert args.packing == "u64"

    def test_select_rejects_unknown_packing(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["select", "--packing", "u32"])


class TestSelectCommand:
    def test_select_emits_pareto_json(self, capsys):
        import json
        assert main(["select", "--m", "3", "--ber", "1e-2",
                     "--row-fraction", "0.5", "--trials", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["scenarios"]) == 1
        entry = report["scenarios"][0]
        assert entry["update_cost_winner"] == "diagonal"
        assert "diagonal" in entry["pareto_front"]
        assert entry["scenario"]["trials"] == 8

    def test_select_code_subset(self, capsys):
        import json
        assert main(["select", "--m", "3", "--ber", "1e-2",
                     "--row-fraction", "0.9", "--trials", "8",
                     "--codes", "diagonal", "hsiao"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["codes"] == ["diagonal", "hsiao"]

    def test_info_lists_codes(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "codes:" in out
        assert "diagonal" in out and "hamming_ext" in out


def _children(pid):
    """Pids whose parent is ``pid`` (from ``/proc``)."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process exited while we scanned
        if int(fields[1]) == pid:
            out.append(int(stat.parent.name))
    return out


def _alive(pid):
    """Whether ``pid`` runs (a zombie has exited)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return False
    return state.split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="finds pool children through /proc")
class TestServeShutdown:
    def test_sigterm_stops_the_pool_and_frees_the_port(self, tmp_path):
        """A plain ``kill`` stops ``repro serve`` like Ctrl-C: the pool
        children a multi-span job started exit with it, and the port is
        free for the next server."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "store"), "--workers", "2",
             "--shard-trials", "32"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        children = []
        try:
            url = proc.stdout.readline().split(" listening on ")[1].split()[0]
            client = ServiceClient(url)
            spec = CampaignJobSpec(
                n=15, m=3, trials=96, seed=5,
                injector=InjectorSpec("uniform", {"probability": 2e-3}))
            record = client.wait(client.submit(spec)["id"], timeout=120)
            assert record["state"] == "done"
            assert record["shards"]["total"] == 3
            children = _children(proc.pid)
            assert children  # the 3-span job started the pool
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            assert [pid for pid in children if _alive(pid)] == []
            # SO_REUSEADDR, as asyncio's server sets it: only a live
            # listener on the port can refuse the bind.
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("127.0.0.1", int(url.rsplit(":", 1)[1])))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            for pid in children:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
