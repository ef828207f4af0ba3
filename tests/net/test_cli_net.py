"""CLI tests for the networked subcommands (`repro serve`, `repro load`)."""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.cli import _parse_addresses, build_parser, main

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestParsing:
    def test_load_defaults(self):
        args = build_parser().parse_args(["load"])
        assert args.protocol == "regular-fast"
        assert args.servers == 5
        assert args.readers == 1000
        assert args.workers == 4

    def test_clients_alias_sets_readers(self):
        args = build_parser().parse_args(["load", "--clients", "77"])
        assert args.readers == 77

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.protocol == "fast-crash"
        assert args.servers == 5
        assert args.base_port == 7400
        assert args.index is None

    def test_parse_addresses(self):
        assert _parse_addresses("h1:7001,h2:7002") == [("h1", 7001), ("h2", 7002)]

    def test_parse_addresses_rejects_garbage(self):
        with pytest.raises(Exception):
            _parse_addresses("no-port")


class TestLoadCommand:
    def test_small_load_end_to_end(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = main(
            [
                "load",
                "--protocol", "abd",
                "--servers", "3",
                "--t", "1",
                "--clients", "6",
                "--ops", "2",
                "--workers", "1",
                "--write-interval", "0.02",
                "--sim-check",
                "--out", str(out_file),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "abd" in captured.out
        assert "p50" in captured.out
        assert "verdicts" in captured.out
        payload = json.loads(out_file.read_text())
        assert payload["format"] == "repro-load-report/v1"
        assert payload["verdicts"]["atomic"] is True
        assert payload["sim_check"]["agree"] is True
        assert payload["rounds"]["read"] == {"2": payload["config"]["readers"] * 2}

    def test_unsupported_protocol_exits_2(self, capsys):
        code = main(
            ["load", "--protocol", "maxmin", "--servers", "3", "--clients", "2"]
        )
        assert code == 2
        assert "maxmin" in capsys.readouterr().err


class TestChaosCommands:
    def test_seeded_chaos_run_and_replay(self, capsys, tmp_path):
        run_file = tmp_path / "chaos_run.json"
        code = main(
            [
                "load",
                "--protocol", "abd",
                "--servers", "3",
                "--t", "1",
                "--clients", "4",
                "--ops", "2",
                "--workers", "1",
                "--write-interval", "0.02",
                "--timeout", "20",
                "--chaos", "seed:21",
                "--chaos-out", str(run_file),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "chaos plan:" in captured.err
        assert "chaos" in captured.out
        assert "degradation" in captured.out
        record = json.loads(run_file.read_text())
        assert record["format"] == "repro-chaos-run/v1"
        assert record["within_budget"] is True
        assert record["plan"]["seed"] == 21

        code = main(["chaos-replay", str(run_file)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "byte-identical fault trace" in captured.out

    def test_beyond_budget_chaos_degrades_gracefully(self, capsys, tmp_path):
        run_file = tmp_path / "beyond_run.json"
        code = main(
            [
                "load",
                "--protocol", "abd",
                "--servers", "3",
                "--t", "1",
                "--clients", "2",
                "--ops", "1",
                "--workers", "1",
                "--write-interval", "0.02",
                "--timeout", "1.0",
                "--chaos", "seed:9:beyond",
                "--chaos-out", str(run_file),
            ]
        )
        captured = capsys.readouterr()
        assert code == 4, captured.err
        assert "degraded gracefully" in captured.err
        record = json.loads(run_file.read_text())
        assert record["within_budget"] is False
        assert record["summary"]["ops_incomplete"] > 0
        # Even the beyond-budget trace replays byte-identically.
        assert main(["chaos-replay", str(run_file)]) == 0
        capsys.readouterr()

    def test_full_outage_default_plan_is_beyond_budget(self, capsys, tmp_path):
        from repro.net.chaos import FaultPlan, LinkFaults

        plan_file = tmp_path / "outage.json"
        plan_file.write_text(
            FaultPlan(default=LinkFaults(drop=1.0), allow_beyond_budget=True).to_json()
        )
        code = main(
            [
                "load",
                "--protocol", "abd",
                "--servers", "3",
                "--t", "1",
                "--clients", "1",
                "--ops", "1",
                "--workers", "1",
                "--timeout", "0.5",
                "--chaos", str(plan_file),
            ]
        )
        captured = capsys.readouterr()
        assert code == 4, captured.err
        assert "peak_failures=3" in captured.err
        assert "degraded gracefully" in captured.err

    def test_restart_plan_at_b0_is_beyond_budget(self, capsys, tmp_path):
        from repro.net.chaos import FaultPlan, ServerEvent

        plan_file = tmp_path / "restart.json"
        plan_file.write_text(
            FaultPlan(
                events=(ServerEvent(server=1, kill_at=0.1, restart_at=0.3),),
                allow_beyond_budget=True,
            ).to_json()
        )
        run_file = tmp_path / "restart_run.json"
        code = main(
            [
                "load",
                "--protocol", "abd",
                "--servers", "3",
                "--t", "1",
                "--clients", "1",
                "--ops", "1",
                "--workers", "1",
                "--timeout", "5",
                "--chaos", str(plan_file),
                "--chaos-out", str(run_file),
            ]
        )
        captured = capsys.readouterr()
        assert code == 4, captured.err
        assert "degraded gracefully" in captured.err
        assert json.loads(run_file.read_text())["within_budget"] is False

    def test_bad_chaos_spec_exits_2(self, capsys):
        code = main(
            [
                "load",
                "--protocol", "abd",
                "--servers", "3",
                "--clients", "2",
                "--chaos", "seed:not-a-number",
            ]
        )
        assert code == 2
        assert "chaos" in capsys.readouterr().err.lower()

    def test_replay_of_tampered_record_exits_1(self, capsys, tmp_path):
        run_file = tmp_path / "run.json"
        code = main(
            [
                "load",
                "--protocol", "abd",
                "--servers", "3",
                "--t", "1",
                "--clients", "2",
                "--ops", "1",
                "--workers", "1",
                "--write-interval", "0.02",
                "--timeout", "20",
                "--chaos", "seed:5",
                "--chaos-out", str(run_file),
            ]
        )
        capsys.readouterr()
        assert code == 0
        record = json.loads(run_file.read_text())
        shard = next(iter(record["shards"].values()))
        key = next(iter(shard["counters"]))
        shard["counters"][key] += 7
        run_file.write_text(json.dumps(record))
        assert main(["chaos-replay", str(run_file)]) == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_prints_listeners_and_stops_on_sigint(self):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "serve",
                "--protocol", "abd",
                "--servers", "2",
                "--t", "0",
                "--base-port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        try:
            lines = [proc.stdout.readline() for _ in range(2)]
            assert all("listening on" in line for line in lines), lines
            assert lines[0].startswith("s1 ") and lines[1].startswith("s2 ")
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                code = proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert code == 0
