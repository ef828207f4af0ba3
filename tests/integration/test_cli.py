"""Tests for the CLI."""

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--protocol", "paxos"])


class TestCommands:
    def test_protocols(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "fast-crash" in out
        assert "abd" in out

    def test_demo(self, capsys):
        assert main(["demo", "--servers", "8", "--t", "1", "--readers", "3"]) == 0
        out = capsys.readouterr().out
        assert "SWMR atomicity" in out
        assert "OK" in out

    def test_demo_other_protocol(self, capsys):
        assert main(
            ["demo", "--protocol", "abd", "--servers", "5", "--t", "2"]
        ) == 0

    def test_feasibility(self, capsys):
        assert main(["feasibility", "--max-servers", "10", "--t", "1"]) == 0
        out = capsys.readouterr().out
        assert "F" in out and "x" in out
        assert "max fast readers" in out

    def test_lower_bound_crash(self, capsys):
        code = main(
            ["lower-bound", "crash", "--servers", "4", "--t", "1", "--readers", "2"]
        )
        assert code == 0  # 0 = violation found, as the theorem predicts
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    def test_lower_bound_byzantine(self, capsys):
        code = main(
            [
                "lower-bound",
                "byzantine",
                "--servers",
                "7",
                "--t",
                "1",
                "--b",
                "1",
                "--readers",
                "2",
            ]
        )
        assert code == 0
        assert "VIOLATION" in capsys.readouterr().out

    def test_lower_bound_mwmr(self, capsys):
        assert main(["lower-bound", "mwmr", "--servers", "4"]) == 0
        assert "Proposition 11" in capsys.readouterr().out

    def test_chain_crash(self, capsys):
        assert main(
            ["chain", "crash", "--servers", "4", "--t", "1", "--readers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "pr^C ~r1 pr^D: holds" in out

    def test_chain_byzantine(self, capsys):
        assert main(
            [
                "chain",
                "byzantine",
                "--servers",
                "7",
                "--t",
                "1",
                "--b",
                "1",
                "--readers",
                "2",
            ]
        ) == 0
        assert "anchored: r1 returns 1" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(
            [
                "compare",
                "--servers",
                "9",
                "--t",
                "1",
                "--readers",
                "3",
                "--ops",
                "3",
                "--protocols",
                "fast-crash",
                "abd",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fast-crash" in out and "abd" in out

    def test_compare_reports_infeasible(self, capsys):
        assert main(
            [
                "compare",
                "--servers",
                "4",
                "--t",
                "1",
                "--readers",
                "2",
                "--protocols",
                "fast-crash",
            ]
        ) == 0
        assert "infeasible" in capsys.readouterr().out


class TestSweep:
    SWEEP_ARGS = [
        "sweep",
        "--protocols", "fast-crash", "abd",
        "--scenarios", "smoke", "write-storm",
        "--servers", "8", "--t", "1", "--readers", "3",
        "--seeds", "2",
    ]

    def test_sweep_table(self, capsys):
        assert main(self.SWEEP_ARGS) == 0
        captured = capsys.readouterr()
        assert "Sweep runs" in captured.out
        assert "Merged by protocol x scenario" in captured.out
        assert "write-storm" in captured.out
        # timing goes to stderr only — stdout must be reproducible
        assert "runs/s" not in captured.out
        assert "runs/s" in captured.err

    def test_sweep_json(self, capsys):
        import json

        assert main(self.SWEEP_ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["runs"]) == 2 * 2 * 2
        assert len(payload["groups"]) == 4
        assert all(run["atomic_ok"] for run in payload["runs"])

    def test_sweep_parallel_stdout_identical_to_serial(self, capsys):
        """Acceptance: --parallel N produces byte-identical summaries."""
        assert main(self.SWEEP_ARGS) == 0
        serial = capsys.readouterr().out
        assert main(self.SWEEP_ARGS + ["--parallel", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_sweep_json_parallel_identical_to_serial(self, capsys):
        args = self.SWEEP_ARGS + ["--format", "json"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--parallel", "2"]) == 0
        assert serial == capsys.readouterr().out

    def test_sweep_infeasible_combination_errors(self, capsys):
        code = main(
            [
                "sweep",
                "--protocols", "fast-crash",
                "--scenarios", "smoke",
                "--servers", "4", "--t", "1", "--readers", "8",
                "--seeds", "1",
            ]
        )
        assert code == 2
        assert "no feasible" in capsys.readouterr().err

    def test_sweep_no_check_skips_verdicts(self, capsys):
        assert main(self.SWEEP_ARGS + ["--no-check", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" not in out


class TestExplore:
    CLEAN_ARGS = [
        "explore",
        "--protocol", "fast-crash",
        "--servers", "4", "--t", "1", "--readers", "1",
        "--depth", "6",
    ]
    BROKEN_ARGS = [
        "explore",
        "--protocol", "naive-fast-mwmr",
        "--servers", "2", "--t", "1", "--readers", "1", "--writers", "2",
        "--depth", "8",
    ]

    def test_feasible_region_reports_no_violation(self, capsys):
        assert main(self.CLEAN_ARGS) == 0
        out = capsys.readouterr().out
        assert "violations    : 0 found" in out
        assert "pruned by sleep sets" in out

    def test_underscores_normalise_to_hyphens(self, capsys):
        assert main(
            ["explore", "--protocol", "fast_crash", "--servers", "4",
             "--t", "1", "--readers", "1", "--depth", "5"]
        ) == 0
        assert "fast-crash" in capsys.readouterr().out

    def test_broken_protocol_exits_nonzero_with_counterexample(self, capsys):
        assert main(self.BROKEN_ARGS) == 1
        out = capsys.readouterr().out
        assert "counterexample: naive-fast-mwmr" in out
        assert "VIOLATION" in out
        assert "schedule (" in out

    def test_json_format(self, capsys):
        import json

        assert main(self.BROKEN_ARGS + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["violations"] >= 1
        assert payload["counterexamples"]
        assert payload["counterexamples"][0]["verdict"]["ok"] is False

    def test_parallel_identical_to_serial(self, capsys):
        assert main(self.BROKEN_ARGS + ["--format", "json"]) == 1
        serial = capsys.readouterr().out
        assert main(
            self.BROKEN_ARGS + ["--format", "json", "--parallel", "2"]
        ) == 1
        assert serial == capsys.readouterr().out

    def test_save_and_replay_round_trip(self, capsys, tmp_path):
        save_dir = tmp_path / "ces"
        assert main(self.BROKEN_ARGS + ["--save", str(save_dir)]) == 1
        capsys.readouterr()
        files = sorted(save_dir.glob("*.json"))
        assert files
        assert main(["explore", "--replay", str(files[0])]) == 0
        out = capsys.readouterr().out
        assert "history_identical: True" in out
        assert "verdict_identical: True" in out

    def test_random_mode_reports_walks(self, capsys):
        assert main(
            self.CLEAN_ARGS
            + ["--mode", "random", "--walks", "25", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "walks=25 seed=3" in out

    def test_unknown_target_rejected(self, capsys):
        code = main(
            ["explore", "--protocol", "paxos", "--depth", "4"]
        )
        assert code == 2
        assert "unknown explore target" in capsys.readouterr().err

    def test_crash_budget_beyond_t_rejected(self, capsys):
        code = main(self.CLEAN_ARGS + ["--crashes", "2"])
        assert code == 2
        assert "crash budget" in capsys.readouterr().err

    def test_missing_protocol_rejected(self, capsys):
        assert main(["explore", "--depth", "4"]) == 2
        assert "--protocol is required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--max-counterexamples", "0"], "max_counterexamples must be >= 1"),
            (["--depth", "-1"], "depth must be >= 0"),
            (["--depth", "-1", "--mode", "random"], "depth must be >= 0"),
        ],
    )
    def test_a_search_that_would_search_nothing_is_rejected(
        self, capsys, extra, message
    ):
        """A zero quota used to print `0 found`, exit 0 on a target
        that loses; a negative depth ran unbounded."""
        assert main(self.BROKEN_ARGS + extra) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("explore: ") and message in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_depth_zero_is_one_empty_schedule(self, capsys):
        assert main(self.BROKEN_ARGS + ["--depth", "0"]) == 0
        assert "schedules     : 1 covered" in capsys.readouterr().out


class TestExploreByzantine:
    BEYOND_ARGS = [
        "explore",
        "--target", "fast-byzantine",
        "--servers", "3", "--t", "1", "--readers", "1",
        "--b", "1", "--byzantine", "1",
        "--depth", "6",
    ]

    def test_beyond_threshold_finds_equivocation(self, capsys):
        assert main(self.BEYOND_ARGS) == 1
        out = capsys.readouterr().out
        assert "byzantine budget 1" in out
        assert "lie:" in out
        assert "beyond the feasible region" in out

    def test_restricted_menu_is_respected(self, capsys):
        assert main(self.BEYOND_ARGS + ["--strategies", "stale"]) == 1
        out = capsys.readouterr().out
        assert "[stale]" in out
        assert "lie:stale:" in out
        assert "lie:inflate-seen:" not in out

    def test_save_and_replay_v3_round_trip(self, capsys, tmp_path):
        save_dir = tmp_path / "ces"
        assert main(self.BEYOND_ARGS + ["--save", str(save_dir)]) == 1
        capsys.readouterr()
        files = sorted(save_dir.glob("fast-byzantine-*.json"))
        assert files
        text = files[0].read_text()
        # audited lie-bearing artifacts carry the certificate (v3)
        assert '"repro-counterexample/v3"' in text
        assert '"repro-fraud-proof/v1"' in text
        assert main(["explore", "--replay", str(files[0])]) == 0
        out = capsys.readouterr().out
        assert "history_identical: True" in out
        assert "accountability_identical: True" in out
        assert "certificate_verifies: True" in out
        # and the standalone audit re-verifies it (exit 0)
        assert main(["audit", str(files[0])]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_byzantine_budget_beyond_b_rejected(self, capsys):
        code = main(
            ["explore", "--target", "fast-byzantine", "--servers", "3",
             "--t", "1", "--readers", "1", "--byzantine", "1", "--depth", "4"]
        )
        assert code == 2
        assert "exceeds the model's b" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self, capsys):
        code = main(self.BEYOND_ARGS + ["--strategies", "gaslight"])
        assert code == 2
        assert "unknown reply strategy" in capsys.readouterr().err


class TestOneFailurePath:
    """Every command fails the same way: one ``<command>: <message>``
    line on stderr, exit 2, nothing on stdout, never a traceback.  Each
    row used to end in a Python traceback (or, for ``explore``, in a
    ``KeyError`` repr with stray quotes)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos-replay", "/nonexistent.json"],
            ["chaos-replay", "<not-json>"],
            ["chaos-replay", "<a-list>"],
            ["lower-bound", "crash", "--servers", "8", "--t", "1", "--readers", "2"],
            ["chain", "crash", "--servers", "8", "--t", "1", "--readers", "2"],
            ["demo", "--servers", "3", "--t", "1", "--readers", "5"],
            ["sweep", "--servers", "3", "--t", "5"],
            ["sweep", "--max-events", "50"],
            ["sweep", "--seeds", "0"],
            ["sweep", "--seeds", "-3"],
            ["sweep", "--vector", "--oracle-samples", "-1"],
            ["load", "--chaos", "/nonexistent.json", "--ops", "1", "--readers", "1"],
            ["demo", "--dump-history", "/nonexistent/dir/h.json"],
            ["explore", "--protocol", "nope"],
            ["explore", "--replay", "<a-list>"],
            ["explore", "--replay", "<an-artifact-without-its-scenario>"],
            ["audit", "/nonexistent.json"],
            ["serve", "--protocol", "maxmin", "--servers", "3", "--t", "1"],
        ],
        ids=lambda argv: " ".join(argv[:3]),
    )
    def test_exit_two_and_one_stderr_line(self, argv, tmp_path, capsys):
        files = {
            "<not-json>": "{nope",
            "<a-list>": "[]",
            "<an-artifact-without-its-scenario>": (
                '{"format": "repro-counterexample/v2", "verdict": {"ok": false}}'
            ),
        }
        for index, arg in enumerate(argv):
            if arg in files:
                path = tmp_path / f"input-{index}.json"
                path.write_text(files[arg])
                argv = argv[:index] + [str(path)] + argv[index + 1 :]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{argv[0]}: "), captured.err
        assert not lines[0].startswith(f'{argv[0]}: "'), "KeyError repr leaked"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--max-events", "50"], "sweep: event budget of 50 exhausted; "),
            (["--max-events", "50", "--vector"], "sweep: event budget of 50 exhausted; "),
            (["--seeds", "0"], "sweep: a sweep needs at least one seed, got 0"),
            (
                ["--vector", "--oracle-samples", "-1"],
                "sweep: oracle_samples must be >= 0",
            ),
        ],
    )
    def test_sweep_names_the_bad_size(self, argv, line, capsys):
        assert main(["sweep", *argv]) == 2
        assert capsys.readouterr().err.startswith(line)

    def test_an_exit_code_that_means_something_else_survives(self, tmp_path, capsys):
        """Replay mismatch is 1, not 2: only the print-and-return-2
        handlers were folded into ``main``."""
        import json

        from repro.net.chaos import FaultPlan, build_run_record

        shard = {"digests": {"1:out": "tampered"}, "counters": {"1:out": 4}}
        record = build_run_record(
            FaultPlan.generate(3, 3, 1), {0: shard}, t=1, serializer="binary",
            events=[], summary={},
        )
        path = tmp_path / "run.json"
        path.write_text(json.dumps(record))
        assert main(["chaos-replay", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out
