"""History serialization round-trips and the ``repro check`` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.errors import SpecificationError
from repro.sim.ids import reader, writer
from repro.spec.histories import BOTTOM, History, Operation, parse_pid
from repro.spec.linearizability import check_linearizable

from tests.conftest import build_history

W1, R1, R2 = writer(1), reader(1), reader(2)


class TestParsePid:
    @pytest.mark.parametrize(
        "text, expected",
        [("w1", writer(1)), ("r2", reader(2)), ("s11", None)],
    )
    def test_round_trip(self, text, expected):
        pid = parse_pid(text)
        assert str(pid) == text
        if expected is not None:
            assert pid == expected

    @pytest.mark.parametrize("bad", ["", "x1", "r0", "w", "reader1"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(SpecificationError):
            parse_pid(bad)


class TestHistoryRoundTrip:
    def _history(self):
        return build_history(
            [
                ("w", W1, 0, 1, "a"),
                ("r", R1, 2, 3, "a"),
                ("w", W1, 4, None, "b"),
                ("r", R2, 5, 6, "b"),
                ("r", R1, 7, None, None),
            ]
        )

    def test_json_round_trip_preserves_operations(self):
        history = self._history()
        reloaded = History.from_json(history.to_json())
        assert [op.to_dict() for op in reloaded.operations] == [
            op.to_dict() for op in history.operations
        ]

    def test_round_trip_preserves_verdicts(self):
        history = self._history()
        reloaded = History.from_json(history.to_json())
        assert check_linearizable(reloaded) == check_linearizable(history)

    def test_round_trip_preserves_pending_bookkeeping(self):
        reloaded = History.from_json(self._history().to_json())
        assert reloaded.pending_of(W1) is not None
        assert reloaded.pending_of(R1) is not None
        assert reloaded.pending_of(R2) is None
        # fresh invocations continue past the loaded ids
        op = reloaded.invoke(R2, "read", at=8.0)
        assert op.op_id > max(o.op_id for o in reloaded.operations[:-1])

    def test_multi_writer_history_is_judged_after_a_round_trip(self):
        # Multi-writer workloads write (writer, step) tuples; JSON hands
        # them back as lists, which the linearizability search cannot
        # hash — from_dict must restore the tuples.
        from repro import ClusterConfig, run_workload
        from repro.spec.online import check_history
        from repro.workloads import ClosedLoopWorkload

        history = run_workload(
            "mwmr",
            ClusterConfig(S=5, t=1, R=2, W=3),
            ClosedLoopWorkload(reads_per_reader=4, writes_per_writer=3),
            seed=11,
        ).history
        assert {op.proc for op in history if op.kind == "write"} == {
            writer(1), writer(2), writer(3)
        }
        assert any(isinstance(op.value, tuple) for op in history)
        reloaded = History.from_json(history.to_json())
        assert [(op.value, op.result) for op in reloaded] == [
            (op.value, op.result) for op in history
        ]
        assert check_history(reloaded) == check_history(history)
        assert check_history(reloaded)["ok"]

    def test_bottom_survives_json(self):
        history = build_history([("r", R1, 0, 1, BOTTOM)])
        reloaded = History.from_json(history.to_json())
        assert reloaded.operations[0].result == BOTTOM

    def test_unknown_format_rejected(self):
        with pytest.raises(SpecificationError):
            History.from_dict({"format": "elsewhere/v9", "operations": []})

    def test_duplicate_ids_rejected(self):
        op = Operation(op_id=1, proc=R1, kind="read", invoked_at=0.0)
        with pytest.raises(SpecificationError):
            History.from_operations([op, op])

    def test_two_pending_per_process_rejected(self):
        ops = [
            Operation(op_id=1, proc=R1, kind="read", invoked_at=0.0),
            Operation(op_id=2, proc=R1, kind="read", invoked_at=1.0),
        ]
        with pytest.raises(SpecificationError):
            History.from_operations(ops)

    def test_response_before_invocation_rejected(self):
        op = Operation(
            op_id=1, proc=R1, kind="read", invoked_at=2.0,
            result=BOTTOM, responded_at=1.0,
        )
        with pytest.raises(SpecificationError):
            History.from_operations([op])

    @pytest.mark.parametrize(
        "field, text",
        [
            ("invoked_at", "NaN"), ("invoked_at", "Infinity"),
            ("invoked_at", "-Infinity"),
            ("responded_at", "NaN"), ("responded_at", "-Infinity"),
        ],
    )
    def test_non_finite_times_rejected(self, field, text):
        # NaN compares false with everything: such a history used to
        # load, sort arbitrarily and be judged OK.  JSON carries the
        # value either bare (json.dumps writes NaN) or as a string.
        record = Operation(
            op_id=7, proc=R1, kind="read", invoked_at=1.0,
            result=BOTTOM, responded_at=2.0,
        ).to_dict()
        for spelled in (text, f'"{text}"'):
            payload = json.dumps({"operations": [dict(record, **{field: 0})]})
            payload = payload.replace(f'"{field}": 0', f'"{field}": {spelled}')
            with pytest.raises(SpecificationError, match="operation 7"):
                History.from_json(payload)

    def test_a_response_that_never_comes_may_be_infinitely_late(self):
        op = Operation(
            op_id=1, proc=R1, kind="read", invoked_at=0.0,
            result=BOTTOM, responded_at=float("inf"),
        )
        assert History.from_operations([op]).operations == [op]

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            "history",
            {"operations": {"op_id": 1}},
            {"operations": [[1, 2]]},
            {"operations": [{"op_id": 1, "kind": "read", "invoked_at": 0}]},
            {"operations": [
                {"op_id": "x", "proc": "r1", "kind": "read", "invoked_at": 0}
            ]},
            {"operations": [
                {"op_id": 1, "proc": 7, "kind": "read", "invoked_at": 0}
            ]},
            {"operations": [
                {"op_id": 1, "proc": ["r1"], "kind": "read", "invoked_at": 0}
            ]},
            {"operations": [
                {"op_id": 1, "proc": "r1", "kind": "read", "invoked_at": None}
            ]},
            {"operations": [{
                "op_id": 1, "proc": "r1", "kind": "read", "invoked_at": 0,
                "responded_at": 1, "result": {"a": 1},
            }]},
            {"operations": [{
                "op_id": 1, "proc": "w1", "kind": "write", "invoked_at": 0,
                "value": [1, {"a": 1}],
            }]},
        ],
    )
    def test_misshapen_payloads_are_specification_errors(self, payload):
        with pytest.raises(SpecificationError):
            History.from_dict(payload)

    def test_pid_memo_is_per_call(self):
        # Equal pids, and nothing kept between calls for a hostile file
        # to grow.
        text = self._history().to_json()
        first, second = History.from_json(text), History.from_json(text)
        assert [op.proc for op in first] == [op.proc for op in second]
        assert first.operations[1].proc is first.operations[4].proc
        assert first.operations[1].proc is not second.operations[1].proc


class TestCheckCommand:
    def _write(self, tmp_path, history):
        path = tmp_path / "history.json"
        path.write_text(history.to_json(), encoding="utf-8")
        return str(path)

    def test_ok_history_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(
            tmp_path,
            build_history([("w", W1, 0, 1, "a"), ("r", R1, 2, 3, "a")]),
        )
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "SWMR atomicity" in out
        assert "linearizability" in out
        assert "SWMR regularity" in out
        assert "OK" in out

    def test_violating_history_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(
            tmp_path,
            build_history([("w", W1, 0, 1, "a"), ("r", R1, 2, 3, BOTTOM)]),
        )
        assert main(["check", path]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_multi_writer_history_checks_p1_p2(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sim.ids import writer as w

        path = self._write(
            tmp_path,
            build_history(
                [
                    ("w", w(1), 0, 1, 1),
                    ("w", w(2), 2, 3, 2),
                    ("r", R1, 4, 5, 2),
                ]
            ),
        )
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "multi-writer" in out
        assert "P1" in out

    def test_demo_dump_round_trips_through_check(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "demo.json")
        assert main(["demo", "--seed", "4", "--dump-history", path]) == 0
        capsys.readouterr()
        assert main(["check", path]) == 0
        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["format"] == "repro-history/v1"
        assert payload["operations"]

    @pytest.mark.parametrize(
        "name, text",
        [
            ("not-json", "{nope"),
            ("not-an-object", "[1, 2]"),
            ("no-proc", '{"operations": [{"op_id": 1, "kind": "read", '
                        '"invoked_at": 0}]}'),
            ("dict-result", '{"operations": [{"op_id": 1, "proc": "r1", '
                            '"kind": "read", "invoked_at": 0, '
                            '"responded_at": 1, "result": {"a": 1}}]}'),
            ("missing-file", None),
            ("not-utf8", "\udcff"),
            ("too-deep", "[" * 200_000),
            ("over-budget", "history"),
            ("nan-time", '{"operations": [{"op_id": 1, "proc": "r1", '
                         '"kind": "read", "invoked_at": "NaN", '
                         '"responded_at": 1, "result": "⊥"}]}'),
        ],
    )
    def test_unjudgeable_input_is_one_line_and_exit_two(
        self, name, text, tmp_path, capsys, monkeypatch
    ):
        """Exit 1 means *violation*; a file that cannot be judged is 2."""
        from repro.cli import main
        from repro.spec import linearizability

        path = tmp_path / f"{name}.json"
        if name == "over-budget":
            # Two writers, so the verdict needs the search; its budget is
            # cut to two states.
            text = build_history(
                [
                    ("w", W1, 0, 3, "a"), ("w", writer(2), 0, 3, "b"),
                    ("r", R1, 1, 2, "a"), ("r", R2, 4, 5, "b"),
                ]
            ).to_json()

            class TwoStates(linearizability._Budget):
                def __init__(self, limit):
                    super().__init__(2)

            monkeypatch.setattr(linearizability, "_Budget", TwoStates)
        if text is not None:
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("check: "), captured.err
