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
