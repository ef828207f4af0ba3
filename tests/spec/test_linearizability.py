"""Tests for the general register linearizability checker."""

import pytest

from repro.sim.ids import reader, writer
from repro.spec.histories import BOTTOM
from repro.spec.linearizability import (
    check_linearizable,
    check_mwmr_p1_p2,
    find_linearization,
)

from tests.conftest import build_history

W1, W2 = writer(1), writer(2)
R1, R2 = reader(1), reader(2)


def check(ops):
    return check_linearizable(build_history(ops))


class TestBasic:
    def test_empty_history_linearizable(self):
        assert check([]).ok

    def test_sequential_write_read(self):
        assert check([("w", W1, 0, 1, "a"), ("r", R1, 2, 3, "a")]).ok

    def test_stale_read_rejected(self):
        assert not check([("w", W1, 0, 1, "a"), ("r", R1, 2, 3, BOTTOM)]).ok

    def test_read_of_unwritten_value_rejected(self):
        assert not check([("r", R1, 0, 1, "ghost")]).ok

    def test_initial_value_readable(self):
        assert check([("r", R1, 0, 1, BOTTOM)]).ok


class TestConcurrency:
    def test_concurrent_write_either_order(self):
        assert check(
            [("w", W1, 0, 10, "a"), ("r", R1, 1, 2, "a")]
        ).ok
        assert check(
            [("w", W1, 0, 10, "a"), ("r", R1, 1, 2, BOTTOM)]
        ).ok

    def test_two_writers_concurrent(self):
        # both orders of concurrent writes are allowed
        assert check(
            [
                ("w", W1, 0, 10, "a"),
                ("w", W2, 1, 11, "b"),
                ("r", R1, 12, 13, "a"),
            ]
        ).ok
        assert check(
            [
                ("w", W1, 0, 10, "a"),
                ("w", W2, 1, 11, "b"),
                ("r", R1, 12, 13, "b"),
            ]
        ).ok

    def test_sequential_writers_ordered(self):
        assert not check(
            [
                ("w", W1, 0, 1, "a"),
                ("w", W2, 2, 3, "b"),
                ("r", R1, 4, 5, "a"),
            ]
        ).ok

    def test_read_read_inversion_rejected(self):
        assert not check(
            [
                ("w", W1, 0, None, "a"),
                ("r", R1, 1, 2, "a"),
                ("r", R2, 3, 4, BOTTOM),
            ]
        ).ok


class TestIncompleteOps:
    def test_incomplete_write_may_apply(self):
        assert check(
            [("w", W1, 0, None, "a"), ("r", R1, 1, 2, "a")]
        ).ok

    def test_incomplete_write_may_be_dropped(self):
        assert check(
            [("w", W1, 0, None, "a"), ("r", R1, 1, 2, BOTTOM)]
        ).ok

    def test_incomplete_read_never_blocks(self):
        assert check(
            [
                ("w", W1, 0, 1, "a"),
                ("r", R1, 2, None, None),
                ("r", R2, 3, 4, "a"),
            ]
        ).ok

    def test_budget_overrun_is_a_named_error_not_a_verdict(self):
        from repro.errors import SearchBudgetExceeded, SpecificationError

        history = build_history(
            [
                ("w", W1, 0, 3, "a"), ("w", W2, 0, 3, "b"),
                ("r", R1, 1, 2, "a"), ("r", R2, 4, 5, "b"),
            ]
        )
        assert check_linearizable(history).ok
        with pytest.raises(SearchBudgetExceeded, match="exceeded 2 states"):
            check_linearizable(history, max_states=2)
        assert issubclass(SearchBudgetExceeded, SpecificationError)

    def test_matching_read_is_taken_before_any_write(self):
        # Both writes and the read of ⊥ are candidates at the start; the
        # read goes first (it can go nowhere else) and nothing branches.
        history = build_history(
            [
                ("w", W1, 0, 5, "a"), ("w", W2, 0, 5, "b"),
                ("r", R1, 1, 2, BOTTOM), ("r", R2, 6, 7, "a"),
            ]
        )
        ids = [op.op_id for op in history.operations]
        assert find_linearization(history) == [ids[2], ids[1], ids[0], ids[3]]


class TestWitness:
    def test_find_linearization_returns_order(self):
        history = build_history(
            [("w", W1, 0, 1, "a"), ("r", R1, 2, 3, "a")]
        )
        order = find_linearization(history)
        assert order is not None
        ids = [op.op_id for op in history.operations]
        assert order == ids

    def test_find_linearization_none_when_impossible(self):
        history = build_history(
            [("w", W1, 0, 1, "a"), ("r", R1, 2, 3, BOTTOM)]
        )
        assert find_linearization(history) is None

    def test_witness_respects_real_time(self):
        history = build_history(
            [
                ("w", W1, 0, 1, "a"),
                ("w", W1, 2, 3, "b"),
                ("r", R1, 4, 5, "b"),
            ]
        )
        order = find_linearization(history)
        ops = {op.op_id: op for op in history.operations}
        # write(a) must come before write(b) in any witness
        a_id = history.operations[0].op_id
        b_id = history.operations[1].op_id
        assert order.index(a_id) < order.index(b_id)


class TestAgreementWithSwmrChecker:
    """The general checker and the Section 3.1 checker must agree on
    single-writer histories with unique values."""

    CASES = [
        [("w", W1, 0, 1, "a"), ("r", R1, 2, 3, "a")],
        [("w", W1, 0, 1, "a"), ("r", R1, 2, 3, BOTTOM)],
        [("w", W1, 0, None, "a"), ("r", R1, 1, 2, "a"), ("r", R2, 3, 4, BOTTOM)],
        [("w", W1, 0, None, "a"), ("r", R1, 1, 2, BOTTOM), ("r", R2, 3, 4, "a")],
        [("w", W1, 0, 10, "a"), ("r", R1, 1, 5, "a"), ("r", R2, 2, 6, BOTTOM)],
        [
            ("w", W1, 0, 1, "a"),
            ("w", W1, 2, 3, "b"),
            ("r", R1, 2.5, 4.5, "b"),
            ("r", R2, 5, 6, "b"),
        ],
        [("r", R1, 0, 1, BOTTOM), ("w", W1, 2, 3, "a"), ("r", R1, 4, 5, "a")],
    ]

    @pytest.mark.parametrize("ops", CASES)
    def test_agreement(self, ops):
        from repro.spec.atomicity import check_swmr_atomicity

        history = build_history(ops)
        assert check_swmr_atomicity(history).ok == check_linearizable(history).ok


class TestP1P2:
    def test_p1_violation(self):
        verdict = check_mwmr_p1_p2(
            build_history(
                [
                    ("w", W2, 0, 1, 2),
                    ("w", W1, 2, 3, 1),
                    ("r", R1, 4, 5, 2),  # must return 1
                ]
            )
        )
        assert not verdict.ok
        assert "P1" in verdict.property_name

    def test_p1_satisfied(self):
        assert check_mwmr_p1_p2(
            build_history(
                [
                    ("w", W2, 0, 1, 2),
                    ("w", W1, 2, 3, 1),
                    ("r", R1, 4, 5, 1),
                ]
            )
        ).ok

    def test_p2_violation(self):
        # concurrent writes so P1's premise does not apply; the two
        # sequential reads disagreeing is a pure P2 violation
        verdict = check_mwmr_p1_p2(
            build_history(
                [
                    ("w", W1, 0, 10, 1),
                    ("w", W2, 1, 11, 2),
                    ("r", R1, 12, 13, 2),
                    ("r", R2, 14, 15, 1),
                ]
            )
        )
        assert not verdict.ok
        assert "P2" in verdict.property_name

    def test_p1_not_applicable_with_concurrent_writes(self):
        # writes concurrent: P1's premise fails, so no violation
        assert check_mwmr_p1_p2(
            build_history(
                [
                    ("w", W1, 0, 10, 1),
                    ("w", W2, 1, 11, 2),
                    ("r", R1, 12, 13, 2),
                ]
            )
        ).ok
