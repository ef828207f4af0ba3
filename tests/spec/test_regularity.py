"""Tests for the regularity checker and inversion counter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpecificationError
from repro.sim.ids import reader, writer
from repro.spec.histories import BOTTOM, READ, WRITE, History, Operation
from repro.spec.regularity import check_swmr_regularity, count_new_old_inversions

from tests.conftest import build_history

W = writer(1)
R1, R2 = reader(1), reader(2)


def check(ops):
    return check_swmr_regularity(build_history(ops))


class TestRegularity:
    def test_last_preceding_write_allowed(self):
        assert check([("w", W, 0, 1, "a"), ("r", R1, 2, 3, "a")]).ok

    def test_initial_value_allowed_before_writes(self):
        assert check([("r", R1, 0, 1, BOTTOM)]).ok

    def test_stale_value_rejected(self):
        assert not check(
            [
                ("w", W, 0, 1, "a"),
                ("w", W, 2, 3, "b"),
                ("r", R1, 4, 5, "a"),
            ]
        ).ok

    def test_concurrent_write_value_allowed(self):
        assert check(
            [
                ("w", W, 0, 1, "a"),
                ("w", W, 2, 10, "b"),
                ("r", R1, 3, 4, "b"),
            ]
        ).ok
        assert check(
            [
                ("w", W, 0, 1, "a"),
                ("w", W, 2, 10, "b"),
                ("r", R1, 3, 4, "a"),
            ]
        ).ok

    def test_bottom_rejected_after_completed_write(self):
        assert not check([("w", W, 0, 1, "a"), ("r", R1, 2, 3, BOTTOM)]).ok

    def test_new_old_inversion_is_regular(self):
        """The distinguishing case: regular allows what atomic forbids."""
        ops = [
            ("w", W, 0, 10, "b"),
            ("w", W, -2, -1, "a"),  # completed earlier write
            ("r", R1, 1, 2, "b"),
            ("r", R2, 3, 4, "a"),
        ]
        history = build_history(ops)
        assert check_swmr_regularity(history).ok
        from repro.spec.atomicity import check_swmr_atomicity

        assert not check_swmr_atomicity(history).ok

    def test_unwritten_value_rejected(self):
        assert not check([("w", W, 0, 10, "a"), ("r", R1, 1, 2, "ghost")]).ok

    def test_incomplete_reads_ignored(self):
        assert check([("w", W, 0, 1, "a"), ("r", R1, 2, None, None)]).ok

    def test_multi_writer_rejected(self):
        history = build_history(
            [("w", writer(1), 0, 1, "a"), ("w", writer(2), 2, 3, "b")]
        )
        with pytest.raises(SpecificationError):
            check_swmr_regularity(history)


class TestInversionCounting:
    def test_no_inversions(self):
        count, pairs = count_new_old_inversions(
            build_history(
                [
                    ("w", W, 0, 1, 1),
                    ("r", R1, 2, 3, 1),
                    ("r", R2, 4, 5, 1),
                ]
            )
        )
        assert count == 0
        assert pairs == []

    def test_counts_inversion_pair(self):
        history = build_history(
            [
                ("w", W, 0, 1, 1),
                ("w", W, 2, 20, 2),
                ("r", R1, 3, 4, 2),
                ("r", R2, 5, 6, 1),
            ]
        )
        count, pairs = count_new_old_inversions(history)
        assert count == 1
        rd1 = history.operations[2].op_id
        rd2 = history.operations[3].op_id
        assert pairs == [(rd1, rd2)]

    def test_concurrent_reads_not_counted(self):
        history = build_history(
            [
                ("w", W, 0, 1, 1),
                ("w", W, 2, 20, 2),
                ("r", R1, 3, 10, 2),
                ("r", R2, 4, 11, 1),
            ]
        )
        count, _ = count_new_old_inversions(history)
        assert count == 0

    def test_bottom_counts_as_index_zero(self):
        history = build_history(
            [
                ("w", W, 0, 20, 1),
                ("r", R1, 1, 2, 1),
                ("r", R2, 3, 4, BOTTOM),
            ]
        )
        count, _ = count_new_old_inversions(history)
        assert count == 1


# ----------------------------------------------------------------------
# the sweep returns what the pairwise loop returned


def pairwise_inversions(history):
    """The quadratic loop ``count_new_old_inversions`` used to be."""
    index_of_value = {}
    for k, wr in enumerate(history.writes_in_order(), start=1):
        index_of_value.setdefault(wr.value, k)
    index_of_value[BOTTOM] = 0
    reads = sorted(
        (rd for rd in history.reads if rd.complete),
        key=lambda op: (op.responded_at, op.op_id),
    )
    pairs = []
    for i, rd1 in enumerate(reads):
        k1 = index_of_value.get(rd1.result)
        for rd2 in reads[i + 1:] if k1 is not None else ():
            k2 = index_of_value.get(rd2.result)
            if rd1.precedes(rd2) and k2 is not None and k2 < k1:
                pairs.append((rd1.op_id, rd2.op_id))
    return pairs


@st.composite
def inverting_histories(draw):
    """One writer, three readers, reads that return whatever they like.

    Times sit on a half-unit grid so equal response times and
    zero-length reads are common; results range over every written
    value (one of them written twice), ``⊥`` and a never-written one,
    so real inversions, concurrent reads and unknown results all occur.
    """
    written = draw(st.lists(st.sampled_from([1, 2, 3, 4, 2]), max_size=5))
    timeline = [(W, WRITE, value, "ok") for value in written]
    results = st.sampled_from([BOTTOM, 1, 2, 3, 4, "ghost"])
    for proc in (R1, R2, reader(3)):
        reads = draw(st.lists(results, max_size=5))
        timeline += [(proc, READ, None, result) for result in reads]
    ops = []
    clock = {}
    for proc, kind, value, result in timeline:
        start = clock.get(proc, 0.0) + draw(st.integers(0, 4)) / 2.0
        clock[proc] = start + draw(st.integers(0, 6)) / 2.0
        ops.append(Operation(
            op_id=len(ops) + 1, proc=proc, kind=kind, invoked_at=start,
            value=value, result=result, responded_at=clock[proc],
        ))
    for proc in draw(st.sets(st.sampled_from([R1, R2]))):
        ops.append(Operation(  # a read that never returns
            op_id=len(ops) + 1, proc=proc, kind=READ,
            invoked_at=clock.get(proc, 0.0) + 1.0,
        ))
    return History.from_operations(ops)


@given(history=inverting_histories())
@settings(max_examples=300, deadline=None)
def test_sweep_returns_the_pairwise_loops_pairs_in_its_order(history):
    count, pairs = count_new_old_inversions(history)
    assert pairs == pairwise_inversions(history), history.describe()
    assert count == len(pairs)


def test_sweep_sees_inversions_in_generated_histories():
    """The differential above is not vacuous: inversions do get drawn."""
    history = build_history(
        [
            ("w", W, 0, 1, 1),
            ("w", W, 2, 30, 2),
            ("r", R1, 3, 4, 2),
            ("r", R2, 3, 4, 2),       # equal response times
            ("r", reader(3), 5, 6, 1),  # inverts against both
            ("r", R1, 5, 9, "ghost"),   # unknown result: never counted
            ("r", R2, 7, 8, BOTTOM),   # inverts against all three
        ]
    )
    count, pairs = count_new_old_inversions(history)
    assert pairs == pairwise_inversions(history)
    assert count == 5
