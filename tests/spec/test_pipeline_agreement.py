"""Property tests: the fast pipeline agrees with the seed checkers.

Random histories — including duplicate write values, incomplete writes,
⊥ reads, never-written results, zero-duration operations and heavy
invocation-time ties — are judged by both the new bitmask/segmented/
fast-path checkers and the retained seed replicas in
``tests/spec/_seed_checkers.py``.  Verdicts must be **fully identical**
(ok flag, property name, reason text and culprits), not merely agree on
the boolean.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.ids import reader, writer
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.histories import BOTTOM, History, READ, WRITE, quiescent_segments
from repro.spec.linearizability import check_linearizable, find_linearization
from repro.spec.regularity import check_swmr_regularity

from tests.spec._seed_checkers import (
    seed_check_linearizable,
    seed_check_swmr_atomicity,
    seed_check_swmr_regularity,
)
from tests.spec.test_linearizability_oracle import oracle_linearizable


@st.composite
def register_histories(draw, max_writers: int = 2, max_ops: int = 8) -> History:
    """Random register histories exercising every checker corner.

    Times are drawn from a coarse half-unit grid so invocation/response
    ties and quiescent cuts are common; write values repeat (from a pool
    of three); operations may be incomplete; read results include the
    written values, ``⊥`` and a never-written sentinel.
    """
    n_writers = draw(st.integers(min_value=1, max_value=max_writers))
    writers_pool = [writer(i) for i in range(1, n_writers + 1)]
    readers_pool = [reader(1), reader(2)]
    n_ops = draw(st.integers(min_value=1, max_value=max_ops))

    history = History()
    next_free = {}
    blocked = set()
    written_values = [1, 2, 3]
    read_results = [BOTTOM, 1, 2, 3, 999]
    for _ in range(n_ops):
        is_write = draw(st.booleans())
        pool = [
            proc
            for proc in (writers_pool if is_write else readers_pool)
            if proc not in blocked
        ]
        if not pool:
            continue
        proc = draw(st.sampled_from(pool))
        start = next_free.get(proc, 0.0) + draw(
            st.integers(min_value=0, max_value=6)
        ) / 2.0
        duration = draw(st.integers(min_value=0, max_value=6)) / 2.0
        incomplete = draw(st.integers(min_value=0, max_value=4)) == 0
        if is_write:
            value = draw(st.sampled_from(written_values))
            history.invoke(proc, WRITE, value=value, at=start)
            if not incomplete:
                history.respond(proc, "ok", at=start + duration)
        else:
            history.invoke(proc, READ, at=start)
            if not incomplete:
                result = draw(st.sampled_from(read_results))
                history.respond(proc, result, at=start + duration)
        if incomplete:
            blocked.add(proc)
        else:
            next_free[proc] = start + duration
    return history


@given(history=register_histories(max_writers=2))
@settings(max_examples=300, deadline=None)
def test_linearizability_verdicts_identical(history):
    new = check_linearizable(history)
    old = seed_check_linearizable(history)
    assert new == old, (
        f"pipeline disagrees with seed checker on:\n{history.describe()}\n"
        f"new: {new.describe()}\nseed: {old.describe()}"
    )


@given(history=register_histories(max_writers=1))
@settings(max_examples=300, deadline=None)
def test_swmr_fast_path_verdicts_identical(history):
    """Single-writer histories take the interval fast path — verdicts of
    both the general checker and the Section 3.1 checker must still be
    byte-identical to the seed originals."""
    assert check_linearizable(history) == seed_check_linearizable(history), (
        history.describe()
    )
    assert check_swmr_atomicity(history) == seed_check_swmr_atomicity(history), (
        history.describe()
    )


@given(history=register_histories(max_writers=1))
@settings(max_examples=200, deadline=None)
def test_regularity_verdicts_identical(history):
    assert check_swmr_regularity(history) == seed_check_swmr_regularity(
        history
    ), history.describe()


@given(history=register_histories(max_writers=2, max_ops=10))
@settings(max_examples=200, deadline=None)
def test_witness_is_a_valid_linearization(history):
    """Any witness the segmented search returns replays correctly."""
    order = find_linearization(history)
    verdict = check_linearizable(history)
    if order is None:
        assert not verdict.ok
        return
    assert verdict.ok
    ops = {op.op_id: op for op in history.operations}
    complete_ids = {op.op_id for op in history.operations if op.complete}
    # includes every complete operation, drops only pending ones
    assert complete_ids <= set(order)
    # respects real-time precedence
    position = {op_id: index for index, op_id in enumerate(order)}
    chosen = [ops[op_id] for op_id in order]
    for a in chosen:
        for b in chosen:
            if a.precedes(b):
                assert position[a.op_id] < position[b.op_id]
    # replays register semantics
    value = BOTTOM
    for op_id in order:
        op = ops[op_id]
        if op.is_write:
            value = op.value
        else:
            assert op.result == value


def test_malformed_response_before_invocation_matches_seed():
    """Regression: an operation whose recorded response precedes its own
    invocation must not be treated as preceding itself (the sort-based
    sweep once ORed the op's own bit into its predecessor mask, making
    it unlinearizable forever).  Only direct construction can produce
    such a record — ``History.from_operations`` rejects it — but the
    checker must still agree with the seed search on it."""
    from repro.sim.ids import writer as w
    from repro.spec.histories import Operation, WRITE as WRITE_KIND

    history = History()
    backwards = Operation(
        op_id=1, proc=w(1), kind=WRITE_KIND, invoked_at=3.0,
        value="a", result="ok", responded_at=1.0,
    )
    normal = Operation(
        op_id=2, proc=w(2), kind=WRITE_KIND, invoked_at=0.0,
        value="b", result="ok", responded_at=5.0,
    )
    history.operations.extend([backwards, normal])
    new = check_linearizable(history)
    old = seed_check_linearizable(history)
    assert new == old
    assert new.ok


def test_malformed_blocker_from_further_up_does_not_close_the_window():
    """The search stops scanning at the first operation blocked by an
    unlinearized predecessor — sound when that predecessor sits lower in
    the segment.  A record that responded before its own invocation can
    "precede" an operation sorted before it; it holds back that one
    operation, not the rest of the segment (itself included)."""
    from repro.spec.histories import Operation, WRITE as WRITE_KIND

    def write(op_id, proc, invoked_at, responded_at):
        return Operation(
            op_id=op_id, proc=proc, kind=WRITE_KIND, invoked_at=invoked_at,
            value=op_id, result="ok", responded_at=responded_at,
        )

    history = History()
    history.operations.extend([
        write(1, writer(1), 0.0, 10.0),
        write(2, writer(2), 2.0, 9.0),   # "preceded" by op 3 below
        write(3, writer(3), 3.0, 1.0),   # backwards: responded before op 2 began
    ])
    new = check_linearizable(history)
    assert new == seed_check_linearizable(history)
    assert new.ok
    assert find_linearization(history) == [1, 3, 2]


@given(history=register_histories(max_writers=2, max_ops=10))
@settings(max_examples=200, deadline=None)
def test_segments_partition_and_order_the_pool(history):
    """Quiescent segmentation is a partition into real-time-ordered runs."""
    pool = sorted(
        (
            op
            for op in history.operations
            if op.complete or op.is_write
        ),
        key=lambda op: (op.invoked_at, op.op_id),
    )
    segments = quiescent_segments(pool)
    flattened = [op for segment in segments for op in segment]
    assert flattened == pool
    for earlier, later in zip(segments, segments[1:]):
        for a in earlier:
            for b in later:
                assert a.precedes(b), (
                    f"cut violated: {a.describe()} !< {b.describe()}"
                )


# ----------------------------------------------------------------------
# the windowed, matching-reads-first search against both references


@given(history=register_histories(max_writers=3, max_ops=12))
@settings(max_examples=300, deadline=None)
def test_three_writer_search_matches_seed_and_its_witness_replays(history):
    """Duplicate values, ⊥ reads and pending writes, three writers: the
    verdict is the seed search's and every witness is a linearization."""
    assert check_linearizable(history) == seed_check_linearizable(history), (
        history.describe()
    )
    test_witness_is_a_valid_linearization.hypothesis.inner_test(history)


@given(history=register_histories(max_writers=3, max_ops=7))
@settings(max_examples=200, deadline=None)
def test_three_writer_search_matches_permutation_oracle(history):
    """The textbook definition, verbatim — affordable up to 7 operations
    (7! orders per subset of pending writes)."""
    expected = oracle_linearizable(history)
    assert check_linearizable(history).ok == expected, history.describe()
    assert (find_linearization(history) is not None) == expected
