"""SWMR atomicity checker.

Implements the single-writer atomicity definition of Section 3.1 of the
paper.  With ``wr_k`` the k-th write and ``val_k`` its value
(``val_0 = ⊥``), a partial run satisfies atomicity iff:

1. if a read returns ``x`` then there is ``k`` such that ``val_k = x``;
2. if a complete read ``rd`` succeeds some write ``wr_k`` (k ≥ 1), then
   ``rd`` returns ``val_l`` with ``l ≥ k``;
3. if a read ``rd`` returns ``val_k`` (k ≥ 1), then ``wr_k`` either
   precedes ``rd`` or is concurrent with ``rd``;
4. if some read ``rd1`` returns ``val_k`` (k ≥ 0) and a read ``rd2``
   that succeeds ``rd1`` returns ``val_l``, then ``l ≥ k``.

Because a value may be written more than once, the checker decides
whether *some* assignment of reads to write indices satisfies all four
conditions simultaneously.  Reads are processed in response order and
greedily assigned the smallest feasible index; the minimal choice only
relaxes the monotonicity constraint (condition 4) for later reads, so the
greedy assignment exists iff any assignment exists.

When the write timeline is monotone (every write invoked and responding
no earlier than its predecessor — always true for histories recorded
through the :class:`~repro.spec.histories.History` API), conditions 2
and 3 reduce to binary searches over the write invocation/response
times, making the whole check ``O(n log n)``.  Non-monotone hand-built
histories fall back to the original linear scans; verdicts are
identical either way.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import SpecificationError
from repro.spec.histories import BOTTOM, History, Operation, Verdict, write_timeline

PROPERTY = "SWMR atomicity (Section 3.1)"


def check_swmr_atomicity(history: History) -> Verdict:
    """Check the four conditions; returns a :class:`Verdict`.

    The history must be single-writer (that is the regime of the
    definition); multi-writer histories should use
    :func:`repro.spec.linearizability.check_linearizable`.
    """
    if not history.single_writer():
        raise SpecificationError(
            "SWMR atomicity is defined for single-writer histories; "
            "use the general linearizability checker for multi-writer runs"
        )
    violation = swmr_violation(history.writes_in_order(), history.reads)
    if violation is None:  # not ``violation or ...``: a failing Verdict is falsy
        return Verdict(ok=True, property_name=PROPERTY)
    return violation


def swmr_violation(
    writes: List[Operation], reads: Iterable[Operation]
) -> Optional[Verdict]:
    """The greedy assignment itself: the failing verdict, or ``None``.

    ``writes`` is the write order ``wr_1, wr_2, ...``; incomplete
    ``reads`` are ignored.  Shared with the single-writer fast path of
    :func:`repro.spec.linearizability.check_linearizable`, which only
    needs to know whether an assignment exists.
    """
    values = [BOTTOM] + [op.value for op in writes]

    # Map value -> all indices k with val_k == value (k = 0 included).
    indices_of: Dict[Any, List[int]] = {}
    for k, value in enumerate(values):
        indices_of.setdefault(value, []).append(k)

    # Fast condition-2/3 bounds need the write timeline monotone in both
    # invocation and response time; the History API guarantees this
    # (one pending operation per process), hand-built histories may not.
    write_invocations, write_responses, monotone = write_timeline(writes)

    complete_reads = sorted(
        (op for op in reads if op.complete),
        key=lambda op: (op.responded_at, op.op_id),
    )

    # Prefix maxima of assigned indices, keyed by response time, so the
    # condition-4 lower bound of a read is the max assigned index among
    # reads that responded before its invocation.
    response_times: List[float] = []
    prefix_max_index: List[int] = []

    def condition4_lower_bound(rd: Operation) -> int:
        pos = bisect.bisect_left(response_times, rd.invoked_at)
        if pos == 0:
            return 0
        return prefix_max_index[pos - 1]

    for rd in complete_reads:
        feasible = indices_of.get(rd.result)
        if not feasible:
            return Verdict(
                ok=False,
                property_name=PROPERTY,
                reason=(
                    f"condition 1: read returned {rd.result!r}, which no "
                    "write wrote and is not the initial value"
                ),
                culprits=(rd.op_id,),
            )

        # Condition 2: must not return older than the last preceding write.
        if monotone:
            low = bisect.bisect_left(write_responses, rd.invoked_at)
        else:
            low = 0
            for k in range(len(writes), 0, -1):
                if writes[k - 1].precedes(rd):
                    low = k
                    break

        # Condition 4: monotone over read precedence.
        low = max(low, condition4_lower_bound(rd))

        chosen: Optional[int] = None
        if monotone:
            # Condition 3 becomes an upper bound: wr_k must precede rd
            # or be concurrent with it, i.e. be invoked no later than
            # the read responded.  k = 0 (initial value) is exempt and
            # trivially within the bound.
            high = bisect.bisect_right(write_invocations, rd.responded_at)
            at = bisect.bisect_left(feasible, low)
            if at < len(feasible) and feasible[at] <= high:
                chosen = feasible[at]
        else:
            for k in feasible:
                if k < low:
                    continue
                # Condition 3: wr_k precedes rd or is concurrent with rd,
                # i.e. NOT (rd precedes wr_k).  k = 0 (initial value) is
                # exempt: there is no wr_0.
                if k >= 1 and rd.precedes(writes[k - 1]):
                    continue
                chosen = k
                break

        if chosen is None:
            return _explain_failure(rd, feasible, low, writes)

        response_times.append(rd.responded_at)
        best = chosen if not prefix_max_index else max(prefix_max_index[-1], chosen)
        prefix_max_index.append(best)

    return None


def _explain_failure(
    rd: Operation, feasible: List[int], low: int, writes: List[Operation]
) -> Verdict:
    """Build a verdict naming the first violated condition."""
    # Distinguish why no index works: every feasible index is either
    # below the lower bound (conditions 2/4) or from the future
    # (condition 3).
    below = [k for k in feasible if k < low]
    future = [
        k for k in feasible if k >= 1 and rd.precedes(writes[k - 1])
    ]
    if below and len(below) == len(feasible):
        reason = (
            f"conditions 2/4: read returned {rd.result!r} "
            f"(write index candidates {feasible}) but must return index >= {low} "
            "because of a preceding write or a preceding read"
        )
    elif future and len(future) == len(feasible):
        reason = (
            f"condition 3: read returned {rd.result!r} but every write of that "
            "value was invoked only after the read responded"
        )
    else:
        reason = (
            f"no write index for result {rd.result!r} satisfies conditions 2-4 "
            f"simultaneously (candidates {feasible}, lower bound {low})"
        )
    return Verdict(ok=False, property_name=PROPERTY, reason=reason, culprits=(rd.op_id,))


def check_termination(history: History, expect_complete: List[int]) -> Verdict:
    """Check that the given operations (by id) completed.

    Termination in the paper is wait-freedom of every correct client;
    tests pass the ids of operations whose clients stayed correct and
    which the run allowed to finish.
    """
    missing = [op_id for op_id in expect_complete if not history.get(op_id).complete]
    if missing:
        return Verdict(
            ok=False,
            property_name="termination",
            reason="operations never completed",
            culprits=tuple(missing),
        )
    return Verdict(ok=True, property_name="termination")
