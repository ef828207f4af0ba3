"""SWMR regularity checker (Section 8's weaker register).

A *regular* register [Lamport 1986] guarantees that a read returns either
the value of the last write that precedes it or the value of some write
concurrent with it — but, unlike an atomic register, two reads may
observe new-then-old values ("new/old inversion").

The module also counts new/old inversions, which is how experiment E6
quantifies the consistency price Section 8 describes when choosing the
fast regular register over the fast atomic one.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Set, Tuple

from repro.errors import SpecificationError
from repro.spec.histories import BOTTOM, History, Operation, Verdict, write_timeline

PROPERTY = "SWMR regularity"


def _allowed_results(rd: Operation, writes: List[Operation]) -> Set:
    """Values a regular read may return: last preceding write's value
    (or ⊥ when none), plus the value of every concurrent write."""
    allowed = set()
    last_preceding = None
    for k, wr in enumerate(writes):
        if wr.precedes(rd):
            last_preceding = k
    if last_preceding is None:
        allowed.add(BOTTOM)
    else:
        allowed.add(writes[last_preceding].value)
    for wr in writes:
        if wr.concurrent_with(rd):
            allowed.add(wr.value)
    return allowed


def check_swmr_regularity(history: History) -> Verdict:
    """Every complete read returns an allowed value.

    With a monotone write timeline (the History-API guarantee) the
    allowed set is an interval of the write order — the last preceding
    write plus the contiguous run of concurrent ones — so membership is
    two binary searches per read instead of a scan over all writes.
    """
    if not history.single_writer():
        raise SpecificationError("regularity checker expects a single writer")
    writes = history.writes_in_order()
    write_invocations, write_responses, monotone = write_timeline(writes)
    # 0-based write index lists per value, for O(log n) interval probes.
    indices_of: Dict[Any, List[int]] = {}
    for k, op in enumerate(writes):
        indices_of.setdefault(op.value, []).append(k)

    def allowed_fast(rd: Operation) -> bool:
        last_preceding = bisect.bisect_left(write_responses, rd.invoked_at)
        if last_preceding == 0:
            if rd.result == BOTTOM:
                return True
        elif rd.result == writes[last_preceding - 1].value:
            return True
        # Concurrent writes are exactly indices [last_preceding, high).
        high = bisect.bisect_right(write_invocations, rd.responded_at)
        candidates = indices_of.get(rd.result)
        if not candidates:
            return False
        at = bisect.bisect_left(candidates, last_preceding)
        return at < len(candidates) and candidates[at] < high

    for rd in history.reads:
        if not rd.complete:
            continue
        if monotone and allowed_fast(rd):
            continue
        allowed = _allowed_results(rd, writes)
        if rd.result not in allowed:
            return Verdict(
                ok=False,
                property_name=PROPERTY,
                reason=(
                    f"read returned {rd.result!r}; regular semantics allow only "
                    f"{sorted(map(repr, allowed))}"
                ),
                culprits=(rd.op_id,),
            )
    return Verdict(ok=True, property_name=PROPERTY)


def count_new_old_inversions(history: History) -> Tuple[int, List[Tuple[int, int]]]:
    """Count pairs of reads where the later read returned an older write.

    Returns the count and the offending ``(rd1.op_id, rd2.op_id)`` pairs.
    Only meaningful for histories whose written values identify the write
    (e.g. monotonically numbered payloads); with duplicated values the
    oldest matching index is used, which under-counts, never over-counts.
    """
    if not history.single_writer():
        raise SpecificationError("inversion counting expects a single writer")
    writes = history.writes_in_order()
    index_of_value = {}
    for k, wr in enumerate(writes, start=1):
        index_of_value.setdefault(wr.value, k)
    index_of_value[BOTTOM] = 0

    # Complete reads of known values, in response order, with their
    # write indices alongside.
    reads = sorted(
        (rd for rd in history.reads if rd.complete and rd.result in index_of_value),
        key=lambda op: (op.responded_at, op.op_id),
    )
    indices = [index_of_value[rd.result] for rd in reads]
    # Sweep the reads by invocation while consuming responses: ``newest``
    # is the highest index returned by any read that precedes the current
    # one, so only a read below it is in an inversion at all, and only
    # such a read scans the responses before it for its pairs — O(n log n)
    # for a history without inversions, where asking ``precedes`` of
    # every pair was O(n²) to report none.
    pairs: List[Tuple[int, int]] = []  # positions in ``reads``
    consumed = 0
    newest = 0
    for later in sorted(range(len(reads)), key=lambda i: reads[i].invoked_at):
        invoked = reads[later].invoked_at
        while consumed < len(reads) and reads[consumed].responded_at < invoked:
            newest = max(newest, indices[consumed])
            consumed += 1
        k2 = indices[later]
        if k2 < newest:
            pairs.extend(
                (earlier, later)
                for earlier in range(min(consumed, later))
                if indices[earlier] > k2
            )
    pairs.sort()
    inversions = [(reads[i].op_id, reads[j].op_id) for i, j in pairs]
    return len(inversions), inversions
