"""General linearizability checker for read/write registers.

A Wing & Gong style search specialised to a single register: find a total
order of operations that (a) respects real-time precedence, (b) has every
read return the latest written value (``⊥`` initially), and (c) includes
every complete operation, while incomplete operations may be included or
dropped.

This checker is protocol- and writer-count-agnostic; it cross-validates
the specialised SWMR checker in property tests and judges the MWMR
histories of Section 7.  The search is exponential in the worst case
(linearizability checking is NP-hard in general), but four layers keep
real histories fast:

* **single-writer fast path** — when the history has one writer whose
  writes are totally ordered in real time, reads only need interval
  containment against the write order; the greedy ``O(n log n)``
  assignment of :func:`repro.spec.atomicity.swmr_violation` (the
  Section 3.1 conditions) exists iff the history is linearizable, and
  decides with no search at all.  The general search is the fallback
  when the preconditions fail.
* **quiescent segmentation** — the pool is split at instants where no
  operation is pending (:func:`repro.spec.histories.quiescent_segments`);
  each segment is searched independently with the register value
  threaded across the cut, turning one exponential search over a long
  history into a product of small ones.
* **bitmask states over a window** — within a segment, the linearized
  set is an integer bitmask over the segment's (pre-sorted) operations
  and the real-time precedence constraints are precomputed masks built
  by an ``O(n log n)`` sort-based sweep.  A state scans only the
  operations in flight (:func:`_moves`): ``O(clients)``, however long
  the segment.
* **matching reads first** — a candidate read that returns the current
  register value is the state's only move; branching is left to writes.

``max_states`` bounds the search; exceeding it raises
:class:`~repro.errors.SearchBudgetExceeded` rather than returning a
wrong verdict.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.errors import SearchBudgetExceeded
from repro.spec.atomicity import swmr_violation
from repro.spec.histories import (
    BOTTOM,
    History,
    Operation,
    Verdict,
    quiescent_segments,
)

PROPERTY = "linearizability (read/write register)"


def _build_pool(history: History) -> Tuple[List[Operation], Set[int]]:
    """Candidate operations, sorted, plus the ids that must linearize.

    Incomplete reads never constrain linearizability: they may always be
    dropped from the completed history.  Incomplete writes may need to
    take effect, so they stay in the candidate pool.
    """
    ops = list(history.operations)
    complete_ops = [op for op in ops if op.complete]
    pending_writes = [op for op in ops if not op.complete and op.is_write]
    pool = complete_ops + pending_writes
    pool.sort(key=lambda op: (op.invoked_at, op.op_id))
    return pool, {op.op_id for op in complete_ops}


def _preceder_masks(segment: Sequence[Operation]) -> List[int]:
    """``masks[j]`` = bitmask of segment ops that real-time-precede op j.

    Built by a sort-based sweep instead of the O(n²) pairwise loop: walk
    the segment in invocation order (the segment's own order) while
    consuming responses sorted by time; every response strictly before
    the current invocation joins the running mask.
    """
    responses = sorted(
        (op.responded_at, i)
        for i, op in enumerate(segment)
        if op.complete
    )
    masks = [0] * len(segment)
    running = 0
    consumed = 0
    for j, op in enumerate(segment):
        invoked = op.invoked_at
        while consumed < len(responses) and responses[consumed][0] < invoked:
            running |= 1 << responses[consumed][1]
            consumed += 1
        # An operation never precedes itself, even in malformed records
        # whose response time lies before their invocation time.
        masks[j] = running & ~(1 << j)
    return masks


class _Budget:
    """Shared state-visit budget across all segments of one check."""

    __slots__ = ("limit", "visited")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.visited = 0

    def spend(self) -> None:
        self.visited += 1
        if self.visited > self.limit:
            raise SearchBudgetExceeded(
                f"linearizability search exceeded {self.limit} states; "
                "the history is too adversarial for this checker"
            )


def _moves(
    segment: Sequence[Operation], masks: Sequence[int], free: int, value: Any
) -> List[int]:
    """Indices worth linearizing next, highest first (``pop()`` order).

    ``free`` is the bitmask of the segment's unlinearized operations.
    The scan walks its set bits upwards and stops at the first operation
    held back by an unlinearized predecessor ``p``: the segment is sorted
    by invocation and ``masks`` uses strict ``<``, so ``p`` responded
    before every later invocation too and nothing beyond is a candidate.
    What the scan does visit is pairwise concurrent — at most one
    operation per client.

    A candidate read ``r`` that returns the current ``value`` is the only
    move.  In any completion that succeeds from here, move ``r`` to the
    front: its predecessors are all linearized already, so no real-time
    edge breaks; it sees ``value`` there, and a read changes nothing for
    the rest.  (Nothing in that depends on which values repeat, which
    writes are pending or where the segment ends.)  Without such a read
    the moves are the candidate writes.
    """
    writes: List[int] = []
    rest = free
    while rest:
        low = rest & -rest
        j = low.bit_length() - 1
        blocked = masks[j] & free
        if blocked:
            # A blocker from further up the segment (blocked > low) is a
            # record that responded before its own invocation: it holds
            # back j, not what follows.
            if blocked < low:
                break
        elif segment[j].is_write:
            writes.append(j)
        elif segment[j].result == value:  # pool reads are all complete
            return [j]
        rest ^= low
    writes.reverse()
    return writes


def _search_segmented(
    pool: Sequence[Operation], max_states: int
) -> Optional[List[int]]:
    """Find a linearization of the pool, or ``None``.

    Iterative depth-first backtracking over ``(segment, mask, value)``
    states.  Crossing into segment ``k+1`` requires segment ``k`` fully
    linearized (all its operations are complete, by construction of the
    cuts); within the final segment, success requires only the complete
    operations — trailing pending writes may stay dropped.
    """
    segments = quiescent_segments(pool)
    if not segments:
        return []
    seg_masks = [_preceder_masks(seg) for seg in segments]
    seg_must = [
        sum(1 << i for i, op in enumerate(seg) if op.complete)
        for seg in segments
    ]
    seg_full = [(1 << len(seg)) - 1 for seg in segments]
    last = len(segments) - 1
    budget = _Budget(max_states)
    seen: Set[Tuple[int, int, Any]] = set()
    witness: List[int] = []
    # Each frame is one state, its moves still to try (``None`` until the
    # state is first expanded) and whether entering the state appended an
    # op to the witness.
    frames: List[List[Any]] = []

    def enter(seg_idx: int, mask: int, value: Any, appended: bool) -> int:
        """Push a state; returns 1 on overall success, 0 pushed, -1 dead."""
        # Advance through segments completed by this move.  All ops in a
        # non-final segment are complete, so "must satisfied" there means
        # "fully linearized" and the search may cross the cut.
        while seg_idx <= last and mask & seg_must[seg_idx] == seg_must[seg_idx]:
            if seg_idx == last:
                return 1
            seg_idx += 1
            mask = 0
        state = (seg_idx, mask, value)
        if state in seen:
            return -1
        seen.add(state)
        budget.spend()
        frames.append([seg_idx, mask, value, None, appended])
        return 0

    if enter(0, 0, BOTTOM, appended=False) == 1:  # else pushed: root is fresh
        return []
    while frames:
        frame = frames[-1]
        seg_idx, mask, value, moves, appended = frame
        segment = segments[seg_idx]
        if moves is None:
            moves = frame[3] = _moves(
                segment, seg_masks[seg_idx], seg_full[seg_idx] & ~mask, value
            )
        while moves:
            j = moves.pop()
            op = segment[j]
            witness.append(op.op_id)
            outcome = enter(
                seg_idx, mask | 1 << j, op.value if op.is_write else value, True
            )
            if outcome == 1:
                return witness
            if outcome == 0:
                break
            witness.pop()  # dead state: undo and try the next move
        else:
            frames.pop()
            if appended:
                witness.pop()
    return None


# ----------------------------------------------------------------------
# single-writer fast path


def _swmr_write_order(pool: Sequence[Operation]) -> Optional[List[Operation]]:
    """The totally ordered write sequence, or ``None`` if preconditions fail.

    Requirements: at most one writing process, every write but the last
    complete, and each write responding strictly before the next is
    invoked (so real time orders them unambiguously).  Histories built
    through the :class:`History` API satisfy this whenever they are
    single-writer; hand-crafted or deserialized ones may not, in which
    case the general search decides instead.
    """
    writes = [op for op in pool if op.is_write]
    if len({op.proc for op in writes}) > 1:
        return None
    for earlier, later in zip(writes, writes[1:]):
        if not earlier.complete or earlier.responded_at >= later.invoked_at:
            return None
    return writes


# ----------------------------------------------------------------------
# public API


def _failure_verdict(must_linearize: Set[int]) -> Verdict:
    return Verdict(
        ok=False,
        property_name=PROPERTY,
        reason=(
            "no linearization exists: every real-time-respecting total order "
            "makes some read return a value other than the latest write"
        ),
        culprits=tuple(sorted(must_linearize)),
    )


def check_linearizable(
    history: History, max_states: int = 2_000_000
) -> Verdict:
    """Decide linearizability of a register history.

    Args:
        history: the recorded run.
        max_states: exploration budget; exceeding it raises rather than
            returning a wrong verdict.
    """
    pool, must_linearize = _build_pool(history)
    writes = _swmr_write_order(pool)
    if writes is not None:
        ok = swmr_violation(writes, (op for op in pool if op.is_read)) is None
    else:
        ok = _search_segmented(pool, max_states) is not None
    if ok:
        return Verdict(ok=True, property_name=PROPERTY)
    return _failure_verdict(must_linearize)


def find_linearization(history: History) -> Optional[List[int]]:
    """Return a witness linearization (operation ids) or ``None``.

    Same search as :func:`check_linearizable`, but exposes the order for
    examples and debugging (and therefore always runs the general
    segmented search — the fast path decides without building an order).
    """
    pool, _ = _build_pool(history)
    return _search_segmented(pool, max_states=2_000_000)


def check_mwmr_p1_p2(history: History) -> Verdict:
    """The two derived MWMR properties used by Proposition 11.

    * **P1** — if a write ``wr`` of ``v`` precedes a read ``rd`` and all
      other writes precede ``wr``, then ``rd`` (if it returns) returns
      ``v``.
    * **P2** — if all writes precede two reads, the reads do not return
      different values.

    These are weaker than linearizability, which is exactly why the
    impossibility argument only needs them; checking them directly gives
    much clearer failure messages for the Section 7 construction.
    """
    writes = history.writes
    reads = [op for op in history.reads if op.complete]

    # P1: find a write preceded by all other writes.
    for wr in writes:
        if not wr.complete:
            continue
        others = [other for other in writes if other is not wr]
        if not all(other.precedes(wr) for other in others):
            continue
        for rd in reads:
            if wr.precedes(rd) and rd.result != wr.value:
                return Verdict(
                    ok=False,
                    property_name="MWMR property P1",
                    reason=(
                        f"last write wrote {wr.value!r} before the read, "
                        f"but the read returned {rd.result!r}"
                    ),
                    culprits=(wr.op_id, rd.op_id),
                )

    # P2: reads that every write precedes must agree.
    after_all = [
        rd
        for rd in reads
        if all(wr.precedes(rd) for wr in writes if wr.complete)
        and all(not wr.concurrent_with(rd) for wr in writes)
    ]
    results = {rd.result for rd in after_all}
    if len(results) > 1:
        culprits = tuple(rd.op_id for rd in after_all)
        return Verdict(
            ok=False,
            property_name="MWMR property P2",
            reason=f"reads after all writes returned different values {results}",
            culprits=culprits,
        )
    return Verdict(ok=True, property_name="MWMR properties P1+P2")
