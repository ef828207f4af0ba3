"""Executable lower bound: Sections 5 and 6.2 (Figures 1, 3, 4, 6).

Proposition 10: for ``t ≥ 1``, ``R ≥ 2`` and ``(R+2)t + (R+1)b ≥ S``
there is no fast atomic SWMR register, even with signatures;
Proposition 5 is that statement at ``b = 0``.  The proof builds a chain
of partial runs and shows the final one, ``pr^C``, violates atomicity.
The intermediate runs and the indistinguishability arguments are proof
devices (:mod:`repro.bounds.indistinguishability` executes them);
``pr^C`` itself is a *bona fide* run, and this module executes it, step
by step, against a real protocol instance run beyond its threshold.
The servers split into blocks ``T_1..T_{R+2}`` (size ≤ t) and
``B_1..B_{R+1}`` (size ≤ b):

1. ``write(1)`` reaches only ``T_{R+1}`` and ``B_{R+1}`` — an incomplete
   write.  The servers of ``B_{R+1}`` are *two-faced*: having received
   the write, they keep answering everyone honestly **except** ``r_1``,
   whom they answer as if the write never happened ("loses its memory"
   towards ``r_1``).  No signature is forged: the liars merely withhold
   a tag.
2. ``◊pr_R``'s reads: for ``h = 1..R``, reader ``r_h`` invokes a read
   reaching ``T_1..T_{h-1}``, ``B_1..B_h``, ``T_{R+1}``, ``B_{R+1}`` and
   ``T_{R+2}`` (it *skips* ``T_h..T_R``).  Only ``r_R``'s read — which
   skips just ``T_R`` — receives its replies and completes.  Because
   every reader has by then been recorded in the ``seen`` sets of
   ``T_{R+1} ∪ B_{R+1}``, the predicate fires with ``a = R + 1`` and
   ``r_R`` returns 1.
3. ``pr^A``: ``r_1``'s held replies are delivered, the blocks
   ``T_1..T_R`` belatedly receive ``r_1``'s read message and reply;
   ``r_1`` completes having heard from every block except ``T_{R+1}``
   — ``B_{R+1}``'s shadow face tells it the register is untouched — and
   returns ``⊥``.
4. ``pr^C``: ``r_1`` reads again, skipping ``T_{R+1}``, and returns
   ``⊥`` — *after* ``r_R``'s read returned 1.  Condition 4 of atomicity
   is violated; the independent checker certifies it.

Crash is the ``b = 0`` case, not a second construction: the ``B`` blocks
are empty, nobody is two-faced, the ``T`` blocks carry Section 5's names
``B_1..B_{R+2}`` and the run is against the caller's protocol (by
default Figure 2's own algorithm).  It then uses only behaviours the
crash model allows: messages merely stay in transit longer for some
destinations, and nobody misbehaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from repro.bounds.blocks import Block, members_of, partition_byzantine, partition_crash
from repro.errors import InfeasibleConstructionError
from repro.faults.byzantine import MemoryWipeServer, TwoFacedServer
from repro.registers.base import ClusterConfig
from repro.registers.registry import get_protocol
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, writer
from repro.sim.messages import Envelope
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.histories import History, Operation, Verdict


@dataclass
class ConstructionResult:
    """Everything a test, bench or example needs from one construction run."""

    config: ClusterConfig
    protocol: str
    blocks: List[Block]
    history: History
    verdict: Verdict
    read_results: Dict[str, Any]
    reached: Dict[int, List[str]] = field(default_factory=dict)
    narrative: List[str] = field(default_factory=list)

    @property
    def violated(self) -> bool:
        """True when the constructed run violates atomicity, as the
        lower bound predicts for parameters beyond the threshold."""
        return not self.verdict.ok

    def describe(self) -> str:
        lines = [
            f"Lower-bound construction on S={self.config.S}, t={self.config.t}, "
            f"b={self.config.b}, R={self.config.R} against protocol {self.protocol!r}",
            "blocks: " + "  ".join(block.describe() for block in self.blocks),
            "",
        ]
        lines.extend(self.narrative)
        lines.append("")
        lines.append(self.verdict.describe())
        return "\n".join(lines)


class BlockRun:
    """One scripted execution over the block partition.

    ``wiped`` names a ``B`` block whose servers lose their memory when
    :meth:`wipe` is called; ``two_faced`` makes ``B_{R+1}`` hide every
    write from ``r_1``.  At ``b = 0`` both blocks are empty, so neither
    has any effect.
    """

    def __init__(
        self,
        S: int,
        t: int,
        b: int,
        R: int,
        protocol: str,
        wiped: Optional[int] = None,
        two_faced: bool = False,
    ) -> None:
        t_blocks, b_blocks = partition_byzantine(S, t, b, R)  # raises if infeasible
        self.blocks = [*t_blocks, *b_blocks]
        if b == 0:
            self.blocks = t_blocks = partition_crash(S, t, R)  # Section 5's names
        self.numbered = t_blocks[:R]
        self.pivot = t_blocks[R]          # T_{R+1}
        self.tail = t_blocks[R + 1]       # T_{R+2}
        self.b_numbered = b_blocks[:R]
        self.b_pivot = b_blocks[R]        # B_{R+1}
        config = self.config = ClusterConfig(S=S, t=t, R=R, W=1, b=b)
        # A fixed seed so signatures are identical across paired runs.
        cluster = get_protocol(protocol).build(config, enforce=False, seed=1729)

        def impersonate(block: Block, wrapper: type, **kwargs: Any) -> list:
            # The liars number |block| <= b, within the model's allowance.
            impostors = [
                wrapper(pid, partial(cluster.honest_server, pid.index), **kwargs)
                for pid in block.members
            ]
            for impostor in impostors:
                cluster.replace_server(impostor.pid.index, impostor)
            return impostors

        self._wipeable = (
            impersonate(self.b_numbered[wiped - 1], MemoryWipeServer) if wiped else []
        )
        if two_faced:
            impersonate(self.b_pivot, TwoFacedServer, victims={reader(1)})
        self.execution = ScriptedExecution()
        cluster.install(self.execution)
        #: op id -> names of the non-empty blocks its requests reached
        self.reached: Dict[int, List[str]] = {}

    def wipe(self) -> None:
        for impostor in self._wipeable:
            impostor.wipe()

    def deliver(self, op: Operation, blocks: Sequence[Block]) -> None:
        self.reached.setdefault(op.op_id, []).extend(
            block.name for block in blocks if len(block)
        )
        self.execution.deliver_requests(op, to=members_of(blocks))

    def write(self, blocks: Sequence[Block], complete: bool = False) -> Operation:
        op = self.execution.invoke(writer(), "write", 1)
        self.deliver(op, blocks)
        if complete:
            self.execution.deliver_replies(op, from_=members_of(blocks))
        return op

    def read(self, index: int, blocks: Sequence[Block]) -> Operation:
        op = self.execution.invoke(reader(index), "read")
        self.deliver(op, blocks)
        return op

    def replies(self, op: Operation, blocks: Sequence[Block]) -> List[Envelope]:
        return self.execution.deliver_replies(op, from_=members_of(blocks))


@dataclass
class TailRun:
    """``pr^A`` then ``pr^C`` executed (or their write-free twins
    ``pr^B`` / ``pr^D``): the operations, and what ``r_1`` heard."""

    run: BlockRun
    last_read: Operation             # r_R's, the only one of ◊pr_R's to complete
    first_read: Operation            # r_1's, completed in pr^A
    second_read: Operation           # r_1's, in pr^C
    first_heard: List[Envelope]
    second_heard: List[Envelope]


def run_tail(
    S: int, t: int, b: int, R: int, protocol: str, with_write: bool = True
) -> TailRun:
    """Steps 1-4 of the module docstring (step 1 only ``with_write``)."""
    run = BlockRun(S, t, b, R, protocol, two_faced=with_write)
    if with_write:
        run.write([run.pivot, run.b_pivot])
    recipients = [run.pivot, run.b_pivot, run.tail]
    reads = [
        run.read(h, run.numbered[: h - 1] + run.b_numbered[:h] + recipients)
        for h in range(1, R + 1)
    ]
    # Only r_R's read completes: replies from the write's recipients
    # first (so the maxTS evidence is among the S-t acks it acts upon).
    last = reads[-1]
    run.replies(last, recipients + run.numbered[: R - 1] + run.b_numbered)
    # pr^A: r_1's held replies (B_{R+1}'s from its shadow face), then
    # the blocks its read message reaches only now.
    first = reads[0]
    first_heard = run.replies(first, [run.tail, run.b_numbered[0], run.b_pivot])
    late = run.numbered + run.b_numbered[1:]
    run.deliver(first, late)
    first_heard += run.replies(first, late)
    # pr^C: r_1 reads again, skipping T_{R+1}.
    everyone_else = run.numbered + [run.tail] + run.b_numbered + [run.b_pivot]
    second = run.read(1, everyone_else)
    second_heard = run.replies(second, everyone_else)
    return TailRun(run, last, first, second, first_heard, second_heard)


#: The narrative's wording, Section 5's and Section 6.2's.
_CRASH_STORY = {
    "write": "write(1) invoked; its message reaches only {pivot} "
    "({size} server(s)); the write never completes",
    "read": "r{h} invokes a read; message held for blocks {held}",
    "pr_a": "pr^A: r1's read completes from every block except {pivot} "
    "and returns {first!r}",
    "pr_c": "pr^C: r1 reads again (skipping {pivot}) and returns {second!r} "
    "— after r{R}'s read returned {last!r}",
}
_BYZANTINE_STORY = {
    "write": "write(1) reaches only {pivot} and {b_pivot}; "
    "two-faced servers: {liars} (they hide the write from r1)",
    "read": "r{h} invokes a read; it skips T{h}..T{R} (messages held)",
    "pr_a": "pr^A: r1 completes from all blocks except {pivot} "
    "({b_pivot} lied) and returns {first!r}",
    "pr_c": "pr^C: r1's second read (skipping {pivot}) returns {second!r} "
    "after r{R} read {last!r}",
}


def _run_lower_bound(S: int, t: int, b: int, R: int, protocol: str) -> ConstructionResult:
    """Execute ``pr^C`` and collect the evidence."""
    tail = run_tail(S, t, b, R, protocol)
    run = tail.run
    for op, where in (
        (tail.last_read, f"r{R}'s read did not complete with S - t valid replies; "
         f"protocol {protocol!r} is not fast"),
        (tail.first_read, "r1's read did not complete from S - t replies in pr^A"),
        (tail.second_read, "r1's second read did not complete in pr^C"),
    ):
        if not op.complete:
            raise InfeasibleConstructionError(where)

    story = _CRASH_STORY if b == 0 else _BYZANTINE_STORY
    words = dict(
        R=R,
        pivot=run.pivot.name,
        size=len(run.pivot),
        b_pivot=run.b_pivot.name,
        liars=", ".join(str(p) for p in run.b_pivot.members) or "none",
        last=tail.last_read.result,
        first=tail.first_read.result,
        second=tail.second_read.result,
    )
    narrative = [story["write"].format(**words)]
    for h in range(1, R + 1):
        held = ", ".join(block.name for block in run.numbered[h - 1 :])
        narrative.append(story["read"].format(h=h, held=held, **words))
    narrative.append(
        f"r{R}'s read completes (skipping {run.numbered[-1].name}) "
        f"and returns {tail.last_read.result!r}"
    )
    narrative.append(story["pr_a"].format(**words))
    narrative.append(story["pr_c"].format(**words))

    history = run.execution.history
    return ConstructionResult(
        config=run.config,
        protocol=protocol,
        blocks=run.blocks,
        history=history,
        verdict=check_swmr_atomicity(history),
        read_results={
            f"r{R} read #1": tail.last_read.result,
            "r1 read #1": tail.first_read.result,
            "r1 read #2": tail.second_read.result,
        },
        reached=run.reached,
        narrative=narrative,
    )


def run_crash_lower_bound(
    S: int,
    t: int,
    R: int,
    protocol: str = "fast-crash",
) -> ConstructionResult:
    """Execute Section 5's ``pr^C`` against a protocol instance.

    Raises :class:`InfeasibleConstructionError` when the parameters sit
    inside the feasible region (the required block partition does not
    exist there, mirroring why the proof cannot be carried out).
    """
    return _run_lower_bound(S, t, 0, R, protocol)


def run_byzantine_lower_bound(S: int, t: int, b: int, R: int) -> ConstructionResult:
    """Execute the Section 6.2 ``pr^C`` against the Figure 5 protocol,
    instantiated beyond its threshold with ``B_{R+1}`` two-faced."""
    return _run_lower_bound(S, t, b, R, "fast-byzantine")
