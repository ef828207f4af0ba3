"""Ablations of the fast-register family's design choices.

Every load-bearing step of Figures 2 and 5 is one named guard of the
automata in :mod:`repro.registers.fast_crash` /
:mod:`repro.registers.fast_byzantine`; an ablation is a subclass that
overrides exactly one of them, and the ablated protocol is derived, not
assembled: ``spec.swap(cls)`` puts the class in the role it subclasses.
:data:`FLAWS` is the single table of them — which protocol's ``SPEC``,
which class, what it removes, whether it is expected to survive inside
the feasible region, and the scripted witness (if a short one exists)
that breaks it while the faithful protocol survives the *same*
schedule.  The ``ABLATIONS`` witnesses and
the ``fast-crash@…`` / ``fast-byzantine@…`` targets of
:mod:`repro.explore.targets` are derived from it; the README's guard
table spells out the pseudo-code line behind each row.

Two rows have no scripted witness.  The read counters' necessity
(``no-counter``) is ruled out only by the full case analysis of Lemma 4
(case <5>2): no short schedule exhibits a violation, which the ablation
tests document by fuzzing ``NoCounterServer`` under message reordering.
The two Figure 5 rows fall to the explorer's adversary instead of a
fixed schedule: ``gullible-reader`` to a single ``forge`` lie,
``crash-predicate`` to evidence-starving stale lies after a completed
write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Type

from repro.registers import fast_byzantine, fast_crash, messages as msg
from repro.registers.base import Cluster, ClusterConfig, ProtocolSpec
from repro.registers.fast_byzantine import FastByzantineReader
from repro.registers.fast_crash import (
    FastCrashReader,
    FastCrashServer,
    FastCrashWriter,
)
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import ProcessId, reader, server, servers, writer
from repro.sim.process import Process
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.histories import History, Verdict


class EagerReader(FastCrashReader):
    """Skips the predicate: always returns the maxTS value."""

    def _safe(self, seen_sets) -> bool:
        return True


class TimidReader(FastCrashReader):
    """Skips the predicate the other way: always returns maxTS - 1."""

    def _safe(self, seen_sets) -> bool:
        return False


class NoResetServer(FastCrashServer):
    """Accumulates ``seen`` across timestamp changes (drops line 28)."""

    def _absorb(self, tag, src: ProcessId) -> None:
        if tag.ts > self.tag.ts:
            self.tag = tag
        self.seen.add(src)  # BUG under test: no reset to {src}


class NoCounterServer(FastCrashServer):
    """Ignores the per-client read counters (drops line 26's guard)."""

    def _admit(self, payload, src: ProcessId) -> bool:
        return True


class HastyWriter(FastCrashWriter):
    """Declares a write complete after a single ack instead of S - t."""

    def _write_quorum(self) -> int:
        return 1


class GullibleReader(FastByzantineReader):
    """Drops Figure 5's ``receivevalid`` filter (line 15).

    Only the reply's attribution to the current read survives; the
    signature check, the staleness floor and the seen-membership proof
    are all skipped — so forged tags and stale replays enter the ack
    set as if honest.
    """

    def _ack_valid(self, payload: msg.FastReadAck) -> bool:
        return FastCrashReader._ack_valid(self, payload)


class CrashPredicateReader(FastByzantineReader):
    """Evaluates the Figure 2 predicate, ignoring the ``b`` slack.

    The crash predicate demands ``S - a·t`` messages where the
    Byzantine one asks only ``S - a·t - (a-1)·b``: with ``b`` liars
    suppressing their evidence the gullible direction is safe but this
    one starves — the reader under-decides, returning ``maxTS - 1``
    for reads that must return ``maxTS``.
    """

    def _predicate_b(self) -> int:
        return 0  # BUG under test: no allowance for the b liars


@dataclass
class AblationWitness:
    """Outcome of one ablation schedule, ablated and control."""

    name: str
    ablated_history: History
    ablated_verdict: Verdict
    control_history: History
    control_verdict: Verdict
    narrative: List[str] = field(default_factory=list)

    @property
    def demonstrates_necessity(self) -> bool:
        """The component matters: removing it breaks the run that the
        faithful protocol survives."""
        return (not self.ablated_verdict.ok) and self.control_verdict.ok

    def describe(self) -> str:
        lines = [f"ablation: {self.name}"]
        lines.extend(self.narrative)
        lines.append(f"ablated : {self.ablated_verdict.describe()}")
        lines.append(f"control : {self.control_verdict.describe()}")
        return "\n".join(lines)


def _witness(
    flaw: str,
    config: ClusterConfig,
    schedule: Callable[[ScriptedExecution], None],
    narrative: Sequence[str],
) -> AblationWitness:
    """Run one schedule against the flawed cluster and, as the control,
    against the faithful protocol it was derived from."""
    row = FLAWS[flaw]
    histories = []
    for cluster in (row.build(config), row.base.build(config, enforce=False)):
        execution = ScriptedExecution()
        cluster.install(execution)
        schedule(execution)
        histories.append(execution.history)
    ablated, control = histories
    return AblationWitness(
        name=row.removes,
        ablated_history=ablated,
        ablated_verdict=check_swmr_atomicity(ablated),
        control_history=control,
        control_verdict=check_swmr_atomicity(control),
        narrative=list(narrative),
    )


def demonstrate_eager_reader() -> AblationWitness:
    """Without the predicate, an incomplete write seen at one server is
    returned and then lost — the introduction's two-reader scenario."""

    def schedule(execution: ScriptedExecution) -> None:
        write_op = execution.invoke(writer(1), "write", 1)
        execution.deliver_requests(write_op, to=[server(1)])  # incomplete
        read1 = execution.invoke(reader(1), "read")
        via1 = servers(8)[:7]  # includes s1
        execution.deliver_requests(read1, to=via1)
        execution.deliver_replies(read1, from_=via1)
        read2 = execution.invoke(reader(2), "read")
        via2 = servers(8)[1:]  # misses s1
        execution.deliver_requests(read2, to=via2)
        execution.deliver_replies(read2, from_=via2)

    return _witness(
        "eager-reader",
        ClusterConfig(S=8, t=1, R=3),
        schedule,
        [
            "write(1) reaches only s1; r1 reads {s1..s7}, r2 reads {s2..s8}",
            "eager r1 returns the half-written 1, r2 then returns ⊥",
            "the faithful predicate makes r1 return ⊥ (1 witness < S - t)",
        ],
    )


def demonstrate_timid_reader() -> AblationWitness:
    """Always returning maxTS - 1 breaks read-after-write (Lemma 3)."""

    def schedule(execution: ScriptedExecution) -> None:
        write_op = execution.invoke(writer(1), "write", 1)
        execution.run_to_quiescence()
        assert write_op.complete
        execution.invoke(reader(1), "read")
        execution.run_to_quiescence()

    return _witness(
        "timid-reader",
        ClusterConfig(S=8, t=1, R=3),
        schedule,
        [
            "write(1) completes at all servers; the read still returns ⊥",
            "condition 2 (read-after-write) is violated outright",
        ],
    )


def demonstrate_no_seen_reset() -> AblationWitness:
    """Without line 28's reset, witnesses of timestamp 0 pose as
    witnesses of timestamp 1 and the predicate fires without evidence."""

    def schedule(execution: ScriptedExecution) -> None:
        # Three reads at timestamp 0 leave {r1, r2, r3} in the seen sets
        # of s1 and s2.
        for index in (1, 2, 3):
            read_op = execution.invoke(reader(index), "read")
            via = servers(6)[:5]
            execution.deliver_requests(read_op, to=via)
            execution.deliver_replies(read_op, from_=via)
        # An incomplete write reaches s1 and s2 only.
        write_op = execution.invoke(writer(1), "write", 1)
        execution.deliver_requests(write_op, to=[server(1), server(2)])
        # r1 reads {s1..s5}: two maxTS acks whose polluted seen sets
        # contain 4 processes -> the ablated predicate fires (a = 4).
        read1 = execution.invoke(reader(1), "read")
        via1 = servers(6)[:5]
        execution.deliver_requests(read1, to=via1)
        execution.deliver_replies(read1, from_=via1)
        # r2 reads {s2..s6}: one maxTS ack; predicate fails; returns ⊥.
        read2 = execution.invoke(reader(2), "read")
        via2 = servers(6)[1:]
        execution.deliver_requests(read2, to=via2)
        execution.deliver_replies(read2, from_=via2)

    return _witness(
        "no-seen-reset",
        ClusterConfig(S=6, t=1, R=3),
        schedule,
        [
            "stale witnesses of ts=0 remain in seen when ts=1 arrives",
            "r1's predicate fires with a=4 on two polluted acks, returns 1",
            "r2 misses s1, finds one maxTS ack, returns ⊥: inversion",
        ],
    )


def demonstrate_hasty_writer() -> AblationWitness:
    """A write acknowledged by fewer than S - t servers can complete and
    then be invisible to a read that misses them all."""

    def schedule(execution: ScriptedExecution) -> None:
        write_op = execution.invoke(writer(1), "write", 1)
        execution.deliver_requests(write_op, to=[server(1)])
        execution.deliver_replies(write_op, from_=[server(1)])
        # the hasty writer has completed; the faithful one is pending
        read1 = execution.invoke(reader(1), "read")
        via = servers(8)[1:]  # S - t acks, missing s1
        execution.deliver_requests(read1, to=via)
        execution.deliver_replies(read1, from_=via)

    return _witness(
        "hasty-writer",
        ClusterConfig(S=8, t=1, R=3),
        schedule,
        [
            "the write 'completes' after one ack; the read misses s1",
            "a complete write followed by a read of ⊥: condition 2 violated",
            "(in the control run the write simply never completes: legal)",
        ],
    )


@dataclass(frozen=True)
class Flaw:
    """One row of the flaw table: a protocol with one guard removed.

    ``base`` is the faithful protocol, ``automaton`` the one class that
    replaces its counterpart in the base's declared triple.
    ``expected_ok`` is the prediction *inside* the feasible region.
    """

    name: str
    base: ProtocolSpec
    automaton: Type[Process]
    removes: str
    expected_ok: bool = False
    witness: Optional[Callable[[], AblationWitness]] = None

    @property
    def target(self) -> str:
        return f"{self.base.name}@{self.name}"

    def build(self, config: ClusterConfig) -> Cluster:
        """The base protocol, never enforced, with the flawed class in
        the role of the class it subclasses."""
        return self.base.swap(self.automaton).build(config, enforce=False)


FLAWS: Dict[str, Flaw] = {
    flaw.name: flaw
    for flaw in (
        Flaw(
            "eager-reader", fast_crash.SPEC, EagerReader,
            "predicate removed (always return maxTS)",
            witness=demonstrate_eager_reader,
        ),
        Flaw(
            "timid-reader", fast_crash.SPEC, TimidReader,
            "predicate removed (always return maxTS - 1)",
            witness=demonstrate_timid_reader,
        ),
        Flaw(
            "no-seen-reset", fast_crash.SPEC, NoResetServer,
            "seen-set reset removed (line 28)",
            witness=demonstrate_no_seen_reset,
        ),
        Flaw(
            "no-counter", fast_crash.SPEC, NoCounterServer,
            "read-counter check removed (line 26)",
            expected_ok=True,  # only Lemma 4's case analysis needs it
        ),
        Flaw(
            "hasty-writer", fast_crash.SPEC, HastyWriter,
            "write quorum shrunk below S - t (line 6)",
            witness=demonstrate_hasty_writer,
        ),
        Flaw(
            "gullible-reader", fast_byzantine.SPEC, GullibleReader,
            "ack validation removed (Figure 5 line 15)",
        ),
        Flaw(
            "crash-predicate", fast_byzantine.SPEC, CrashPredicateReader,
            "Byzantine predicate slack removed (Figure 5 line 19)",
        ),
    )
}

#: The scripted witnesses, by flaw name.
ABLATIONS: Dict[str, Callable[[], AblationWitness]] = {
    name: flaw.witness for name, flaw in FLAWS.items() if flaw.witness is not None
}
