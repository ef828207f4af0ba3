"""The indistinguishability chain of Sections 5 and 6.2, executed.

:mod:`repro.bounds.construction` executes only the *final* run
``pr^C``.  The proof, however, rests on a chain of pairwise
indistinguishability claims:

* ``pr_i  ~r_i  ◊pr_i`` — reader ``r_i`` receives byte-identical acks in
  the run where block ``T_i``'s steps happened and ``B_i`` then *lost
  its memory* (a :class:`~repro.faults.byzantine.MemoryWipeServer`
  forgets the write before ``r_i`` reads), and the run where those steps
  were deleted and ``B_i`` simply never received anything
  (``i = 1..R``);
* ``pr^A ~r_1 pr^B`` — ``r_1`` cannot tell the run with the partial
  ``write(1)``, where the two-faced ``B_{R+1}`` answers it from its
  blank shadow face, from the run with no write at all;
* ``pr^C ~r_1 pr^D`` — likewise after ``r_1``'s second read.

This module *executes both sides of every claim* as independent runs of
the actual protocol (instantiated beyond its threshold) and compares the
distinguished reader's delivered acknowledgements message-by-message.
The result is a machine-checked transcript of the proof's skeleton:
each indistinguishability holds (ack sequences equal, hence equal
return values), the anchored run returns 1, and the chain transports
that 1 to ``◊pr_R`` while ``pr^B``/``pr^D`` pin ``r_1`` to ``⊥`` — which
is exactly why ``pr^C`` violates atomicity.

Crash is the ``b = 0`` case: the ``B`` blocks are empty, so nothing is
wiped and nobody is two-faced, and the runs are of Figure 2 instead of
the signed Figure 5.  Signatures are never forged anywhere in the chain:
the adversary only destroys or withholds information, which is
precisely why Proposition 10 holds *despite* unforgeable signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

from repro.bounds.construction import BlockRun, run_tail
from repro.registers import messages as msg
from repro.sim.ids import ProcessId
from repro.sim.messages import Envelope
from repro.spec.histories import Operation

#: Fingerprint of one delivered ack: everything the reader's automaton
#: can observe, minus run-local identifiers (op ids differ between runs
#: with and without the write operation).
AckFingerprint = Tuple[str, Any, Any, Any, Tuple[str, ...], int]


def _fingerprint(src: ProcessId, ack: msg.FastReadAck) -> AckFingerprint:
    return (
        str(src),
        ack.tag.ts,
        ack.tag.value,
        ack.tag.prev_value,
        tuple(sorted(str(p) for p in ack.seen)),
        ack.r_counter,
    )


@dataclass
class ReadView:
    """What one read operation observed: acks in delivery order."""

    reader_name: str
    acks: List[AckFingerprint]
    result: Any


@dataclass
class ClaimCheck:
    """One executed indistinguishability claim."""

    name: str
    left_view: ReadView
    right_view: ReadView

    @property
    def views_identical(self) -> bool:
        return self.left_view.acks == self.right_view.acks

    @property
    def results_equal(self) -> bool:
        return self.left_view.result == self.right_view.result

    @property
    def holds(self) -> bool:
        return self.views_identical and self.results_equal

    def describe(self) -> str:
        status = "holds" if self.holds else "FAILS"
        return (
            f"{self.name}: {status} "
            f"(acks {'==' if self.views_identical else '!='}, "
            f"returns {self.left_view.result!r} / {self.right_view.result!r})"
        )


@dataclass
class ChainReport:
    """All claims of the chain for one parameter set (``b = 0``: the
    Section 5 chain; otherwise Section 6.2's)."""

    S: int
    t: int
    R: int
    b: int = 0
    claims: List[ClaimCheck] = field(default_factory=list)
    anchored_value: Any = None  # r_1's return in pr_1 (forced by atomicity)
    final_values: Tuple[Any, Any] = (None, None)  # (r_R in ◊pr_R, r1 2nd in pr^C)

    @property
    def all_hold(self) -> bool:
        return all(claim.holds for claim in self.claims)

    def describe(self) -> str:
        section, b = ("5", "") if self.b == 0 else ("6.2", f"b={self.b}, ")
        lines = [
            f"Section {section} indistinguishability chain at S={self.S}, "
            f"t={self.t}, {b}R={self.R}:"
        ]
        lines.extend("  " + claim.describe() for claim in self.claims)
        lines.append(f"  anchored: r1 returns {self.anchored_value!r} in pr_1")
        lines.append(
            f"  transported: r{self.R} returns {self.final_values[0]!r} in ◊pr_R, "
            f"then r1's second read returns {self.final_values[1]!r} in pr^C"
        )
        return "\n".join(lines)


def _view(op: Operation, heard: Sequence[Envelope]) -> ReadView:
    acks = [
        _fingerprint(env.src, env.payload)
        for env in heard
        if isinstance(env.payload, msg.FastReadAck)
    ]
    return ReadView(reader_name=str(op.proc), acks=acks, result=op.result)


def _protocol(b: int) -> str:
    return "fast-crash" if b == 0 else "fast-byzantine"


def _ri_view(run: BlockRun, i: int) -> ReadView:
    """``r_i`` reads skipping ``T_i`` and completes — the closing step
    ``pr_i`` and ``◊pr_i`` share."""
    others = run.numbered[: i - 1] + run.numbered[i:]
    op = run.read(i, others + [run.pivot, run.tail] + run.b_numbered + [run.b_pivot])
    return _view(
        op, run.replies(op, [run.pivot, run.b_pivot, run.tail] + others + run.b_numbered)
    )


def _pr_run(S: int, t: int, b: int, R: int, i: int) -> ReadView:
    """Execute ``pr_i`` and return ``r_i``'s view.

    ``pr_i`` extends ``◊pr_{i-1}``: the write reached ``T_i.. ∪ B_i..``
    (completing only for ``i = 1``, where it reached every block but
    ``T_{R+2}`` and the writer got its acks); reads ``r_1..r_{i-1}``
    skip ``{T_j | h <= j <= i-1}`` with only ``r_{i-1}`` completed;
    ``B_i`` then loses its memory, and ``r_i`` reads.
    """
    run = BlockRun(S, t, b, R, _protocol(b), wiped=i)
    run.write(
        run.numbered[i - 1 :] + [run.pivot] + run.b_numbered[i - 1 :] + [run.b_pivot],
        complete=(i == 1),
    )
    for h in range(1, i):
        op = run.read(
            h,
            run.numbered[: h - 1]
            + run.numbered[i - 1 :]
            + [run.pivot, run.tail]
            + run.b_numbered[:h]
            + run.b_numbered[i - 1 :]
            + [run.b_pivot],
        )
        if h == i - 1:
            # r_{i-1} completed in ◊pr_{i-1}; which replies it got is
            # irrelevant to r_i, which never hears r_{i-1}.
            run.replies(op, [run.pivot, run.b_pivot, run.tail])
    run.wipe()  # B_i forgets everything, including the write
    return _ri_view(run, i)


def _diamond_run(S: int, t: int, b: int, R: int, i: int) -> ReadView:
    """Execute ``◊pr_i`` and return ``r_i``'s view.

    The write reached only ``T_{i+1}.. ∪ B_{i+1}..``; reads
    ``r_1..r_{i-1}`` skip ``{T_j | h <= j <= i}`` and stay incomplete;
    ``B_i`` is honest and blank; ``r_i`` reads.
    """
    run = BlockRun(S, t, b, R, _protocol(b))
    run.write(run.numbered[i:] + [run.pivot] + run.b_numbered[i:] + [run.b_pivot])
    for h in range(1, i):
        run.read(
            h,
            run.numbered[: h - 1]
            + run.numbered[i:]
            + [run.pivot, run.tail]
            + run.b_numbered[:h]
            + run.b_numbered[i:]
            + [run.b_pivot],
        )
    return _ri_view(run, i)


def _verify_chain(S: int, t: int, b: int, R: int) -> ChainReport:
    report = ChainReport(S=S, t=t, R=R, b=b)
    for i in range(1, R + 1):
        left = _pr_run(S, t, b, R, i)
        right = _diamond_run(S, t, b, R, i)
        report.claims.append(
            ClaimCheck(name=f"pr_{i} ~r{i} ◊pr_{i}", left_view=left, right_view=right)
        )
        if i == 1:
            report.anchored_value = left.result

    written, blank = (
        run_tail(S, t, b, R, _protocol(b), with_write=flag) for flag in (True, False)
    )
    report.claims.append(
        ClaimCheck(
            name="pr^A ~r1 pr^B",
            left_view=_view(written.first_read, written.first_heard),
            right_view=_view(blank.first_read, blank.first_heard),
        )
    )
    report.claims.append(
        ClaimCheck(
            name="pr^C ~r1 pr^D",
            left_view=_view(written.second_read, written.second_heard),
            right_view=_view(blank.second_read, blank.second_heard),
        )
    )
    report.final_values = (written.last_read.result, written.second_read.result)
    return report


def verify_crash_chain(S: int, t: int, R: int) -> ChainReport:
    """Execute every indistinguishability claim of the Section 5 proof.

    Requires the impossible regime (``(R+2)t >= S``), like the
    construction itself.
    """
    return _verify_chain(S, t, 0, R)


def verify_byzantine_chain(S: int, t: int, b: int, R: int) -> ChainReport:
    """Execute every indistinguishability claim of the Section 6.2 proof.

    Requires the impossible regime (``(R+2)t + (R+1)b >= S``), like the
    construction itself.
    """
    return _verify_chain(S, t, b, R)
