"""Ablations of the fast-register family's design choices.

Every load-bearing step of Figures 2 and 5 is one named guard of the
automata in :mod:`repro.registers.fast_crash` /
:mod:`repro.registers.fast_byzantine`.  :data:`FLAWS` is the single
declaration of their ablations: a row names the faithful ``SPEC``, the
role class it modifies, the guard and the stand-in body for it, and the
ablated automaton is derived from that — a one-method subclass that
``spec.swap`` puts in the owner's role.  The ``fast-crash@…`` /
``fast-byzantine@…`` explorer targets come from the table, and
:func:`repro.explore.flaw_witness` turns a row into its witness: a
shrunk counterexample found on the flawed protocol and replayed on the
faithful one as the control.  The README's guard table spells out the
pseudo-code line behind each row.

One row has no witness.  The read counters' necessity (``no-counter``)
is ruled out only by the full case analysis of Lemma 4 (case <5>2): the
hunt stays clean, and the ablation tests document the flaw by fuzzing
the ablated server under message reordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Type

from repro.registers import fast_byzantine, fast_crash
from repro.registers.base import Cluster, ClusterConfig, ProtocolSpec
from repro.registers.fast_byzantine import FastByzantineReader
from repro.registers.fast_crash import FastCrashReader, FastCrashServer, FastCrashWriter
from repro.sim.process import Process


def _absorb_without_reset(self, tag, src) -> None:
    """Lines 27-30 without line 28: ``seen`` outlives a newer tag."""
    if tag.ts > self.tag.ts:
        self.tag = tag
    self.seen.add(src)


@dataclass(frozen=True)
class Flaw:
    """One row of the flaw table: ``base`` with the ``guard`` method of
    its ``owner`` class replaced by ``stand_in``.

    ``expected_ok`` is the prediction *inside* the feasible region, and
    ``config`` with ``reads_per_reader`` is the feasible scenario the
    flaw is hunted in (the Byzantine budget is ``config.b``).
    """

    name: str
    base: ProtocolSpec
    owner: Type[Process]
    guard: str
    stand_in: Callable[..., Any]
    config: ClusterConfig
    reads_per_reader: int = 1
    expected_ok: bool = False

    @property
    def target(self) -> str:
        return f"{self.base.name}@{self.name}"

    @cached_property
    def automaton(self) -> Type[Process]:
        """The one class that replaces ``owner`` in the base's triple."""
        name = f"{self.owner.__name__}[{self.name}]"
        return type(name, (self.owner,), {self.guard: self.stand_in})

    def build(self, config: ClusterConfig) -> Cluster:
        """The base protocol, never enforced, with the flawed class in
        the role of the class it subclasses."""
        return self.base.swap(self.automaton).build(config, enforce=False)


FLAWS: Dict[str, Flaw] = {
    flaw.name: flaw
    for flaw in (
        # line 19's predicate skipped: always maxTS, or always maxTS - 1
        Flaw("eager-reader", fast_crash.SPEC, FastCrashReader, "_safe",
             lambda self, seen_sets: True, ClusterConfig(S=5, t=1, R=2)),
        Flaw("timid-reader", fast_crash.SPEC, FastCrashReader, "_safe",
             lambda self, seen_sets: False, ClusterConfig(S=4, t=1, R=1)),
        Flaw("no-seen-reset", fast_crash.SPEC, FastCrashServer, "_absorb",
             _absorb_without_reset, ClusterConfig(S=6, t=1, R=3),
             reads_per_reader=2),
        # line 26's guard dropped: stale read messages are answered
        Flaw("no-counter", fast_crash.SPEC, FastCrashServer, "_admit",
             lambda self, payload, src: True, ClusterConfig(S=5, t=1, R=2),
             reads_per_reader=2,
             expected_ok=True),  # only Lemma 4's case analysis needs it
        # line 6: a write completes after one ack instead of S - t
        Flaw("hasty-writer", fast_crash.SPEC, FastCrashWriter, "_write_quorum",
             lambda self: 1, ClusterConfig(S=5, t=1, R=2)),
        # Figure 5 with Figure 2's line 15: forged tags and stale replays
        # enter the ack set as if honest
        Flaw("gullible-reader", fast_byzantine.SPEC, FastByzantineReader,
             "_ack_valid", FastCrashReader._ack_valid,
             ClusterConfig(S=6, t=1, R=1, b=1)),
        # Figure 5 with Figure 2's line 19, no (a-1)·b slack for the liars:
        # the reader starves and returns maxTS - 1 where maxTS is due
        Flaw("crash-predicate", fast_byzantine.SPEC, FastByzantineReader,
             "_predicate_b", FastCrashReader._predicate_b,
             ClusterConfig(S=6, t=1, R=1, b=1)),
    )
}
