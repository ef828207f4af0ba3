"""Ablations of the fast-register family's design choices.

Every load-bearing step of Figures 2 and 5 is one named guard of the
automata in :mod:`repro.registers.fast_crash` /
:mod:`repro.registers.fast_byzantine`; an ablation is a subclass that
overrides exactly one of them, and the ablated protocol is derived, not
assembled: ``spec.swap(cls)`` puts the class in the role it subclasses.
:data:`FLAWS` is the single table of them — which protocol's ``SPEC``,
which class, what it removes, whether it is expected to survive inside
the feasible region, and the feasible scenario the explorer hunts it in
(a cluster and the reads per reader; the Byzantine budget is
``config.b``).  The ``fast-crash@…`` / ``fast-byzantine@…`` targets of
:mod:`repro.explore.targets` are derived from it, and
:func:`repro.explore.flaw_witness` turns a row into its witness: a
shrunk counterexample the explorer's quorum walks find on the flawed
protocol, replayed on the faithful one as the control.  The README's
guard table spells out the pseudo-code line behind each row.

One row has no witness.  The read counters' necessity (``no-counter``)
is ruled out only by the full case analysis of Lemma 4 (case <5>2): the
hunt stays clean, and the ablation tests document the flaw by fuzzing
``NoCounterServer`` under message reordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Type

from repro.registers import fast_byzantine, fast_crash, messages as msg
from repro.registers.base import Cluster, ClusterConfig, ProtocolSpec
from repro.registers.fast_byzantine import FastByzantineReader
from repro.registers.fast_crash import (
    FastCrashReader,
    FastCrashServer,
    FastCrashWriter,
)
from repro.sim.ids import ProcessId
from repro.sim.process import Process


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


@dataclass(frozen=True)
class Flaw:
    """One row of the flaw table: a protocol with one guard removed.

    ``base`` is the faithful protocol, ``automaton`` the one class that
    replaces its counterpart in the base's declared triple.
    ``expected_ok`` is the prediction *inside* the feasible region, and
    ``config`` with ``reads_per_reader`` is the feasible scenario the
    flaw is hunted in.
    """

    name: str
    base: ProtocolSpec
    automaton: Type[Process]
    removes: str
    config: ClusterConfig
    reads_per_reader: int = 1
    expected_ok: bool = False

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
            ClusterConfig(S=5, t=1, R=2),
        ),
        Flaw(
            "timid-reader", fast_crash.SPEC, TimidReader,
            "predicate removed (always return maxTS - 1)",
            ClusterConfig(S=4, t=1, R=1),
        ),
        Flaw(
            "no-seen-reset", fast_crash.SPEC, NoResetServer,
            "seen-set reset removed (line 28)",
            ClusterConfig(S=6, t=1, R=3), reads_per_reader=2,
        ),
        Flaw(
            "no-counter", fast_crash.SPEC, NoCounterServer,
            "read-counter check removed (line 26)",
            ClusterConfig(S=5, t=1, R=2), reads_per_reader=2,
            expected_ok=True,  # only Lemma 4's case analysis needs it
        ),
        Flaw(
            "hasty-writer", fast_crash.SPEC, HastyWriter,
            "write quorum shrunk below S - t (line 6)",
            ClusterConfig(S=5, t=1, R=2),
        ),
        Flaw(
            "gullible-reader", fast_byzantine.SPEC, GullibleReader,
            "ack validation removed (Figure 5 line 15)",
            ClusterConfig(S=6, t=1, R=1, b=1),
        ),
        Flaw(
            "crash-predicate", fast_byzantine.SPEC, CrashPredicateReader,
            "Byzantine predicate slack removed (Figure 5 line 19)",
            ClusterConfig(S=6, t=1, R=1, b=1),
        ),
    )
}
