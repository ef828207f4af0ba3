"""Field layouts for the struct-of-arrays batch kernel.

The vectorized sweep kernel (:mod:`repro.sim.vector`) steps thousands
of independent constant-latency runs in lockstep.  It can only do so
for protocols whose client automata are *fixed-round*: every operation
performs a statically known number of round trips, so the kernel knows
each operation's completion time, message count and round verdict from
the invocation time alone, without dispatching events.

A :class:`VectorProfile` is a protocol's declaration of that fixed
round structure — which fields of the scalar automaton survive as
batch arrays and how the wire footprint scales with the server count.
A registry entry (:class:`~repro.registers.registry.ProtocolSpec`)
declares the two facts only the kernel needs, ``gossip`` and
``predicate_reads``; the round counts and fastness are the spec's own
``read_rounds`` / ``write_rounds`` / ``fast_reads``, which the spec
binds into its profile rather than stating them twice.  Protocols
without a profile (semifast's data-dependent second round, the MWMR
two-phase writers, Byzantine variants) simply opt out and the sweep
runner falls back to the scalar engine for them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VectorProfile:
    """Round structure of one fixed-round register automaton.

    Attributes:
        gossip: servers run one all-to-all gossip round before
            answering a read (the max-min register).  Adds one message
            delay to reads and ``S * (S - 1)`` messages per read, and
            makes reads non-fast even though the client uses one round.
        predicate_reads: the read value is gated by the Figure 2
            ``seen``-predicate, so the kernel must fold the per-server
            seen sets (as client bitmasks) alongside the tag field.
        read_phases, write_phases, fast_reads: the owning spec's
            ``read_rounds``, ``write_rounds`` and ``fast_reads``, bound
            by ``ProtocolSpec``; never stated in a declaration.
    """

    gossip: bool = False
    predicate_reads: bool = False
    read_phases: int = 1
    write_phases: int = 1
    fast_reads: bool = True

    def read_delay_hops(self, servers: int) -> int:
        """Message delays between a read's invocation and its response."""
        if self.gossip:
            # A lone server's gossip pool completes on its own
            # contribution, so the extra hop disappears at S = 1.
            return 2 if servers == 1 else 3
        return 2 * self.read_phases

    def write_delay_hops(self, servers: int) -> int:
        return 2 * self.write_phases

    def read_messages(self, servers: int) -> int:
        """Messages a read puts on the wire (requests + replies + gossip)."""
        base = 2 * servers * self.read_phases
        if self.gossip:
            base += servers * (servers - 1)
        return base

    def write_messages(self, servers: int) -> int:
        return 2 * servers * self.write_phases

    def read_rounds(self) -> int:
        """Client rounds the fastness scanner attributes to a read."""
        return self.read_phases

    def write_rounds(self) -> int:
        return self.write_phases
