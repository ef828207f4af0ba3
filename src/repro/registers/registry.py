"""Protocol registry: one place enumerating every implementation.

Benchmarks, the CLI and the sweep machinery iterate over
:data:`PROTOCOLS` instead of importing protocol modules directly, so
adding an implementation automatically enrolls it everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.registers import (
    abd,
    fast_byzantine,
    fast_crash,
    maxmin,
    mwmr,
    naive_mwmr,
    regular,
    semifast,
    swsr,
)
from repro.registers.base import Cluster, ClusterConfig

BuildFn = Callable[..., Cluster]
RequirementFn = Callable[[ClusterConfig], Optional[str]]


@dataclass(frozen=True)
class VectorProfile:
    """A protocol's declaration that its client automata are fixed-round.

    Every operation then performs a statically known number of round
    trips, so the lockstep batch kernel (:mod:`repro.sim.vector`) knows
    its completion time, message count and round verdict from the
    invocation time alone.  Protocols without a profile (semifast's
    data-dependent second round, the MWMR two-phase writers, Byzantine
    variants) fall back to the scalar engine.

    Attributes:
        gossip: servers run one all-to-all gossip round before
            answering a read (the max-min register).  Adds one message
            delay to reads and ``S * (S - 1)`` messages per read, and
            makes reads non-fast even though the client uses one round.
        predicate_reads: the read value is gated by the Figure 2
            ``seen``-predicate, so the kernel must fold the per-server
            seen sets (as client bitmasks) alongside the tag field.
    """

    gossip: bool = False
    predicate_reads: bool = False


@dataclass(frozen=True)
class ProtocolSpec:
    """Metadata + factory for one register implementation.

    ``read_rounds``/``write_rounds`` are the *expected* client round
    counts (verified against traces by the fastness checker);
    ``fast_reads``/``fast_writes`` flag conformance to the paper's
    Section 3.2 definition, which also constrains server behaviour.

    ``contract`` is the consistency condition the protocol is judged
    against — ``"atomic"`` or ``"regular"``; ``atomic`` says whether it
    really is atomic (the Section 7 strawman claims atomicity and is
    not; the Section 8 register claims only regularity).

    ``vector`` declares the two facts only the batch kernel needs of a
    fixed-round automaton, or is ``None`` when the automaton is not
    fixed-round; the round counts and fastness the kernel also reads
    are this spec's own.
    """

    name: str
    summary: str
    paper_source: str
    multi_writer: bool
    read_rounds: int
    write_rounds: int
    fast_reads: bool
    fast_writes: bool
    atomic: bool
    requirement: RequirementFn
    build: BuildFn
    vector: Optional[VectorProfile] = None
    contract: str = "atomic"


PROTOCOLS: Dict[str, ProtocolSpec] = {
    fast_crash.PROTOCOL_NAME: ProtocolSpec(
        name=fast_crash.PROTOCOL_NAME,
        summary="Fast SWMR atomic register, crash model (the paper's Figure 2)",
        paper_source="Figure 2, Section 4",
        multi_writer=False,
        read_rounds=1,
        write_rounds=1,
        fast_reads=True,
        fast_writes=True,
        atomic=True,
        requirement=fast_crash.requirement,
        build=fast_crash.build_cluster,
        # the read value is gated by the ``seen``-predicate
        vector=VectorProfile(predicate_reads=True),
    ),
    fast_byzantine.PROTOCOL_NAME: ProtocolSpec(
        name=fast_byzantine.PROTOCOL_NAME,
        summary="Fast SWMR atomic register with signed tags, arbitrary failures",
        paper_source="Figure 5, Section 6.1",
        multi_writer=False,
        read_rounds=1,
        write_rounds=1,
        fast_reads=True,
        fast_writes=True,
        atomic=True,
        requirement=fast_byzantine.requirement,
        build=fast_byzantine.build_cluster,
    ),
    abd.PROTOCOL_NAME: ProtocolSpec(
        name=abd.PROTOCOL_NAME,
        summary="Classic ABD SWMR register: two-round reads with write-back",
        paper_source="[Attiya et al. 1995], Section 1",
        multi_writer=False,
        read_rounds=2,
        write_rounds=1,
        fast_reads=False,
        fast_writes=True,
        atomic=True,
        requirement=abd.requirement,
        build=abd.build_cluster,
        vector=VectorProfile(),
    ),
    maxmin.PROTOCOL_NAME: ProtocolSpec(
        name=maxmin.PROTOCOL_NAME,
        summary="Decentralised max-min read: one client round, server gossip",
        paper_source="Section 1 (sketch)",
        multi_writer=False,
        read_rounds=1,
        write_rounds=1,
        fast_reads=False,  # servers wait for gossip: not fast per Section 3.2
        fast_writes=True,
        atomic=True,
        requirement=maxmin.requirement,
        build=maxmin.build_cluster,
        # one client round, but the servers' gossip round adds a message delay
        vector=VectorProfile(gossip=True),
    ),
    swsr.PROTOCOL_NAME: ProtocolSpec(
        name=swsr.PROTOCOL_NAME,
        summary="Fast single-reader register with a monotonic local tag",
        paper_source="Section 1 (sketch)",
        multi_writer=False,
        read_rounds=1,
        write_rounds=1,
        fast_reads=True,
        fast_writes=True,
        atomic=True,
        requirement=swsr.requirement,
        build=swsr.build_cluster,
        # the monotonic local tag never changes a crash-free verdict
        vector=VectorProfile(),
    ),
    regular.PROTOCOL_NAME: ProtocolSpec(
        name=regular.PROTOCOL_NAME,
        summary="Fast SWMR *regular* register: no write-back, any R, t < S/2",
        paper_source="Section 8",
        multi_writer=False,
        read_rounds=1,
        write_rounds=1,
        fast_reads=True,
        fast_writes=True,
        atomic=False,
        requirement=regular.requirement,
        build=regular.build_cluster,
        vector=VectorProfile(),
        contract="regular",
    ),
    semifast.PROTOCOL_NAME: ProtocolSpec(
        name=semifast.PROTOCOL_NAME,
        summary="Semifast extension: one-round reads when the quorum agrees, "
        "write-back fallback otherwise; atomic for any R with t < S/2",
        paper_source="Section 8 trade-off (extension; cf. semifast follow-ups)",
        multi_writer=False,
        read_rounds=1,  # best case; 2 on the fallback path
        write_rounds=1,
        fast_reads=False,  # not every read is fast: outside Section 3.2
        fast_writes=True,
        atomic=True,
        requirement=semifast.requirement,
        build=semifast.build_cluster,
    ),
    mwmr.PROTOCOL_NAME: ProtocolSpec(
        name=mwmr.PROTOCOL_NAME,
        summary="MWMR baseline: two-round reads and writes, (num, wid) stamps",
        paper_source="[Lynch & Shvartsman 1997], Section 7",
        multi_writer=True,
        read_rounds=2,
        write_rounds=2,
        fast_reads=False,
        fast_writes=False,
        atomic=True,
        requirement=mwmr.requirement,
        build=mwmr.build_cluster,
    ),
    naive_mwmr.PROTOCOL_NAME: ProtocolSpec(
        name=naive_mwmr.PROTOCOL_NAME,
        summary="One-round MWMR strawman; Proposition 11's victim (not atomic)",
        paper_source="Section 7 (impossibility target)",
        multi_writer=True,
        read_rounds=1,
        write_rounds=1,
        fast_reads=True,
        fast_writes=True,
        atomic=False,
        requirement=naive_mwmr.requirement,
        build=naive_mwmr.build_cluster,
    ),
}


def get_protocol(name: str) -> ProtocolSpec:
    try:
        return PROTOCOLS[name]
    except KeyError:
        known = ", ".join(sorted(PROTOCOLS))
        raise KeyError(f"unknown protocol {name!r}; known: {known}") from None
