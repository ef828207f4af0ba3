"""ABD single-writer register [Attiya, Bar-Noy, Dolev 1995].

The classical robust SWMR implementation the paper departs from
(Section 1).  Writes take one round-trip (the single writer knows the
latest timestamp); reads take **two** round-trips: a query phase that
discovers the highest tag, then a write-back phase that propagates it to
``S - t`` servers before returning — the "read must write" round this
paper's fast protocol eliminates.

Requires ``t < S/2`` (quorums of size ``S - t`` must intersect).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.registers.base import (
    Automata,
    ClusterConfig,
    ProtocolSpec,
    QuorumClient,
    StorageServer,
    VectorProfile,
    crash_requirement,
)
from repro.registers.timestamps import INITIAL_TAG, ValueTag
from repro.sim.ids import ProcessId
from repro.sim.process import Context
from repro.spec.histories import BOTTOM, Operation

def requirement(config: ClusterConfig) -> Optional[str]:
    return crash_requirement(
        config,
        "ABD as implemented here",
        "ABD",
        single_writer="this is the single-writer ABD variant",
    )


class AbdWriter(QuorumClient):
    """One-round writer: store the next local tag."""

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self.ts = 0
        self.last_value: Any = BOTTOM

    def on_invoke(self, op: Operation, ctx: Context) -> None:
        self.ts += 1
        self._store(self._stamp(op.value), ctx)

    def _stamp(self, value: Any) -> ValueTag:
        """The single writer is the only source of timestamps."""
        return ValueTag(ts=self.ts, value=value, prev_value=self.last_value)

    def _stored(self, tag: ValueTag, ctx: Context) -> None:
        self.last_value = tag.value
        self._tag = None
        ctx.complete("ok")


class AbdReader(QuorumClient):
    """Two-round reader: query, write the highest tag back, return it."""

    def _queried(self, replies: List[Any], ctx: Context) -> None:
        self._store(max(reply.tag for reply in replies), ctx)

    def _stored(self, tag: ValueTag, ctx: Context) -> None:
        ctx.complete(tag.value)


SPEC = ProtocolSpec(
    name="abd",
    summary="Classic ABD SWMR register: two-round reads with write-back",
    paper_source="[Attiya et al. 1995], Section 1",
    multi_writer=False,
    read_rounds=2,
    write_rounds=1,
    fast_reads=False,
    fast_writes=True,
    atomic=True,
    requirement=requirement,
    automata=Automata(
        lambda pid, _config: StorageServer(pid, INITIAL_TAG), AbdReader, AbdWriter
    ),
    vector=VectorProfile(),
)

