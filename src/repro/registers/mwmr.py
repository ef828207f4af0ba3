"""Multi-writer multi-reader register baseline (Section 7 context).

The robust MWMR construction in the style of [Lynch & Shvartsman 1997]:
timestamps are ``(num, writer-id)`` pairs; **both** reads and writes
take two round-trips — a query phase to discover the highest timestamp,
then a store phase (new tag for writes, write-back for reads).

Proposition 11 proves this two-round shape unavoidable: no fast MWMR
atomic register exists even with ``t = 1`` crash failures.  This module
is the correct baseline that the Section 7 construction contrasts with
the one-round strawman of :mod:`repro.registers.naive_mwmr`.

Requires ``t < S/2``.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.registers.abd import AbdReader
from repro.registers.base import (
    Automata,
    ClusterConfig,
    ProtocolSpec,
    QuorumClient,
    StorageServer,
    crash_requirement,
)
from repro.registers.timestamps import INITIAL_MW_TAG, ValueTag
from repro.sim.process import Context

def requirement(config: ClusterConfig) -> Optional[str]:
    return crash_requirement(config, "the MWMR baseline", "MWMR", single_writer=None)


class MwmrWriter(QuorumClient):
    """Two-round writer: discover the highest timestamp, store the next.

    Reads are ABD's two rounds, over ``(num, writer-id)`` timestamps.
    """

    def _queried(self, replies: List[Any], ctx: Context) -> None:
        highest = max(reply.tag for reply in replies)
        tag = ValueTag(
            ts=highest.ts.next_for(self.pid.index),
            value=self.current_op.value,
            prev_value=highest.value,
        )
        self._store(tag, ctx)

    def _stored(self, tag: ValueTag, ctx: Context) -> None:
        self._tag = None
        ctx.complete("ok")


SPEC = ProtocolSpec(
    name="mwmr",
    summary="MWMR baseline: two-round reads and writes, (num, wid) stamps",
    paper_source="[Lynch & Shvartsman 1997], Section 7",
    multi_writer=True,
    read_rounds=2,
    write_rounds=2,
    fast_reads=False,
    fast_writes=False,
    atomic=True,
    requirement=requirement,
    automata=Automata(
        lambda pid, _config: StorageServer(pid, INITIAL_MW_TAG), AbdReader, MwmrWriter
    ),
)

