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

from typing import Any, Optional

from repro.registers import messages as msg
from repro.registers.base import (
    AckSet,
    Automata,
    Cluster,
    ClusterConfig,
    RegisterClient,
    StorageServer,
    assemble_cluster,
)
from repro.registers.timestamps import INITIAL_MW_TAG, ValueTag
from repro.sim.ids import ProcessId
from repro.sim.process import Context
from repro.spec.histories import Operation

PROTOCOL_NAME = "mwmr"

QUERY_PHASE = "query"
STORE_PHASE = "store"


def requirement(config: ClusterConfig) -> Optional[str]:
    if config.b != 0:
        return "the MWMR baseline assumes crash failures only"
    if 2 * config.t >= config.S:
        return f"MWMR needs t < S/2: got t={config.t}, S={config.S}"
    return None


class MwmrWriter(RegisterClient):
    """Two-round writer: discover max timestamp, then store num+1."""

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self._phase = QUERY_PHASE
        self._acks: Optional[AckSet] = None
        self._pending: Optional[ValueTag] = None

    def on_invoke(self, op: Operation, ctx: Context) -> None:
        self._phase = QUERY_PHASE
        self._acks = AckSet(self.config.quorum)
        self._pending = None
        ctx.multicast(self.config.server_ids, msg.Query(op_id=op.op_id))

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        if not self._matches_current(payload):
            return
        assert self._acks is not None
        if self._phase == QUERY_PHASE and isinstance(payload, msg.QueryReply):
            if self._acks.add(src, payload):
                highest = max(reply.tag for reply in self._acks.payloads())
                new_ts = highest.ts.next_for(self.pid.index)
                self._pending = ValueTag(
                    ts=new_ts, value=self.current_op.value, prev_value=highest.value
                )
                self._phase = STORE_PHASE
                self._acks = AckSet(self.config.quorum)
                ctx.multicast(
                    self.config.server_ids,
                    msg.Store(op_id=self.current_op.op_id, tag=self._pending),
                )
        elif self._phase == STORE_PHASE and isinstance(payload, msg.StoreAck):
            assert self._pending is not None
            if payload.ts != self._pending.ts:
                return
            if self._acks.add(src, payload):
                self._pending = None
                ctx.complete("ok")


class MwmrReader(RegisterClient):
    """Two-round reader: query phase, then write-back phase."""

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self._phase = QUERY_PHASE
        self._acks: Optional[AckSet] = None
        self._chosen: Optional[ValueTag] = None

    def on_invoke(self, op: Operation, ctx: Context) -> None:
        self._phase = QUERY_PHASE
        self._acks = AckSet(self.config.quorum)
        self._chosen = None
        ctx.multicast(self.config.server_ids, msg.Query(op_id=op.op_id))

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        if not self._matches_current(payload):
            return
        assert self._acks is not None
        if self._phase == QUERY_PHASE and isinstance(payload, msg.QueryReply):
            if self._acks.add(src, payload):
                self._chosen = max(reply.tag for reply in self._acks.payloads())
                self._phase = STORE_PHASE
                self._acks = AckSet(self.config.quorum)
                ctx.multicast(
                    self.config.server_ids,
                    msg.Store(op_id=self.current_op.op_id, tag=self._chosen),
                )
        elif self._phase == STORE_PHASE and isinstance(payload, msg.StoreAck):
            assert self._chosen is not None
            if payload.ts != self._chosen.ts:
                return
            if self._acks.add(src, payload):
                ctx.complete(self._chosen.value)


AUTOMATA = Automata(
    lambda pid, _config: StorageServer(pid, INITIAL_MW_TAG), MwmrReader, MwmrWriter
)


def build_cluster(config: ClusterConfig, enforce: bool = True, seed: int = 0) -> Cluster:
    return assemble_cluster(PROTOCOL_NAME, config, requirement, AUTOMATA, enforce, seed)
