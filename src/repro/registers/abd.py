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
from repro.registers.timestamps import INITIAL_TAG, ValueTag
from repro.sim.ids import ProcessId
from repro.sim.process import Context
from repro.spec.histories import BOTTOM, Operation

PROTOCOL_NAME = "abd"

QUERY_PHASE = "query"
STORE_PHASE = "store"


def requirement(config: ClusterConfig) -> Optional[str]:
    if config.b != 0:
        return "ABD as implemented here assumes crash failures only"
    if config.W != 1:
        return "this is the single-writer ABD variant"
    if 2 * config.t >= config.S:
        return f"ABD needs t < S/2: got t={config.t}, S={config.S}"
    return None


class AbdWriter(RegisterClient):
    """One-round writer: multicast the next tag, await ``S - t`` acks."""

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self.ts = 0
        self.last_value: Any = BOTTOM
        self._acks: Optional[AckSet] = None
        self._pending: Optional[ValueTag] = None

    def on_invoke(self, op: Operation, ctx: Context) -> None:
        self.ts += 1
        tag = ValueTag(ts=self.ts, value=op.value, prev_value=self.last_value)
        self._pending = tag
        self._acks = AckSet(self.config.quorum)
        ctx.multicast(self.config.server_ids, msg.Store(op_id=op.op_id, tag=tag))

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        if not self._matches_current(payload) or not isinstance(payload, msg.StoreAck):
            return
        assert self._pending is not None and self._acks is not None
        if payload.ts != self._pending.ts:
            return
        if self._acks.add(src, payload):
            self.last_value = self._pending.value
            self._pending = None
            ctx.complete("ok")


class AbdReader(RegisterClient):
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
                replies = self._acks.payloads()
                self._chosen = max(reply.tag for reply in replies)
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
    lambda pid, _config: StorageServer(pid, INITIAL_TAG), AbdReader, AbdWriter
)


def build_cluster(config: ClusterConfig, enforce: bool = True, seed: int = 0) -> Cluster:
    return assemble_cluster(PROTOCOL_NAME, config, requirement, AUTOMATA, enforce, seed)
