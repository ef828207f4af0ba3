"""Naive one-round MWMR register — the strawman Proposition 11 demolishes.

Section 7 proves that **no** fast multi-writer atomic register exists,
even with a single crash-faulty server.  To make the impossibility
executable we need a concrete candidate: this module implements the
obvious attempt —

* writes are one round: each writer stamps values with a local counter
  (ties broken by writer id) and stores to all servers, returning after
  ``S - t`` acks, without ever querying;
* reads are one round: query ``S - t`` servers, return the
  highest-timestamped value, no write-back.

The run-chain construction of
:mod:`repro.bounds.mwmr_construction` executes the proof's schedule
against this protocol (or any other fast candidate) and extracts a
concrete history violating property P1 or P2 of atomicity.  The flaw is
structural, not an implementation bug: a one-round writer cannot learn
about concurrent writers, so it cannot order its write after a write it
never saw.
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
from repro.registers.timestamps import INITIAL_MW_TAG, MWTimestamp, ValueTag
from repro.sim.ids import ProcessId
from repro.sim.process import Context
from repro.spec.histories import BOTTOM, Operation

PROTOCOL_NAME = "naive-fast-mwmr"


def requirement(config: ClusterConfig) -> Optional[str]:
    """Always buildable; known broken (that is its purpose)."""
    return None


class NaiveMwmrWriter(RegisterClient):
    """One-round writer with a local counter — provably insufficient."""

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self.num = 0
        self.last_value: Any = BOTTOM
        self._pending: Optional[ValueTag] = None
        self._acks: Optional[AckSet] = None

    def on_invoke(self, op: Operation, ctx: Context) -> None:
        self.num += 1
        tag = ValueTag(
            ts=MWTimestamp(self.num, self.pid.index),
            value=op.value,
            prev_value=self.last_value,
        )
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


class NaiveMwmrReader(RegisterClient):
    """One-round reader: highest tag wins, no write-back."""

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self._acks: Optional[AckSet] = None

    def on_invoke(self, op: Operation, ctx: Context) -> None:
        self._acks = AckSet(self.config.quorum)
        ctx.multicast(self.config.server_ids, msg.Query(op_id=op.op_id))

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        if not self._matches_current(payload):
            return
        if not isinstance(payload, msg.QueryReply):
            return
        assert self._acks is not None
        if self._acks.add(src, payload):
            highest = max(reply.tag for reply in self._acks.payloads())
            ctx.complete(highest.value)


AUTOMATA = Automata(
    lambda pid, _config: StorageServer(pid, INITIAL_MW_TAG), NaiveMwmrReader, NaiveMwmrWriter
)


def build_cluster(config: ClusterConfig, enforce: bool = True, seed: int = 0) -> Cluster:
    return assemble_cluster(PROTOCOL_NAME, config, requirement, AUTOMATA, enforce, seed)
