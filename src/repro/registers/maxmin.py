"""Decentralised max-min register (the introduction's middle point).

The paper sketches this improvement over ABD before presenting the fast
protocol: the reader sends one message; each server *broadcasts its
timestamp to the other servers*, adopts the maximum over a majority of
such broadcasts, and only then answers the reader; the reader returns
the **minimum** timestamp among ``S - t`` answers.

From the client's perspective the read is one round, but it is *not
fast* in the paper's sense (Section 3.2): servers wait for other
messages (the gossip round) before answering, so the read costs three
message delays instead of two — the benchmark suite shows it sitting
between ABD (four delays) and the fast protocol (two delays).

Requires ``t < S/2``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.registers import messages as msg
from repro.registers.abd import AbdWriter
from repro.registers.base import (
    Automata,
    ClusterConfig,
    ProtocolSpec,
    QuorumClient,
    VectorProfile,
    crash_requirement,
)
from repro.registers.timestamps import INITIAL_TAG, ValueTag
from repro.sim.ids import ProcessId
from repro.sim.process import Context, Process
from repro.spec.histories import Operation

PoolKey = Tuple[ProcessId, int]


def requirement(config: ClusterConfig) -> Optional[str]:
    return crash_requirement(config, "the max-min register", "max-min")


class MaxMinServer(Process):
    """Stores a tag; answers reads after a majority gossip round.

    One gossip pool exists per ``(reader, rCounter)`` pair.  A server
    may complete a pool — and answer the reader — even if it never
    received the reader's own message, because gossip from ``S - t``
    other servers carries all the information it needs; this only makes
    the protocol more live.
    """

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid)
        self.config = config
        self.tag: ValueTag = INITIAL_TAG
        self._pools: Dict[PoolKey, Dict[ProcessId, ValueTag]] = {}
        self._replied: Set[PoolKey] = set()

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        if isinstance(payload, msg.Store):
            # Writer's one-round write.
            if payload.tag.ts > self.tag.ts:
                self.tag = payload.tag
            ctx.send(src, msg.StoreAck(op_id=payload.op_id, ts=payload.tag.ts))
        elif isinstance(payload, msg.MaxMinRead):
            gossip = msg.MaxMinGossip(
                op_id=payload.op_id,
                reader=src,
                r_counter=payload.r_counter,
                tag=self.tag,
            )
            for other in self.config.server_ids:
                if other != self.pid:
                    ctx.send(other, gossip)
            self._contribute(src, payload.r_counter, payload.op_id, self.pid, self.tag, ctx)
        elif isinstance(payload, msg.MaxMinGossip):
            self._contribute(
                payload.reader, payload.r_counter, payload.op_id, src, payload.tag, ctx
            )

    def _contribute(
        self,
        reader: ProcessId,
        r_counter: int,
        op_id: int,
        contributor: ProcessId,
        tag: ValueTag,
        ctx: Context,
    ) -> None:
        key = (reader, r_counter)
        if key in self._replied:
            return
        pool = self._pools.setdefault(key, {})
        pool[contributor] = tag
        if len(pool) >= self.config.quorum:
            best = max(pool.values())
            if best.ts > self.tag.ts:
                self.tag = best
            self._replied.add(key)
            del self._pools[key]
            ctx.send(
                reader, msg.MaxMinReadAck(op_id=op_id, tag=best, r_counter=r_counter)
            )


class MaxMinReader(QuorumClient):
    """One query of its own message type; the *minimum* tag wins.

    Writes are ABD's: one round, local timestamps.
    """

    reply_type = msg.MaxMinReadAck

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self.r_counter = 0

    def on_invoke(self, op: Operation, ctx: Context) -> None:
        self.r_counter += 1
        self._query(msg.MaxMinRead(op_id=op.op_id, r_counter=self.r_counter), ctx)

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        if isinstance(payload, msg.MaxMinReadAck) and payload.r_counter != self.r_counter:
            return  # answers an earlier read
        super().on_message(payload, src, ctx)

    def _queried(self, replies: List[Any], ctx: Context) -> None:
        ctx.complete(min(ack.tag for ack in replies).value)


SPEC = ProtocolSpec(
    name="maxmin",
    summary="Decentralised max-min read: one client round, server gossip",
    paper_source="Section 1 (sketch)",
    multi_writer=False,
    read_rounds=1,
    write_rounds=1,
    fast_reads=False,  # servers wait for gossip: not fast per Section 3.2
    fast_writes=True,
    atomic=True,
    requirement=requirement,
    automata=Automata(MaxMinServer, MaxMinReader, AbdWriter),
    vector=VectorProfile(),
    # one client round, but the servers' gossip round adds a message delay
    gossip=True,
)

