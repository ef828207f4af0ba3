"""Semifast SWMR register — the natural extension beyond the threshold.

The paper closes (Section 8) on a dilemma: past ``R >= S/t - 2`` you
must give up either speed (ABD) or atomicity (the regular register).
The natural middle ground — explored by follow-up work on *semifast*
implementations — is a register whose reads are fast **when the data is
quiet** and pay the write-back round only when they must:

* **Phase 1** (always): query ``S - t`` servers.  If *every* ack carries
  the same timestamp, return its value immediately — one round-trip.
* **Phase 2** (only on disagreement): write the highest tag back to
  ``S - t`` servers, then return — the ABD fallback.

Atomicity for any ``R`` with ``t < S/2``:

* *read-after-write*: a completed write covers ``S - t`` servers, so a
  quorum that answers uniformly can only be uniform **at or above** the
  written timestamp (quorums intersect); a non-uniform quorum takes the
  write-back path, which returns its maximum — also at or above.
* *read-after-read*: a fast read saw its tag at all ``S - t`` servers of
  its quorum; any later read's quorum intersects it, so the later read
  either sees a higher tag or goes through the write-back that makes
  its own result durable.

The point for the reproduction: under read-mostly workloads, almost all
reads are fast; under write contention, the fast-read ratio collapses —
quantifying exactly what the paper's impossibility result forces you to
give up once ``R`` outgrows the threshold (benchmark E11).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.registers import messages as msg
from repro.registers.abd import AbdWriter
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
from repro.spec.histories import Operation

PROTOCOL_NAME = "semifast"

QUERY_PHASE = "query"
STORE_PHASE = "store"


def requirement(config: ClusterConfig) -> Optional[str]:
    if config.b != 0:
        return "the semifast register assumes crash failures only"
    if config.W != 1:
        return "single-writer protocol"
    if 2 * config.t >= config.S:
        return f"semifast needs t < S/2: got t={config.t}, S={config.S}"
    return None


class SemifastReader(RegisterClient):
    """One round when the quorum agrees; write-back otherwise.

    ``fast_reads``/``slow_reads`` counters expose the fast-read ratio to
    benchmarks without trace analysis.
    """

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self._phase = QUERY_PHASE
        self._acks: Optional[AckSet] = None
        self._chosen: Optional[ValueTag] = None
        self.fast_reads = 0
        self.slow_reads = 0

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
                self._resolve_query(ctx)
        elif self._phase == STORE_PHASE and isinstance(payload, msg.StoreAck):
            assert self._chosen is not None
            if payload.ts != self._chosen.ts:
                return
            if self._acks.add(src, payload):
                self.slow_reads += 1
                ctx.complete(self._chosen.value)

    def _resolve_query(self, ctx: Context) -> None:
        replies = self._acks.payloads()
        tags = {reply.tag.ts for reply in replies}
        highest = max(reply.tag for reply in replies)
        if len(tags) == 1:
            # Uniform quorum: the value is already at S - t servers; by
            # quorum intersection no later reader can regress below it.
            self.fast_reads += 1
            ctx.complete(highest.value)
            return
        self._chosen = highest
        self._phase = STORE_PHASE
        self._acks = AckSet(self.config.quorum)
        ctx.multicast(
            self.config.server_ids,
            msg.Store(op_id=self.current_op.op_id, tag=self._chosen),
        )


AUTOMATA = Automata(
    lambda pid, _config: StorageServer(pid, INITIAL_TAG), SemifastReader, AbdWriter
)


def build_cluster(config: ClusterConfig, enforce: bool = True, seed: int = 0) -> Cluster:
    return assemble_cluster(PROTOCOL_NAME, config, requirement, AUTOMATA, enforce, seed)


def fast_read_ratio(cluster: Cluster) -> float:
    """Fraction of completed reads that finished in one round."""
    fast = slow = 0
    for reader_proc in cluster.readers:
        fast += getattr(reader_proc, "fast_reads", 0)
        slow += getattr(reader_proc, "slow_reads", 0)
    total = fast + slow
    return fast / total if total else 0.0
