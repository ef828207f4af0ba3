"""Fast SWMR *regular* register (Section 8).

Section 8 contrasts the paper's tight atomicity thresholds with the
regular register [Lamport 1986]: a fast regular implementation exists
iff ``t < S/2`` **irrespective of the number of readers** — the read
simply queries ``S - t`` servers and returns the highest-timestamped
value, with no write-back and no predicate.

The price is consistency: concurrent reads may exhibit new/old
inversions (a later read returns an older value), which regularity
permits and atomicity forbids.  Experiment E6 measures exactly this
trade-off; :func:`repro.spec.regularity.count_new_old_inversions` counts
the inversions this protocol actually produces under contention.
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
from repro.registers.timestamps import INITIAL_TAG
from repro.sim.ids import ProcessId
from repro.sim.process import Context
from repro.spec.histories import Operation

PROTOCOL_NAME = "regular-fast"


def requirement(config: ClusterConfig) -> Optional[str]:
    if config.b != 0:
        return "the regular register here assumes crash failures only"
    if config.W != 1:
        return "single-writer protocol"
    if 2 * config.t >= config.S:
        return f"fast regular register needs t < S/2: got t={config.t}, S={config.S}"
    return None


class RegularReader(RegisterClient):
    """Stateless one-round reader: max tag over ``S - t`` replies."""

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
    lambda pid, _config: StorageServer(pid, INITIAL_TAG), RegularReader, AbdWriter
)


def build_cluster(config: ClusterConfig, enforce: bool = True, seed: int = 0) -> Cluster:
    return assemble_cluster(PROTOCOL_NAME, config, requirement, AUTOMATA, enforce, seed)
