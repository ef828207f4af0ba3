"""Fast single-writer single-reader register (introduction sketch).

With one reader, the paper notes ABD can be made fast with a local
trick: the reader remembers the last tag it returned; a read queries
``S - t`` servers once and returns the newest of {highest tag heard,
last returned tag}.  A single reader's reads are totally ordered, so
monotonicity of returned timestamps is atomicity.

Works for ``t < S/2`` — strictly better than instantiating Figure 2
with ``R = 1`` (which would require ``t < S/3``); the threshold-table
benchmark records this special case, and the R ≥ 2 example of the
introduction (one reader's quorum seeing an incomplete write that a
second reader's quorum misses) is exactly why it cannot generalise.
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

PROTOCOL_NAME = "swsr-fast"


def requirement(config: ClusterConfig) -> Optional[str]:
    if config.b != 0:
        return "the SWSR register assumes crash failures only"
    if config.W != 1:
        return "single-writer protocol"
    if config.R != 1:
        return f"single-reader protocol: R must be 1, got {config.R}"
    if 2 * config.t >= config.S:
        return f"SWSR-fast needs t < S/2: got t={config.t}, S={config.S}"
    return None


class SwsrReader(RegisterClient):
    """One-round reader with a monotonic local tag."""

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self.last_tag: ValueTag = INITIAL_TAG
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
            if highest.ts >= self.last_tag.ts:
                self.last_tag = highest
            ctx.complete(self.last_tag.value)


AUTOMATA = Automata(
    lambda pid, _config: StorageServer(pid, INITIAL_TAG), SwsrReader, AbdWriter
)


def build_cluster(config: ClusterConfig, enforce: bool = True, seed: int = 0) -> Cluster:
    return assemble_cluster(PROTOCOL_NAME, config, requirement, AUTOMATA, enforce, seed)
