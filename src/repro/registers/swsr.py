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

from typing import Any, List, Optional

from repro.registers.abd import AbdWriter
from repro.registers.base import (
    Automata,
    Cluster,
    ClusterConfig,
    QuorumClient,
    StorageServer,
    assemble_cluster,
    crash_requirement,
)
from repro.registers.timestamps import INITIAL_TAG, ValueTag
from repro.sim.ids import ProcessId
from repro.sim.process import Context

PROTOCOL_NAME = "swsr-fast"


def requirement(config: ClusterConfig) -> Optional[str]:
    return crash_requirement(
        config, "the SWSR register", "SWSR-fast", single_reader=True
    )


class SwsrReader(QuorumClient):
    """One-round reader with a monotonic local tag."""

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self.last_tag: ValueTag = INITIAL_TAG

    def _queried(self, replies: List[Any], ctx: Context) -> None:
        highest = max(reply.tag for reply in replies)
        if highest.ts >= self.last_tag.ts:
            self.last_tag = highest
        ctx.complete(self.last_tag.value)


AUTOMATA = Automata(
    lambda pid, _config: StorageServer(pid, INITIAL_TAG), SwsrReader, AbdWriter
)


def build_cluster(config: ClusterConfig, enforce: bool = True, seed: int = 0) -> Cluster:
    return assemble_cluster(PROTOCOL_NAME, config, requirement, AUTOMATA, enforce, seed)
