"""Fast single-writer single-reader register (introduction sketch).

With one reader, the paper notes ABD can be made fast with a local
trick: the reader remembers the last tag it returned; a read queries
``S - t`` servers once and returns the newest of {highest tag heard,
last returned tag}.  A single reader's reads are totally ordered, so
monotonicity of returned timestamps is atomicity.

Works for ``t < S/2`` — strictly better than instantiating Figure 2
with ``R = 1`` (which would require ``t < S/3``); the feasibility
tests record this special case, and the R ≥ 2 example of the
introduction (one reader's quorum seeing an incomplete write that a
second reader's quorum misses) is exactly why it cannot generalise.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.registers.abd import AbdWriter
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


SPEC = ProtocolSpec(
    name="swsr-fast",
    summary="Fast single-reader register with a monotonic local tag",
    paper_source="Section 1 (sketch)",
    multi_writer=False,
    read_rounds=1,
    write_rounds=1,
    fast_reads=True,
    fast_writes=True,
    atomic=True,
    requirement=requirement,
    automata=Automata(
        lambda pid, _config: StorageServer(pid, INITIAL_TAG), SwsrReader, AbdWriter
    ),
    # the monotonic local tag never changes a crash-free verdict
    vector=VectorProfile(),
)

