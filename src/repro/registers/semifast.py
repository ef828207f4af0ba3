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
give up once ``R`` outgrows the threshold (experiment E11).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.registers.abd import AbdWriter
from repro.registers.base import (
    Automata,
    Cluster,
    ClusterConfig,
    ProtocolSpec,
    QuorumClient,
    StorageServer,
    crash_requirement,
)
from repro.registers.timestamps import INITIAL_TAG, ValueTag
from repro.sim.ids import ProcessId
from repro.sim.process import Context

def requirement(config: ClusterConfig) -> Optional[str]:
    return crash_requirement(config, "the semifast register", "semifast")


class SemifastReader(QuorumClient):
    """One round when the quorum agrees; write-back otherwise.

    ``fast_reads``/``slow_reads`` counters expose the fast-read ratio to
    tests and the report without trace analysis.
    """

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self.fast_reads = 0
        self.slow_reads = 0

    def _queried(self, replies: List[Any], ctx: Context) -> None:
        highest = max(reply.tag for reply in replies)
        if len({reply.tag.ts for reply in replies}) == 1:
            # Uniform quorum: the value is already at S - t servers; by
            # quorum intersection no later reader can regress below it.
            self.fast_reads += 1
            ctx.complete(highest.value)
        else:
            self._store(highest, ctx)

    def _stored(self, tag: ValueTag, ctx: Context) -> None:
        self.slow_reads += 1
        ctx.complete(tag.value)


def fast_read_ratio(cluster: Cluster) -> float:
    """Fraction of completed reads that finished in one round."""
    fast = slow = 0
    for reader_proc in cluster.readers:
        fast += getattr(reader_proc, "fast_reads", 0)
        slow += getattr(reader_proc, "slow_reads", 0)
    total = fast + slow
    return fast / total if total else 0.0


SPEC = ProtocolSpec(
    name="semifast",
    summary="Semifast extension: one-round reads when the quorum agrees, "
    "write-back fallback otherwise; atomic for any R with t < S/2",
    paper_source="Section 8 trade-off (extension; cf. semifast follow-ups)",
    multi_writer=False,
    read_rounds=1,  # best case; 2 on the fallback path
    write_rounds=1,
    fast_reads=False,  # not every read is fast: outside Section 3.2
    fast_writes=True,
    atomic=True,
    requirement=requirement,
    automata=Automata(
        lambda pid, _config: StorageServer(pid, INITIAL_TAG), SemifastReader, AbdWriter
    ),
)
