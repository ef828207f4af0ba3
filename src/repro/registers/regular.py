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
from repro.registers.timestamps import INITIAL_TAG
from repro.sim.process import Context

def requirement(config: ClusterConfig) -> Optional[str]:
    return crash_requirement(
        config, "the regular register here", "fast regular register"
    )


class RegularReader(QuorumClient):
    """Stateless one-round reader: max tag over ``S - t`` replies."""

    def _queried(self, replies: List[Any], ctx: Context) -> None:
        ctx.complete(max(reply.tag for reply in replies).value)


SPEC = ProtocolSpec(
    name="regular-fast",
    summary="Fast SWMR *regular* register: no write-back, any R, t < S/2",
    paper_source="Section 8",
    multi_writer=False,
    read_rounds=1,
    write_rounds=1,
    fast_reads=True,
    fast_writes=True,
    atomic=False,
    requirement=requirement,
    automata=Automata(
        lambda pid, _config: StorageServer(pid, INITIAL_TAG), RegularReader, AbdWriter
    ),
    vector=VectorProfile(),
    contract="regular",
)

