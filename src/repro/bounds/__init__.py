"""Lower-bound machinery: thresholds and executable impossibility proofs."""

from repro.bounds.blocks import Block, partition_byzantine, partition_crash
from repro.bounds.construction import (
    ConstructionResult,
    run_byzantine_lower_bound,
    run_crash_lower_bound,
)
from repro.bounds.diagrams import (
    render_block_diagram,
    render_partial_writes,
    render_threshold_frontier,
)
from repro.bounds.indistinguishability import (
    ChainReport,
    ClaimCheck,
    ReadView,
    verify_byzantine_chain,
    verify_crash_chain,
)
from repro.bounds.feasibility import (
    ThresholdRow,
    construction_applies,
    fast_feasible,
    fast_read_possible,
    max_readers,
    min_servers,
    regular_fast_feasible,
    threshold_table,
)
from repro.bounds.mwmr_construction import (
    MwmrConstructionResult,
    MwmrRunOutcome,
    run_mwmr_impossibility,
    run_sequential_family,
)

__all__ = [
    "Block",
    "ChainReport",
    "ClaimCheck",
    "ConstructionResult",
    "ReadView",
    "verify_byzantine_chain",
    "verify_crash_chain",
    "MwmrConstructionResult",
    "MwmrRunOutcome",
    "ThresholdRow",
    "construction_applies",
    "fast_feasible",
    "fast_read_possible",
    "max_readers",
    "min_servers",
    "partition_byzantine",
    "partition_crash",
    "regular_fast_feasible",
    "render_block_diagram",
    "render_partial_writes",
    "render_threshold_frontier",
    "run_byzantine_lower_bound",
    "run_crash_lower_bound",
    "run_mwmr_impossibility",
    "run_sequential_family",
    "threshold_table",
]
