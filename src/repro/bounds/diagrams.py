"""ASCII renderings of the paper's block diagrams (Figures 1, 3, 4, 6, 7).

The paper depicts an invocation as a column of rectangles, one per
server block the invocation's message actually reached.  We render the
same picture from a :class:`~repro.bounds.construction.ConstructionResult`:
rows are blocks, columns are invocations, ``██`` marks a delivered
request and ``..`` a skipped block — making the executed schedule
visually comparable with the figures in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bounds.blocks import Block
from repro.bounds.construction import ConstructionResult
from repro.spec.histories import Operation

FILLED = "██"
SKIPPED = "··"


def _column_label(op: Operation, occurrence: int) -> str:
    who = str(op.proc)
    if op.is_write:
        return f"{who}:w({op.value})"
    return f"{who}:rd{occurrence}"


def render_block_diagram(result: ConstructionResult) -> str:
    """One diagram for the whole constructed run.

    Columns follow invocation order (the paper's left-to-right time
    axis); a cell is filled iff the block received that invocation's
    request messages at any point of the run — matching the "detailed
    diagrams" of Figure 1, which include late deliveries.
    """
    ops = list(result.history.operations)
    reads_seen: Dict[str, int] = {}
    labels: List[str] = []
    for op in ops:
        occurrence = reads_seen.get(str(op.proc), 0) + 1
        reads_seen[str(op.proc)] = occurrence
        labels.append(_column_label(op, occurrence))

    width = max(len(label) for label in labels) + 2
    header = " " * 8 + "".join(label.ljust(width) for label in labels)
    lines = [header]
    for block in result.blocks:
        if len(block) == 0:
            continue
        row = f"{block.name:<6s}  "
        for op in ops:
            mark = FILLED if block.name in result.reached.get(op.op_id, []) else SKIPPED
            row += mark.ljust(width)
        lines.append(row)
    legend = (
        f"\n{FILLED} = block received the invocation's messages    "
        f"{SKIPPED} = messages stayed in transit (block skipped)"
    )
    lines.append(legend)
    return "\n".join(lines)


def render_partial_writes(blocks: Sequence[Block], reach: str) -> str:
    """Figure 1 / Figure 7-style diagram of one partial write ``wr_i``.

    ``reach`` names the blocks the write message reached, e.g.
    ``"B4,B5"``; everything else is in transit.
    """
    reached = {name.strip() for name in reach.split(",") if name.strip()}
    lines = ["        w"]
    for block in blocks:
        if len(block) == 0:
            continue
        mark = FILLED if block.name in reached else SKIPPED
        lines.append(f"{block.name:<6s}  {mark}")
    return "\n".join(lines)


def render_threshold_frontier(
    S_max: int = 16, t: int = 1, b: int = 0
) -> str:
    """A text plot of the feasibility frontier ``maxR(S)`` for fixed t, b.

    Rows are reader counts, columns server counts; ``F`` marks fast-
    feasible corners and ``x`` the impossible region — the visual form
    of the main theorem's table (experiment E7).
    """
    from repro.bounds.feasibility import fast_feasible

    S_values = list(range(t + 1, S_max + 1))
    R_max_display = max(2, (S_max - 2 * t - b) // max(t + b, 1) + 1)
    lines = ["R \\ S " + "".join(f"{S:3d}" for S in S_values)]
    for R in range(R_max_display, 1, -1):
        row = f"{R:4d}  "
        for S in S_values:
            row += "  F" if fast_feasible(S, t, R, b) else "  x"
        lines.append(row)
    lines.append(
        f"(t={t}, b={b}; F = fast implementation exists, x = impossible "
        "[Propositions 5/10])"
    )
    return "\n".join(lines)
