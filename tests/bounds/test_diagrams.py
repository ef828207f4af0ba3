"""Tests for the ASCII block diagrams."""

from repro.bounds.blocks import partition_crash
from repro.bounds import run_crash_lower_bound
from repro.bounds.diagrams import (
    FILLED,
    SKIPPED,
    render_block_diagram,
    render_partial_writes,
    render_threshold_frontier,
)


class TestBlockDiagram:
    def test_renders_rows_and_columns(self):
        result = run_crash_lower_bound(S=4, t=1, R=2)
        diagram = render_block_diagram(result)
        for name in ("B1", "B2", "B3", "B4"):
            assert name in diagram
        assert "w1:w(1)" in diagram
        assert "r1:rd1" in diagram
        assert "r1:rd2" in diagram

    def test_write_column_matches_schedule(self):
        """The write column has exactly one filled cell: B_{R+1}."""
        result = run_crash_lower_bound(S=4, t=1, R=2)
        diagram = render_block_diagram(result)
        lines = [l for l in diagram.splitlines() if l.startswith("B")]
        write_cells = [line.split()[1] for line in lines]
        assert write_cells.count(FILLED) == 1
        assert write_cells.count(SKIPPED) == 3

    def test_legend_present(self):
        result = run_crash_lower_bound(S=4, t=1, R=2)
        assert "in transit" in render_block_diagram(result)


class TestPartialWrites:
    def test_reach_marked(self):
        blocks = partition_crash(S=8, t=2, R=2)
        diagram = render_partial_writes(blocks, reach="B3,B4")
        lines = {line.split()[0]: line for line in diagram.splitlines()[1:]}
        assert FILLED in lines["B3"]
        assert FILLED in lines["B4"]
        assert SKIPPED in lines["B1"]


class TestFrontier:
    def test_marks_match_feasibility(self):
        from repro.bounds.feasibility import fast_feasible

        text = render_threshold_frontier(S_max=8, t=1, b=0)
        assert "F" in text and "x" in text
        # spot-check one row: R=2 at S=5 is feasible, S=4 not
        row = next(l for l in text.splitlines() if l.strip().startswith("2 "))
        assert fast_feasible(5, 1, 2)
        assert not fast_feasible(4, 1, 2)

    def test_byzantine_frontier(self):
        text = render_threshold_frontier(S_max=10, t=1, b=1)
        assert "b=1" in text
