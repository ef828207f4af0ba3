"""Tests for the executable Section 5 lower bound."""

import pytest

from repro.analysis.sweep import boundary_cases
from repro.bounds import run_crash_lower_bound
from repro.bounds.feasibility import construction_applies, fast_feasible
from repro.errors import InfeasibleConstructionError
from repro.spec.histories import BOTTOM


class TestBoundaryExamples:
    def test_introduction_example(self):
        """S=4, t=1, R=2: the introduction's 'two readers' scenario."""
        result = run_crash_lower_bound(S=4, t=1, R=2)
        assert result.violated
        assert result.read_results["r2 read #1"] == 1
        assert result.read_results["r1 read #2"] == BOTTOM

    def test_violation_is_condition_4(self):
        result = run_crash_lower_bound(S=4, t=1, R=2)
        assert "conditions 2/4" in result.verdict.reason

    def test_larger_t(self):
        assert run_crash_lower_bound(S=12, t=3, R=2).violated

    def test_more_readers(self):
        assert run_crash_lower_bound(S=10, t=2, R=3).violated

    def test_uneven_partition(self):
        assert run_crash_lower_bound(S=9, t=2, R=3).violated

    def test_exact_threshold(self):
        """S = (R+2)t exactly: the first infeasible point."""
        assert run_crash_lower_bound(S=8, t=2, R=2).violated


class TestFeasibleRegionRefused:
    def test_raises_inside_feasible_region(self):
        with pytest.raises(InfeasibleConstructionError):
            run_crash_lower_bound(S=9, t=1, R=2)

    def test_raises_for_t_zero(self):
        with pytest.raises(InfeasibleConstructionError):
            run_crash_lower_bound(S=4, t=0, R=2)

    def test_raises_for_single_reader(self):
        with pytest.raises(InfeasibleConstructionError):
            run_crash_lower_bound(S=3, t=1, R=1)


class TestSweep:
    @pytest.mark.parametrize(
        "S,t,R",
        [
            (4, 1, 2),
            (5, 1, 3),
            (6, 1, 4),
            (8, 2, 2),
            (10, 2, 3),
            (12, 3, 2),
            (15, 3, 3),
            (6, 2, 2),
            (7, 2, 2),
        ],
    )
    def test_violation_everywhere_beyond_threshold(self, S, t, R):
        assert construction_applies(S, t, R)
        result = run_crash_lower_bound(S=S, t=t, R=R)
        assert result.violated, result.describe()

    def test_boundary_pairs(self):
        """At every sampled boundary: feasible at R_ok, violated at R_bad."""
        for case in boundary_cases(range(4, 13), range(1, 4))[:10]:
            assert fast_feasible(case.S, case.t, case.R_ok)
            if case.R_bad >= 2:
                result = run_crash_lower_bound(S=case.S, t=case.t, R=case.R_bad)
                assert result.violated, (case, result.describe())


class TestEvidence:
    def test_history_contains_incomplete_write(self):
        result = run_crash_lower_bound(S=4, t=1, R=2)
        writes = result.history.writes
        assert len(writes) == 1
        assert not writes[0].complete

    def test_narrative_and_describe(self):
        result = run_crash_lower_bound(S=4, t=1, R=2)
        text = result.describe()
        assert "pr^A" in text
        assert "pr^C" in text
        assert "VIOLATION" in text

    def test_reached_blocks_recorded(self):
        result = run_crash_lower_bound(S=4, t=1, R=2)
        write_op = result.history.writes[0]
        assert result.reached[write_op.op_id] == ["B3"]  # B_{R+1}

    def test_intermediate_reads_left_incomplete(self):
        result = run_crash_lower_bound(S=10, t=2, R=3)
        reads = result.history.reads
        # r1 first read completes in pr^A; r2 stays incomplete; r3 completes
        by_proc = {}
        for op in reads:
            by_proc.setdefault(str(op.proc), []).append(op)
        assert by_proc["r2"][0].complete is False
        assert by_proc["r3"][0].complete
        assert all(op.complete for op in by_proc["r1"])

    def test_runs_against_regular_register_without_violating_regularity(self):
        """Bonus: the same schedule against the *regular* register is a
        legal regular run — the construction only kills atomicity."""
        from repro.spec.regularity import check_swmr_regularity

        result = run_crash_lower_bound(S=4, t=1, R=2, protocol="regular-fast")
        assert check_swmr_regularity(result.history).ok
        assert result.violated  # still not atomic
