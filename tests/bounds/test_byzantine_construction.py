"""Tests for the executable Section 6.2 lower bound."""

import pytest

from repro.analysis.sweep import boundary_cases
from repro.bounds import run_byzantine_lower_bound
from repro.bounds.feasibility import construction_applies, fast_feasible
from repro.errors import InfeasibleConstructionError
from repro.spec.histories import BOTTOM


class TestBoundaryExamples:
    def test_minimal_byzantine_case(self):
        """S=7, t=1, b=1, R=2: exactly (R+2)t + (R+1)b = 7."""
        result = run_byzantine_lower_bound(S=7, t=1, b=1, R=2)
        assert result.violated
        assert result.read_results["r2 read #1"] == 1
        assert result.read_results["r1 read #2"] == BOTTOM

    def test_b_equals_t(self):
        # t=b=1, R=2: bound = 4 + 3 = 7
        assert run_byzantine_lower_bound(S=6, t=1, b=1, R=2).violated

    def test_larger_system(self):
        assert run_byzantine_lower_bound(S=13, t=2, b=1, R=3).violated

    def test_crash_degenerate_matches_section5(self):
        """b = 0 reduces to the Section 5 construction."""
        result = run_byzantine_lower_bound(S=8, t=2, b=0, R=2)
        assert result.violated

    def test_three_readers(self):
        assert run_byzantine_lower_bound(S=10, t=1, b=1, R=4).violated

    def test_b_widens_the_impossible_region(self):
        """S=11, t=2, R=2 is crash-feasible, (R+2)t = 8 < 11; one liar
        adds (R+1)b = 3, so 11 >= 11 and the construction applies."""
        assert not construction_applies(11, 2, 2, b=0)
        assert construction_applies(11, 2, 2, b=1)
        assert run_byzantine_lower_bound(S=11, t=2, b=1, R=2).violated


class TestFeasibleRegionRefused:
    def test_raises_inside_feasible_region(self):
        with pytest.raises(InfeasibleConstructionError):
            run_byzantine_lower_bound(S=8, t=1, b=1, R=2)  # 8 > 7
        feasible = [
            (S, t, b, R)
            for S in range(8, 16)
            for t in (1,)
            for b in (0, 1)
            for R in (2, 3)
            if not construction_applies(S, t, R, b)
        ]
        for S, t, b, R in feasible:
            with pytest.raises(InfeasibleConstructionError):
                run_byzantine_lower_bound(S=S, t=t, b=b, R=R)

    def test_raises_for_single_reader(self):
        with pytest.raises(InfeasibleConstructionError):
            run_byzantine_lower_bound(S=3, t=1, b=1, R=1)


class TestUnforgeabilityRespected:
    def test_liars_never_produce_new_timestamps(self):
        """The two-faced block only *withholds* information: every
        timestamp in the run is 0 or the writer's genuine 1."""
        result = run_byzantine_lower_bound(S=7, t=1, b=1, R=2)
        reads = [op for op in result.history.reads if op.complete]
        assert {op.result for op in reads} <= {BOTTOM, 1}

    def test_violation_does_not_need_signature_forgery(self):
        """The signed protocol is violated although signatures held:
        evidence that the bound is information-theoretic, not crypto."""
        result = run_byzantine_lower_bound(S=7, t=1, b=1, R=2)
        assert result.violated


#: Hand-picked points, then the whole impossible region of the
#: ``S < 15, t <= 2, b <= t, R <= 3`` grid (``b = 0`` included).
BEYOND_THRESHOLD = list(
    dict.fromkeys(
        [
            (7, 1, 1, 2),
            (6, 1, 1, 2),
            (9, 1, 1, 3),
            (11, 2, 1, 2),
            (14, 2, 2, 2),
            (8, 2, 0, 2),
            (13, 2, 1, 3),
        ]
        + [
            (S, t, b, R)
            for S in range(3, 15)
            for t in (1, 2)
            for b in (0, 1, 2)
            for R in (2, 3)
            if b <= t and t < S and construction_applies(S, t, R, b)
        ]
    )
)


class TestSweep:
    @pytest.mark.parametrize("S,t,b,R", BEYOND_THRESHOLD)
    def test_violation_beyond_threshold(self, S, t, b, R):
        assert construction_applies(S, t, R, b)
        result = run_byzantine_lower_bound(S=S, t=t, b=b, R=R)
        assert result.violated, result.describe()

    def test_boundary_pairs_byzantine(self):
        cases = boundary_cases(range(6, 16), range(1, 3), b_values=(1,))[:6]
        for case in cases:
            assert fast_feasible(case.S, case.t, case.R_ok, case.b)
            if case.R_bad >= 2:
                result = run_byzantine_lower_bound(
                    S=case.S, t=case.t, b=case.b, R=case.R_bad
                )
                assert result.violated, (case, result.describe())


class TestEvidence:
    def test_narrative_mentions_two_faced(self):
        result = run_byzantine_lower_bound(S=7, t=1, b=1, R=2)
        assert any("two-faced" in line for line in result.narrative)

    def test_write_reaches_only_pivots(self):
        result = run_byzantine_lower_bound(S=7, t=1, b=1, R=2)
        write_op = result.history.writes[0]
        assert set(result.reached[write_op.op_id]) == {"T3", "B3"}
