"""Tests for the threshold-boundary cases."""

from repro.analysis.sweep import BoundaryCase, boundary_cases
from repro.bounds.feasibility import fast_feasible


class TestBoundaryCases:
    def test_cases_sit_on_frontier(self):
        for case in boundary_cases(range(4, 20), range(1, 4), b_values=(0, 1)):
            assert fast_feasible(case.S, case.t, case.R_ok, case.b)
            assert not fast_feasible(case.S, case.t, case.R_bad, case.b)

    def test_r_bad_always_at_least_two(self):
        for case in boundary_cases(range(3, 20), range(1, 5)):
            assert case.R_bad >= 2

    def test_min_ok_readers_filter(self):
        cases = boundary_cases(range(4, 30), range(1, 4), min_ok_readers=3)
        assert all(case.R_ok >= 3 for case in cases)

    def test_t_zero_excluded(self):
        cases = boundary_cases(range(4, 8), range(0, 2))
        assert all(case.t >= 1 for case in cases)

    def test_known_case_present(self):
        # S=5, t=1: maxR = 2 (needs S > 4); R_bad = 3
        cases = boundary_cases([5], [1])
        assert BoundaryCase(S=5, t=1, b=0, R_ok=2) in cases
