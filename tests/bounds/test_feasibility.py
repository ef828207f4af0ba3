"""Tests for the threshold algebra of the main theorems."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.bounds.feasibility import (
    construction_applies,
    fast_feasible,
    fast_read_possible,
    max_readers,
    min_servers,
    regular_fast_feasible,
    threshold_table,
)


class TestFastFeasible:
    def test_paper_example_two_readers(self):
        """R=2, t=1 needs S > 4 (the introduction's boundary example)."""
        assert not fast_feasible(S=4, t=1, R=2)
        assert fast_feasible(S=5, t=1, R=2)

    def test_crash_formula(self):
        # R < S/t - 2  <=>  S > (R+2) t
        assert fast_feasible(S=10, t=2, R=2)  # 10 > 8
        assert not fast_feasible(S=8, t=2, R=2)

    def test_byzantine_formula(self):
        # S > (R+2)t + (R+1)b
        assert fast_feasible(S=8, t=1, R=2, b=1)  # 8 > 7
        assert not fast_feasible(S=7, t=1, R=2, b=1)

    def test_t_zero_always_feasible(self):
        assert fast_feasible(S=2, t=0, R=1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            fast_feasible(S=0, t=0, R=1)
        with pytest.raises(ValueError):
            fast_feasible(S=3, t=3, R=1)
        with pytest.raises(ValueError):
            fast_feasible(S=5, t=1, R=1, b=2)


class TestFastReadPossible:
    def test_single_reader_special_case(self):
        """R=1 crash model: fast possible iff t < S/2, beating Figure 2."""
        assert fast_read_possible(S=5, t=2, R=1)
        assert not fast_feasible(S=5, t=2, R=1)  # Figure 2 alone needs S > 6
        assert max_readers(S=5, t=2) < 1
        assert not fast_read_possible(S=4, t=2, R=1)

    def test_zero_readers_trivial(self):
        assert fast_read_possible(S=2, t=1, R=0)

    def test_general_case_delegates(self):
        assert fast_read_possible(S=5, t=1, R=2) == fast_feasible(S=5, t=1, R=2)


class TestMaxReaders:
    def test_inverse_of_feasibility(self):
        for S in range(2, 25):
            for t in range(1, min(S, 5)):
                for b in range(0, t + 1):
                    r_max = max_readers(S, t, b)
                    assert not math.isinf(r_max)
                    r_max = int(r_max)
                    if r_max >= 0:
                        assert fast_feasible(S, t, r_max, b)
                    assert not fast_feasible(S, t, max(r_max + 1, 0), b)

    def test_unbounded_when_t_zero(self):
        assert math.isinf(max_readers(S=3, t=0))

    def test_paper_summary_examples(self):
        # S/t - 2 readers is the first infeasible count
        assert max_readers(S=10, t=1) == 7  # R < 10 - 2 = 8, so max 7
        assert max_readers(S=9, t=2, b=1) == 1  # R < (9+1)/3 - 2 = 1.33


class TestMinServers:
    def test_round_trip_with_max_readers(self):
        for R in range(2, 8):
            for t in range(1, 4):
                for b in range(0, t + 1):
                    S = min_servers(R, t, b)
                    assert fast_feasible(S, t, R, b)
                    assert not fast_feasible(S - 1, t, R, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            min_servers(R=2, t=1, b=2)


class TestConstructionApplies:
    def test_complement_of_feasible_in_scope(self):
        for S in range(3, 20):
            for t in range(1, 4):
                if t >= S:
                    continue
                for R in range(2, 8):
                    assert construction_applies(S, t, R) == (
                        not fast_feasible(S, t, R)
                    )

    def test_needs_two_readers(self):
        assert not construction_applies(S=3, t=1, R=1)

    def test_needs_faulty_servers(self):
        assert not construction_applies(S=3, t=0, R=5)


class TestRegularAndTable:
    def test_regular_majority(self):
        assert regular_fast_feasible(S=3, t=1)
        assert not regular_fast_feasible(S=2, t=1)
        # Section 8: wherever Figure 2 serves a reader the regular
        # register is fast too, and at S=5, t=2 only the regular one is
        rows = []
        for S in range(3, 16):
            for t in range(1, min(S, 5)):
                atomic_r = 0
                while fast_feasible(S, t, atomic_r + 1):
                    atomic_r += 1
                rows.append((S, t, regular_fast_feasible(S, t), atomic_r))
        for S, t, regular_ok, atomic_r in rows:
            if atomic_r >= 1:
                assert regular_ok
        assert (5, 2, True, 0) in rows

    def test_threshold_table_rows(self):
        rows = threshold_table(S_values=[4, 10], t_values=[1, 2], b_values=[0, 1])
        assert all(row.b <= row.t for row in rows)
        ten_one = next(row for row in rows if row.S == 10 and row.t == 1 and row.b == 0)
        assert ten_one.max_fast_readers == 7
        assert ten_one.regular_ok
        rows = threshold_table(
            S_values=range(3, 21), t_values=(1, 2, 3, 4), b_values=(0, 1, 2)
        )
        lookup = {(row.S, row.t, row.b): row.max_fast_readers for row in rows}
        assert lookup[(10, 1, 0)] == 7  # R < 10/1 - 2 = 8
        assert lookup[(20, 4, 0)] == 2  # R < 5 - 2 = 3
        assert lookup[(7, 1, 1)] == 1  # R < 8/2 - 2 = 2
        assert lookup[(20, 2, 2)] == 3  # R < 22/4 - 2 = 3.5

    def test_describe(self):
        rows = threshold_table(S_values=[6], t_values=[1])
        assert "max fast readers" in rows[0].describe()


@given(
    S=st.integers(min_value=2, max_value=60),
    t=st.integers(min_value=1, max_value=6),
    b=st.integers(min_value=0, max_value=6),
    R=st.integers(min_value=0, max_value=20),
)
def test_property_feasibility_monotone(S, t, b, R):
    """Feasibility is monotone: more servers help, more readers/faults hurt."""
    if t >= S or b > t:
        return
    if fast_feasible(S, t, R, b):
        assert fast_feasible(S + 1, t, R, b)
        if R > 0:
            assert fast_feasible(S, t, R - 1, b)
    else:
        assert not fast_feasible(S, t, R + 1, b)
