"""Tests for the executable Proposition 11 (Section 7)."""

import pytest

from repro.bounds.mwmr_construction import (
    run_mwmr_impossibility,
    run_sequential_family,
)
from repro.errors import InfeasibleConstructionError


class TestNaiveCandidateBroken:
    @pytest.mark.parametrize("S", [2, 3, 4, 5, 6, 8])
    def test_chain_finds_violation(self, S):
        result = run_mwmr_impossibility(S=S)
        assert result.violated, result.describe()

    def test_violation_certified_by_both_checkers(self):
        result = run_mwmr_impossibility(S=4)
        hit = result.first_violation
        assert hit is not None
        assert not hit.p1_p2.ok or not hit.linearizable.ok

    def test_sequential_family_also_breaks_naive(self):
        result = run_sequential_family(S=4, protocol="naive-fast-mwmr")
        assert result.violated
        assert result.first_violation.label.startswith("run1")
        assert run_sequential_family(S=5, protocol="naive-fast-mwmr").violated


class TestBaselinePasses:
    @pytest.mark.parametrize("S", [3, 4, 5])
    def test_two_round_mwmr_passes_sequential_family(self, S):
        result = run_sequential_family(S=S, protocol="mwmr")
        assert not result.violated, result.describe()
        # the family actually exercised both orders and all skip choices
        assert len(result.outcomes) == 2 * (S + 1)

    def test_read_values_follow_last_writer(self):
        result = run_sequential_family(S=4, protocol="mwmr")
        for outcome in result.outcomes:
            expected = 1 if outcome.label.startswith("run1") else 2
            assert outcome.read_values["r1"] == expected


class TestHarness:
    def test_rejects_single_writer_protocols(self):
        with pytest.raises(InfeasibleConstructionError):
            run_mwmr_impossibility(S=4, protocol="fast-crash")

    def test_rejects_tiny_systems(self):
        with pytest.raises(InfeasibleConstructionError):
            run_mwmr_impossibility(S=1)

    def test_describe_lists_runs(self):
        result = run_mwmr_impossibility(S=3)
        text = result.describe()
        assert "run^1" in text
        assert "Proposition 11" in text

    def test_read_value_table(self):
        result = run_mwmr_impossibility(S=3)
        table = result.read_value_table()
        assert table[0][0] == "run^1"
