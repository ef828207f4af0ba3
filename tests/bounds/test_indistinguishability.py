"""Tests for the executable indistinguishability chain (Section 5)."""

import pytest

from repro.bounds import verify_crash_chain
from repro.errors import InfeasibleConstructionError
from repro.spec.histories import BOTTOM


class TestChainHolds:
    @pytest.mark.parametrize(
        "S,t,R",
        [(4, 1, 2), (5, 1, 3), (8, 2, 2), (9, 2, 3), (12, 3, 2), (6, 2, 2)],
    )
    def test_every_claim_holds(self, S, t, R):
        report = verify_crash_chain(S, t, R)
        assert report.all_hold, report.describe()

    def test_claim_count(self):
        report = verify_crash_chain(S=9, t=2, R=3)
        # R pairwise pr_i/◊pr_i claims + pr^A/pr^B + pr^C/pr^D
        assert len(report.claims) == 3 + 2

    def test_anchored_read_returns_written_value(self):
        """pr_1 contains a *complete* write, so atomicity forces r1's
        read to return 1 — the chain's anchor."""
        report = verify_crash_chain(S=4, t=1, R=2)
        assert report.anchored_value == 1

    def test_value_transported_to_diamond_r(self):
        report = verify_crash_chain(S=4, t=1, R=2)
        assert report.final_values[0] == 1  # r_R still returns 1

    def test_contradiction_materializes(self):
        """The chain's punchline: 1 transported through the claims, ⊥
        forced by the write-free twin."""
        report = verify_crash_chain(S=4, t=1, R=2)
        assert report.final_values == (1, BOTTOM)

    def test_views_are_nonempty(self):
        report = verify_crash_chain(S=8, t=2, R=2)
        for claim in report.claims:
            assert claim.left_view.acks
            assert len(claim.left_view.acks) == len(claim.right_view.acks)

    def test_describe_lists_claims(self):
        text = verify_crash_chain(S=4, t=1, R=2).describe()
        assert "pr_1 ~r1 ◊pr_1" in text
        assert "pr^C ~r1 pr^D" in text


class TestChainScope:
    def test_requires_impossible_regime(self):
        with pytest.raises(InfeasibleConstructionError):
            verify_crash_chain(S=9, t=1, R=2)

    def test_views_record_quorum_size(self):
        """Every completed read acted on exactly S - t acks."""
        S, t, R = 9, 2, 3
        report = verify_crash_chain(S, t, R)
        for claim in report.claims:
            # delivered replies may exceed the quorum (late acks are
            # ignored by the automaton) but never undershoot it
            assert len(claim.left_view.acks) >= S - t
