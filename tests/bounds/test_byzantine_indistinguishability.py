"""Tests for the executable Section 6.2 indistinguishability chain."""

import pytest

from repro.bounds import verify_byzantine_chain
from repro.errors import InfeasibleConstructionError
from repro.spec.histories import BOTTOM


class TestChainHolds:
    @pytest.mark.parametrize(
        "S,t,b,R",
        [
            (7, 1, 1, 2),
            (6, 1, 1, 2),
            (13, 2, 1, 3),
            (14, 2, 2, 2),
            (9, 1, 1, 3),
        ],
    )
    def test_every_claim_holds(self, S, t, b, R):
        report = verify_byzantine_chain(S, t, b, R)
        assert report.all_hold, report.describe()
        assert report.final_values == (1, BOTTOM)

    def test_degenerate_b_zero_matches_crash_chain(self):
        byz = verify_byzantine_chain(S=8, t=2, b=0, R=2)
        assert byz.all_hold
        assert byz.anchored_value == 1
        assert byz.final_values == (1, BOTTOM)

    def test_contradiction_materializes(self):
        report = verify_byzantine_chain(S=7, t=1, b=1, R=2)
        assert report.anchored_value == 1
        assert report.final_values == (1, BOTTOM)

    def test_claim_count(self):
        report = verify_byzantine_chain(S=13, t=2, b=1, R=3)
        assert len(report.claims) == 3 + 2

    def test_no_signature_forgery_needed(self):
        """Every timestamp any reader observed is 0 or the genuine 1:
        the adversary only destroyed information."""
        report = verify_byzantine_chain(S=7, t=1, b=1, R=2)
        for claim in report.claims:
            for view in (claim.left_view, claim.right_view):
                for fingerprint in view.acks:
                    assert fingerprint[1] in (0, 1)  # the ts field


class TestChainScope:
    def test_requires_impossible_regime(self):
        with pytest.raises(InfeasibleConstructionError):
            verify_byzantine_chain(S=8, t=1, b=1, R=2)  # 8 > 7: feasible

    def test_needs_two_readers(self):
        with pytest.raises(InfeasibleConstructionError):
            verify_byzantine_chain(S=3, t=1, b=1, R=1)
