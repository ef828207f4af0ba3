"""Acceptance tests for bounded-exhaustive exploration and random walks.

These encode the paper's predictions as explorer outcomes: inside the
feasible region no schedule violates; beyond the threshold (and for the
deliberately broken implementations) the explorer finds, shrinks and
replays a concrete counterexample; the sleep-set reduction cuts the
explored state count by a large factor without losing violations.
"""

import pytest

from repro.errors import ScheduleError
from repro.explore import (
    ExploreScenario,
    explore,
    explore_parallel,
    random_walks,
    random_walks_parallel,
    replay_counterexample,
)
from repro.registers.base import ClusterConfig


class TestFeasibleRegionIsClean:
    """No bounded schedule breaks a faithful protocol within its bounds."""

    def test_fast_crash_exhaustive(self):
        result = explore(
            ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1)),
            depth=7,
        )
        assert result.complete
        assert result.stats.violations == 0
        assert result.stats.schedules > 1000

    def test_swsr_with_crashes_exhaustive(self):
        result = explore(
            ExploreScenario(
                "swsr-fast", ClusterConfig(S=3, t=1, R=1), crash_budget=1
            ),
            depth=8,
        )
        assert result.complete
        assert result.stats.violations == 0

    def test_abd_exhaustive(self):
        result = explore(
            ExploreScenario("abd", ClusterConfig(S=3, t=1, R=2)), depth=6
        )
        assert result.complete
        assert result.stats.violations == 0


class TestReductionIsEffectiveAndSound:
    def test_sleep_sets_prune_at_least_5x(self):
        # memoize=False isolates the sleep-set effect: with the memo on,
        # the unreduced run also collapses revisited states and the
        # transition ratio no longer measures the reduction alone.
        scenario = ExploreScenario(
            "swsr-fast", ClusterConfig(S=3, t=1, R=1), crash_budget=1
        )
        reduced = explore(scenario, depth=8, reduce=True, memoize=False)
        full = explore(scenario, depth=8, reduce=False, memoize=False)
        assert reduced.complete and full.complete
        ratio = full.stats.transitions / reduced.stats.transitions
        assert ratio >= 5.0, f"reduction only {ratio:.1f}x"
        assert reduced.stats.transitions == 6975
        assert full.stats.transitions == 39331
        assert reduced.stats.sleep_pruned > 0
        # soundness on this scenario: both agree there is no violation
        assert reduced.stats.violations == 0
        assert full.stats.violations == 0

    def test_reduction_preserves_violation_detection(self):
        scenario = ExploreScenario(
            "naive-fast-mwmr", ClusterConfig(S=2, t=1, R=1, W=2)
        )
        reduced = explore(scenario, depth=7, max_counterexamples=10 ** 6,
                          shrink=False)
        full = explore(scenario, depth=7, reduce=False,
                       max_counterexamples=10 ** 6, shrink=False)
        assert reduced.stats.violations > 0
        assert full.stats.violations > 0
        # every distinct *shrunk-free* counterexample key found with the
        # reduction also exists in the full enumeration
        reduced_keys = {ce.key() for ce in reduced.counterexamples}
        full_keys = {ce.key() for ce in full.counterexamples}
        assert reduced_keys <= full_keys


class TestBrokenProtocolsLose:
    def test_naive_mwmr_counterexample_shrinks_and_replays(self):
        result = explore(
            ExploreScenario("naive-fast-mwmr", ClusterConfig(S=2, t=1, R=1, W=2)),
            depth=8,
        )
        assert result.found_violation
        ce = result.counterexamples[0]
        # 1-minimal: a write, a read, and their two quorum choices
        assert len(ce.schedule) <= 6
        report = replay_counterexample(ce)
        assert report == {
            "history_identical": True,
            "verdict_identical": True,
            "violates": True,
        }

    def test_hasty_writer_found_by_random_walk(self):
        result = random_walks(
            ExploreScenario("fast-crash@hasty-writer", ClusterConfig(S=5, t=1, R=2)),
            depth=14,
            walks=400,
            seed=0,
        )
        assert result.found_violation
        assert replay_counterexample(result.counterexamples[0])["violates"]

    def test_eager_reader_found_by_quorum_walks(self):
        result = random_walks(
            ExploreScenario("fast-crash@eager-reader", ClusterConfig(S=5, t=1, R=2)),
            depth=16,
            walks=1500,
            seed=1,
            policy="quorum",
        )
        assert result.found_violation
        ce = result.counterexamples[0]
        # the shrunk schedule exhibits the two-reader inversion: an
        # incomplete write seen by the first reader, missed by the second
        assert any(label.startswith("serve:r1#1") for label in ce.schedule)
        assert any(label.startswith("serve:r2#1") for label in ce.schedule)
        assert replay_counterexample(ce)["history_identical"]

    def test_timid_reader_found_immediately(self):
        result = random_walks(
            ExploreScenario("fast-crash@timid-reader", ClusterConfig(S=4, t=1, R=1)),
            depth=10,
            walks=60,
            seed=0,
        )
        assert result.found_violation


class TestThresholdRederived:
    """The explorer recovers the paper's R < S/t - 2 frontier dynamically."""

    DEPTH = 16

    def test_beyond_threshold_violation_exists(self):
        # S=4, t=1, R=2 violates R < S/t - 2; the quorum walks find a
        # pr^C-shaped run (partial write, belated request delivery,
        # reader returning 1 before another read returns ⊥).
        scenario = ExploreScenario(
            "fast-crash", ClusterConfig(S=4, t=1, R=2), reads_per_reader=2
        )
        result = random_walks(
            scenario, depth=self.DEPTH, walks=1500, seed=4, policy="quorum"
        )
        assert result.found_violation
        ce = result.counterexamples[0]
        assert not ce.verdict.ok
        report = replay_counterexample(ce)
        assert report["violates"] and report["history_identical"]

    def test_within_threshold_same_bounds_clean(self):
        # One more server (S=5) restores R < S/t - 2: the identical
        # bounds and walk budget find nothing.
        scenario = ExploreScenario(
            "fast-crash", ClusterConfig(S=5, t=1, R=2), reads_per_reader=2
        )
        result = random_walks(
            scenario, depth=self.DEPTH, walks=1500, seed=4, policy="quorum"
        )
        assert not result.found_violation
        assert result.stats.schedules == 1500


class TestBudget:
    def test_transition_budget_truncates_and_flags(self):
        result = explore(
            ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1)),
            depth=7,
            max_transitions=500,
        )
        assert not result.complete
        assert result.stats.transitions <= 500

    @pytest.mark.parametrize(
        "search",
        [
            explore,
            explore_parallel,
            lambda scenario, **bounds: random_walks(scenario, walks=5, **bounds),
            lambda scenario, **bounds: random_walks_parallel(
                scenario, walks=5, **bounds
            ),
        ],
        ids=["explore", "explore_parallel", "walks", "walks_parallel"],
    )
    def test_bounds_that_search_nothing_are_rejected(self, search):
        """depth < 0 never reaches the leaf test (an unbounded search);
        a zero quota stops before the first node and reports "clean"."""
        scenario = ExploreScenario(
            "naive-fast-mwmr", ClusterConfig(S=2, t=1, R=1, W=2)
        )
        with pytest.raises(ScheduleError, match="depth must be >= 0"):
            search(scenario, depth=-1)
        with pytest.raises(ScheduleError, match="max_counterexamples must be"):
            search(scenario, depth=7, max_counterexamples=0)
        assert search(scenario, depth=0).stats.schedules >= 1


@pytest.mark.parametrize("policy", ["uniform", "quorum", "mixed"])
def test_random_walks_are_reproducible(policy):
    scenario = ExploreScenario(
        "fast-crash", ClusterConfig(S=4, t=1, R=1), crash_budget=1
    )
    first = random_walks(scenario, depth=10, walks=40, seed=7, policy=policy)
    second = random_walks(scenario, depth=10, walks=40, seed=7, policy=policy)
    assert first.stats.to_dict() == second.stats.to_dict()
